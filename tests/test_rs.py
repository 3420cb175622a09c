"""Multiset layer split and the forced consequences on the doubled layer."""

from __future__ import annotations

import itertools
import random

import pytest

from rainbowfree.cli import main
from rainbowfree.constructions import double, doubled_nine, t_star
from rainbowfree.family import (
    MULTISET,
    SET,
    TrifamError,
    family_from_triangles,
    serialize_family,
    union_graph,
)
from rainbowfree.rainbow import find_rainbow
from rainbowfree.rs import (
    bound_report,
    check_t2_constraints,
    decompose,
    unique_triangle_property,
)
from rainbowfree.search import max_family

from oracles import brute_has_rainbow, random_family


def _brute_edge_triangle_counts(g):
    counts = {}
    verts = range(g.n)
    for u, v in g.edges:
        counts[(u, v)] = sum(
            1
            for w in verts
            if w not in (u, v)
            and g.adj[u] >> w & 1
            and g.adj[v] >> w & 1
        )
    return counts


def test_doubled_nine_layers():
    f = doubled_nine()
    d = decompose(f)
    assert d.t1.size == 6 and d.t2.size == 6
    assert f.size == d.t1.size + d.t2.size == 12
    assert d.t1.mode == SET and d.t2.mode == SET
    assert set(d.t2.support) == set(d.t1.support)
    ok, notes = check_t2_constraints(d, f)
    assert ok and notes == ()
    assert unique_triangle_property(d.g2) == (True, None)
    assert len(d.g2.edges) == 18 == 3 * d.t2.size


def test_tstar8_union_graph_fails_unique_triangle():
    g = union_graph(t_star(8))
    held, bad = unique_triangle_property(g)
    assert not held and bad == (0, 1)


def test_single_doubled_triangle():
    f = family_from_triangles(5, [(0, 1, 2, 2)], MULTISET)
    d = decompose(f)
    assert d.t1.size == 1 and d.t2.size == 1
    assert check_t2_constraints(d, f)[0]
    assert unique_triangle_property(d.g2) == (True, None)


def test_all_single_copies_give_empty_t2():
    f = family_from_triangles(6, [(0, 1, 2), (3, 4, 5)], MULTISET)
    d = decompose(f)
    assert d.t1.size == 2 and d.t2.size == 0
    assert d.g2.edges == ()
    assert check_t2_constraints(d, f) == (True, ())
    assert unique_triangle_property(d.g2) == (True, None)


def test_mixed_multiplicities_split():
    f = family_from_triangles(6, [(0, 1, 2, 2), (3, 4, 5, 1)], MULTISET)
    d = decompose(f)
    assert d.t1.support == ((0, 1, 2), (3, 4, 5))
    assert d.t2.support == ((0, 1, 2),)
    assert f.size == d.t1.size + d.t2.size == 3


def test_decompose_rejects_set_mode():
    with pytest.raises(TrifamError, match="multiset"):
        decompose(family_from_triangles(4, [(0, 1, 2)], SET))


def test_multiplicity_cap_guards_decompose_input():
    with pytest.raises(TrifamError, match="outside"):
        family_from_triangles(4, [(0, 1, 2, 3)], MULTISET)


def test_shared_edge_diagnostic():
    f = family_from_triangles(4, [(0, 1, 2, 2), (0, 1, 3, 2)], MULTISET)
    d = decompose(f)
    ok, notes = check_t2_constraints(d, f)
    assert not ok
    assert any(
        "edge (0, 1) shared by members (0, 1, 2) and (0, 1, 3)" in s for s in notes
    )
    # the original family has a rainbow, so no internal-error note
    assert find_rainbow(f) is not None
    assert not any("internal error" in s for s in notes)


def test_extra_union_triangle_diagnostic():
    # edge-disjoint doubled members whose union creates triangle (0,2,4)
    f = family_from_triangles(
        6, [(0, 1, 2, 2), (2, 3, 4, 2), (0, 4, 5, 2)], MULTISET
    )
    d = decompose(f)
    ok, notes = check_t2_constraints(d, f)
    assert not ok
    assert notes[0] == "union graph triangle (0, 2, 4) is not a member"
    assert not any("shared by" in s for s in notes)


def test_unique_triangle_against_brute_counts():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(3, 9)
        f = random_family(rng, n, 5, SET)
        g = union_graph(f)
        counts = _brute_edge_triangle_counts(g)
        held, bad = unique_triangle_property(g)
        if held:
            assert all(c == 1 for c in counts.values())
            assert bad is None
        else:
            offenders = sorted(e for e, c in counts.items() if c != 1)
            assert bad == offenders[0]


def test_t2_constraints_are_the_unique_triangle_property():
    # on any doubled layer, "members edge-disjoint and no other triangle
    # in their union graph" is "every edge lies in exactly one triangle",
    # whether or not the family has a rainbow; a rainbow-free family
    # never violates them
    rng = random.Random(24)
    kinds = {}
    for _ in range(3000):
        f = random_family(rng, rng.randint(3, 9), 10, MULTISET)
        d = decompose(f)
        ok = check_t2_constraints(d, f)[0]
        assert ok == unique_triangle_property(d.g2)[0], f.members
        kind = (ok, find_rainbow(f) is None)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {(True, True), (True, False), (False, False)}
    assert min(kinds.values()) >= 300


def test_size_preserved_on_random_multisets():
    rng = random.Random(91)
    for _ in range(200):
        f = random_family(rng, rng.randint(4, 9), 6, MULTISET)
        d = decompose(f)
        assert f.size == d.t1.size + d.t2.size
        assert set(d.t2.support) <= set(d.t1.support)
        assert d.t1.size == len(f.support)


def test_consequences_hold_on_search_witnesses():
    for n in (4, 5, 6):
        r = max_family(n, mode=MULTISET)
        assert r.completed
        for f in r.witnesses:
            assert find_rainbow(f) is None
            d = decompose(f)
            ok, notes = check_t2_constraints(d, f)
            assert ok, notes
            assert unique_triangle_property(d.g2) == (True, None)
            assert len(d.g2.edges) == 3 * d.t2.size


def test_consequences_hold_on_doubled_constructions():
    f = double(family_from_triangles(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)], SET))
    assert find_rainbow(f) is None
    d = decompose(f)
    assert check_t2_constraints(d, f) == (True, ())
    assert unique_triangle_property(d.g2) == (True, None)


def _doubled_gq22():
    """The generalized quadrangle GQ(2,2) with each line taken twice: its
    points are the 15 pairs of {0..5}, its lines the 15 perfect matchings
    of K6, each matching a triangle on its three pairs."""
    points = list(itertools.combinations(range(6), 2))
    lines = [
        tuple(sorted(points.index(p) for p in matching))
        for matching in itertools.combinations(points, 3)
        if len({v for p in matching for v in p}) == 6
    ]
    assert len(lines) == 15
    return double(family_from_triangles(15, lines, SET))


def test_doubled_gq22_beats_n_squared_over_8(tmp_path, capsys):
    # multiset m(15) >= 30 > 225 // 8 = 28, checked without the search
    f = _doubled_gq22()
    assert f.mode == MULTISET and f.size == 30 > 15 * 15 // 8
    assert not brute_has_rainbow(f)
    assert find_rainbow(f) is None
    path = tmp_path / "gq22.trifam"
    path.write_text(serialize_family(f))
    assert main(["rs", str(path), "--porcelain"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "t2-constraints=true" in out and "unique-triangle=true" in out


def test_bound_report_doubled_nine():
    d = decompose(doubled_nine())
    assert bound_report(d) == (
        "n = 9\n"
        "|T1| = 6 (bound n^2/8 = 81/8: holds)\n"
        "|T2| = 6\n"
        "|E(G2)| = 18 (3|T2| = 18: holds)\n"
        "total = |T1| + |T2| = 12\n"
        "note: the subquadratic slack in the size bound is asymptotic"
        " and is not checked numerically\n"
    )


def test_bound_report_flags_violations():
    f = family_from_triangles(
        4, [(0, 1, 2, 2), (0, 1, 3, 2), (0, 2, 3, 1)], MULTISET
    )
    report = bound_report(decompose(f))
    assert "|T1| = 3 (bound n^2/8 = 16/8: exceeded)" in report
    assert "(3|T2| = 6: violated)" in report
    assert "total = |T1| + |T2| = 5" in report
