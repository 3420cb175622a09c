"""Built-in families: pair constructions, doubling, the 9-vertex support."""

from __future__ import annotations

import itertools

import pytest

from rainbowfree.canon import are_isomorphic
from rainbowfree.constructions import (
    DOUBLED_9_SUPPORT,
    double,
    doubled_nine,
    doubled_nine_support,
    is_tstar_family,
    pair_family,
    t_star,
)
from rainbowfree.family import (
    MAX_MEMBERS,
    MULTISET,
    TrifamError,
    VertexLimitError,
    family_from_triangles,
    triangle_edges,
    union_graph,
)
from rainbowfree.rainbow import has_rainbow

from oracles import brute_has_rainbow


def test_pair_family_layout():
    f = pair_family(5, 1, 3)
    assert f.members == (((0, 1, 2), 1), ((0, 1, 3), 1), ((0, 1, 4), 1))
    f = pair_family(7, 2, 3)
    assert f.size == 6
    assert all(t[:2] in ((0, 1), (2, 3)) for t, _ in f.members)
    assert all(t[2] >= 4 for t, _ in f.members)


def test_pair_family_validation():
    with pytest.raises(TrifamError):
        pair_family(5, 0, 3)
    with pytest.raises(TrifamError):
        pair_family(5, 1, 0)
    with pytest.raises(TrifamError):
        pair_family(5, 2, 2)  # 2 pairs + 2 apexes > 5 vertices


def test_pair_family_sweep_is_rainbow_free():
    for pairs in range(1, 4):
        for apexes in range(1, 6):
            n = 2 * pairs + apexes
            f = pair_family(n, pairs, apexes)
            assert f.size == pairs * apexes
            assert not has_rainbow(f)
            assert not brute_has_rainbow(f)


def test_t_star_sizes_and_freeness():
    for n in range(4, 41, 4):
        f = t_star(n)
        assert 8 * f.size == n * n
        assert has_rainbow(f) is False
    assert t_star(8).size == 8


def test_member_limit():
    # t_star(60) has 450 members, far below the limit, and is built as before
    f = t_star(60)
    assert f.members == tuple(
        ((2 * i, 2 * i + 1, a), 1) for i in range(15) for a in range(30, 60)
    )
    # one pair past the limit is refused before any member is built
    with pytest.raises(VertexLimitError, match=f"must be <= {MAX_MEMBERS}, got 1000002$"):
        pair_family(1_000_000, 2, 500_001)


def test_t_star_validation():
    for bad in (0, 3, 6, 10):
        with pytest.raises(TrifamError):
            t_star(bad)


def test_t_star_structure_n8():
    f = t_star(8)
    assert f.members == tuple(
        ((2 * i, 2 * i + 1, a), 1) for i in range(2) for a in range(4, 8)
    )


def test_double_contract():
    f = family_from_triangles(6, [(0, 1, 2), (3, 4, 5)])
    d = double(f)
    assert d.mode == MULTISET
    assert d.size == 4
    assert all(m == 2 for _, m in d.members)
    with pytest.raises(TrifamError):
        double(d)  # already multiset


def test_doubled_nine_frozen_support():
    s = doubled_nine_support()
    assert s.members == tuple((t, 1) for t in DOUBLED_9_SUPPORT)
    # pairwise edge-disjoint: 6 members, 18 distinct edges
    edges = [e for t, _ in s.members for e in triangle_edges(t)]
    assert len(edges) == len(set(edges)) == 18
    # the union graph has no triangles beyond the members
    g = union_graph(s)
    tris = [
        (a, b, c)
        for a, b, c in itertools.combinations(range(9), 3)
        if (a, b) in g.owners and (a, c) in g.owners and (b, c) in g.owners
    ]
    assert tris == sorted(s.support)


def test_doubled_nine_is_rainbow_free_size_12():
    d = doubled_nine()
    assert d.n == 9 and d.size == 12
    assert all(m == 2 for _, m in d.members)
    assert not has_rainbow(d)
    assert not brute_has_rainbow(d)


def test_is_tstar_family_matches_isomorphism():
    for n in (4, 8, 12):
        assert is_tstar_family(t_star(n))
    import random

    rng = random.Random(77)
    for n in (4, 8):
        ts = t_star(n)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            members = [
                tuple(sorted((perm[a], perm[b], perm[c])))
                for (a, b, c), _ in ts.members
            ]
            g = family_from_triangles(n, members)
            assert is_tstar_family(g)
            assert are_isomorphic(g, ts)


def test_is_tstar_family_accepts_pair_family_alias():
    # 2 pairs and 4 apexes on 8 vertices is the same construction
    assert is_tstar_family(pair_family(8, 2, 4))


def test_is_tstar_family_rejects_near_misses():
    f = t_star(8)
    # swap one member for a different triangle of the same size
    members = [t for t, _ in f.members[:-1]] + [(0, 2, 4)]
    g = family_from_triangles(8, members)
    assert not is_tstar_family(g)
    assert not is_tstar_family(family_from_triangles(8, [(0, 1, 2)]))
    assert not is_tstar_family(doubled_nine_support())  # n=9, wrong shape
    assert not is_tstar_family(pair_family(9, 2, 5))  # size 10 != 81/8
    d = family_from_triangles(8, [t + (2,) for t, _ in t_star(8).members[:4]], MULTISET)
    assert not is_tstar_family(d)  # doubled members disqualify
