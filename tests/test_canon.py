"""Canonical labeling and isomorphism, cross-checked by permutation."""

from __future__ import annotations

import random
import tracemalloc
from collections import defaultdict

from rainbowfree._accel import member_codes, min_labeling
from rainbowfree.canon import (
    _degrees,
    _rows,
    are_isomorphic,
    canonical_form,
    canonical_relabeling,
    is_canonical,
)
from rainbowfree.cli import OK, main
from rainbowfree.constructions import is_tstar_family, t_star
from rainbowfree.family import (
    MULTISET,
    SET,
    TriangleFamily,
    family_from_triangles,
    serialize_family,
)

from oracles import brute_are_isomorphic, random_family


def _permuted(f, perm):
    members = [
        tuple(sorted((perm[a], perm[b], perm[c]))) + (m,)
        for (a, b, c), m in f.members
    ]
    return family_from_triangles(f.n, members, f.mode)


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(907)
    for _ in range(150):
        n = rng.randint(3, 8)
        f = random_family(rng, n, 6, rng.choice((SET, MULTISET)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(f) == canonical_form(_permuted(f, perm))


def test_canonical_relabeling_fixed_point():
    rng = random.Random(908)
    for _ in range(100):
        f = random_family(rng, rng.randint(3, 8), 6, MULTISET)
        mapping, g = canonical_relabeling(f)
        assert set(mapping) == set(range(f.n))
        assert sorted(_permuted(f, [mapping[v] for v in range(f.n)]).members) == list(g.members)
        assert is_canonical(g)
        again, h = canonical_relabeling(g)
        assert h == g
        assert canonical_form(g) == canonical_form(f)


def test_canonical_labels_are_contiguous():
    # support vertices of a canonical family fill 0..s-1
    rng = random.Random(909)
    for _ in range(100):
        f = random_family(rng, rng.randint(3, 9), 5, SET)
        _, g = canonical_relabeling(f)
        verts = g.support_vertices()
        assert verts == tuple(range(len(verts)))


def test_are_isomorphic_matches_brute_force():
    rng = random.Random(910)
    pos = neg = 0
    for _ in range(120):
        n = rng.randint(3, 6)
        mode = rng.choice((SET, MULTISET))
        f = random_family(rng, n, 5, mode)
        g = random_family(rng, n, 5, mode)
        want = brute_are_isomorphic(f, g)
        assert are_isomorphic(f, g) == want
        pos += want
        neg += not want
    assert neg > 20  # the sample actually exercises the negative path


def test_are_isomorphic_on_shuffled_copies():
    rng = random.Random(911)
    for _ in range(120):
        n = rng.randint(3, 8)
        f = random_family(rng, n, 6, rng.choice((SET, MULTISET)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(f, _permuted(f, perm))


def test_mode_does_not_change_the_form():
    f = family_from_triangles(5, [(0, 1, 2), (1, 2, 3)], SET)
    g = family_from_triangles(5, [(0, 1, 2, 1), (1, 2, 3, 1)], MULTISET)
    assert canonical_form(f) == canonical_form(g)
    assert are_isomorphic(f, g)


def test_different_n_not_isomorphic():
    f = family_from_triangles(4, [(0, 1, 2)])
    g = family_from_triangles(5, [(0, 1, 2)])
    assert not are_isomorphic(f, g)


def test_member_less_family(tmp_path, capsys):
    # the labeling walk of an empty support returns no labels and accepts
    f = TriangleFamily(5, ())
    mapping, g = canonical_relabeling(f)
    assert mapping == {v: v for v in range(5)} and g == f
    assert canonical_form(f) == b"cf1 5 "
    assert is_canonical(f)
    assert are_isomorphic(f, TriangleFamily(5, ()))
    assert not are_isomorphic(f, TriangleFamily(6, ()))
    path = tmp_path / "empty.trifam"
    path.write_text(serialize_family(f))
    assert main(["canon", str(path)]) == OK
    assert capsys.readouterr().out == serialize_family(f)


def _screened_pairs(seed):
    """Pairs of random families on the same n whose degree rows agree, so
    that are_isomorphic decides them by its labeling walks."""
    rng = random.Random(seed)
    buckets = defaultdict(list)
    for _ in range(600):
        n = rng.randint(4, 7)
        f = random_family(rng, n, 6, rng.choice((SET, MULTISET)))
        if f.members:
            buckets[n, tuple(map(tuple, _degrees(f)))].append(f)
    return [pair for fams in buckets.values() for pair in zip(fams, fams[1:])]


def _canonical_codes(f):
    _, g = canonical_relabeling(f)
    return member_codes(_rows(g), g.n)


def test_screened_pairs_match_brute_force():
    pos = neg = 0
    for f, g in _screened_pairs(912):
        want = brute_are_isomorphic(f, g)
        assert are_isomorphic(f, g) == want
        assert are_isomorphic(g, f) == want
        pos += want
        neg += not want
    assert pos > 20 and neg > 20  # both answers come from the walks


def test_target_walk_compares_the_minimum_with_the_target():
    # 0, 1, 2: the walk's minimum is below, equal to or above the target
    seen = set()
    for f, g in _screened_pairs(913):
        for a, b in ((f, g), (g, f)):
            target = _canonical_codes(a)
            mine = _canonical_codes(b)
            lab: list[int] = []
            got = min_labeling(_rows(b), b.n, lab, target)
            assert got == (mine > target) - (mine < target) + 1
            # the labeling left in lab has the codes that decided the walk
            image = sorted((tuple(sorted(lab[v] for v in t)), m) for t, m in b.members)
            codes = member_codes([(*t, m) for t, m in image], b.n)
            if got == 1:
                assert codes == target
            elif got == 0:
                assert codes < target
            else:
                assert codes == mine
            seen.add(got)
    assert seen == {0, 1, 2}


def test_are_isomorphic_agrees_with_canonical_forms():
    rng = random.Random(914)
    for _ in range(300):
        n = rng.randint(3, 8)
        mode = rng.choice((SET, MULTISET))
        f = random_family(rng, n, 7, mode)
        perm = list(range(n))
        rng.shuffle(perm)
        for g in (random_family(rng, n, 7, mode), _permuted(f, perm)):
            assert are_isomorphic(f, g) == (canonical_form(f) == canonical_form(g))


def _rewired(n):
    """t_star(n)'s pairs (2i, 2i+1) on the first half of its apexes, and
    the pairs (4j, 4j+2), (4j+1, 4j+3) on the second half (8 divides n)."""
    h, q = n // 2, n // 4
    tris = [(2 * i, 2 * i + 1, a) for i in range(q) for a in range(h, h + q)]
    pairs = [p for j in range(n // 8) for p in ((4 * j, 4 * j + 2), (4 * j + 1, 4 * j + 3))]
    tris += [(u, v, a) for u, v in pairs for a in range(h + q, n)]
    return family_from_triangles(n, tris)


def test_rewired_tstar_is_refused_in_both_orders():
    # same degree rows as t_star, so only the walks can tell them apart
    rng = random.Random(915)
    perm = list(range(16))
    rng.shuffle(perm)
    t = _permuted(t_star(16), perm)
    r = _rewired(16)
    assert _degrees(r) == _degrees(t) and not is_tstar_family(r)
    assert not are_isomorphic(t, r)
    assert not are_isomorphic(r, t)
    rng.shuffle(perm)
    assert are_isomorphic(r, _permuted(r, perm))


def test_canonical_relabeling_records_stay_small():
    # the dives' records share a list among equal bound vectors and keep
    # only a marker for a choice already above the dive's labeling: about
    # 0.36 MB here, against 1.2 MB for a list per recorded choice
    g = _permuted(t_star(32), [7 * v % 32 for v in range(32)])
    tracemalloc.start()
    try:
        canonical_relabeling(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 800_000
