"""Canonical labeling and isomorphism, cross-checked by permutation."""

from __future__ import annotations

import random

from rainbowfree.canon import (
    are_isomorphic,
    canonical_form,
    canonical_relabeling,
    is_canonical,
)
from rainbowfree.cli import OK, main
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
        assert _permuted(f, [mapping[v] for v in range(f.n)]).same_family(g)
        assert is_canonical(g)
        again, h = canonical_relabeling(g)
        assert h.same_family(g)
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
