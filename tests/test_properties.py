"""Property tests for canonical labeling and rainbows over random small families."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowfree.canon import (
    are_isomorphic,
    canonical_form,
    canonical_relabeling,
    is_canonical,
)
from rainbowfree.family import MULTISET, SET, TriangleFamily
from rainbowfree.rainbow import find_rainbow, verify_certificate

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def families(draw, n=None):
    """Set or multiset families of up to 9 members on 3..8 vertices."""
    if n is None:
        n = draw(st.integers(3, 8))
    mode = draw(st.sampled_from((SET, MULTISET)))
    pool = list(itertools.combinations(range(n), 3))
    tris = draw(st.lists(st.sampled_from(pool), max_size=9, unique=True))
    mults = st.integers(1, 2) if mode == MULTISET else st.just(1)
    members = tuple(sorted((t, draw(mults)) for t in tris))
    return TriangleFamily(n, members, mode)


@st.composite
def relabeled_pairs(draw):
    """A family and its image under a random vertex permutation."""
    f = draw(families())
    perm = draw(st.permutations(range(f.n)))
    members = tuple(
        sorted((tuple(sorted(perm[v] for v in t)), m) for t, m in f.members)
    )
    return f, TriangleFamily(f.n, members, f.mode)


@PROPERTY
@given(relabeled_pairs())
def test_canonical_form_ignores_relabeling(pair):
    f, g = pair
    assert canonical_form(f) == canonical_form(g)


@PROPERTY
@given(families())
def test_canonical_image_is_canonical(f):
    _, image = canonical_relabeling(f)
    assert is_canonical(image)


@PROPERTY
@given(families())
def test_relabeling_map_carries_members_onto_image(f):
    mapping, image = canonical_relabeling(f)
    assert sorted(mapping) == list(range(f.n))
    assert sorted(mapping.values()) == list(range(f.n))
    carried = sorted(
        (tuple(sorted(mapping[v] for v in t)), m) for t, m in f.members
    )
    assert image.n == f.n
    assert tuple(carried) == image.members


same_n_pairs = st.integers(3, 8).flatmap(lambda n: st.tuples(families(n), families(n)))


@PROPERTY
@given(st.one_of(relabeled_pairs(), same_n_pairs))
def test_are_isomorphic_is_symmetric(pair):
    f, g = pair
    assert are_isomorphic(f, g) == are_isomorphic(g, f)


@PROPERTY
@given(relabeled_pairs())
def test_rainbow_existence_ignores_relabeling(pair):
    f, g = pair
    assert (find_rainbow(f) is None) == (find_rainbow(g) is None)


@PROPERTY
@given(families())
def test_rainbow_certificates_verify(f):
    cert = find_rainbow(f)
    if cert is not None:
        assert verify_certificate(f, cert)
