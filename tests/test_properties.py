"""Property tests for canonical labeling and rainbows over random small
families, and fuzz tests of the TRIFAM and checkpoint readers."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowfree.canon import (
    are_isomorphic,
    canonical_form,
    canonical_relabeling,
    is_canonical,
)
from rainbowfree.family import (
    MULTISET,
    SET,
    TriangleFamily,
    TrifamError,
    parse_family,
)
from rainbowfree.rainbow import find_rainbow, verify_certificate
from rainbowfree.search import SearchConfig, SearchError, resume_search, run_search

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


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


# -- fuzzing the readers: malformed input raises the reader's own error

# small ints keep a mutated checkpoint's search small; the huge ones hit
# the vertex and search limits
INTS = ("0", "1", "2", "3", "4", "5", "7", "-1", "-7", "4000000000", str(10**20))
TRIFAM_TOKENS = INTS + (
    "trifam", "mode", "set", "multiset", "n", "x2", "x3", "x0", "x\u00b2", "#",
)
CKPT_TOKENS = INTS + (
    "ckpt", "n", "mode", "set", "multiset", "bag", "target", "maximize", "prove",
    "enumerate", "prove_k", "done", "found", "nodes", "best", "prefix",
    "witnesses", "witness", "trifam", "x2", "#",
)


def token_lines(tokens):
    return st.lists(st.sampled_from(tokens), max_size=5).map(" ".join)


@st.composite
def trifam_texts(draw):
    """A well-formed or token-soup header, then member lines of either kind."""
    garbage = token_lines(TRIFAM_TOKENS)
    if draw(st.booleans()):
        mode = draw(st.sampled_from((SET, MULTISET)))
        lines = ["trifam 1", f"mode {mode}", "n " + draw(st.sampled_from(INTS))]
    else:
        lines = draw(st.lists(garbage, min_size=3, max_size=3))
    member = st.lists(st.sampled_from(INTS), min_size=3, max_size=3).map(" ".join)
    suffix = st.sampled_from(("", " x2", " x3", " x0", " x\u00b2"))
    members = st.builds("".join, st.tuples(member, suffix))
    lines += draw(st.lists(st.one_of(members, garbage), max_size=6))
    return "\n".join(lines)


@FUZZ
@given(trifam_texts())
def test_parse_family_raises_only_trifam_error(text):
    try:
        parse_family(text)
    except TrifamError:
        pass


@pytest.fixture(scope="module")
def checkpoint_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "base.ckpt"
    cfg = SearchConfig(n=7, mode=MULTISET, node_limit=3, checkpoint_path=str(path))
    run_search(cfg)
    return path.read_text().splitlines()


@st.composite
def line_edits(draw):
    """(kind, line position, text): a new last token, or a line replaced,
    inserted, deleted or repeated."""
    kinds = ("value", "value", "replace", "insert", "delete", "repeat")
    kind = draw(st.sampled_from(kinds))
    tokens = st.sampled_from(CKPT_TOKENS)
    text = draw(tokens if kind == "value" else token_lines(CKPT_TOKENS))
    return kind, draw(st.integers(1, 40)), text


@FUZZ
@given(edits=st.lists(line_edits(), min_size=1, max_size=3))
def test_resume_search_raises_only_search_or_trifam_error(
    checkpoint_lines, tmp_path_factory, edits
):
    lines = list(checkpoint_lines)
    for kind, pos, new in edits:
        i = pos % len(lines)
        if kind == "value":
            lines[i] = " ".join(lines[i].split()[:-1] + [new])
        elif kind == "replace":
            lines[i] = new
        elif kind == "insert":
            lines.insert(i, new)
        elif kind == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_text("\n".join(lines) + "\n")
    try:
        resume_search(str(path), node_limit=50)
    except (SearchError, TrifamError):
        pass
