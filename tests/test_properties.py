"""Property tests for canonical labeling and rainbows over random small
families, and fuzz tests of the TRIFAM and checkpoint readers and of the
command line."""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import random
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowfree._accel as accel_module
from rainbowfree._accel import _bounds, is_min_labeled, member_codes, min_labeling
from rainbowfree.canon import (
    are_isomorphic,
    canonical_form,
    canonical_relabeling,
    is_canonical,
)
from rainbowfree.cli import main
from rainbowfree.constructions import doubled_nine, pair_family, t_star
from rainbowfree.family import (
    MULTISET,
    SET,
    TriangleFamily,
    TrifamError,
    parse_family,
    serialize_family,
)
from rainbowfree.rainbow import find_rainbow, verify_certificate
from rainbowfree.search import SearchConfig, SearchError, resume_search, run_search

from oracles import brute_child_minima, random_family

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


def brute_canonical(f):
    """First label path over itertools.permutations that minimizes the
    sorted member sequence: path[l] is the support position labeled l.

    Returns the vertex map canonical_relabeling must give (isolated
    vertices take the spare labels in ascending order) and the minimum.
    """
    sup = sorted({v for t, _ in f.members for v in t})
    best = best_path = None
    for path in itertools.permutations(range(len(sup))):
        lab = {sup[p]: l for l, p in enumerate(path)}
        seq = sorted((*sorted(lab[v] for v in t), m) for t, m in f.members)
        if best is None or seq < best:
            best, best_path = seq, path
    mapping = {sup[p]: l for l, p in enumerate(best_path or ())}
    spare = iter(range(len(sup), f.n))
    for v in range(f.n):
        if v not in mapping:
            mapping[v] = next(spare)
    return mapping, best


@PROPERTY
@given(st.integers(3, 7).flatmap(families))
def test_canonical_labeling_matches_brute_force(f):
    mapping, _ = canonical_relabeling(f)
    want, best = brute_canonical(f)
    assert mapping == want
    identity = sorted((*t, m) for t, m in f.members)
    assert is_canonical(f) == (identity == best)


def brute_automorphisms(f):
    """Every permutation of support positions carrying the members onto
    themselves: g[i] is the position support position i goes to."""
    sup = sorted({v for t, _ in f.members for v in t})
    pos = {v: i for i, v in enumerate(sup)}
    members = sorted(f.members)
    return [
        list(g)
        for g in itertools.permutations(range(len(sup)))
        if sorted((tuple(sorted(sup[g[pos[v]]] for v in t)), m) for t, m in members) == members
    ]


@PROPERTY
@given(st.integers(3, 7).flatmap(families), st.randoms(use_true_random=False))
def test_seeded_canonicity_walks_keep_the_verdict(f, rnd):
    # seeds drawn from the true automorphisms leave the verdict as brute
    # force finds it, and an accepting walk hands back only automorphisms
    _, image = canonical_relabeling(f)
    _, best = brute_canonical(f)  # the image's minimum too
    for g in (f, image):
        mem = sorted((*t, m) for t, m in g.members)
        want = int(mem == best)
        auts = brute_automorphisms(g)
        cap = 2 * len({v for t, _ in g.members for v in t}) + 8
        seed = rnd.sample(auts, rnd.randint(0, min(len(auts), cap)))
        for s in ((), seed):
            gens = []
            assert is_min_labeled(mem, g.n, s, gens) == want
            assert len(gens) <= cap
            assert all(h in auts for h in gens)
            if want:
                assert all(h in gens for h in s)


@PROPERTY
@given(st.integers(3, 7).flatmap(families), st.randoms(use_true_random=False))
def test_frontier_children_hold_every_minimal_completion(f, rnd):
    # the labeling DFS gives label l only to the frontier _bounds returns:
    # a child on it reaches the node's final codes followed by the least
    # bound lb, and every child off it is strictly above that, so the
    # least completion is on the frontier and none off it ties it
    rows = sorted((*t, m) for t, m in f.members)
    sup = sorted({v for t, _ in f.members for v in t})
    if not sup:
        return
    l = rnd.randrange(len(sup))
    lab = [-1] * f.n
    for i, v in enumerate(rnd.sample(sup, l)):
        lab[v] = i
    vec, lb, front = _bounds(rows, lab, l, f.n + 2)
    p = bisect_left(vec, lb)
    child = brute_child_minima(rows, lab)
    on = {v for v in child if front >> v & 1}
    assert front == sum(1 << v for v in on)
    least = min(child.values())
    assert on and min(child[v] for v in on) == least
    for v, seq in child.items():
        codes = member_codes(seq, f.n)
        assert codes[:p] == vec[:p]
        assert (codes[p] == lb) == (v in on)
        if v not in on:
            assert all(seq > child[u] for u in on)


@PROPERTY
@given(st.integers(3, 7).flatmap(families), st.randoms(use_true_random=False))
def test_least_frontier_position_is_least_in_its_orbit(f, rnd):
    # the labeling DFS takes a new prefix's first child, its least frontier
    # position, with no orbit work: the automorphisms fixing the prefix map
    # the frontier onto itself, so no smaller position shares its orbit
    _, image = canonical_relabeling(f)
    rows = sorted((*t, m) for t, m in image.members)
    s = len({v for t, _ in image.members for v in t})
    gens = []
    assert is_min_labeled(rows, image.n, (), gens) == 1
    if not s:
        return
    # the image's support is 0..s-1, so positions are vertices; the prefix
    # goes through the frontier like the walk's
    lab = [-1] * image.n
    prefix = []
    for l in range(rnd.randrange(s)):
        front = _bounds(rows, lab, l, image.n + 2)[2]
        v = rnd.choice([u for u in range(s) if front >> u & 1])
        lab[v] = l
        prefix.append(v)
    front = _bounds(rows, lab, len(prefix), image.n + 2)[2]
    least = (front & -front).bit_length() - 1
    for group in (gens, brute_automorphisms(image)):
        fixing = [g for g in group if all(g[v] == v for v in prefix)]
        orbit, todo = {least}, [least]
        while todo:
            u = todo.pop()
            for g in fixing:
                if g[u] not in orbit:
                    orbit.add(g[u])
                    todo.append(g[u])
        assert min(orbit) == least
        assert all(front >> u & 1 for u in orbit)


@st.composite
def partial_labelings(draw):
    """Member rows on 3..12 vertices, the support possibly with gaps, and
    labels 0..l-1 on l of its vertices: a node of a labeling walk."""
    n = draw(st.integers(3, 12))
    pool = list(itertools.combinations(range(n), 3))
    tris = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    rows = sorted((*t, draw(st.integers(1, 2))) for t in tris)
    sup = sorted({v for t in tris for v in t})
    prefix = draw(st.permutations(sup))[: draw(st.integers(0, len(sup)))]
    lab = [-1] * n
    for l, v in enumerate(prefix):
        lab[v] = l
    return n, rows, lab, len(prefix)


def bounds_by_definition(rows, lab, nass, r):
    """_bounds' vec, lb and front from their definition: each member's
    unlabeled slots take nass, nass + 1, ... in slot order, and its code
    packs the sorted labels; lb is the least code of a member with an
    unlabeled slot, and front holds the unlabeled vertices of those whose
    code is lb."""
    vec, free = [], {}
    for a, b, c, m in rows:
        fresh = itertools.count(nass)
        x, y, z = sorted(lab[v] if lab[v] >= 0 else next(fresh) for v in (a, b, c))
        code = ((x * r + y) * r + z) * 4 + m
        vec.append(code)
        if next(fresh) > nass:
            free[code] = free.get(code, 0) | sum(1 << v for v in (a, b, c) if lab[v] < 0)
    lb = min(free, default=accel_module._INF)
    return sorted(vec), lb, free.get(lb, 0)


@PROPERTY
@given(partial_labelings())
def test_bounds_match_their_definition(node):
    n, rows, lab, nass = node
    assert _bounds(rows, lab, nass, n + 2) == bounds_by_definition(rows, lab, nass, n + 2)


def test_labeling_walks_bound_each_node_once(monkeypatch):
    # min_labeling's DFS reads the nodes its greedy dives bounded from the
    # dives' records, so no partial labeling is bounded twice in a walk,
    # and the walk still returns brute force's map
    seen = collections.Counter()
    walks = collections.Counter()
    real_bounds, real_dfs = accel_module._bounds, accel_module._label_dfs

    def bounds(mem, lab, nass, r):
        seen[tuple(lab), nass] += 1
        return real_bounds(mem, lab, nass, r)

    def walk(mem, n, best, stop, *args, **kw):
        seen.clear()
        got = real_dfs(mem, n, best, stop, *args, **kw)
        assert max(seen.values(), default=1) == 1
        walks[stop, kw.get("target") is not None] += 1
        return got

    monkeypatch.setattr(accel_module, "_bounds", bounds)
    monkeypatch.setattr(accel_module, "_label_dfs", walk)
    canonical_relabeling(t_star(16))
    canonical_relabeling(pair_family(10, 2, 6))
    rng = random.Random(32)
    low = 0
    while low < 50:
        f = random_family(rng, rng.randint(8, 11), 12, (SET, MULTISET)[low % 2])
        _, image = canonical_relabeling(f)
        gens = []
        is_min_labeled(sorted((*t, m) for t, m in image.members), f.n, (), gens)
        if len(f.members) < 6 or len(gens) > 1:
            continue  # not low-symmetry
        low += 1
        perm = list(range(f.n))
        rng.shuffle(perm)
        g = sorted((tuple(sorted(perm[v] for v in t)), m) for t, m in f.members)
        # a target walk, which runs until the isomorphism is certain
        assert are_isomorphic(f, TriangleFamily(f.n, tuple(g), f.mode))
    for _ in range(100):
        f = random_family(rng, rng.randint(3, 7), 9, rng.choice((SET, MULTISET)))
        rows = sorted((*t, m) for t, m in f.members)
        want, best = brute_canonical(f)
        lab = []
        assert min_labeling(rows, f.n, lab) == 2
        assert [want[v] if l >= 0 else -1 for v, l in enumerate(lab)] == lab
        target = member_codes(brute_canonical(random_family(rng, f.n, 9, f.mode))[1], f.n)
        mine = member_codes(best, f.n)
        assert min_labeling(rows, f.n, [], target) == (mine > target) - (mine < target) + 1
    assert walks[0, True] == 150 and walks[0, False] > 150


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
def test_resume_search_raises_only_search_error(checkpoint_lines, tmp_path_factory, edits):
    # a corrupt witness block is a corrupt checkpoint: its TrifamError
    # comes out as a SearchError naming the file and the witness
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
    except SearchError:
        pass


# -- fuzzing the command line: every argv ends in an exit code 0..3

# each subcommand with its positional arguments and its own flags; the
# common flags and a few foreign ones can go with any of them
CLI_COMMANDS = {
    "check": (1, ("--verify-bound",)),
    "construct": (0, ("--n", "--pairs", "--apexes")),
    "certify": (1, ()),
    "search": (0, (
        "--n", "--mode", "--prove", "--enumerate-extremal", "--node-limit",
        "--checkpoint", "--resume",
    )),
    "rs": (1, ()),
    "iso": (2, ()),
    "canon": (1, ()),
    "bogus": (0, ()),
}
CLI_COMMON_FLAGS = (
    "--out", "--porcelain", "--config", "--workers", "--checkpoint-interval", "--help",
)
# @name tokens stand for paths made by the cli_files fixture; outputs go
# only where no input lives.  search --n values stay at most 8, apart from
# the ones its vertex cap refuses
CLI_PATHS = (
    "-", "@good", "@rainbow", "@multi", "@garbage", "@missing", "@dir", "@ckpt",
    "@cfg", "@badcfg",
)
CLI_OUTPUTS = ("@out", "@dir", "@nodir")
CLI_INTS = ("0", "1", "2", "3", "-1", "4", "7", "8", "x", "", "2000000", str(10**20))
CLI_VALUES = {
    "--out": CLI_OUTPUTS,
    "--checkpoint": CLI_OUTPUTS,
    "--config": CLI_PATHS,
    "--resume": CLI_PATHS,
    "--mode": ("set", "multiset", "bag", ""),
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    files = {
        "good": serialize_family(t_star(8)),
        "rainbow": "trifam 1\nmode set\nn 4\n0 1 2\n0 1 3\n0 2 3\n",
        "multi": serialize_family(doubled_nine()),
        "garbage": "trifam 1\nmode set\nn x\n",
        "cfg": "n = 7\nporcelain = true\n",
        "badcfg": "n = lots\nmystery = 1\n",
    }
    paths = {
        "missing": str(d / "missing.trifam"),
        "dir": str(d),
        "out": str(d / "out"),
        "nodir": str(d / "no" / "out"),
    }
    for name, text in files.items():
        (d / name).write_text(text)
        paths[name] = str(d / name)
    ckpt = d / "ckpt"
    run_search(SearchConfig(n=7, mode=MULTISET, node_limit=3, checkpoint_path=str(ckpt)))
    paths["ckpt"] = str(ckpt)
    return paths


@st.composite
def cli_argvs(draw):
    """A subcommand, its positional paths, then flags with drawn values."""
    # search has the most flags, so it is drawn more often
    command = draw(st.sampled_from(("search",) * 4 + tuple(sorted(CLI_COMMANDS))))
    npos, own = CLI_COMMANDS[command]
    argv = [command]
    if command == "construct":
        # a kind, then the family file that only construct double reads
        argv.append(draw(st.sampled_from(("tstar", "pairs", "double", "fig5"))))
        npos = draw(st.integers(0, 1))
    argv += draw(st.lists(st.sampled_from(CLI_PATHS), min_size=npos, max_size=npos))
    if command == "search":
        # drawn flags override these; --n is left out at times so that
        # --resume and the config file can supply it
        argv += ["--node-limit", "40"]
        if draw(st.booleans()):
            argv += ["--n", draw(st.sampled_from(("3", "6", "8")))]
    flags = st.sampled_from(own + CLI_COMMON_FLAGS)
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(flags)
        argv.append(flag)
        if draw(st.integers(0, 5)):
            argv.append(draw(st.sampled_from(CLI_VALUES.get(flag, CLI_INTS))))
    return argv


# argv combinations are sparser than reader inputs: with 200 examples the
# derandomized draw never pairs a runnable search with an unwritable
# checkpoint path
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_cli_exits_only_with_codes_0_to_3(cli_files, argv):
    argv = [cli_files[a[1:]] if a.startswith("@") else a for a in argv]
    with (
        mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(b""), encoding="utf-8")),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
