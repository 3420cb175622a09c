"""Exhaustive search: brute-force agreement, determinism, checkpoints."""

from __future__ import annotations

import itertools
import random
import re

import pytest

import rainbowfree.search as search_module
from rainbowfree._accel import build_pool, list_extensions
from rainbowfree.canon import are_isomorphic, canonical_form, canonical_relabeling
from rainbowfree.constructions import doubled_nine, pair_family
from rainbowfree.family import MULTISET, SET, family_from_triangles
from rainbowfree.rainbow import family_state, find_rainbow, has_rainbow
from rainbowfree.rs import check_t2_constraints, decompose
from rainbowfree.search import (
    SearchConfig,
    SearchError,
    enumerate_extremal,
    extend_ok,
    load_checkpoint,
    max_family,
    prove_size,
    resume_search,
    run_search,
)

from oracles import brute_extend_ok, brute_has_rainbow, random_family


def _result_key(r):
    return (r.best_size, tuple(f.members for f in r.witnesses))


def _brute_set_classes(n):
    """Max rainbow-free size and witness classes by raw subset DFS."""
    pool = list(itertools.combinations(range(n), 3))
    best, wits = 0, []

    def dfs(i, members):
        nonlocal best, wits
        if len(members) > best:
            best, wits = len(members), [tuple(members)]
        elif members and len(members) == best:
            wits.append(tuple(members))
        for j in range(i, len(pool)):
            f = family_from_triangles(n, members + [pool[j]], SET)
            if not brute_has_rainbow(f):
                dfs(j + 1, members + [pool[j]])

    dfs(0, [])
    classes = {
        canonical_form(family_from_triangles(n, list(w), SET)) for w in wits
    }
    return best, classes


def _brute_multiset_max(n):
    pool = list(itertools.combinations(range(n), 3))
    best = 0

    def dfs(i, members):
        nonlocal best
        best = max(best, sum(x[3] for x in members))
        for j in range(i, len(pool)):
            for m in (1, 2):
                f = family_from_triangles(n, members + [pool[j] + (m,)], MULTISET)
                if not brute_has_rainbow(f):
                    dfs(j + 1, members + [pool[j] + (m,)])

    dfs(0, [])
    return best


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_set_maximum_matches_brute_force(n):
    best, classes = _brute_set_classes(n)
    r = max_family(n)
    assert r.completed and r.best_size == best
    assert {canonical_form(f) for f in r.witnesses} == classes
    assert len(r.witnesses) == len(classes)


@pytest.mark.parametrize("n,want", [(3, 2), (4, 2), (5, 4)])
def test_multiset_maximum_matches_brute_force(n, want):
    assert _brute_multiset_max(n) == want
    r = max_family(n, mode=MULTISET)
    assert r.completed and r.best_size == want


def test_small_set_maxima_ladder():
    for n, want in ((4, 2), (5, 3), (6, 4), (7, 6)):
        r = max_family(n)
        assert r.completed and r.best_size == want
        for f in r.witnesses:
            assert find_rainbow(f) is None


def test_witnesses_are_canonical_and_distinct():
    r = max_family(6)
    forms = [canonical_form(f) for f in r.witnesses]
    assert len(set(forms)) == len(forms)
    for f in r.witnesses:
        _, relabeled = canonical_relabeling(f)
        assert relabeled.same_family(f)


def test_prove_found_and_refuted():
    r = prove_size(8, 8)
    assert r.found is True and r.completed
    assert r.best_size == 8 and len(r.witnesses) == 1
    assert r.witnesses[0].size == 8
    assert find_rainbow(r.witnesses[0]) is None
    r = prove_size(5, 4)
    assert r.found is False and r.completed and not r.witnesses


def test_enumerate_n8_unique_class():
    r = enumerate_extremal(8)
    assert r.best_size == 8 and r.extremal_class_count == 1


def test_set_census_is_the_pair_families():
    # Gyori's extremal families at n = 4..10: the pair families with
    # p * (n - 2p) = floor(n^2 / 8), one class per such p
    counts = []
    for n in range(4, 11):
        r = enumerate_extremal(n)
        assert r.completed and r.best_size == n * n // 8
        pairs = {
            canonical_form(pair_family(n, p, n - 2 * p))
            for p in range(1, n // 2)
            if p * (n - 2 * p) == n * n // 8
        }
        assert {canonical_form(f) for f in r.witnesses} == pairs, n
        counts.append(r.extremal_class_count)
    assert counts == [1, 1, 2, 1, 1, 1, 2]


def test_set_census_n11():
    # the node count repeats exactly from run to run; it pins the capacity
    # cut that drops a child before its labeling DFS
    r = enumerate_extremal(11)
    assert r.completed and r.best_size == 15 and r.extremal_class_count == 1
    assert are_isomorphic(r.witnesses[0], pair_family(11, 3, 5))
    assert r.nodes_explored == 401


def test_multiset_census():
    sizes, counts = [], []
    for n in range(4, 10):
        r = enumerate_extremal(n, mode=MULTISET)
        assert r.completed
        sizes.append(r.best_size)
        counts.append(r.extremal_class_count)
        for w in r.witnesses:
            ok, notes = check_t2_constraints(decompose(w), w)
            assert ok, (n, w.members, notes)
    assert sizes == [2, 4, 4, 6, 8, 12]
    assert counts == [2, 1, 6, 4, 2, 1]
    # the unique class at n = 9 beats floor(81 / 8) = 10 by doubling
    assert are_isomorphic(r.witnesses[0], doubled_nine())


def test_repeat_runs_are_identical():
    a = enumerate_extremal(6)
    b = enumerate_extremal(6)
    assert _result_key(a) == _result_key(b)
    assert a.nodes_explored == b.nodes_explored


def test_node_limit_stops_early():
    r = max_family(7, node_limit=8)
    assert not r.completed and r.nodes_explored == 8
    # refuting k = 9 at n = 8 takes 15 nodes
    r = prove_size(8, 9, node_limit=3)
    assert not r.completed and r.found is None and r.nodes_explored == 3


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    ck = str(tmp_path / "run.ckpt")
    base = max_family(7)
    r = run_search(
        SearchConfig(n=7, node_limit=8, checkpoint_path=ck, checkpoint_interval=5)
    )
    assert not r.completed
    state = load_checkpoint(ck)
    assert not state["done"] and state["n"] == 7 and state["prefix"]
    r = resume_search(ck, checkpoint_path=ck, checkpoint_interval=5)
    assert r.completed
    assert _result_key(r) == _result_key(base)
    assert r.nodes_explored == base.nodes_explored
    # the final checkpoint is marked done and replays the stored result
    state = load_checkpoint(ck)
    assert state["done"]
    again = resume_search(ck)
    assert _result_key(again) == _result_key(base)


def test_checkpoint_hop_budgets(tmp_path):
    ck = str(tmp_path / "hops.ckpt")
    base = max_family(6, mode=MULTISET)
    r = run_search(
        SearchConfig(
            n=6, mode=MULTISET, node_limit=3, checkpoint_path=ck, checkpoint_interval=2
        )
    )
    hops = 1
    while not r.completed:
        r = resume_search(ck, node_limit=3, checkpoint_path=ck, checkpoint_interval=2)
        hops += 1
        assert hops < 50
    assert hops > 2
    assert _result_key(r) == _result_key(base)
    assert r.nodes_explored == base.nodes_explored


@pytest.mark.parametrize("target,k", [("enumerate", 0), ("prove", 8), ("prove", 9)])
def test_checkpoint_one_node_hops(tmp_path, target, k):
    # a hop after every node resumes across each rise of the best, which
    # the capacity cut reads for every child; k = 8 is found, k = 9 refuted
    ck = str(tmp_path / "hop.ckpt")
    base = run_search(SearchConfig(n=8, target=target, prove_k=k))
    assert base.completed
    assert base.found is (None if target == "enumerate" else k == 8)
    r = run_search(
        SearchConfig(n=8, target=target, prove_k=k, node_limit=1, checkpoint_path=ck)
    )
    hops = 1
    while not r.completed:
        assert r.nodes_explored == hops
        r = resume_search(ck, node_limit=1, checkpoint_path=ck)
        hops += 1
    assert r.nodes_explored == base.nodes_explored == hops
    assert _result_key(r) == _result_key(base)
    assert (r.found, r.extremal_class_count) == (base.found, base.extremal_class_count)


def test_prove_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "prove.ckpt")
    r = run_search(
        SearchConfig(
            n=8,
            target="prove",
            prove_k=8,
            node_limit=4,
            checkpoint_path=ck,
            checkpoint_interval=2,
        )
    )
    assert not r.completed and r.found is None
    resumed = resume_search(ck)
    direct = prove_size(8, 8)
    assert resumed.found is True
    assert resumed.witnesses[0].members == direct.witnesses[0].members


def test_corrupt_checkpoints_are_rejected(tmp_path):
    good = tmp_path / "good.ckpt"
    run_search(
        SearchConfig(n=6, node_limit=5, checkpoint_path=str(good), checkpoint_interval=3)
    )
    text = good.read_text()

    bad = tmp_path / "bad.ckpt"
    bad.write_text("nonsense 9\n" + text.split("\n", 1)[1])
    with pytest.raises(SearchError):
        load_checkpoint(str(bad))

    bad.write_text(text.rsplit("prefix", 1)[0])  # truncated
    with pytest.raises(SearchError):
        load_checkpoint(str(bad))

    for field, value in (("prefix", "abc"), ("nodes", "x")):
        bad.write_text(re.sub(rf"(?m)^{field} .*$", f"{field} {value}", text))
        with pytest.raises(SearchError):
            load_checkpoint(str(bad))
    bad.write_bytes(text.encode("ascii").replace(b"mode", b"m\xe9de", 1))
    with pytest.raises(SearchError):
        load_checkpoint(str(bad))

    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("prefix"))
    depth = int(lines[k].split()[1])
    if depth >= 2:
        swapped = lines[:]
        swapped[k + 1], swapped[k + 2] = swapped[k + 2], swapped[k + 1]
        bad.write_text("\n".join(swapped) + "\n")
        with pytest.raises(SearchError):
            resume_search(str(bad))

    # headers that disagree with the witnesses: resuming with best 99
    # would prune every branch and report the stored witnesses' size
    no_witness = text.split("\nwitnesses ", 1)[0] + "\nwitnesses 0\n"
    for edited in (
        re.sub(r"(?m)^best .*$", "best 99", text),
        no_witness,
        re.sub(r"(?m)^nodes .*$", "nodes -1", text),
        re.sub(r"(?m)^done .*$", "done 2", text),
        re.sub(r"(?m)^found .*$", "found 2", text),
        re.sub(r"(?m)^found .*$", "found 1", text),
    ):
        bad.write_text(edited)
        with pytest.raises(SearchError):
            resume_search(str(bad))

    # unreadable paths are search errors, not OSErrors
    for path in (tmp_path / "missing.ckpt", tmp_path):
        with pytest.raises(SearchError, match="cannot read"):
            load_checkpoint(str(path))
        with pytest.raises(SearchError, match="cannot read"):
            resume_search(str(path))

    # a found proof stores the found witness, which is larger than best
    found = tmp_path / "found.ckpt"
    run_search(SearchConfig(n=8, target="prove", prove_k=8, checkpoint_path=str(found)))
    state = load_checkpoint(str(found))
    assert state["found"] and state["best"] == 7
    assert [w.size for w in state["witnesses"]] == [8]
    assert resume_search(str(found)).found is True


def test_unwritable_checkpoint_path_fails_before_the_first_node(tmp_path, monkeypatch):
    ck = tmp_path / "run.ckpt"
    run_search(SearchConfig(n=7, node_limit=3, checkpoint_path=str(ck)))
    calls = []
    real = search_module.list_extensions

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(search_module, "list_extensions", spy)
    for path in (tmp_path, tmp_path / "no-such-dir" / "run.ckpt"):
        with pytest.raises(SearchError, match="cannot write checkpoint"):
            run_search(SearchConfig(n=9, checkpoint_path=str(path)))
        with pytest.raises(SearchError, match="cannot write checkpoint"):
            resume_search(str(ck), checkpoint_path=str(path))
    assert calls == []
    assert not list(tmp_path.glob(".ckpt-*"))


def test_config_validation():
    with pytest.raises(SearchError):
        SearchConfig(n=2)
    with pytest.raises(SearchError):
        SearchConfig(n=5, mode="bag")
    with pytest.raises(SearchError):
        SearchConfig(n=5, target="count")
    with pytest.raises(SearchError):
        SearchConfig(n=5, node_limit=-1)
    with pytest.raises(SearchError):
        SearchConfig(n=5, checkpoint_interval=0)


def test_extend_ok_validation():
    f = family_from_triangles(4, [(0, 1, 2)])
    with pytest.raises(SearchError):
        extend_ok(f, (0, 1, 4))
    with pytest.raises(SearchError):
        extend_ok(f, (0, 1, 3), add_m=0)
    assert extend_ok(f, (2, 1, 3)) == extend_ok(f, (1, 2, 3))  # sorts input


def test_extend_ok_matches_brute_exhaustive_n5():
    pool = list(itertools.combinations(range(5), 3))
    for k in range(0, 4):
        for sub in itertools.combinations(pool, k):
            f = family_from_triangles(5, list(sub), SET)
            if has_rainbow(f):
                continue
            state = family_state(f)
            for t in pool:
                if t in sub:
                    continue
                got = extend_ok(f, t, state=state)
                assert got == brute_extend_ok(f, t)


def test_extend_ok_matches_brute_random():
    rng = random.Random(63)
    pool9 = {n: list(itertools.combinations(range(n), 3)) for n in range(4, 9)}
    checked = 0
    while checked < 300:
        n = rng.randint(4, 8)
        f = random_family(rng, n, 6, MULTISET)
        if has_rainbow(f):
            continue
        t = rng.choice(pool9[n])
        add_m = rng.choice((1, 2))
        if f.multiplicity(t) + add_m > 2:
            continue
        assert extend_ok(f, t, add_m) == brute_extend_ok(f, t, add_m)
        checked += 1


def _greedy_family(rng, n, mode):
    """A rainbow-free family grown from shuffled triangles, often maximal."""
    pool = list(itertools.combinations(range(n), 3))
    rng.shuffle(pool)
    members = []
    for t in pool[: rng.randint(0, len(pool))]:
        m = rng.choice((1, 2)) if mode == MULTISET else 1
        if not has_rainbow(family_from_triangles(n, members + [t + (m,)], mode)):
            members.append(t + (m,))
    return family_from_triangles(n, members, mode)


def test_list_extensions_matches_brute_force():
    rng = random.Random(10)
    for trial in range(24):
        n = 3 + trial % 7
        mode = (SET, MULTISET)[trial % 2]
        f = _greedy_family(rng, n, mode)
        state = family_state(f)
        pool, pool_a, pool_b, pool_c = build_pool(n)
        ok = {(t, m): brute_extend_ok(f, t, m) for t in pool for m in (1, 2)}
        for (t, m), want in ok.items():
            assert extend_ok(f, t, m, state=state) is want, (f, t, m)
        for max_mult in (1, 2):
            # the largest m <= max_mult whose copies keep f rainbow-free
            want = []
            for t in pool:
                m = 0
                while m < max_mult and ok[t, m + 1]:
                    m += 1
                want.append(m)
            for start in range(len(pool) + 1):
                out = [-1] * len(pool)
                cap = list_extensions(
                    *state, n, pool_a, pool_b, pool_c, start, max_mult, out
                )
                assert out[:start] == [-1] * start
                assert out[start:] == want[start:], (f, start, max_mult)
                assert cap == sum(want[start:])


def test_search_examples_from_docs():
    f = family_from_triangles(4, [(0, 1, 2), (1, 2, 3)])
    assert extend_ok(f, (0, 1, 3)) is False
    assert extend_ok(family_from_triangles(4, [(0, 1, 2)]), (0, 1, 3)) is True
