"""Exhaustive search: brute-force agreement, determinism, checkpoints."""

from __future__ import annotations

import itertools
import random
import re
import subprocess
import sys

import pytest

from rainbowfree.canon import canonical_form, canonical_relabeling
from rainbowfree.family import MULTISET, SET, family_from_triangles
from rainbowfree.rainbow import family_state, find_rainbow, has_rainbow
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


def test_worker_count_does_not_change_results():
    base_max = max_family(7)
    base_enum = enumerate_extremal(7)
    base_prove = prove_size(8, 8)
    for wc in (2, 3, 4):
        assert _result_key(max_family(7, worker_count=wc)) == _result_key(base_max)
        e = enumerate_extremal(7, worker_count=wc)
        assert _result_key(e) == _result_key(base_enum)
        assert e.extremal_class_count == base_enum.extremal_class_count
        p = prove_size(8, 8, worker_count=wc)
        assert p.found and p.witnesses[0].members == base_prove.witnesses[0].members


def test_repeat_runs_are_identical():
    a = enumerate_extremal(6, worker_count=2)
    b = enumerate_extremal(6, worker_count=2)
    assert _result_key(a) == _result_key(b)
    assert a.nodes_explored == b.nodes_explored


DEAD_WORKER = """
import os
import rainbowfree.search as search
search._worker_main = lambda *args: os._exit(9)
try:
    search.max_family(7, worker_count=2)
except search.SearchError as exc:
    print(exc)
"""


def test_dead_worker_raises_instead_of_hanging():
    # a subprocess, so that a regression fails on the timeout instead of
    # hanging the suite
    proc = subprocess.run(
        [sys.executable, "-c", DEAD_WORKER], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "exited with code 9 before reporting" in proc.stdout
    assert proc.stdout.startswith("worker ")


@pytest.mark.parametrize("n,mode", [(5, SET), (6, SET), (7, SET), (8, SET),
                                    (6, MULTISET), (7, MULTISET)])
def test_parallel_prove_returns_single_worker_witness(n, mode):
    # k = 0 and 1 are found above the slot depth; larger k inside slots,
    # where a worker must stop once an earlier slot has a find
    m = max_family(n, mode=mode).best_size
    for k in range(m + 2):
        base = prove_size(n, k, mode=mode)
        for wc in (2, 3):
            r = prove_size(n, k, mode=mode, worker_count=wc)
            assert r.completed and r.found == base.found, (k, wc)
            assert [w.members for w in r.witnesses] == [
                w.members for w in base.witnesses
            ], (k, wc)


def test_node_limit_stops_early():
    r = max_family(7, node_limit=8)
    assert not r.completed and r.nodes_explored == 8
    r = max_family(7, node_limit=8, worker_count=2)
    assert not r.completed
    # refuting k = 9 at n = 8 takes 43 nodes, far past what two workers
    # count before one of them stops at the limit
    r = prove_size(8, 9, node_limit=3, worker_count=2)
    assert not r.completed and r.found is None


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
        SearchConfig(n=5, worker_count=0)
    with pytest.raises(SearchError):
        SearchConfig(n=5, checkpoint_path="x", worker_count=2)
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


def test_search_examples_from_docs():
    f = family_from_triangles(4, [(0, 1, 2), (1, 2, 3)])
    assert extend_ok(f, (0, 1, 3)) is False
    assert extend_ok(family_from_triangles(4, [(0, 1, 2)]), (0, 1, 3)) is True
