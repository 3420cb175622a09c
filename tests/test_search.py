"""Exhaustive search: brute-force agreement, determinism, checkpoints."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rainbowfree._accel as accel_module
import rainbowfree.search as search_module
from rainbowfree._accel import (
    add_member,
    build_pool,
    list_extensions,
    member_codes,
    min_labeling,
)
from rainbowfree.canon import (
    are_isomorphic,
    canonical_form,
    canonical_relabeling,
    is_canonical,
)
from rainbowfree.constructions import doubled_nine, pair_family, t_star
from rainbowfree.family import (
    MULTISET,
    SET,
    TriangleFamily,
    family_from_triangles,
    serialize_family,
)
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
        assert relabeled.members == tuple(sorted(f.members))


def test_prove_found_and_refuted():
    r = prove_size(8, 8)
    assert r.found is True and r.completed
    assert r.best_size == 8 and len(r.witnesses) == 1
    assert r.witnesses[0].size == 8
    assert find_rainbow(r.witnesses[0]) is None
    r = prove_size(5, 4)
    assert r.found is False and r.completed and not r.witnesses
    assert r.best_size == -1


def test_enumerate_n8_unique_class():
    r = enumerate_extremal(8)
    assert r.best_size == 8 and r.extremal_class_count == 1


# node counts repeat exactly from run to run; they pin the capacity and
# private-edge cuts that drop a child before its labeling DFS
SET_CENSUS_NODES = {11: 106, 12: 196, 13: 446, 14: 1273}


@pytest.mark.parametrize("n", range(4, 15))
def test_set_census_is_the_pair_families(n):
    # Gyori's extremal families and their wider rule: the extremal classes
    # are the pair families with p * (n - 2p) = floor(n^2 / 8), one class
    # per such p, so two classes when n = 2 mod 4 and one otherwise
    pairs = [p for p in range(1, n // 2) if p * (n - 2 * p) == n * n // 8]
    assert len(pairs) == (2 if n % 4 == 2 else 1)
    r = enumerate_extremal(n)
    assert r.completed and r.best_size == n * n // 8
    assert r.extremal_class_count == len(pairs)
    classes = {canonical_form(pair_family(n, p, n - 2 * p)) for p in pairs}
    assert {canonical_form(w) for w in r.witnesses} == classes
    if n in SET_CENSUS_NODES:
        assert r.nodes_explored == SET_CENSUS_NODES[n]


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


def test_late_census_checkpoint():
    # the multiset n = 13 census takes about 40 s, so the file is its run
    # stopped by a node limit 100 nodes before the end
    r = resume_search(str(Path(__file__).parent / "data" / "census_multiset13.ckpt"))
    assert r.completed and r.best_size == 21 and r.nodes_explored == 10785
    assert r.extremal_class_count == 1
    assert canonical_form(r.witnesses[0]) == canonical_form(pair_family(13, 3, 7))


def _largest_addition(f, later):
    """Most copies a rainbow-free addition of the (triangle, max multiplicity)
    pairs in later adds to f, by exhaustive DFS with the oracle's check."""
    rest = list(itertools.accumulate([m for _, m in reversed(later)], initial=0))[::-1]
    best = 0

    def dfs(i, members, added):
        nonlocal best
        best = max(best, added)
        for j in range(i, len(later)):
            if added + rest[j] <= best:
                return
            t, mm = later[j]
            for m in range(1, mm + 1):
                g = TriangleFamily(f.n, members + ((t, m),), f.mode)
                if not brute_has_rainbow(g):
                    dfs(j + 1, g.members, added + m)

    dfs(0, f.members, 0)
    return best


def _bound_families(mode, seed, samples):
    """The member-less families on 3..6 vertices, whose largest additions
    are the maxima and where doubled members matter, and the rainbow-free
    ones among samples random families on up to 7 vertices."""
    rng = random.Random(seed)
    families = [TriangleFamily(n, (), mode) for n in range(3, 7)]
    for _ in range(samples):
        f = random_family(rng, rng.randint(3, 7), 4, mode)
        if f.members and find_rainbow(f) is None:
            families.append(f)
    return families


@pytest.mark.parametrize("mode", [SET, MULTISET])
def test_private_bound_covers_every_addition(mode):
    # the bound must cover every rainbow-free addition from the triangles
    # listed after the family's last member, and is often below the
    # capacity
    below_capacity = 0
    for f in _bound_families(mode, 21, 60):
        s = search_module._Searcher(SearchConfig(f.n, mode))
        cap = s._list()
        for t, m in sorted(f.members):
            s._push(s.pool.index(t), m)
            cap = s._list()
        bound = s._private_bound()
        listed = s._bufs[len(s.stack)]
        start = s.stack[-1][0] + 1 if s.stack else 0
        later = [(s.pool[i], listed[i]) for i in range(start, s.total) if listed[i]]
        assert bound >= _largest_addition(f, later), f.members
        below_capacity += bound < cap
    assert below_capacity >= 10


@pytest.mark.parametrize("mode", [SET, MULTISET])
def test_child_bound_covers_the_listed_bound(mode):
    # a child's bound read from its parent's list before it is listed is
    # never below the bound read from its own list, so a child dropped
    # before listing is one its own list would drop too
    children = below = 0
    for f in _bound_families(mode, 25, 200):
        s = search_module._Searcher(SearchConfig(f.n, mode))
        s._list()
        for t, m in sorted(f.members):
            s._push(s.pool.index(t), m)
            s._list()
        buf = s._bufs[len(s.stack)]
        start = s.stack[-1][0] + 1 if s.stack else 0
        for idx in range(start, s.total):
            for m in range(1, buf[idx] + 1):
                before = s._child_bound(idx)
                s._push(idx, m)
                s._list()
                after = s._private_bound()
                s._pop()
                assert before >= after, (f.members, s.pool[idx], m)
                children += 1
                below += after < before
    assert children > 300 and below > 100


def test_child_bound_cuts_listings_only(monkeypatch):
    # the bound read before listing saves listings, not nodes or labeling
    # walks (2,736 and 1,014 listings without it); in an uninterrupted run
    # the root is counted without a canonicity test and every other node
    # is an accepted child
    calls = collections.Counter()

    def spy(name):
        real = getattr(search_module, name)

        def counted(*args):
            calls[name] += 1
            result = real(*args)
            calls[name, "accepts"] += bool(result)
            return result

        return counted

    for name in ("list_extensions", "is_min_labeled"):
        monkeypatch.setattr(search_module, name, spy(name))
    for run, nodes, want in (
        (lambda: enumerate_extremal(12), 196, (681, 357)),
        (lambda: max_family(11), 106, (323, 181)),
        (lambda: prove_size(9, 12, mode=MULTISET), 46, (226, 83)),
    ):
        calls.clear()
        assert run().nodes_explored == nodes
        assert (calls["list_extensions"], calls["is_min_labeled"]) == want
        assert calls["is_min_labeled", "accepts"] == nodes - 1


def test_listings_read_the_kept_state_at_the_traced_positions(tmp_path, monkeypatch):
    # perfbench/tracing.py reads list_extensions' pool column, start and
    # output buffer as args 4, 7 and 9; and the mult the search keeps in
    # _push and _pop holds exactly the members on its stack at every
    # listing, and nothing once run() returns
    live, calls = [], []
    real_run, real_list = search_module._Searcher.run, search_module.list_extensions

    def run(self, *args):
        live.append(self)
        real_run(self, *args)
        assert not self.mult and not any(map(any, self.cnt))

    def spy(*args):
        s = live[-1]
        n, pool = s.cfg.n, s.pool
        assert args[0] is s.cnt and args[1] is s.mult
        members = [(pool[idx], m) for idx, m in s.stack]
        assert s.mult == {(a * n + b) * n + c: m for (a, b, c), m in members}
        assert args[4] is s.pool_a and args[4].shape == (s.total,)
        assert args[7] == (s.stack[-1][0] + 1 if s.stack else 0)
        out = args[9]
        assert out is s._bufs[len(s.stack)] and len(out) == s.total
        calls.append(1)
        return real_list(*args)

    monkeypatch.setattr(search_module._Searcher, "run", run)
    monkeypatch.setattr(search_module, "list_extensions", spy)
    ck = str(tmp_path / "leg.ckpt")
    runs = [
        lambda n=n, mode=mode: enumerate_extremal(n, mode)
        for n in range(3, 10)
        for mode in (SET, MULTISET)
    ]
    runs += [
        lambda: prove_size(9, 12, mode=MULTISET),
        lambda: max_family(9, node_limit=10, checkpoint_path=ck),
        lambda: resume_search(ck),
    ]
    results = []
    for go in runs:
        calls.clear()
        results.append(go())
        assert calls
    assert len(live) == len(runs)
    # the proof stops at its witness, the limited run at its node limit
    proof, limited, resumed = results[-3:]
    assert proof.found and not limited.completed and resumed.completed


def test_labeling_walks_build_orbits_only_for_later_siblings(monkeypatch):
    # the walk makes the same _bounds calls as when every child rebuilt
    # its level's orbits; building them only when a later sibling is
    # tried, and merging each automorphism over the points it moves, cuts
    # the union-find calls (3,099 / 3,099 / 613 / 96,878 / 67,694 before)
    calls = collections.Counter()
    for name in ("_bounds", "_orbit_root"):
        real = getattr(accel_module, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(accel_module, name, counted)
    _, image = canonical_relabeling(t_star(16))
    for run, bounds, roots in (
        (lambda: canonical_relabeling(t_star(16)), 195, 602),
        (lambda: is_canonical(image), 153, 650),
        (lambda: canonical_relabeling(pair_family(10, 2, 6)), 87, 201),
        (lambda: enumerate_extremal(12), 14_164, 66_398),
        (lambda: enumerate_extremal(10, mode=MULTISET), 14_147, 37_128),
    ):
        calls.clear()
        run()
        assert (calls["_bounds"], calls["_orbit_root"]) == (bounds, roots)


def test_private_cut_changes_only_node_counts(monkeypatch):
    # every target gives the same answers with the private-edge cut off,
    # in more nodes
    def run_all():
        out, nodes = [], 0
        for mode, top in ((SET, 9), (MULTISET, 8)):
            for n in range(3, top + 1):
                census = enumerate_extremal(n, mode=mode)
                best = max_family(n, mode=mode)
                found = prove_size(n, best.best_size, mode=mode)
                refuted = prove_size(n, best.best_size + 1, mode=mode)
                out.append((_result_key(census), _result_key(best), _result_key(found)))
                out.append((found.found, refuted.found, refuted.witnesses))
                nodes += census.nodes_explored
        return out, nodes

    with_cut, nodes = run_all()
    cut = search_module._Searcher._cut
    monkeypatch.setattr(
        search_module._Searcher,
        "_cut",
        lambda self, *args, **kw: None if (c := cut(self, *args, **kw)) == "private" else c,
    )
    without_cut, more_nodes = run_all()
    assert without_cut == with_cut and more_nodes > nodes


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


def test_checkpoint_resume_matches_uninterrupted(tmp_path, monkeypatch):
    monkeypatch.setattr(search_module, "_CKPT_INTERVAL", 5)
    ck = str(tmp_path / "run.ckpt")
    base = max_family(7)
    r = run_search(SearchConfig(n=7, node_limit=8, checkpoint_path=ck))
    assert not r.completed
    state = load_checkpoint(ck)
    assert not state["done"] and state["n"] == 7 and state["prefix"]
    r = resume_search(ck, checkpoint_path=ck)
    assert r.completed
    assert _result_key(r) == _result_key(base)
    assert r.nodes_explored == base.nodes_explored
    # the final checkpoint is marked done and replays the stored result
    state = load_checkpoint(ck)
    assert state["done"]
    again = resume_search(ck)
    assert _result_key(again) == _result_key(base)


def test_checkpoint_hop_budgets(tmp_path, monkeypatch):
    monkeypatch.setattr(search_module, "_CKPT_INTERVAL", 2)
    ck = str(tmp_path / "hops.ckpt")
    base = max_family(6, mode=MULTISET)
    r = run_search(SearchConfig(n=6, mode=MULTISET, node_limit=3, checkpoint_path=ck))
    hops = 1
    while not r.completed:
        r = resume_search(ck, node_limit=3, checkpoint_path=ck)
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


def test_prove_checkpoint_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(search_module, "_CKPT_INTERVAL", 2)
    ck = str(tmp_path / "prove.ckpt")
    r = run_search(
        SearchConfig(n=8, target="prove", prove_k=8, node_limit=4, checkpoint_path=ck)
    )
    assert not r.completed and r.found is None
    resumed = resume_search(ck)
    direct = prove_size(8, 8)
    assert resumed.found is True
    assert resumed.witnesses[0].members == direct.witnesses[0].members


def test_corrupt_checkpoints_are_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(search_module, "_CKPT_INTERVAL", 3)
    good = tmp_path / "good.ckpt"
    run_search(SearchConfig(n=6, node_limit=5, checkpoint_path=str(good)))
    text = good.read_text()

    bad = tmp_path / "bad.ckpt"
    bad.write_text("nonsense 9\n" + text.split("\n", 1)[1])
    with pytest.raises(SearchError):
        load_checkpoint(str(bad))

    bad.write_text(text.rsplit("prefix", 1)[0])  # truncated
    with pytest.raises(SearchError):
        load_checkpoint(str(bad))

    # numbers int() reads that a checkpoint never holds, and one it refuses
    for field, value in (
        ("prefix", "abc"),
        ("nodes", "x"),
        ("nodes", "1_3"),
        ("prove_k", "+0"),
        ("nodes", "1" * 5000),
    ):
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
        # the witnesses would be rebuilt on the header's n or mode
        text.replace("\nn 6\n", "\nn 7\n", 1),
        text.replace("\nmode set\n", "\nmode multiset\n", 1),
    ):
        bad.write_text(edited)
        with pytest.raises(SearchError):
            resume_search(str(bad))

    # prefix lines the replay cannot reach: a triangle outside the pool,
    # three copies of a member, and two copies in set mode
    for n, mode, line in ((8, SET, "0 1 99 1"), (6, MULTISET, "0 1 2 3"), (8, SET, "0 1 2 2")):
        leg = tmp_path / f"{mode}{n}.ckpt"
        run_search(SearchConfig(n=n, mode=mode, node_limit=5, checkpoint_path=str(leg)))
        edited = leg.read_text().replace("\n0 1 2 1\n", f"\n{line}\n", 1)
        assert f"\n{line}\n" in edited
        bad.write_text(edited)
        with pytest.raises(SearchError, match="not a valid extension path"):
            resume_search(str(bad))

    # families the search never holds: a prefix that is not canonically
    # labeled, which resumed to best 2 in two classes at n = 7, and a
    # census whose second witness is its first with vertices 2 and 6
    # swapped, which resumed to two classes
    leg = tmp_path / "leg7.ckpt"
    run_search(SearchConfig(n=7, target="enumerate", node_limit=3, checkpoint_path=str(leg)))
    edited = re.sub(
        r"(?s)\nprefix \d+\n.*\nwitnesses ", "\nprefix 2\n0 1 2 1\n1 2 3 1\nwitnesses ", leg.read_text()
    )
    assert "\nprefix 2\n0 1 2 1\n1 2 3 1\nwitnesses 1\n" in edited
    bad.write_text(edited)
    with pytest.raises(SearchError, match="prefix is not canonically labeled"):
        resume_search(str(bad))
    run_search(SearchConfig(n=7, target="enumerate", checkpoint_path=str(leg)))
    (w,) = load_checkpoint(str(leg))["witnesses"]
    swap = {2: 6, 6: 2}
    twin = family_from_triangles(7, [sorted(swap.get(v, v) for v in t) for t in w.support])
    assert twin.members != w.members and are_isomorphic(twin, w)
    text7 = leg.read_text().replace("\nwitnesses 1\n", "\nwitnesses 2\n")
    bad.write_text(text7 + "witness\n" + serialize_family(twin))
    with pytest.raises(SearchError, match="witness 2 is not canonically labeled"):
        resume_search(str(bad))

    # unreadable paths are search errors, not OSErrors
    for path in (tmp_path / "missing.ckpt", tmp_path):
        with pytest.raises(SearchError, match="cannot read"):
            load_checkpoint(str(path))
        with pytest.raises(SearchError, match="cannot read"):
            resume_search(str(path))

    # a found proof stores its witness alone, and best is its size
    found = tmp_path / "found.ckpt"
    run_search(SearchConfig(n=8, target="prove", prove_k=8, checkpoint_path=str(found)))
    state = load_checkpoint(str(found))
    (w,) = state["witnesses"]
    assert state["found"] and state["best"] == 8 == w.size
    assert resume_search(str(found)).found is True


def test_checkpoint_witnesses_of_two_sizes_are_refused(tmp_path):
    # the witnesses are a search's only record, so they share one size;
    # here best is the larger one
    ck = tmp_path / "max.ckpt"
    run_search(SearchConfig(n=6, node_limit=5, checkpoint_path=str(ck)))
    text = ck.read_text()
    stored = load_checkpoint(str(ck))["witnesses"]
    small = family_from_triangles(6, [(0, 1, 2)])
    assert stored and stored[0].size > small.size
    count = len(stored)
    text = text.replace(f"\nwitnesses {count}\n", f"\nwitnesses {count + 1}\n")
    ck.write_text(text + "witness\n" + serialize_family(small))
    with pytest.raises(SearchError, match="stored witnesses differ in size"):
        load_checkpoint(str(ck))


def test_corrupt_witness_blocks_are_search_errors(tmp_path):
    # a witness block parse_family refuses makes the checkpoint corrupt:
    # the error names the file and the witness, also for a vertex count
    # above the cap, which is no resource limit here
    ck, bad = tmp_path / "c6.ckpt", tmp_path / "bad.ckpt"
    run_search(SearchConfig(n=6, checkpoint_path=str(ck)))
    text = ck.read_text()
    head = "\nwitness\ntrifam 1\nmode set\nn 6\n"
    assert head + "0 1 2\n" in text
    for edited, why in (
        (text.replace(head, head.replace("n 6", "n 2000000"), 1), "vertex count must be <="),
        (text.replace(head + "0 1 2\n", head + "0 1 9\n", 1), r"triangle \(0, 1, 9\)"),
    ):
        bad.write_text(edited)
        for call in (load_checkpoint, resume_search):
            with pytest.raises(SearchError, match=f"^{re.escape(str(bad))}: witness 1: {why}"):
                call(str(bad))


@pytest.mark.parametrize("n,mode,k,limit,met", [(7, MULTISET, 6, 4, 3), (8, SET, 9, 5, 4)])
def test_older_proof_checkpoints_resume(tmp_path, n, mode, k, limit, met):
    # a proof used to store the largest families it met, with best their
    # size, and a found proof's best was the largest family met before
    # its witness (k - 1 here); such files, built by editing new ones,
    # load and resume as the new ones do, and a wrong best is refused
    cfg = SearchConfig(n=n, mode=mode, target="prove", prove_k=k)
    base = run_search(cfg)
    stop, end, old, again = (tmp_path / name for name in ("stop", "end", "old", "again"))
    run_search(dataclasses.replace(cfg, node_limit=limit, checkpoint_path=str(stop)))
    run_search(dataclasses.replace(cfg, checkpoint_path=str(end)))
    star = serialize_family(family_from_triangles(n, [(0, 1, j) for j in range(2, 2 + met)], mode))

    def with_star(text, best):
        # the star on 0, 1 as the one largest family met, of size met
        blocks = f"\nwitnesses 1\nwitness\n{star}"
        return text.replace("\nbest -1\n", f"\nbest {best}\n").replace("\nwitnesses 0\n", blocks)

    for ck in (stop, end):
        text = ck.read_text()
        state = load_checkpoint(str(ck))
        if state["found"]:
            assert state["best"] == k
            older = text.replace(f"\nbest {k}\n", f"\nbest {k - 1}\n")
        else:
            assert state["best"] == -1 and "\nwitnesses 0\n" in text
            older = with_star(text, met)
            old.write_text(with_star(text, met + 1))
            with pytest.raises(SearchError, match="does not match the stored witnesses"):
                load_checkpoint(str(old))
        old.write_text(older)
        assert load_checkpoint(str(old)) == state
        r = resume_search(str(old), checkpoint_path=str(again))
        assert (r.found, r.nodes_explored) == (base.found, base.nodes_explored)
        assert _result_key(r) == _result_key(base)
        assert again.read_text() == end.read_text()


@pytest.mark.parametrize("target,k", [("enumerate", 0), ("prove", 8)])
def test_done_checkpoint_is_written_again(tmp_path, target, k):
    # a finished run, a census and a found proof, resumes to the same
    # result and writes the same checkpoint at the new path
    ck, again = tmp_path / "done.ckpt", tmp_path / "again.ckpt"
    base = run_search(SearchConfig(n=8, target=target, prove_k=k, checkpoint_path=str(ck)))
    r = resume_search(str(ck), checkpoint_path=str(again))
    assert again.read_bytes() == ck.read_bytes()
    assert _result_key(r) == _result_key(base)
    assert (r.found, r.nodes_explored, r.completed) == (base.found, base.nodes_explored, True)
    with pytest.raises(SearchError, match="cannot write checkpoint"):
        resume_search(str(ck), checkpoint_path=str(tmp_path))


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


def test_failed_checkpoint_rename_names_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(1, "Operation not permitted", src, dst)

    monkeypatch.setattr(search_module.os, "replace", refuse)
    path = str(tmp_path / "run.ckpt")
    monkeypatch.setattr(search_module, "_CKPT_INTERVAL", 2)
    cfg = SearchConfig(n=7, node_limit=5, checkpoint_path=path)
    messages = []
    for _ in range(2):
        with pytest.raises(SearchError) as err:
            run_search(cfg)
        messages.append(str(err.value))
    assert messages == [f"cannot write checkpoint {path}: [Errno 1] Operation not permitted"] * 2
    assert os.listdir(tmp_path) == []


def test_config_validation():
    with pytest.raises(SearchError):
        SearchConfig(n=2)
    with pytest.raises(SearchError):
        SearchConfig(n=5, mode="bag")
    with pytest.raises(SearchError):
        SearchConfig(n=5, target="count")
    with pytest.raises(SearchError):
        SearchConfig(n=5, node_limit=-1)


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
            for t in pool:
                if t in sub:
                    continue
                got = extend_ok(f, t)
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


def test_extend_ok_off_the_support_matches_brute():
    # members on a few scattered vertices of n = 8; each probe has 0 to 3
    # vertices off the support, and the relabeled check must not care
    rng = random.Random(16)
    seen = set()
    for _ in range(25):
        verts = sorted(rng.sample(range(8), rng.randint(3, 5)))
        pool = list(itertools.combinations(verts, 3))
        picked = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        members = [t + (rng.choice((1, 2)),) for t in picked]
        f = family_from_triangles(8, members, MULTISET)
        if has_rainbow(f):
            continue
        sup = set(f.support_vertices())
        for t in itertools.combinations(range(8), 3):
            for m in range(1, 3 - f.multiplicity(t)):
                want = brute_extend_ok(f, t, m)
                assert extend_ok(f, t, m) is want, (f, t, m)
                seen.add(len(set(t) - sup))
    assert seen == {0, 1, 2, 3}


def test_extend_ok_memory_follows_the_members():
    # the owner counts cover the probe and the members meeting it only;
    # an owner matrix on all 3,000 vertices takes about 70 MB
    f = family_from_triangles(3000, [(0, 1, 2), (0, 1, 3)])
    tracemalloc.start()
    try:
        answers = [extend_ok(f, (0, 2, 3)), extend_ok(f, (1500, 2000, 2999))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [False, True]
    assert peak < 2 * 2**20


_CAPPED_EXTEND_OK = """
from rainbowfree.family import family_from_triangles
from rainbowfree.search import extend_ok
tris = [(v, v + 1, v + 2) for v in range(0, 9000, 3)] + [(0, 3, 6)]
f = family_from_triangles(9000, tris)
print(extend_ok(f, (0, 1, 3)), extend_ok(f, (1, 4, 7)))
"""


def test_extend_ok_within_memory_cap():
    # 3,000 disjoint triangles and one member across three of them: all
    # 9,000 vertices are in the support, where an owner matrix would take
    # about 650 MB; under a 512 MiB address-space cap extend_ok answers
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_EXTEND_OK],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False True\n"), proc.stderr


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
    # random rainbow-free families, then the search root: no members,
    # whose list is written without a test
    rng = random.Random(10)
    cases = [_greedy_family(rng, 3 + trial % 7, (SET, MULTISET)[trial % 2]) for trial in range(24)]
    cases += [TriangleFamily(n, (), mode) for n in range(3, 13) for mode in (SET, MULTISET)]
    for f in cases:
        n = f.n
        cnt, mult = family_state(f)
        pool, pool_a, pool_b, pool_c = build_pool(n)
        ok = {(t, m): brute_extend_ok(f, t, m) for t in pool for m in (1, 2)}
        for (t, m), want in ok.items():
            assert extend_ok(f, t, m) is want, (f, t, m)
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
                    cnt, mult, max_mult, n, pool_a, pool_b, pool_c, start, None, out
                )
                assert out[:start] == [-1] * start
                assert out[start:] == want[start:], (f, start, max_mult)
                assert cap == sum(want[start:])


def test_parent_derived_lists_match_full_listings(monkeypatch):
    # along random increasing walks, each child's list derived from its
    # parent's equals a listing from scratch, entry for entry, and runs
    # the rule of _after_add only on the listed triangles that share an
    # edge with the new member: one meeting it in a single vertex reads
    # its two edge witnesses there and keeps its own-triple test
    tested = []
    real = accel_module._after_add

    def spy(cnt, mult, n, a, b, c, *rest):
        tested.append((a, b, c))
        return real(cnt, mult, n, a, b, c, *rest)

    monkeypatch.setattr(accel_module, "_after_add", spy)
    rng = random.Random(19)
    for trial in range(42):
        n = 6 + trial % 7
        mode = (SET, MULTISET)[trial % 2]
        max_mult = 2 if mode == MULTISET else 1
        pool, pool_a, pool_b, pool_c = build_pool(n)
        cnt = [[0] * n for _ in range(n)]
        members = []
        parent = [0] * len(pool)
        list_extensions(cnt, {}, max_mult, n, pool_a, pool_b, pool_c, 0, None, parent)
        start = 0
        while True:
            open_ = [i for i in range(start, len(pool)) if parent[i]]
            if not open_:
                break
            idx = rng.choice(open_)
            m = rng.randint(1, parent[idx])
            add_member(cnt, *pool[idx], m)
            members.append((pool[idx], m))
            mult = {(a * n + b) * n + c: k for (a, b, c), k in members}
            start = idx + 1
            args = (cnt, mult, max_mult, n, pool_a, pool_b, pool_c, start)
            full, child = [-1] * len(pool), [-1] * len(pool)
            cap = list_extensions(*args, None, full)
            tested.clear()
            assert list_extensions(*args, parent, child, *pool[idx]) == cap, members
            assert child == full, members
            sharing = {
                pool[i]
                for i in range(start, len(pool))
                if parent[i] and len(set(pool[i]) & set(pool[idx])) == 2
            }
            assert set(tested) == sharing, members
            assert cap == sum(full[start:])
            parent = child


def _first_dive_image(f):
    """f relabeled by the first greedy dive of its labeling walk, so a
    target walk on the image's own codes ties them at that dive."""
    lab: list[int] = []
    rows = [(*t, m) for t, m in sorted(f.members)]
    # a target above every code: the walk stops after its first dive
    min_labeling(rows, f.n, lab, [4 * (f.n + 2) ** 3])
    spare = iter(v for v in range(f.n) if v not in lab)
    new = [l if l >= 0 else next(spare) for l in lab]
    members = sorted((tuple(sorted(new[v] for v in t)), m) for t, m in f.members)
    return TriangleFamily(f.n, tuple(members), f.mode)


def test_checkpoint_check_agrees_with_canonical_labeling():
    # a resume refuses a prefix family or a stored witness exactly when it
    # is not canonically labeled, gaps in the support and no members included
    gap = family_from_triangles(8, [(0, 1, 2), (0, 1, 5), (2, 5, 7)], SET)
    # a target walk on this family's own codes ties them at its first
    # dive, though a smaller labeling exists: no canonicity test
    tied = family_from_triangles(6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 5), (1, 2, 3)])
    rows = [(*t, m) for t, m in sorted(tied.members)]
    assert min_labeling(rows, 6, [], member_codes(rows, 6)) == 1
    assert not is_canonical(tied)
    families = [TriangleFamily(5, (), SET), TriangleFamily(5, (), MULTISET), gap, tied]
    rng = random.Random(28)
    for trial in range(300):
        f = random_family(rng, rng.randint(3, 8), 10, (SET, MULTISET)[trial % 2])
        families += [f, _first_dive_image(f)]
    verdicts = collections.Counter()
    for f in families:
        want = canonical_relabeling(f)[1].members == tuple(sorted(f.members))
        assert is_canonical(f) is want, f
        for prefix, witnesses in ((f.members, ()), ((), (f,))):
            state = {"n": f.n, "mode": f.mode, "prefix": prefix, "witnesses": witnesses}
            try:
                search_module._check_canonical("ck", state)
                got = True
            except SearchError:
                got = False
            assert got is want, f
        verdicts[want] += 1
    assert min(verdicts[True], verdicts[False]) > 100


def test_writability_probe_leaves_nothing(tmp_path):
    path = tmp_path / "run.ckpt"
    search_module.write_atomic(str(path), None)
    assert os.listdir(tmp_path) == []
    with pytest.raises(OSError) as err:
        search_module.write_atomic(str(tmp_path / "missing" / "run.ckpt"), None)
    assert ".ckpt-" not in str(err.value)


@pytest.mark.parametrize(
    "n,mode,target,k", [(8, SET, "enumerate", 0), (7, MULTISET, "prove", 7)]
)
def test_resumed_legs_make_the_canonicity_calls_of_one_run(
    tmp_path, monkeypatch, n, mode, target, k
):
    # replayed nodes hand their children no automorphisms, which may slow
    # their walks but must not change a verdict or add a call
    calls = []
    real = search_module.is_min_labeled

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(search_module, "is_min_labeled", spy)
    base = run_search(SearchConfig(n=n, mode=mode, target=target, prove_k=k))
    whole, calls[:] = len(calls), []
    ck = str(tmp_path / "legs.ckpt")
    r = run_search(SearchConfig(n, mode, target, k, node_limit=2, checkpoint_path=ck))
    legs = 1
    while not r.completed:
        r = resume_search(ck, node_limit=2, checkpoint_path=ck)
        legs += 1
    assert legs >= 5 and len(calls) == whole > 0
    assert _result_key(r) == _result_key(base)
    assert (r.nodes_explored, r.found) == (base.nodes_explored, base.found)


def test_search_examples_from_docs():
    f = family_from_triangles(4, [(0, 1, 2), (1, 2, 3)])
    assert extend_ok(f, (0, 1, 3)) is False
    assert extend_ok(family_from_triangles(4, [(0, 1, 2)]), (0, 1, 3)) is True
