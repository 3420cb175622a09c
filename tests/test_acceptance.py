"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Run with `pytest -v tests/test_acceptance.py`; each test prints
"criterion K: PASS|FAIL" and carries its evidence in the assertion
message on failure.  Searches are shared across tests through
module-scoped fixtures, so the suite stays fast.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from rainbowfree.canon import are_isomorphic
from rainbowfree.cli import main as cli_main
from rainbowfree.constructions import (
    double,
    doubled_nine,
    pair_family,
    t_star,
)
from rainbowfree.certifier import certify
from rainbowfree.family import (
    MULTISET,
    SET,
    family_from_triangles,
    serialize_family,
    union_graph,
)
from rainbowfree.rainbow import find_rainbow, shared_edge_count
from rainbowfree.rs import check_t2_constraints, decompose, unique_triangle_property
from rainbowfree.search import enumerate_extremal, extend_ok, max_family, prove_size

from oracles import brute_extend_ok, brute_has_rainbow, random_family


class Checks:
    """Collects failed expectations so a criterion reports once."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, cond: bool, msg: str) -> None:
        if not cond:
            self.failures.append(msg)

    def conclude(self, num: int, detail: str = "") -> None:
        status = "PASS" if not self.failures else "FAIL"
        extra = f" ({detail})" if detail else ""
        print(f"criterion {num}: {status}{extra}")
        assert not self.failures, "; ".join(self.failures)


@pytest.fixture(scope="module")
def set_searches():
    out = {}
    for n in (4, 5, 6, 7, 8):
        t0 = time.perf_counter()
        out[n] = (max_family(n), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def multiset_searches():
    return {n: max_family(n, mode=MULTISET) for n in (4, 5, 6)}


@pytest.fixture(scope="module")
def enum8():
    return enumerate_extremal(8)


@pytest.fixture(scope="module")
def prove912():
    return prove_size(9, 12, mode=MULTISET)


@pytest.fixture(scope="module")
def corpus(set_searches, multiset_searches, prove912):
    """Labeled rainbow-free families drawn from every producing path."""
    items = [(f"t_star({n})", t_star(n)) for n in range(4, 41, 4)]
    for n, (r, _) in set_searches.items():
        items += [(f"search set n={n} #{i}", w) for i, w in enumerate(r.witnesses)]
    for n, r in multiset_searches.items():
        items += [(f"search multiset n={n} #{i}", w) for i, w in enumerate(r.witnesses)]
    items.append(("doubled_nine", doubled_nine()))
    items.append(("prove 9/12 witness", prove912.witnesses[0]))
    items.append(("pair_family(7,2,3)", pair_family(7, 2, 3)))
    items.append(("pair_family(9,2,5)", pair_family(9, 2, 5)))
    items.append(("pair_family(10,3,4)", pair_family(10, 3, 4)))
    items.append(("lone triangle", family_from_triangles(5, [(1, 2, 4)])))
    items.append(
        ("doubled lone triangle", family_from_triangles(5, [(1, 2, 4, 2)], MULTISET))
    )
    items.append(
        (
            "doubled disjoint chain",
            double(family_from_triangles(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])),
        )
    )
    for label, f in items:
        assert find_rainbow(f) is None, f"corpus family {label} is not rainbow-free"
    return items


def test_criterion_1_construction_sizes_and_check(tmp_path, capsys):
    c = Checks()
    t0 = time.perf_counter()
    for n in range(4, 41, 4):
        f = t_star(n)
        c.expect(8 * f.size == n * n, f"size(t_star({n})) = {f.size} != n^2/8")
        path = tmp_path / f"t{n}.trifam"
        path.write_text(serialize_family(f))
        code = cli_main(["check", str(path)])
        out = capsys.readouterr().out
        c.expect(code == 0, f"check exit {code} for t_star({n})")
        c.expect(out == "rainbow-free\n", f"check output {out!r} for t_star({n})")
    elapsed = time.perf_counter() - t0
    c.expect(elapsed < 5.0, f"construction sweep took {elapsed:.2f}s >= 5s")
    c.conclude(1, f"n = 4..40, {elapsed:.2f}s")


def test_criterion_2_small_maxima_by_search(set_searches):
    c = Checks()
    expected = {4: 2, 5: 3, 6: 4, 7: 6, 8: 8}
    for n, (r, secs) in set_searches.items():
        want = expected[n]
        c.expect(r.completed, f"search n={n} did not complete")
        c.expect(r.best_size == want, f"m({n}) = {r.best_size}, expected {want}")
        c.expect(r.best_size == n * n // 8, f"m({n}) != floor(n^2/8)")
        c.expect(r.best_size <= n * n // 8, f"m({n}) exceeds floor(n^2/8)")
        budget = 60.0 if n <= 7 else 1800.0
        c.expect(secs < budget, f"search n={n} took {secs:.1f}s >= {budget}s")
    # cross-check small n against a symmetry-free subset enumeration
    for n in (4, 5, 6):
        pool = list(itertools.combinations(range(n), 3))
        best = 0
        stack = [(0, ())]
        while stack:
            i, members = stack.pop()
            best = max(best, len(members))
            for j in range(i, len(pool)):
                f = family_from_triangles(n, list(members) + [pool[j]], SET)
                if not brute_has_rainbow(f):
                    stack.append((j + 1, members + (pool[j],)))
        c.expect(best == expected[n], f"brute force m({n}) = {best} != {expected[n]}")
    times = ", ".join(f"n={n}: {secs:.2f}s" for n, (_, secs) in set_searches.items())
    c.conclude(2, times)


def test_criterion_3_uniqueness_at_8(enum8):
    c = Checks()
    c.expect(enum8.completed, "enumeration did not complete")
    c.expect(enum8.best_size == 8, f"extremal size {enum8.best_size} != 8")
    c.expect(
        enum8.extremal_class_count == 1,
        f"{enum8.extremal_class_count} isomorphism classes, expected 1",
    )
    c.expect(len(enum8.witnesses) == 1, "expected exactly one witness")
    c.expect(
        are_isomorphic(enum8.witnesses[0], t_star(8)),
        "extremal class is not the paired construction",
    )
    c.conclude(3, f"{enum8.nodes_explored} nodes")


def test_criterion_4_multiset_lower_bound(prove912):
    c = Checks()
    built = doubled_nine()
    c.expect(built.n == 9 and built.size == 12, "construction is not size 12 on n=9")
    c.expect(find_rainbow(built) is None, "construction has a rainbow")
    c.expect(prove912.found is True, "search did not find a size-12 witness")
    w = prove912.witnesses[0]
    c.expect(w.n == 9 and w.size == 12, "witness is not size 12 on n=9")
    c.expect(find_rainbow(w) is None, "witness has a rainbow")
    c.expect(12 > 81 // 8 == 10, "12 does not beat the simple-family bound 10")
    c.conclude(4, "both construction and search routes")


def test_criterion_5_certifier_instance_proofs(set_searches, multiset_searches):
    c = Checks()
    cases = [(f"t_star({n})", t_star(n)) for n in (4, 8, 12, 16, 20, 24)]
    for n, (r, _) in set_searches.items():
        cases += [(f"set witness n={n} #{i}", w) for i, w in enumerate(r.witnesses)]
    for n, r in multiset_searches.items():
        cases += [
            (f"multiset witness n={n} #{i}", w) for i, w in enumerate(r.witnesses)
        ]
    for label, f in cases:
        rep = certify(f)
        support = (
            f
            if f.mode == SET
            else family_from_triangles(f.n, list(f.support), SET)
        )
        g = union_graph(support)
        c.expect(rep.eq1_holds, f"{label}: pairing identity failed")
        c.expect(
            rep.eq1_value == 2 * support.size,
            f"{label}: identity value {rep.eq1_value} != 2|T|",
        )
        c.expect(rep.eq2_holds, f"{label}: per-vertex bound failed")
        sizes = {w.b: len(w.i_b) for w in rep.witnesses}
        limit_a = len(rep.partition.a)
        for b, size, saturated in rep.eq2_values:
            c.expect(size <= limit_a, f"{label}: d-sum {size} > |A| at b={b}")
            c.expect(
                saturated == (size == limit_a),
                f"{label}: saturation flag wrong at b={b}",
            )
            c.expect(size == sizes.get(b), f"{label}: row size mismatch at b={b}")
        if rep.extremal:
            c.expect(
                all(sat for _, _, sat in rep.eq2_values),
                f"{label}: extremal rows not saturated",
            )
        for w in rep.witnesses:
            want = sum(
                rep.beta.d.get(e, 0) for e in rep.partition.e_b if w.b in e
            )
            c.expect(
                len(w.i_b) == want,
                f"{label}: witness at b={w.b} has size {len(w.i_b)} != {want}",
            )
            for u, v in itertools.combinations(w.i_b, 2):
                c.expect(
                    not (g.adj[min(u, v)] >> max(u, v)) & 1,
                    f"{label}: witness at b={w.b} is not independent ({u},{v})",
                )
        lhs, mid, rhs = rep.chain_values
        c.expect(rep.chain_holds, f"{label}: size chain failed")
        c.expect(lhs == 2 * support.size, f"{label}: chain lhs {lhs} != 2|T|")
        c.expect(
            mid == len(rep.partition.a) * len(rep.partition.b),
            f"{label}: chain mid {mid} != |A||B|",
        )
        c.expect(
            lhs <= mid <= rhs == Fraction(f.n * f.n, 4),
            f"{label}: chain {lhs} <= {mid} <= {rhs} broken",
        )
        if rep.extremal:
            c.expect(rep.step1_holds, f"{label}: extremal step 1 failed")
            c.expect(
                rep.tb_properties == (True, True, True, True),
                f"{label}: reduced-family properties {rep.tb_properties}",
            )
            c.expect(rep.matched_pairs is True, f"{label}: matched pairs failed")
        c.expect(rep.verdict, f"{label}: overall verdict failed")
    c.conclude(5, f"{len(cases)} families certified")


def test_criterion_6_members_share_at_most_one_edge(corpus):
    c = Checks()
    for label, f in corpus:
        for i in range(len(f.members)):
            k = shared_edge_count(f, i)
            c.expect(
                k <= 1,
                f"{label}: member {f.members[i][0]} shares {k} edges",
            )
    c.conclude(6, f"{len(corpus)} families")


def test_criterion_7_multiset_consequences(corpus):
    c = Checks()
    count = 0
    for label, f in corpus:
        if f.mode != MULTISET:
            continue
        count += 1
        d = decompose(f)
        c.expect(
            f.size == d.t1.size + d.t2.size,
            f"{label}: decomposition loses copies",
        )
        ok, notes = check_t2_constraints(d, f)
        c.expect(ok, f"{label}: doubled layer violates {notes}")
        held, bad = unique_triangle_property(d.g2)
        c.expect(held, f"{label}: edge {bad} not in exactly one triangle")
        c.expect(
            len(d.g2.edges) == 3 * d.t2.size,
            f"{label}: doubled layer edges {len(d.g2.edges)} != 3|T2|",
        )
    c.expect(count >= 5, f"only {count} multiset families in the corpus")
    c.conclude(7, f"{count} multiset families")


def test_criterion_8_kernels_agree_with_oracles():
    c = Checks()
    families = 0
    probes = 0
    for n in (3, 4, 5, 6):
        pool = list(itertools.combinations(range(n), 3))
        for k in range(0, min(6, len(pool)) + 1):
            for sub in itertools.combinations(pool, k):
                f = family_from_triangles(n, list(sub), SET)
                families += 1
                brute = brute_has_rainbow(f)
                got = find_rainbow(f)
                c.expect(
                    (got is not None) == brute,
                    f"find_rainbow disagrees on {sub} (n={n})",
                )
                if brute:
                    continue
                for t in pool:
                    probes += 1
                    lhs = extend_ok(f, t)
                    rhs = brute_extend_ok(f, t)
                    c.expect(
                        lhs == rhs,
                        f"extend_ok({sub} + {t}) = {lhs}, oracle says {rhs}",
                    )
                if c.failures:
                    c.conclude(8)
    expected = sum(
        math.comb(math.comb(n, 3), k)
        for n in (3, 4, 5, 6)
        for k in range(0, min(6, math.comb(n, 3)) + 1)
    )
    c.expect(
        families == expected, f"enumerated {families} families, expected {expected}"
    )

    rng = random.Random(2024)
    pools = {n: list(itertools.combinations(range(n), 3)) for n in range(4, 10)}
    rand_probes = 0
    for _ in range(10_000):
        n = rng.randint(4, 9)
        mode = rng.choice((SET, MULTISET))
        f = random_family(rng, n, 7, mode)
        brute = brute_has_rainbow(f)
        c.expect(
            (find_rainbow(f) is not None) == brute,
            f"find_rainbow disagrees on random family {f.members} (n={n})",
        )
        if brute:
            continue
        t = rng.choice(pools[n])
        add_m = rng.choice((1, 2)) if mode == MULTISET else 1
        if f.multiplicity(t) + add_m > 2:
            continue
        rand_probes += 1
        c.expect(
            extend_ok(f, t, add_m) == brute_extend_ok(f, t, add_m),
            f"extend_ok disagrees on {f.members} + {t} x{add_m}",
        )
        if c.failures:
            c.conclude(8)
    c.conclude(
        8,
        f"{families} exhaustive families, {probes} probes,"
        f" 10000 random families, {rand_probes} random probes",
    )
