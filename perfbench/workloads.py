"""The benchmark workloads: inputs, operations and expected answers.

A workload yields the operations of one pass.  Each operation has a slot
name that is the same in every pass, a ``run`` callable (the only timed
part) and a ``check`` callable that returns None or what was wrong.  The
runner runs and checks each operation before drawing the next, so an
operation may depend on the results of the ones before it.
Inputs that take a seed are drawn from one random stream per run, so a
pass gets fresh relabelings and plantings while the same seed still gives
the same inputs; the sizes and kinds of the inputs do not depend on the
seed, so the amount of work does not either.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import oracle as O
from rainbowfree import canon, cli, rainbow, search
from rainbowfree.family import TriangleFamily


@dataclass
class Op:
    slot: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    # search calls report the nodes they explored, via check
    nodes: int | None = None
    result: Any = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, looked up at call time so tracing sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def as_family(f: O.Fam) -> TriangleFamily:
    return TriangleFamily(f.n, f.members, f.mode)


def as_fam(f: TriangleFamily) -> O.Fam:
    return O.Fam(f.n, f.mode, f.members)


def porcelain(text: str) -> dict[str, str]:
    return dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)


class Workload:
    name = ""
    # single-worker searches: node and call counts must repeat exactly
    exact_counters = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def ops(self, pass_no: int) -> Iterator[Op]:
        raise NotImplementedError

    def call_problems(self, min_labeled_calls: dict[str, int]) -> list[str]:
        """Checks on one traced pass's is_min_labeled calls per slot."""
        return []


# -- search workloads


def _witness_problem(result, n: int, size: int) -> str | None:
    for w in result.witnesses:
        f = as_fam(w)
        if f.n != n or f.size < size:
            return f"witness on {f.n} vertices has size {f.size}, wanted {size} on {n}"
        if O.has_rainbow(f):
            return f"witness {f.members} has a rainbow triangle"
    return None


class SearchSet(Workload):
    """Single-worker set-mode search, with a checkpointed replay of n = 8."""

    name = "search-set"
    exact_counters = True
    # 25 legs of two nodes per pass, so checkpoint writing, parsing and
    # prefix replay carry weight in the pass time
    LEG_NODES = 2

    def ops(self, pass_no: int) -> Iterator[Op]:
        def check_max9(r) -> str | None:
            max9.nodes = r.nodes_explored
            if not r.completed or r.best_size != 81 // 8:
                return f"max_family(9): best {r.best_size}, completed {r.completed}; want 10"
            return _witness_problem(r, 9, 10)

        max9 = Op("max_family(9)", lambda: search.max_family(9), check_max9)
        yield max9

        def check_full(r) -> str | None:
            full.nodes = r.nodes_explored
            if not r.completed or r.best_size != 64 // 8 or r.extremal_class_count != 1:
                return f"enumerate_extremal(8): best {r.best_size}, classes {r.extremal_class_count}"
            if not all(O.is_tstar_shape(as_fam(w)) for w in r.witnesses):
                return "the n = 8 extremal class is not t_star(8)"
            return _witness_problem(r, 8, 8)

        full = Op("enumerate_extremal(8)", lambda: search.enumerate_extremal(8), check_full)
        yield full

        ckpt = self.workdir / "enumerate8.ckpt"
        ckpt.unlink(missing_ok=True)
        done = 0

        def check_leg(r) -> str | None:
            nonlocal done
            leg.nodes = r.nodes_explored - done
            if leg.nodes <= 0:
                return f"leg made no progress at {r.nodes_explored} nodes"
            done = r.nodes_explored
            if not r.completed:
                return None
            ref = full.result
            if ref is None:
                return "no uninterrupted run to compare with"
            got = (r.best_size, [w.members for w in r.witnesses], r.nodes_explored)
            want = (ref.best_size, [w.members for w in ref.witnesses], ref.nodes_explored)
            if got != want:
                return f"checkpointed legs give {got}, uninterrupted run {want}"
            return None

        leg = Op(
            "enumerate_extremal(8).leg0",
            lambda: search.run_search(
                search.SearchConfig(
                    n=8,
                    target=search.ENUMERATE,
                    node_limit=self.LEG_NODES,
                    checkpoint_path=str(ckpt),
                )
            ),
            check_leg,
        )
        yield leg
        k = 0
        while leg.result is not None and not leg.result.completed and leg.nodes:
            k += 1
            leg = Op(
                f"enumerate_extremal(8).leg{k}",
                lambda: search.resume_search(
                    str(ckpt), node_limit=self.LEG_NODES, checkpoint_path=str(ckpt)
                ),
                check_leg,
            )
            yield leg

    def call_problems(self, min_labeled_calls: dict[str, int]) -> list[str]:
        whole = min_labeled_calls.get("enumerate_extremal(8)", 0)
        legs = sum(c for slot, c in min_labeled_calls.items() if ".leg" in slot)
        if legs != whole:
            return [f"is_min_labeled calls: {legs} over checkpointed legs, {whole} uninterrupted"]
        return []


# -- verification corpus


def _certificate_problem(f: O.Fam, text: str) -> str | None:
    """The rainbow certificate printed by check/certify must prove a rainbow."""
    lines = [ln.split() for ln in text.splitlines()]
    head = [ln for ln in lines if ln and ln[0] == "rainbow"]
    edges = [ln for ln in lines if ln and ln[0] == "edge"]
    if len(head) != 1 or len(edges) != 3:
        return f"no certificate in output {text[:80]!r}"
    triple = tuple(int(v) for v in head[0][1:4])
    assignment = [
        ((int(e[1]), int(e[2])), (int(e[4]), int(e[6]))) for e in edges
    ]
    problem = O.certificate_problem(f, triple, assignment)  # type: ignore[arg-type]
    if problem:
        return problem
    cert = rainbow.RainbowCertificate(triple, tuple(assignment))  # type: ignore[arg-type]
    if not rainbow.verify_certificate(as_family(f), cert):
        return "verify_certificate rejects the printed certificate"
    return None


class VerifyCorpus(Workload):
    """TRIFAM files on 8..60 vertices driven through the CLI, no search."""

    name = "verify-corpus"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        d9 = O.doubled_nine()
        tstar = [(f"tstar{n}", O.t_star(n)) for n in (8, 16, 24, 32, 40, 48, 60)]
        pairs = [
            (f"pairs{n}", O.disjoint_union(n, [O.pair_apex(used, p, a)], "set"))
            for n, used, p, a in ((20, 14, 3, 8), (36, 26, 6, 14), (52, 36, 8, 20))
        ]
        doubled = [
            (f"doubled{n}", O.disjoint_union(n, [d9] * k, "multiset"))
            for n, k in ((9, 1), (20, 2), (40, 4), (58, 6))
        ]
        mixed = O.disjoint_union(40, [O.t_star(16), d9, d9], "multiset")
        self.bases = tstar + pairs + doubled + [("mixed40", mixed)]

    def ops(self, pass_no: int) -> Iterator[Op]:
        for name, base in self.bases:
            f = O.random_relabel(base, self.rng)
            planted = O.plant_rainbow(f, self.rng)
            bad = O.with_member(f, planted, self.rng)
            clean_path = self.workdir / f"{name}.trifam"
            bad_path = self.workdir / f"{name}.rainbow.trifam"
            clean_path.write_text(O.trifam_text(f))
            bad_path.write_text(O.trifam_text(bad))
            yield from self._clean_ops(name, f, clean_path, planted)
            yield from self._rainbow_ops(name, bad, bad_path)

    def _clean_ops(self, name: str, f: O.Fam, path: Path, planted) -> Iterator[Op]:
        multiset = f.mode == "multiset"

        def check_check(res) -> str | None:
            code, out = res
            want = ["status=rainbow-free", "bound=n/a" if multiset else "bound=holds"]
            if code != 0 or out.split() != want:
                return f"check exit {code}, output {out!r}; want {want}"
            return None

        yield Op(
            f"{name}.check",
            lambda: run_cli(["check", str(path), "--verify-bound", "--porcelain"]),
            check_check,
        )

        def check_certify(res) -> str | None:
            code, out = res
            kv = porcelain(out)
            if code != 0 or kv.get("verdict") != "pass":
                return f"certify exit {code}, verdict {kv.get('verdict')}"
            if (kv.get("n"), kv.get("size")) != (str(f.n), str(f.size)):
                return f"certify reports n {kv.get('n')} size {kv.get('size')}"
            if name.startswith("tstar") and (
                kv.get("extremal"), kv.get("is_tstar")
            ) != ("true", "true"):
                return "certify does not recognise t_star as extremal"
            return None

        yield Op(
            f"{name}.certify",
            lambda: run_cli(["certify", str(path), "--porcelain"]),
            check_certify,
        )

        if multiset:
            t1 = len(f.members)
            t2 = sum(1 for _, m in f.members if m == 2)

            def check_rs(res) -> str | None:
                code, out = res
                kv = porcelain(out)
                got = (kv.get("t1"), kv.get("t2"), kv.get("total"))
                if code != 0 or got != (str(t1), str(t2), str(f.size)):
                    return f"rs exit {code}, (t1, t2, total) {got}"
                if (kv.get("t2-constraints"), kv.get("unique-triangle")) != ("true", "true"):
                    return f"rs consequence checks fail: {out!r}"
                return None

            yield Op(f"{name}.rs", lambda: run_cli(["rs", str(path), "--porcelain"]), check_rs)

        family = as_family(f)
        yield Op(
            f"{name}.extend_ok.planted",
            lambda: search.extend_ok(family, planted),
            lambda ok: None if ok is False else "extend_ok accepts a member that makes a rainbow",
        )
        spare = O.isolated_vertices(f)
        if len(spare) >= 3:
            fresh = O.tri(*self.rng.sample(spare, 3))
            yield Op(
                f"{name}.extend_ok.isolated",
                lambda: search.extend_ok(family, fresh),
                lambda ok: None if ok is True else "extend_ok rejects a triangle on isolated vertices",
            )

    def _rainbow_ops(self, name: str, bad: O.Fam, path: Path) -> Iterator[Op]:
        def check_rainbow(res) -> str | None:
            code, out = res
            if code != 1 or not out.startswith("status=rainbow\n"):
                return f"exit {code}, output {out[:60]!r}; want a rainbow"
            return _certificate_problem(bad, out)

        yield Op(
            f"{name}.rainbow.check",
            lambda: run_cli(["check", str(path), "--verify-bound", "--porcelain"]),
            check_rainbow,
        )
        yield Op(
            f"{name}.rainbow.certify",
            lambda: run_cli(["certify", str(path), "--porcelain"]),
            check_rainbow,
        )


# -- canonical labeling


class CanonIso(Workload):
    """Canonical forms of relabeled families, through the CLI and the API."""

    name = "canon-iso"
    # Per family: CLI canon runs per pass, and whether are_isomorphic is
    # probed.  One canon of pair_apex(10, 2, 6) takes about two seconds and
    # of pair_apex(10, 3, 4) about half a second, so those get canon runs
    # only; the cost of a labeling varies by tens of percent between
    # relabelings, so the cheaper families are canonized more than once.
    # The one canon of pair_apex(10, 2, 6) takes from 1.0 to 2.6 s depending
    # on the labeling, so a seeded labeling drawn once a pass would make the
    # pass time depend on the seed: it gets one fixed labeling instead.
    PLAN = {
        "tstar8": (2, True),
        "doubled9": (2, True),
        "lowsym9": (2, True),
        "lowsym10": (2, True),
        "pairs10_3_4": (4, False),
        "pairs10_2_6": (1, False),
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # the families themselves do not depend on the seed, only their
        # labelings do, so the seed does not change how much work a pass is
        fixed = random.Random(self.name)
        self.families = {
            "tstar8": O.t_star(8),
            "doubled9": O.doubled_nine(),
            "lowsym9": O.random_rainbow_free(9, 6, fixed),
            "lowsym10": O.random_rainbow_free(10, 7, fixed),
            "pairs10_3_4": O.pair_apex(10, 3, 4),
            "pairs10_2_6": O.pair_apex(10, 2, 6),
        }
        self.moved = {name: O.move_member(f, fixed) for name, f in self.families.items()}
        self.fixed_labeling = {
            "pairs10_2_6": O.random_relabel(self.families["pairs10_2_6"], fixed)
        }
        self.reference: dict[str, str] = {}

    def ops(self, pass_no: int) -> Iterator[Op]:
        for name, (canon_runs, probe_iso) in self.PLAN.items():
            f = self.families[name]
            for run in range(canon_runs):
                yield self._canon_op(name, run, f)
            if not probe_iso:
                continue
            a, b = (as_family(O.random_relabel(f, self.rng)) for _ in range(2))
            yield Op(
                f"{name}.iso",
                lambda a=a, b=b: canon.are_isomorphic(a, b),
                lambda same: None if same is True else "relabelings reported not isomorphic",
            )
            c = as_family(O.random_relabel(f, self.rng))
            d = as_family(O.random_relabel(self.moved[name], self.rng))
            yield Op(
                f"{name}.noniso",
                lambda c=c, d=d: canon.are_isomorphic(c, d),
                lambda same: None
                if same is False
                else "families with different degree sequences reported isomorphic",
            )

    def _canon_op(self, name: str, run: int, f: O.Fam) -> Op:
        path = self.workdir / f"{name}.{run}.trifam"
        g = self.fixed_labeling.get(name) or O.random_relabel(f, self.rng)
        path.write_text(O.trifam_text(g))

        def check(res) -> str | None:
            code, out = res
            if code != 0:
                return f"canon exit {code}"
            g = O.parse_trifam(out)
            if (g.n, g.mode, g.size, O.degree_sequence(g)) != (
                f.n, f.mode, f.size, O.degree_sequence(f)
            ):
                return f"canon output is not a relabeling of {name}"
            ref = self.reference.setdefault(name, out)
            if out != ref:
                return f"canonical forms of two relabelings of {name} differ"
            return None

        return Op(f"{name}.canon{run}", lambda: run_cli(["canon", str(path)]), check)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SearchSet, VerifyCorpus, CanonIso)
}
