"""One workload in a fresh interpreter: run passes, check answers, measure.

run.py starts this script once per workload and reads the JSON file it
writes.  The only timed code is each operation's ``run``; input
generation and answer checks sit outside the timed regions.  With
--trace 0, a fixed reference loop is timed between operations, so each
pass's time can be given in units of what the reference took then, and
set-up probes (fresh interpreters timed until ``import rainbowfree``
returns) run between passes, spread over the whole run.
With --trace 1 the first half of the time runs untraced and the second
half traced, and the per-layer numbers come from the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Record:
    pass_no: int
    slot: str
    op_id: int
    seconds: float
    error: str | None
    nodes: int | None
    traced: bool


# Seconds of run between two set-up probes.
PROBE_EVERY_S = 2.5


def probe_setup(cwd: Path) -> float:
    """Seconds from launching an interpreter until ``import rainbowfree`` returns.

    The interpreter inherits this process's environment, so it imports the
    same package copy.
    """
    code = "import time, rainbowfree; print(repr(time.monotonic()))"
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import rainbowfree failed:\n{proc.stderr}")
    return float(proc.stdout.strip()) - launched


class Gauge:
    """Times a fixed piece of reference work between operations.

    On a shared virtual machine CPU speed swings by half or more, in phases
    from milliseconds to minutes long, and a whole run can fall in a slow
    one.  The run's mean pass time divided by the mean of the reference
    times sampled through the run is steady across such phases; a single
    sample is not, so nothing finer is divided.  The reference is the kind
    of work the package's pure-Python kernels do: scalar reads of an int64
    numpy array and integer arithmetic.  It is benchmark code and never
    changes with the program.
    """

    EVERY_S = 0.05
    STEPS = 16000

    def __init__(self) -> None:
        import numpy

        self.table = numpy.arange(64, dtype=numpy.int64)
        self.last = -float("inf")
        self.samples: list[float] = []

    def reference(self) -> float:
        t = self.table
        acc = 0
        t0 = perf_counter()
        for i in range(self.STEPS):
            acc += int(t[i & 63]) * (i % 7)
            if acc > 1 << 40:
                acc = 0
        return perf_counter() - t0

    def maybe_sample(self) -> None:
        """Time the reference if EVERY_S has passed since the last time."""
        if perf_counter() - self.last >= self.EVERY_S:
            self.samples.append(self.reference())
            self.last = perf_counter()


def run_pass(wl, pass_no: int, first_op: int, tracer, gauge=None) -> list[Record]:
    records = []
    for op in wl.ops(pass_no):
        if gauge is not None:
            gauge.maybe_sample()
        op_id = first_op + len(records)
        if tracer is not None:
            tracer.op = op_id
        error = None
        t0 = perf_counter()
        try:
            op.result = op.run()
        except Exception:
            error = "raised " + traceback.format_exc(limit=4)
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
        if error is None:
            try:
                error = op.check(op.result)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=4)
        if error is not None:
            print(f"FAILED {wl.name} pass {pass_no} {op.slot}: {error}", file=sys.stderr)
        records.append(
            Record(pass_no, op.slot, op_id, seconds, error, op.nodes, tracer is not None)
        )
    return records


def run_phase(
    wl, budget: float, tracer, records: list[Record], probe=None, gauge=None
) -> list[float]:
    """Whole passes until the budget is spent, stopping at most half a pass late.

    ``probe``, if given, is called between passes about every
    PROBE_EVERY_S seconds, and once at the end; its values are returned.
    """
    start = perf_counter()
    probes: list[float] = []
    last_probe = start
    while True:
        pass_no = records[-1].pass_no + 1 if records else 0
        t0 = perf_counter()
        records += run_pass(wl, pass_no, len(records), tracer, gauge)
        last = perf_counter() - t0
        done = perf_counter() - start + 0.5 * last >= budget
        if probe is not None and (done or perf_counter() - last_probe >= PROBE_EVERY_S):
            probes.append(probe())
            last_probe = perf_counter()
        if done:
            return probes


def by_pass(records: list[Record]) -> dict[int, list[Record]]:
    out: dict[int, list[Record]] = {}
    for r in records:
        out.setdefault(r.pass_no, []).append(r)
    return out


# A fixed percentile rather than the highest one with ten samples beyond
# it: the operations of a pass differ in cost, so a percentile that moved
# with the number of passes would land on a different kind of operation.
TAIL_PERCENTILE = 90


def tail(samples: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE latency and how many samples lie above it."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in samples if x > value)


def end_to_end(records: list[Record], gauge: Gauge) -> tuple[dict, dict]:
    passes = by_pass(records)
    walls = [sum(r.seconds for r in rs) for rs in passes.values()]
    reference = statistics.mean(gauge.samples)
    samples = [r.seconds for r in records]
    tail_value, beyond = tail(samples)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_ref": statistics.mean(walls) / reference,
        "peak_rss_mb": usage / 1024.0,
    }
    # Reported but not bounded: times in seconds follow the machine's swings
    # in CPU speed, which on a shared two-vCPU virtual machine moved them by
    # more than 25% between runs; single short operations swing even more.
    details = {
        "wall_s": statistics.median(walls),
        "ops_per_s": len(records) / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * tail_value,
        "passes": len(passes),
        "pass_wall_s": walls,
        "reference_s": reference,
        "reference_samples": len(gauge.samples),
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_tail_beyond": beyond,
        "op_samples": len(samples),
        "op_median_ms": {
            slot: 1e3 * statistics.median(r.seconds for r in records if r.slot == slot)
            for slot in dict.fromkeys(r.slot for r in records)
        },
    }
    return metrics, details


def search_nodes(rs: list[Record]) -> tuple[int, float]:
    searches = [r for r in rs if r.nodes is not None]
    return sum(r.nodes for r in searches), sum(r.seconds for r in searches)


def per_layer(records: list[Record], tracer) -> dict:
    from tracing import SPAN_NAMES

    passes = by_pass(records)
    untraced = [rs for rs in passes.values() if not rs[0].traced]
    traced = [rs for rs in passes.values() if rs[0].traced]
    rows = [tracer.summary({r.op_id for r in rs}) for rs in traced]
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = statistics.median_low(row[name]["calls"] for row in rows)
        metrics[f"{name}.self_s"] = statistics.median(row[name]["self_s"] for row in rows)
    for name, ratio in (
        ("_accel.is_min_labeled", "accept_ratio"),
        ("_accel.list_extensions", "yield_ratio"),
    ):
        good = sum(row[name]["good"] for row in rows)
        tried = sum(row[name]["tried"] for row in rows)
        metrics[f"{name}.{ratio}"] = good / tried if tried else 0.0
    metrics["search.nodes"] = statistics.median_low(
        search_nodes(rs)[0] for rs in passes.values()
    )
    rates = [n / s for n, s in map(search_nodes, untraced) if s > 0]
    metrics["search.nodes_per_s"] = statistics.median(rates) if rates else 0.0
    plain = statistics.median(sum(r.seconds for r in rs) for rs in untraced)
    with_spans = statistics.median(sum(r.seconds for r in rs) for rs in traced)
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.traced_wall_s"] = with_spans
    metrics["trace.overhead_s"] = with_spans - plain
    return metrics


def counter_problems(wl, records: list[Record], tracer) -> list[str]:
    """Exact counters of single-worker search must repeat in every pass."""
    if not wl.exact_counters:
        return []
    problems = []
    seen: dict[str, int] = {}
    for r in records:
        if r.nodes is not None and seen.setdefault(r.slot, r.nodes) != r.nodes:
            problems.append(
                f"{r.slot}: nodes {r.nodes} in pass {r.pass_no}, {seen[r.slot]} before"
            )
    if tracer is None:
        return problems
    calls = tracer.calls_by_op("_accel.is_min_labeled")
    seen_calls: dict[str, int] = {}
    for rs in by_pass(records).values():
        if not rs[0].traced:
            continue
        by_slot = {r.slot: calls.get(r.op_id, 0) for r in rs}
        for slot, c in by_slot.items():
            if seen_calls.setdefault(slot, c) != c:
                problems.append(
                    f"{slot}: is_min_labeled calls {c} in pass {rs[0].pass_no}, "
                    f"{seen_calls[slot]} before"
                )
        problems += wl.call_problems(by_slot)
    return problems


def write_spans(path: Path, records: list[Record], tracer) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for r in records:
            if r.traced:
                fh.write(json.dumps({"op": r.op_id, "pass": r.pass_no, "slot": r.slot}) + "\n")
        for i, s in enumerate(tracer.spans):
            if s is not None:
                name, start, end, parent, op = s
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import numpy
    import rainbowfree

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(rainbowfree.__file__).resolve().parents:
        print(f"error: imported {rainbowfree.__file__}, not the copy in {src}", file=sys.stderr)
        return 2

    from rainbowfree import _accel
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    records: list[Record] = []
    tracer = None
    setup_samples: list[float] = []
    if args.trace:
        run_phase(wl, args.seconds / 2, None, records)
        tracer = Tracer()
        with tracer:
            run_phase(wl, args.seconds / 2, tracer, records)
        metrics = per_layer(records, tracer)
        details: dict = {}
        write_spans(args.workdir / "spans.jsonl", records, tracer)
    else:
        root = Path(__file__).resolve().parent.parent
        gauge = Gauge()
        setup_samples = run_phase(
            wl, args.seconds, None, records, probe=lambda: probe_setup(root), gauge=gauge
        )
        metrics, details = end_to_end(records, gauge)
    problems = counter_problems(wl, records, tracer)
    for p in problems:
        print(f"COUNTER DRIFT {wl.name}: {p}", file=sys.stderr)
    failed = sum(1 for r in records if r.error is not None)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "lane": "numba" if _accel.USING_NUMBA else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "setup_samples_s": setup_samples,
        "attempted": len(records),
        "failed": failed,
        "counter_problems": problems,
        "errors": sorted({f"{r.slot}: {r.error}" for r in records if r.error})[:20],
        "correct": failed == 0 and not problems,
        "metrics": metrics,
        "details": details,
    }
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
