"""Benchmark for rainbowfree: seeded workloads, end-to-end and per layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (the reasons for each are in BENCHMARK.json and workloads.py):
search-set, verify-corpus, canon-iso.  ``all`` runs them one after
another and prints one table.

Each workload runs in its own fresh interpreter started from this process,
so set-up time and peak memory belong to one workload.  The workload
process repeats whole passes over its operations for --seconds and checks
every answer against what the inputs were built to give.  With --trace 0
it reports the end-to-end metrics: ``setup_s`` is the median over fresh
interpreters launched between passes about every 2.5 s, each timed from
launch until ``import rainbowfree`` returns; ``wall_ref`` is the mean
pass time in units of a fixed reference loop timed between operations all
through the run (see child.Gauge); ``peak_rss_mb`` is the workload
process's peak resident memory.  The median pass time in seconds,
operations per second and operation latencies are printed too, but not
bounded, because they follow the machine's swings in CPU speed.  With
--trace 1 it runs half the time untraced and half with spans around calls
into the package's modules, and reports per-layer metrics and the tracing
overhead.

Output: each metric by name with its unit, then as the last line a JSON
object with the keys correct, attempted, failed and metrics.  A fuller
record (lane, Python and numpy versions, nproc, seed, per-operation
medians) and, for traced runs, the spans are written under .perfbench_out/
at the root of the checkout.  The package is taken from src/ beside this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["TMPDIR"] = str(tmp)
    return env


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    work = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work / "tmp")
    # the first import of a checkout also compiles bytecode
    warm = subprocess.run(
        [sys.executable, "-c", "import rainbowfree"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if warm.returncode != 0:
        raise BenchError(f"import rainbowfree failed:\n{warm.stderr}")
    result_path = work / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", str(work),
        "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload {name} did not finish in time") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"workload {name} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(result["setup_samples_s"])
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    return result


def report(result: dict, spec: dict) -> dict[str, dict]:
    """Print one workload's metrics; return them in the output's form.

    The metrics and their units are the ones BENCHMARK.json declares.
    """
    trace = result["trace"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {trace}  "
        f"lane {result['lane']}  python {result['python']}  numpy {result['numpy']}  "
        f"nproc {result['nproc']}"
    )
    out = {}
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError(
            f"metrics {sorted(set(units) ^ set(metrics))} are not both declared and measured"
        )
    for name, unit in units.items():
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    if not trace:
        d = result["details"]
        print(f"  {'wall_s':<40} {d['wall_s']:>14.6g} s  (not bounded; median pass)")
        print(f"  {'ops_per_s':<40} {d['ops_per_s']:>14.6g} 1/s  (not bounded)")
        print(f"  {'op_p50_ms':<40} {d['op_p50_ms']:>14.6g} ms  (not bounded)")
        print(
            f"  {'op_tail_ms':<40} {d['op_tail_ms']:>14.6g} ms  (not bounded; "
            f"p{d['op_tail_percentile']} of {d['op_samples']} operations in "
            f"{d['passes']} passes, {d['op_tail_beyond']} beyond it)"
        )
    rate = result["failed"] / result["attempted"]
    print(
        f"  {'error_rate':<40} {rate:>14.6g} fraction  "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    for problem in result["counter_problems"] + result["errors"]:
        print(f"  ERROR {problem}")
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "rainbowfree" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'rainbowfree'}", file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    OUT.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics: dict[str, dict] = {}
    try:
        for result in results:
            shown = report(result, spec)
            prefix = f"{result['workload']}." if len(results) > 1 else ""
            metrics.update({prefix + k: v for k, v in shown.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
