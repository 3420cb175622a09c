"""Spans around calls into the rainbowfree layers, recorded from outside.

While a Tracer is installed, each traced public function is rebound, in
every rainbowfree module that refers to it, to a wrapper that records a
span: name, start, end, parent span and operation id.  The defining
module keeps the plain function only for the kernels in ``_accel``, so a
kernel calling another kernel (list_extensions calling rainbow_after_add)
stays inside one span.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function): the layer boundaries the benchmark reports
LAYERS: tuple[tuple[str, str], ...] = (
    ("_accel", "is_min_labeled"),
    ("_accel", "min_labeling"),
    ("_accel", "list_extensions"),
    ("_accel", "build_pool"),
    ("_accel", "rainbow_triple_scan"),
    ("_accel", "rainbow_after_add"),
    ("rainbow", "family_state"),
    ("rainbow", "find_rainbow"),
    ("family", "parse_family"),
    ("family", "serialize_family"),
    ("family", "union_graph"),
    ("canon", "canonical_form"),
    ("canon", "canonical_relabeling"),
    ("canon", "are_isomorphic"),
    ("constructions", "is_tstar_family"),
    ("certifier", "certify"),
    ("certifier", "max_independent_set"),
    ("rs", "decompose"),
    ("rs", "check_t2_constraints"),
    ("search", "extend_ok"),
    ("search", "run_search"),
    ("search", "resume_search"),
    ("search", "load_checkpoint"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)


class Tracer:
    """Collects spans while installed; ``op`` tags spans with an operation id."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, op id)
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # per (name, op): [useful outcomes, attempts] for the ratio metrics
        self.tally: dict[tuple[str, int], list[int]] = defaultdict(lambda: [0, 0])

    def install(self) -> None:
        mods = {
            name: m
            for name, m in sys.modules.items()
            if m is not None and (name == "rainbowfree" or name.startswith("rainbowfree."))
        }
        for modname, fname in LAYERS:
            fn = getattr(mods[f"rainbowfree.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", fn)
            for name, m in mods.items():
                if name == "rainbowfree._accel":
                    continue
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.op)
            if after is not None:
                good, tried = after(args, result)
                cell = self.tally[(name, self.op)]
                cell[0] += good
                cell[1] += tried
            return result

        return traced

    def summary(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Calls, self seconds and ratio tallies per span name over ``ops``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest properly because the program is single-threaded
        in the process that records them.
        """
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "self_s": 0.0, "good": 0, "tried": 0} for n in SPAN_NAMES
        }
        for i, s in enumerate(self.spans):
            if s is None or s[4] not in ops:
                continue
            row = out[s[0]]
            row["calls"] += 1
            row["self_s"] += (s[2] - s[1]) - child[i]
        for (name, op), (good, tried) in self.tally.items():
            if op in ops:
                out[name]["good"] += good
                out[name]["tried"] += tried
        return out

    def calls_by_op(self, name: str) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s is not None and s[0] == name:
                counts[s[4]] += 1
        return counts


def _after_is_min_labeled(args, result) -> tuple[int, int]:
    return (1 if result else 0), 1


def _after_list_extensions(args, result) -> tuple[int, int]:
    pool_a, start, out = args[4], args[7], args[9]
    return int(np.count_nonzero(out[start:])), int(pool_a.shape[0] - start)


_AFTER = {
    "_accel.is_min_labeled": _after_is_min_labeled,
    "_accel.list_extensions": _after_list_extensions,
}
