"""Exhaustive search for maximum rainbow-free triangle families.

Orderly generation over canonically labeled families: members are pushed
in strictly increasing triangle order, fresh vertices must take the next
unused labels, and a node is explored only when the identity labeling is
the lexicographically least one for its member multiset. Deleting the
largest member of such a family leaves another such family, so every
isomorphism class is visited exactly once, with no seen-set.

Targets share one engine. maximize and enumerate collect every canonical
family of the best size reached (pruning only cuts branches that cannot
tie the best), which makes the witness set independent of worker count
and traversal timing. prove stops at the first family of the requested
size in depth-first order. The shared best size is only a pruning hint
across workers; stale reads weaken pruning but never change results.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import tempfile
from dataclasses import dataclass
from queue import Empty

import numpy as np

from ._accel import (
    add_member,
    build_pool,
    is_min_labeled,
    list_extensions,
    rainbow_after_add,
)
from .family import (
    MODES,
    MULTISET,
    SET,
    Triangle,
    TriangleFamily,
    parse_family,
    serialize_family,
)
from .rainbow import family_state, find_rainbow

MAXIMIZE = "maximize"
PROVE = "prove"
ENUMERATE = "enumerate"
TARGETS = (MAXIMIZE, PROVE, ENUMERATE)

# Largest n a search accepts.  The engine keeps all C(n,3) triangles in
# its pool and scans them at every node, so a single node at n = 64
# already takes seconds, and no exhaustive search near this size ends.
MAX_SEARCH_N = 64

_CKPT_MAGIC = "ckpt 1"
_NODE_FLUSH = 256
_WORKER_POLL_S = 0.5


class SearchError(ValueError):
    """Invalid search configuration, corrupt checkpoint, or engine fault."""


class SearchLimitError(SearchError):
    """A search larger than the engine accepts (n above MAX_SEARCH_N)."""


@dataclass(frozen=True)
class SearchConfig:
    n: int
    mode: str = SET
    target: str = MAXIMIZE
    prove_k: int = 0
    node_limit: int = 0
    worker_count: int = 1
    checkpoint_path: str | None = None
    checkpoint_interval: int = 100_000

    def __post_init__(self) -> None:
        if self.n < 3:
            raise SearchError("search needs n >= 3")
        if self.n > MAX_SEARCH_N:
            raise SearchLimitError(f"search needs n <= {MAX_SEARCH_N}, got n = {self.n}")
        if self.mode not in MODES:
            raise SearchError(f"unknown mode {self.mode!r}")
        if self.target not in TARGETS:
            raise SearchError(f"unknown target {self.target!r}")
        if self.target == PROVE and self.prove_k < 0:
            raise SearchError("prove target needs k >= 0")
        if self.node_limit < 0:
            raise SearchError("node limit must be nonnegative (0 = none)")
        if self.worker_count < 1:
            raise SearchError("worker count must be at least 1")
        if self.checkpoint_interval < 1:
            raise SearchError("checkpoint interval must be positive")
        if self.checkpoint_path and self.worker_count != 1:
            raise SearchError("checkpointing requires worker_count = 1")

    @property
    def max_multiplicity(self) -> int:
        return 2 if self.mode == MULTISET else 1


@dataclass(frozen=True)
class SearchResult:
    best_size: int
    witnesses: tuple[TriangleFamily, ...]
    extremal_class_count: int | None
    nodes_explored: int
    completed: bool
    found: bool | None = None


def extend_ok(
    f: TriangleFamily,
    t: Triangle,
    add_m: int = 1,
    state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> bool:
    """True iff adding add_m copies of t keeps the family rainbow-free.

    Only vertex triples using an edge of t can become rainbow, so the
    check is local to t. Pass state = family_state(f) to reuse the
    owner-count arrays across many probes of the same family.
    """
    a, b, c = sorted(t)
    if not (0 <= a < b < c < f.n):
        raise SearchError(f"triangle {t} does not fit on {f.n} vertices")
    if add_m < 1:
        raise SearchError("add_m must be at least 1")
    if state is None:
        state = family_state(f)
    cnt, codes, tm = state
    return rainbow_after_add(cnt, codes, tm, f.n, a, b, c, add_m) == 0


class _LimitHit(Exception):
    pass


class _ProofFound(Exception):
    pass


_Snapshot = tuple[tuple[Triangle, int], ...]


class _Searcher:
    """Single-process DFS core, reusable across worker task prefixes."""

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        n = cfg.n
        self.pool, self.pool_a, self.pool_b, self.pool_c = build_pool(n)
        self.total = len(self.pool)
        self.cnt = np.zeros((n, n), np.int64)
        # stack members as kernel columns, code-sorted since pushes ascend
        self.codes = np.zeros(self.total + 1, np.int64)
        self.ta = np.zeros(self.total + 1, np.int64)
        self.tb = np.zeros(self.total + 1, np.int64)
        self.tc = np.zeros(self.total + 1, np.int64)
        self.tm = np.zeros(self.total + 1, np.int64)
        self.labels = np.arange(n, dtype=np.int64)
        self.stack: list[tuple[int, int]] = []
        self.sup_stack: list[int] = []
        self.size = 0
        self.sup = 0
        self.nodes = 0
        self.best = -1
        self.witnesses: list[_Snapshot] = []
        self.found_witness: _Snapshot | None = None
        self.completed = True
        self._bufs: list[np.ndarray] = []
        # cooperation hooks, unused in single-worker runs
        self.shared_best = None
        self.shared_nodes = None
        self.unflushed = 0
        # task collection hook for the parallel driver
        self.task_depth: int | None = None
        self.tasks: list[tuple[tuple[int, int], ...]] = []

    # -- state plumbing

    def _buf(self, depth: int) -> np.ndarray:
        while depth >= len(self._bufs):
            self._bufs.append(np.zeros(self.total, np.int64))
        return self._bufs[depth]

    def _push(self, idx: int, m: int) -> None:
        a, b, c = self.pool[idx]
        add_member(self.cnt, a, b, c, m)
        d = len(self.stack)
        self.codes[d] = (a * self.cfg.n + b) * self.cfg.n + c
        self.ta[d] = a
        self.tb[d] = b
        self.tc[d] = c
        self.tm[d] = m
        self.stack.append((idx, m))
        self.sup_stack.append(self.sup)
        self.size += m
        if c + 1 > self.sup:
            self.sup = c + 1

    def _pop(self) -> None:
        idx, m = self.stack.pop()
        a, b, c = self.pool[idx]
        add_member(self.cnt, a, b, c, -m)
        self.size -= m
        self.sup = self.sup_stack.pop()

    def _snapshot(self) -> _Snapshot:
        return tuple((self.pool[i], m) for i, m in self.stack)

    def _family(self, snap: _Snapshot) -> TriangleFamily:
        return TriangleFamily(self.cfg.n, snap, self.cfg.mode)

    def _needed(self) -> int:
        if self.cfg.target == PROVE:
            return self.cfg.prove_k
        needed = self.best
        if self.shared_best is not None:
            hint = self.shared_best.value
            if hint > needed:
                needed = hint
        return needed

    # -- node accounting

    def _count_node(self) -> None:
        limit = self.cfg.node_limit
        if self.shared_nodes is None:
            if limit and self.nodes >= limit:
                if self.cfg.checkpoint_path:
                    self._write_checkpoint(done=False)
                raise _LimitHit
        else:
            if limit and self.unflushed >= _NODE_FLUSH:
                self._flush_nodes()
            if limit and self.shared_nodes.value + self.unflushed >= limit:
                self._flush_nodes()
                if self.shared_nodes.value >= limit:
                    raise _LimitHit
            self.unflushed += 1
        if (
            self.cfg.checkpoint_path
            and self.nodes
            and self.nodes % self.cfg.checkpoint_interval == 0
        ):
            self._write_checkpoint(done=False)
        self.nodes += 1

    def _flush_nodes(self) -> None:
        if self.shared_nodes is not None and self.unflushed:
            with self.shared_nodes.get_lock():
                self.shared_nodes.value += self.unflushed
            self.unflushed = 0

    # -- bookkeeping at a node

    def _record(self) -> None:
        if self.cfg.target == PROVE and self.size >= self.cfg.prove_k:
            self.found_witness = self._snapshot()
            raise _ProofFound
        if self.size > self.best:
            self.best = self.size
            self.witnesses = [self._snapshot()]
            if self.shared_best is not None and self.size > self.shared_best.value:
                self.shared_best.value = self.size
        elif self.size == self.best:
            self.witnesses.append(self._snapshot())

    # -- the DFS

    def run(self, replay: _Snapshot = ()) -> None:
        try:
            self._process(list(replay))
        except _LimitHit:
            self.completed = False
        except _ProofFound:
            pass
        finally:
            self._flush_nodes()
            while self.stack:
                self._pop()
        if self.completed and self.cfg.checkpoint_path:
            self._write_checkpoint(done=True)

    def _process(self, replay: list[tuple[int, int]]) -> None:
        replaying = bool(replay)
        if not replaying:
            if self.task_depth is not None and len(self.stack) == self.task_depth:
                self.tasks.append(tuple(self.stack))
                return
            self._count_node()
            self._record()
        depth = len(self.stack)
        start = self.stack[-1][0] + 1 if self.stack else 0
        buf = self._buf(depth)
        capacity = list_extensions(
            self.cnt,
            self.codes[:depth],
            self.tm[:depth],
            self.cfg.n,
            self.pool_a,
            self.pool_b,
            self.pool_c,
            start,
            self.cfg.max_multiplicity,
            buf,
        )
        if not replaying and self.size + capacity < self._needed():
            return
        forced = replay[0] if replaying else None
        sup = self.sup
        for idx in range(start, self.total):
            mm = buf[idx]
            if mm == 0:
                continue
            # fresh vertices must take the next free labels
            a, b, c = self.pool[idx]
            if c >= sup:
                hi = (a >= sup) + (b >= sup) + 1
                if c >= sup + hi:
                    continue
            for m in (1, 2):
                if m > mm:
                    break
                if replaying:
                    if (idx, m) < forced:
                        continue
                    if (idx, m) != forced or m > mm:
                        raise SearchError(
                            "checkpoint prefix is not a valid extension path"
                        )
                    # forced branch: descend without recounting ancestors
                    self._push(idx, m)
                    self._process(replay[1:])
                    self._pop()
                    replaying = False
                    continue
                self._push(idx, m)
                if is_min_labeled(
                    self.ta[: depth + 1],
                    self.tb[: depth + 1],
                    self.tc[: depth + 1],
                    self.tm[: depth + 1],
                    self.labels[: self.sup],
                    self.cfg.n,
                ):
                    self._process([])
                self._pop()
        if replaying:
            raise SearchError("checkpoint prefix is not a valid extension path")

    # -- checkpointing

    def _write_checkpoint(self, done: bool) -> None:
        path = self.cfg.checkpoint_path
        assert path is not None
        cfg = self.cfg
        lines = [
            _CKPT_MAGIC,
            f"n {cfg.n}",
            f"mode {cfg.mode}",
            f"target {cfg.target}",
            f"prove_k {cfg.prove_k}",
            f"done {int(done)}",
            f"found {int(self.found_witness is not None)}",
            f"nodes {self.nodes}",
            f"best {self.best}",
            f"prefix {len(self.stack)}",
        ]
        for idx, m in self.stack:
            a, b, c = self.pool[idx]
            lines.append(f"{a} {b} {c} {m}")
        blocks: list[_Snapshot] = list(self.witnesses)
        if self.found_witness is not None:
            blocks = [self.found_witness]
        lines.append(f"witnesses {len(blocks)}")
        for snap in blocks:
            lines.append("witness")
            lines.append(serialize_family(self._family(snap)).rstrip("\n"))
        payload = "\n".join(lines) + "\n"
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def load_checkpoint(path: str) -> dict:
    """Parse a checkpoint file into a plain dict (no engine state)."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines or lines[0].strip() != _CKPT_MAGIC:
        raise SearchError(f"{path}: not a version-1 checkpoint")
    fields: dict[str, str] = {}
    pos = 1
    keys = ("n", "mode", "target", "prove_k", "done", "found", "nodes", "best")
    for key in keys:
        if pos >= len(lines):
            raise SearchError(f"{path}: truncated checkpoint header")
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != key:
            raise SearchError(f"{path}: expected '{key} <value>' on line {pos + 1}")
        fields[key] = parts[1]
        pos += 1
    parts = lines[pos].split() if pos < len(lines) else []
    if len(parts) != 2 or parts[0] != "prefix":
        raise SearchError(f"{path}: expected 'prefix <count>'")
    prefix_len = int(parts[1])
    pos += 1
    prefix: list[tuple[Triangle, int]] = []
    for _ in range(prefix_len):
        if pos >= len(lines):
            raise SearchError(f"{path}: truncated prefix")
        nums = lines[pos].split()
        if len(nums) != 4:
            raise SearchError(f"{path}: bad prefix line {lines[pos]!r}")
        a, b, c, m = map(int, nums)
        prefix.append(((a, b, c), m))
        pos += 1
    parts = lines[pos].split() if pos < len(lines) else []
    if len(parts) != 2 or parts[0] != "witnesses":
        raise SearchError(f"{path}: expected 'witnesses <count>'")
    count = int(parts[1])
    pos += 1
    witnesses: list[TriangleFamily] = []
    while pos < len(lines) and lines[pos].strip() == "witness":
        pos += 1
        block: list[str] = []
        while pos < len(lines) and lines[pos].strip() != "witness":
            block.append(lines[pos])
            pos += 1
        witnesses.append(parse_family("\n".join(block)))
    if len(witnesses) != count:
        raise SearchError(
            f"{path}: witness count mismatch ({len(witnesses)} != {count})"
        )
    return {
        "n": int(fields["n"]),
        "mode": fields["mode"],
        "target": fields["target"],
        "prove_k": int(fields["prove_k"]),
        "done": bool(int(fields["done"])),
        "found": bool(int(fields["found"])),
        "nodes": int(fields["nodes"]),
        "best": int(fields["best"]),
        "prefix": tuple(prefix),
        "witnesses": tuple(witnesses),
    }


def _snap_key(f: TriangleFamily) -> tuple:
    return f.members


def _finish(
    cfg: SearchConfig,
    families: list[TriangleFamily],
    nodes: int,
    completed: bool,
    found_witness: TriangleFamily | None,
) -> SearchResult:
    if cfg.target == PROVE:
        found = found_witness is not None
        witnesses = (found_witness,) if found else ()
        best = found_witness.size if found else max(
            (f.size for f in families), default=0
        )
        result = SearchResult(
            best_size=best,
            witnesses=witnesses,
            extremal_class_count=None,
            nodes_explored=nodes,
            completed=completed,
            found=found if completed or found else None,
        )
    else:
        best = max((f.size for f in families), default=0)
        witnesses = tuple(
            sorted((f for f in families if f.size == best), key=_snap_key)
        )
        result = SearchResult(
            best_size=best,
            witnesses=witnesses,
            extremal_class_count=(
                len(witnesses) if cfg.target == ENUMERATE else None
            ),
            nodes_explored=nodes,
            completed=completed,
            found=None,
        )
    for w in result.witnesses:
        if find_rainbow(w) is not None:
            raise SearchError(f"internal fault: witness {w.members} has a rainbow")
    if len({w.members for w in result.witnesses}) != len(result.witnesses):
        raise SearchError("internal fault: duplicate witnesses in census")
    return result


def run_search(cfg: SearchConfig) -> SearchResult:
    """Run a search to completion (or its node limit) and package results."""
    if cfg.worker_count > 1:
        return _parallel_search(cfg)
    s = _Searcher(cfg)
    s.run()
    families = [s._family(snap) for snap in s.witnesses]
    found = s._family(s.found_witness) if s.found_witness is not None else None
    return _finish(cfg, families, s.nodes, s.completed, found)


def resume_search(
    path: str,
    node_limit: int = 0,
    checkpoint_path: str | None = None,
    checkpoint_interval: int = 100_000,
) -> SearchResult:
    """Continue a single-worker search from a checkpoint file.

    The search configuration comes from the checkpoint.  A nonzero node
    limit is a fresh budget for this run (0 = no limit); the stored run
    already consumed its own, so the cap is applied on top of the node
    count recorded in the checkpoint.
    """
    state = load_checkpoint(path)
    cfg = SearchConfig(
        n=state["n"],
        mode=state["mode"],
        target=state["target"],
        prove_k=state["prove_k"],
        node_limit=state["nodes"] + node_limit if node_limit else 0,
        worker_count=1,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
    )
    if state["done"]:
        families = list(state["witnesses"])
        found = families[0] if (cfg.target == PROVE and state["found"]) else None
        return _finish(cfg, families, state["nodes"], True, found)
    s = _Searcher(cfg)
    s.nodes = state["nodes"]
    s.best = state["best"]
    s.witnesses = [f.members for f in state["witnesses"]]
    if cfg.target == PROVE and state["found"]:
        # a found proof is always written as a done checkpoint
        raise SearchError(f"{path}: found-flag set on an unfinished checkpoint")
    pool_rank = {t: i for i, t in enumerate(s.pool)}
    try:
        replay = tuple((pool_rank[t], m) for t, m in state["prefix"])
    except KeyError as exc:
        raise SearchError(f"{path}: prefix triangle {exc} not in the pool") from exc
    for step in range(1, len(replay)):
        if replay[step - 1][0] >= replay[step][0]:
            raise SearchError(f"{path}: prefix members out of order")
    # rebuild geometry along the prefix without counting those nodes
    s.run(replay)
    families = [s._family(snap) for snap in s.witnesses]
    found = s._family(s.found_witness) if s.found_witness is not None else None
    return _finish(cfg, families, s.nodes, s.completed, found)


# -- parallel driver


def _worker_main(cfg, tasks, wid, shared_best, shared_nodes, found_task, queue):
    try:
        s = _Searcher(cfg)
        s.shared_best = shared_best
        s.shared_nodes = shared_nodes
        found: list[tuple[int, _Snapshot]] = []
        completed = True
        for tidx in range(wid, len(tasks), cfg.worker_count):
            if cfg.target == PROVE and found_task.value < tidx:
                break
            try:
                for idx, m in tasks[tidx]:
                    s._push(idx, m)
                s._process([])
            except _LimitHit:
                completed = False
            except _ProofFound:
                found.append((tidx, s.found_witness))
                s.found_witness = None
                with found_task.get_lock():
                    if tidx < found_task.value:
                        found_task.value = tidx
            finally:
                s._flush_nodes()
                while s.stack:
                    s._pop()
            if not completed or (cfg.target == PROVE and found):
                break
        payload = {
            "wid": wid,
            "nodes": s.nodes,
            "witnesses": list(s.witnesses),
            "found": found,
            "completed": completed,
        }
        queue.put(payload)
    except BaseException as exc:  # surface worker crashes to the parent
        queue.put({"wid": wid, "error": repr(exc)})


def _parallel_search(cfg: SearchConfig) -> SearchResult:
    ctx = mp.get_context("fork")
    shallow = _Searcher(cfg)
    shallow.task_depth = 2
    try:
        shallow._process([])
        shallow_ok = True
    except _LimitHit:
        shallow_ok = False
    except _ProofFound:
        families = [shallow._family(snap) for snap in shallow.witnesses]
        found = shallow._family(shallow.found_witness)
        return _finish(cfg, families, shallow.nodes, True, found)
    finally:
        while shallow.stack:
            shallow._pop()
    families = [shallow._family(snap) for snap in shallow.witnesses]
    if not shallow_ok:
        return _finish(cfg, families, shallow.nodes, False, None)
    tasks = shallow.tasks
    shared_best = ctx.Value("q", shallow.best, lock=False)
    shared_nodes = ctx.Value("q", shallow.nodes, lock=True)
    found_task = ctx.Value("q", 1 << 62, lock=True)
    queue = ctx.Queue()
    workers = [
        ctx.Process(
            target=_worker_main,
            args=(cfg, tasks, wid, shared_best, shared_nodes, found_task, queue),
        )
        for wid in range(cfg.worker_count)
    ]
    for w in workers:
        w.start()
    reported: dict[int, dict] = {}
    try:
        while len(reported) < len(workers):
            exited = [wid for wid, w in enumerate(workers) if w.exitcode is not None]
            try:
                p = queue.get(timeout=_WORKER_POLL_S)
            except Empty:
                # a worker that had exited before this wait began has
                # nothing left in flight, so it died without reporting
                for wid in exited:
                    if wid not in reported:
                        raise SearchError(
                            f"worker {wid} exited with code "
                            f"{workers[wid].exitcode} before reporting"
                        ) from None
                continue
            reported[p["wid"]] = p
    finally:
        for w in workers:
            if len(reported) < len(workers):
                w.terminate()
            w.join()
    payloads = list(reported.values())
    errors = [p["error"] for p in payloads if "error" in p]
    if errors:
        raise SearchError(f"worker failed: {errors[0]}")
    nodes = shallow.nodes + sum(p["nodes"] for p in payloads)
    completed = all(p["completed"] for p in payloads)
    for p in payloads:
        for snap in p["witnesses"]:
            families.append(TriangleFamily(cfg.n, snap, cfg.mode))
    found_entries = [
        (tidx, TriangleFamily(cfg.n, snap, cfg.mode))
        for p in payloads
        for tidx, snap in p["found"]
    ]
    found = None
    if found_entries:
        found_entries.sort(key=lambda e: e[0])
        found = found_entries[0][1]
        completed = True
    return _finish(cfg, families, nodes, completed, found)


# -- convenience wrappers


def max_family(n: int, mode: str = SET, **kwargs) -> SearchResult:
    """Exact maximum size of a rainbow-free family, with all witnesses."""
    return run_search(SearchConfig(n=n, mode=mode, target=MAXIMIZE, **kwargs))


def prove_size(n: int, k: int, mode: str = SET, **kwargs) -> SearchResult:
    """Decide whether a rainbow-free family of size >= k exists."""
    return run_search(
        SearchConfig(n=n, mode=mode, target=PROVE, prove_k=k, **kwargs)
    )


def enumerate_extremal(n: int, mode: str = SET, **kwargs) -> SearchResult:
    """Census of isomorphism classes at the maximum size."""
    return run_search(SearchConfig(n=n, mode=mode, target=ENUMERATE, **kwargs))
