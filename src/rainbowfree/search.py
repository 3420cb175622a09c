"""Exhaustive search for maximum rainbow-free triangle families.

Orderly generation over canonically labeled families: members are pushed
in strictly increasing triangle order, fresh vertices must take the next
unused labels, and a node is explored only when the identity labeling is
the lexicographically least one for its member multiset. Deleting the
largest member of such a family leaves another such family, so every
isomorphism class is visited exactly once, with no seen-set.

A child is listed before it is tested: its extensions give its capacity,
a bound on what its whole subtree can still add, and a child whose size
plus capacity cannot reach the best (or the size to prove) is dropped
before the labeling DFS that tests its canonicity. The parent's own list
bounds every child's capacity, so most children are dropped before they
are listed. Either cut removes only subtrees that cannot reach the
target and keeps the DFS order, so every class that can is still visited
exactly once; only the node count depends on the cuts.

Targets share one engine. maximize and enumerate collect every canonical
family of the best size reached (pruning only cuts branches that cannot
tie the best). prove stops at the first family of the requested size in
depth-first order. A proof that found no witness, refuted or undecided,
still sets best_size to the largest family it met, but that value means
nothing: like the node count, it depends on the cuts, and it is no
maximum.
"""

from __future__ import annotations

import errno
import os
import tempfile
from dataclasses import dataclass

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
# its pool and lists their extensions for every child it tests, 0.05-0.10 s
# a listing at n = 64 (Python 3.11, 2-CPU machine), and no exhaustive
# search near this size ends.
MAX_SEARCH_N = 64

_CKPT_MAGIC = "ckpt 1"
_CKPT_INTERVAL = 100_000


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
    checkpoint_path: str | None = None
    checkpoint_interval: int = _CKPT_INTERVAL

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
        if self.checkpoint_interval < 1:
            raise SearchError("checkpoint interval must be positive")

    @property
    def max_multiplicity(self) -> int:
        return 2 if self.mode == MULTISET else 1


@dataclass(frozen=True)
class SearchResult:
    """What a search or a resumed checkpoint found.

    best_size is the maximum for maximize and enumerate, and the witness
    size for a proof that found one.  For a proof without a witness
    (found False or None) it means nothing: it is the largest family the
    walk met, which depends on the cuts.
    """

    target: str
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
    state: tuple[list[list[int]], list[int], list[int]] | None = None,
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
    """The DFS core: orderly generation with capacity cuts and checkpoints."""

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        n = cfg.n
        self.pool, self.pool_a, self.pool_b, self.pool_c = build_pool(n)
        self.total = len(self.pool)
        self.cnt = [[0] * n for _ in range(n)]
        # stack members as kernel columns, code-sorted since pushes ascend
        self.codes: list[int] = []
        self.ta: list[int] = []
        self.tb: list[int] = []
        self.tc: list[int] = []
        self.tm: list[int] = []
        self.stack: list[tuple[int, int]] = []
        self.sup_stack: list[int] = []
        self.size = 0
        self.sup = 0
        self.nodes = 0
        self.best = -1
        self.witnesses: list[_Snapshot] = []
        self.found_witness: _Snapshot | None = None
        self.completed = True
        self._bufs: list[list[int]] = []

    # -- state plumbing

    def _buf(self, depth: int) -> list[int]:
        while depth >= len(self._bufs):
            self._bufs.append([0] * self.total)
        return self._bufs[depth]

    def _push(self, idx: int, m: int) -> None:
        a, b, c = self.pool[idx]
        add_member(self.cnt, a, b, c, m)
        self.codes.append((a * self.cfg.n + b) * self.cfg.n + c)
        self.ta.append(a)
        self.tb.append(b)
        self.tc.append(c)
        self.tm.append(m)
        self.stack.append((idx, m))
        self.sup_stack.append(self.sup)
        self.size += m
        if c + 1 > self.sup:
            self.sup = c + 1

    def _pop(self) -> None:
        idx, m = self.stack.pop()
        a, b, c = self.pool[idx]
        add_member(self.cnt, a, b, c, -m)
        for col in (self.codes, self.ta, self.tb, self.tc, self.tm):
            col.pop()
        self.size -= m
        self.sup = self.sup_stack.pop()

    def _snapshot(self) -> _Snapshot:
        return tuple((self.pool[i], m) for i, m in self.stack)

    def _needed(self) -> int:
        return self.cfg.prove_k if self.cfg.target == PROVE else self.best

    # -- node accounting

    def _count_node(self) -> None:
        limit = self.cfg.node_limit
        if limit and self.nodes >= limit:
            if self.cfg.checkpoint_path:
                self._write_checkpoint(done=False)
            raise _LimitHit
        if (
            self.cfg.checkpoint_path
            and self.nodes
            and self.nodes % self.cfg.checkpoint_interval == 0
        ):
            self._write_checkpoint(done=False)
        self.nodes += 1

    # -- bookkeeping at a node

    def _record(self) -> None:
        if self.cfg.target == PROVE and self.size >= self.cfg.prove_k:
            self.found_witness = self._snapshot()
            raise _ProofFound
        if self.size > self.best:
            self.best = self.size
            self.witnesses = [self._snapshot()]
        elif self.size == self.best:
            self.witnesses.append(self._snapshot())

    # -- the DFS

    def run(self, replay: _Snapshot = ()) -> None:
        if self.cfg.checkpoint_path:
            # an unwritable path fails now, not after the first interval
            _write_atomic(self.cfg.checkpoint_path, None)
        try:
            self._process(list(replay), self._list())
        except _LimitHit:
            self.completed = False
        except _ProofFound:
            pass
        finally:
            while self.stack:
                self._pop()
        if self.completed and self.cfg.checkpoint_path:
            self._write_checkpoint(done=True)

    def _list(self) -> int:
        """List the stack's extensions into its depth's buffer; return the
        capacity, an upper bound on what the whole subtree can still add."""
        return list_extensions(
            self.cnt,
            self.codes,
            self.tm,
            self.cfg.n,
            self.pool_a,
            self.pool_b,
            self.pool_c,
            self.stack[-1][0] + 1 if self.stack else 0,
            self.cfg.max_multiplicity,
            self._buf(len(self.stack)),
        )

    def _process(self, replay: list[tuple[int, int]], capacity: int) -> None:
        """Count and record the node on the stack, then try its children.

        A child is dropped, before its labeling DFS, once its size plus
        capacity cannot reach _needed(); that is read for every child,
        because the best rises as the DFS goes.  The forced branches of a
        checkpoint replay are never dropped.
        """
        replaying = bool(replay)
        depth = len(self.stack)
        if not replaying:
            self._count_node()
            self._record()
        start = self.stack[-1][0] + 1 if self.stack else 0
        buf = self._buf(depth)
        forced = replay[0] if replaying else None
        sup = self.sup
        # rest is the capacity of buf[idx:], and bounds every later child
        rest = capacity
        for idx in range(start, self.total):
            mm = buf[idx]
            if mm == 0:
                continue
            if not replaying and self.size + rest < self._needed():
                break
            rest -= mm
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
                    self._process(replay[1:], self._list())
                    self._pop()
                    replaying = False
                    continue
                if self.size + m + rest < self._needed():
                    continue
                self._push(idx, m)
                cap = self._list()
                if self.size + cap >= self._needed() and is_min_labeled(
                    self.ta, self.tb, self.tc, self.tm, range(self.sup), self.cfg.n
                ):
                    self._process([], cap)
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
            family = TriangleFamily(cfg.n, snap, cfg.mode)
            lines.append(serialize_family(family).rstrip("\n"))
        _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path: str, payload: str | None) -> None:
    """Replace path by way of a temporary file beside it; with payload None,
    only check that path is no directory and that its directory takes a file."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload or "")
            if payload is not None:
                os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise SearchError(f"cannot write checkpoint {path}: {exc}") from exc


def _ckpt_int(path: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SearchError(f"{path}: expected an integer, got {text!r}") from None


def load_checkpoint(path: str) -> dict:
    """Parse a checkpoint file into a plain dict (no engine state).

    The header must agree with the stored witnesses: without a found
    proof, best is the size of the largest witness.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SearchError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SearchError(f"{path}: not an ASCII checkpoint ({exc.reason})") from None
    lines = raw.splitlines()
    if not lines or lines[0].strip() != _CKPT_MAGIC:
        raise SearchError(f"{path}: not a version-1 checkpoint")
    state: dict = {}
    pos = 1
    keys = ("n", "mode", "target", "prove_k", "done", "found", "nodes", "best")
    for key in keys:
        if pos >= len(lines):
            raise SearchError(f"{path}: truncated checkpoint header")
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != key:
            raise SearchError(f"{path}: expected '{key} <value>' on line {pos + 1}")
        text = parts[1]
        state[key] = text if key in ("mode", "target") else _ckpt_int(path, text)
        pos += 1
    parts = lines[pos].split() if pos < len(lines) else []
    if len(parts) != 2 or parts[0] != "prefix":
        raise SearchError(f"{path}: expected 'prefix <count>'")
    prefix_len = _ckpt_int(path, parts[1])
    pos += 1
    prefix: list[tuple[Triangle, int]] = []
    for _ in range(prefix_len):
        if pos >= len(lines):
            raise SearchError(f"{path}: truncated prefix")
        nums = lines[pos].split()
        if len(nums) != 4:
            raise SearchError(f"{path}: bad prefix line {lines[pos]!r}")
        a, b, c, m = (_ckpt_int(path, x) for x in nums)
        prefix.append(((a, b, c), m))
        pos += 1
    parts = lines[pos].split() if pos < len(lines) else []
    if len(parts) != 2 or parts[0] != "witnesses":
        raise SearchError(f"{path}: expected 'witnesses <count>'")
    count = _ckpt_int(path, parts[1])
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
    if {state["done"], state["found"]} - {0, 1} or state["nodes"] < 0:
        raise SearchError(f"{path}: done and found must be 0 or 1, nodes >= 0")
    sizes = [w.size for w in witnesses]
    if state["found"]:
        # a found proof is always written as a done prove checkpoint
        if not state["done"] or state["target"] != PROVE or len(sizes) != 1:
            raise SearchError(f"{path}: found-flag set outside a finished proof")
    elif state["best"] != max(sizes, default=None):
        raise SearchError(f"{path}: best {state['best']} does not match the stored witnesses")
    state.update(
        done=bool(state["done"]),
        found=bool(state["found"]),
        prefix=tuple(prefix),
        witnesses=tuple(witnesses),
    )
    return state


def _finish(
    cfg: SearchConfig,
    snaps: list[_Snapshot],
    nodes: int,
    completed: bool,
    found_snap: _Snapshot | None,
) -> SearchResult:
    families = [TriangleFamily(cfg.n, snap, cfg.mode) for snap in snaps]
    best = max((f.size for f in families), default=0)
    found: bool | None = None
    if cfg.target == PROVE:
        witnesses: tuple[TriangleFamily, ...] = ()
        if found_snap is not None:
            witnesses = (TriangleFamily(cfg.n, found_snap, cfg.mode),)
            best = witnesses[0].size
        if completed or witnesses:
            found = bool(witnesses)
    else:
        witnesses = tuple(
            sorted((f for f in families if f.size == best), key=lambda f: f.members)
        )
    result = SearchResult(
        target=cfg.target,
        best_size=best,
        witnesses=witnesses,
        extremal_class_count=len(witnesses) if cfg.target == ENUMERATE else None,
        nodes_explored=nodes,
        completed=completed,
        found=found,
    )
    for w in result.witnesses:
        if find_rainbow(w) is not None:
            raise SearchError(f"internal fault: witness {w.members} has a rainbow")
    if len({w.members for w in result.witnesses}) != len(result.witnesses):
        raise SearchError("internal fault: duplicate witnesses in census")
    return result


def run_search(cfg: SearchConfig) -> SearchResult:
    """Run a search to completion (or its node limit) and package results."""
    s = _Searcher(cfg)
    s.run()
    return _finish(cfg, s.witnesses, s.nodes, s.completed, s.found_witness)


def resume_search(
    path: str,
    node_limit: int = 0,
    checkpoint_path: str | None = None,
    checkpoint_interval: int = _CKPT_INTERVAL,
) -> SearchResult:
    """Continue a search from a checkpoint file.

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
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
    )
    snaps = [f.members for f in state["witnesses"]]
    if state["done"]:
        found = snaps[0] if state["found"] else None
        return _finish(cfg, snaps, state["nodes"], True, found)
    s = _Searcher(cfg)
    s.nodes = state["nodes"]
    s.best = state["best"]
    s.witnesses = snaps
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
    return _finish(cfg, s.witnesses, s.nodes, s.completed, s.found_witness)


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
