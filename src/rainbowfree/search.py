"""Exhaustive search for maximum rainbow-free triangle families.

Orderly generation over canonically labeled families: members are pushed
in strictly increasing triangle order, fresh vertices must take the next
unused labels, and a node is explored only when the identity labeling is
the lexicographically least one for its member multiset. Deleting the
largest member of such a family leaves another such family, so every
isomorphism class is visited exactly once, with no seen-set.

Two cuts bound what a child's whole subtree can still add; a child whose
size plus either bound cannot reach need, the size to reach (below), is
dropped before the labeling DFS that tests its canonicity. The first
bound is its capacity, the summed multiplicities of its extensions. The
second is the private-edge bound. In a rainbow-free family each member
shares at most one of its edges with other triangles, and a doubled
member shares none (rainbow.shared_edge_count, rs): abc with ab on abd
and ac on ace would make ab, ac, bc rainbow, and so would abd beside two
copies of abc. Pool indices strictly increase, so every triangle a
subtree adds is new, and its two (doubled: three) private edges are
uncovered now, lie on triangles in the child's list and belong to no
other added triangle. With U the uncovered edges of the listed triangles
and D the listed entries of 2, d doubled and s single added triangles
need 3d + 2s <= |U| with d <= D, so the subtree adds at most
2x + (|U| - 3x) // 2 for x = min(D, |U| // 3); in set mode D is 0 and
this is |U| // 2. The bound never falls as |U| or D grows.

Both bounds are read from the parent's list before the child is listed,
and again from the child's own list. A child's list is a subset of the
parent's entries after it, each entry at most the parent's, so the
parent's entries after it bound its capacity; its uncovered edges are
among the parent's uncovered edges on those entries, less its own, and
its entries of 2 are among the parent's, so its private-edge bound is at
most the one read that way. Most children are dropped before they are
listed, and a child dropped then is one its own list would drop too.
Either cut removes only subtrees that cannot reach need and keeps
the DFS order, so every class that can is still visited exactly once;
only the node count depends on the cuts.

Each node redoes only what its newest member changes. A child's
extension list is derived from its parent's (see
_accel.list_extensions): only the listed triangles meeting the new
member are tested again, each edge witness is scanned over the member's
three vertices, and only a triangle sharing an edge with it has its own
triple tested again. A child's canonicity walk starts from the parent's
automorphisms that map the new member's vertex set onto itself, which
are automorphisms of the child too. Any automorphisms leave the walk's
verdict unchanged, so they change its speed only. Nodes replayed from a
checkpoint have no walk and hand their children none, and a resume
checks its checkpoint's families with the walk behind is_min_labeled,
entered below that function (see _check_canonical), so resumed runs
make the same canonicity calls as one uninterrupted run.

Targets share one engine, and its witnesses are its only record of what
it found. Every cut and record compares with one size, need: for prove
the requested size, where the first family reaching it in depth-first
order is kept alone and ends the run; for maximize and enumerate the
witnesses' size (-1 before the root), raised by each larger family met,
so every canonical family of the maximum size is collected.
"""

from __future__ import annotations

import errno
import functools
import itertools
import os
import re
import stat
from collections.abc import Callable
from dataclasses import dataclass

from ._accel import (
    _label_dfs,
    add_member,
    build_pool,
    is_min_labeled,
    list_extensions,
    member_codes,
    rainbow_after_add,
)
from .family import (
    MODES,
    MULTISET,
    SET,
    Triangle,
    TriangleFamily,
    TrifamError,
    parse_family,
    serialize_family,
)
from .rainbow import find_rainbow

MAXIMIZE = "maximize"
PROVE = "prove"
ENUMERATE = "enumerate"
TARGETS = (MAXIMIZE, PROVE, ENUMERATE)

# Largest n a search accepts.  The engine keeps all C(n,3) triangles in
# its pool and lists their extensions for every child its parent's list
# does not drop.  At n = 64 the root's list, written without a test,
# takes about 0.6 ms, a child's, derived from its parent's, 7-15 ms, and
# a listing's private-edge table, built only where a child's size is
# below the size to reach, 14-28 ms (Python 3.11, 2-CPU shared machine).
# No exhaustive search near this size ends.
MAX_SEARCH_N = 64

_CKPT_MAGIC = "ckpt 1"
_CKPT_KEYS = ("n", "mode", "target", "prove_k", "done", "found", "nodes", "best")
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

    @property
    def max_multiplicity(self) -> int:
        return 2 if self.mode == MULTISET else 1


def _witness_size(witnesses) -> int:
    """The size the stored witnesses share; -1 with none."""
    return witnesses[0].size if witnesses else -1


@dataclass(frozen=True)
class SearchResult:
    """What a search or a resumed checkpoint found: for maximize and
    enumerate every canonical family of the maximum size, for prove the
    witness it found, if any.  The other facts are read from these."""

    target: str
    witnesses: tuple[TriangleFamily, ...]
    nodes_explored: int
    completed: bool

    @property
    def best_size(self) -> int:
        """The witnesses' size; -1 for a proof without a witness."""
        return _witness_size(self.witnesses)

    @property
    def found(self) -> bool | None:
        """For prove, whether it found a witness, or None if cut short."""
        if self.target != PROVE or not (self.witnesses or self.completed):
            return None
        return bool(self.witnesses)

    @property
    def extremal_class_count(self) -> int | None:
        """For enumerate, the number of isomorphism classes; else None."""
        return len(self.witnesses) if self.target == ENUMERATE else None


def _edge_bound(u: int, d: int) -> int:
    """At most what a subtree adds from listed triangles with u uncovered
    edges and d entries of 2 (see the module docstring)."""
    x = min(d, u // 3)
    return 2 * x + (u - 3 * x) // 2


def extend_ok(f: TriangleFamily, t: Triangle, add_m: int = 1) -> bool:
    """True iff adding add_m copies of t keeps the family rainbow-free.

    f must be rainbow-free.  On any f, the answer is whether the family
    with the copies has no rainbow triple through an edge of t, t's own
    triple included: a rainbow elsewhere goes unseen.

    Only vertex triples using an edge of t can become rainbow, so the
    check is local to t: rainbow_after_add reads the owner-count rows of
    t's three vertices and the multiplicities of triples holding two of
    them, which only the members meeting t add to. It runs on those
    members and t, relabeled in order onto their s vertices: one pass
    over the members picks them, and the three rows of length s and the
    members' multiplicities are all it builds, so nothing grows with n
    or with the square of the support.
    """
    a, b, c = sorted(t)
    if not (0 <= a < b < c < f.n):
        raise SearchError(f"triangle {t} does not fit on {f.n} vertices")
    if add_m < 1:
        raise SearchError("add_m must be at least 1")
    own = {a, b, c}
    near = [(tri, m) for tri, m in f.members if not own.isdisjoint(tri)]
    verts = sorted(own.union(*[tri for tri, _ in near]))
    s = len(verts)
    rank = {v: i for i, v in enumerate(verts)}
    a, b, c = rank[a], rank[b], rank[c]
    cnt = {a: [0] * s, b: [0] * s, c: [0] * s}
    row = cnt.get
    mult = {}
    for (x, y, z), m in near:
        x, y, z = rank[x], rank[y], rank[z]
        for u, v, w in ((x, y, z), (y, x, z), (z, x, y)):
            ru = row(u)
            if ru is not None:
                ru[v] += m
                ru[w] += m
        mult[(x * s + y) * s + z] = m
    return rainbow_after_add(cnt, mult, s, a, b, c, add_m) == 0


class _Stop(Exception):
    """Unwinds the DFS: at the node limit or at a proof's witness."""


class _Node:
    """A node of the DFS, listed where it is built: its extension list and
    what is read from it.

    buf[start:] is the node's extension list, each entry the largest
    multiplicity its pool triangle can be added with (0: none), from which
    its children's lists are derived; capacity is their sum.  The node's
    support is 0..sup-1, so sup is its next fresh label.  gens holds the
    automorphisms its canonicity walk found, as maps of the support, with
    which its children's walks are seeded; a replayed node has no walk and
    keeps none.  Its family is the one on the searcher's stack while it is
    listed and while its table is read.
    """

    def __init__(self, s: _Searcher, parent: _Node | None = None, idx: int = 0):
        """List the family on s's stack: the root, or the child of parent
        whose newest member, on top of the stack, is pool triangle idx."""
        self.s = s
        self.buf = [0] * s.total
        self.gens: list[list[int]] = []
        pbuf, top = None, ()
        self.start = self.sup = 0
        if parent is not None:
            pbuf, top = parent.buf, s.pool[idx]
            self.start, self.sup = idx + 1, max(parent.sup, top[2] + 1)
        self.capacity = list_extensions(
            s.cnt, s.mult, s.cfg.max_multiplicity, s.cfg.n,
            s.pool_a, s.pool_b, s.pool_c, self.start, pbuf, self.buf, *top,
        )

    @functools.cached_property
    def table(self) -> tuple[list[int], list[int], dict[int, int], int]:
        """The private-edge table of the node's list, built on first read
        in one pass down the listed entries.

        For each listed index, u_after and d_after hold the uncovered
        edges on the listed triangles after it and their entries of 2.
        last maps each uncovered edge on a listed triangle to the last
        listed index that carries it, and twos counts all entries of 2.
        """
        s, buf = self.s, self.buf
        n, cnt, pool = s.cfg.n, s.cnt, s.pool
        u_after, d_after = [0] * s.total, [0] * s.total
        last: dict[int, int] = {}
        twos = 0
        listed = itertools.compress(range(self.start, s.total), buf[self.start:])
        for idx in reversed(list(listed)):
            u_after[idx], d_after[idx] = len(last), twos
            a, b, c = pool[idx]
            row_a = cnt[a]
            if not row_a[b] and (e := a * n + b) not in last:
                last[e] = idx
            if not row_a[c] and (e := a * n + c) not in last:
                last[e] = idx
            if not cnt[b][c] and (e := b * n + c) not in last:
                last[e] = idx
            if buf[idx] == 2:
                twos += 1
        return u_after, d_after, last, twos

    def private_bound(self) -> int:
        """The private-edge bound of the node's family: at most what its
        subtree can add, read from its list (see the module docstring)."""
        _, _, last, twos = self.table
        return _edge_bound(len(last), twos)

    def child_bound(self, idx: int) -> int:
        """The private-edge bound of the child that adds pool triangle idx,
        read from this node's list before the child's is made: at least
        the child's private_bound() once it is listed (see the module
        docstring)."""
        u_after, d_after, last, _ = self.table
        a, b, c = self.s.pool[idx]
        n = self.s.cfg.n
        # the child covers its own edges, so those counted after it leave U
        u = u_after[idx]
        for e in (a * n + b, a * n + c, b * n + c):
            u -= last.get(e, idx) > idx
        return _edge_bound(u, d_after[idx])


class _Searcher:
    """The DFS core: orderly generation with bound cuts and checkpoints.

    The state is the stack of (pool index, multiplicity) members, their
    owner counts, their multiplicities keyed by packed triple (the
    kernels' mult) and their size, all kept by _push and _pop; the member
    rows (a, b, c, m) are derived from the stack, O(k) for k members.
    What belongs to one node, its extension list, automorphisms and
    private-edge table, lives in its _Node, which _process is handed.
    """

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        n = cfg.n
        self.pool, self.pool_a, self.pool_b, self.pool_c = build_pool(n)
        self.total = len(self.pool)
        self.cnt = [[0] * n for _ in range(n)]
        self.mult: dict[int, int] = {}
        self.stack: list[tuple[int, int]] = []
        self.size = 0
        self.nodes = 0
        self.witnesses: list[TriangleFamily] = []
        self.completed = True

    # -- state plumbing

    def _push(self, idx: int, m: int) -> None:
        n = self.cfg.n
        a, b, c = self.pool[idx]
        add_member(self.cnt, a, b, c, m)
        self.mult[(a * n + b) * n + c] = m
        self.stack.append((idx, m))
        self.size += m

    def _pop(self) -> None:
        idx, m = self.stack.pop()
        add_member(self.cnt, *self.pool[idx], -m)
        # the top member's key is the last one set, as the stack's pool
        # indices strictly increase
        self.mult.popitem()
        self.size -= m

    def _rows(self) -> list[tuple[int, int, int, int]]:
        """The stack's member rows (a, b, c, m), ascending."""
        return [(*self.pool[idx], m) for idx, m in self.stack]

    def _snapshot(self) -> TriangleFamily:
        members = tuple((self.pool[i], m) for i, m in self.stack)
        return TriangleFamily(self.cfg.n, members, self.cfg.mode)

    # -- node accounting

    def _count_node(self) -> None:
        limit, nodes = self.cfg.node_limit, self.nodes
        stop = bool(limit) and nodes >= limit
        # a checkpoint every interval, and one where the limit stops the run
        if self.cfg.checkpoint_path and (stop or nodes and nodes % _CKPT_INTERVAL == 0):
            self._write_checkpoint(done=False)
        if stop:
            self.completed = False
            raise _Stop
        self.nodes += 1

    # -- bookkeeping at a node

    def _record(self) -> None:
        if self.size < self.need:
            return
        if self.cfg.target == PROVE:
            self.witnesses = [self._snapshot()]
            raise _Stop
        if self.size > self.need:
            self.need = self.size
            self.witnesses = []
        self.witnesses.append(self._snapshot())

    # -- the DFS

    def run(self, replay: tuple[tuple[Triangle, int], ...] = ()) -> None:
        if self.cfg.checkpoint_path:
            # an unwritable path fails now, not after the first interval
            _write_checkpoint_file(self.cfg.checkpoint_path, None)
        # a proof's k, else the stored witnesses' size (-1 with none, so a
        # fresh run's root is its first record)
        self.need = (
            self.cfg.prove_k if self.cfg.target == PROVE else _witness_size(self.witnesses)
        )
        try:
            self._process(replay, _Node(self))
        except _Stop:
            pass
        finally:
            while self.stack:
                self._pop()
        if self.completed and self.cfg.checkpoint_path:
            self._write_checkpoint(done=True)

    def _cut(
        self, size: int, capacity: int, bound: Callable[[], int] | None = None
    ) -> str | None:
        """The cut that drops a branch grown from a family of size members,
        or None.  "capacity": size plus capacity, a bound on what the branch
        adds to that family, is below need.  "private": bound is given, size
        is below need, and size plus bound(), a private-edge bound on what
        the family's subtree adds, is below need; bound is read only then.
        """
        if size + capacity < self.need:
            return "capacity"
        if bound is not None and size < self.need and size + bound() < self.need:
            return "private"
        return None

    def _process(self, replay: tuple[tuple[Triangle, int], ...], node: _Node) -> None:
        """Count and record the family on the stack, whose node is node,
        then try its children, each listed into a _Node of its own.

        Every cut is _cut's against need, read for every child because
        need rises as the DFS records larger families.  The children's
        summed capacity from the current one on ends the loop.  Before a
        child (t, m) is listed, its size plus the capacity after t drops
        it, and then the private-edge bound read from node's table
        (node.child_bound): the uncovered edges on the listed triangles
        after t, less t's own, and the entries of 2 there.  Once listed,
        its own capacity, then the private-edge bound of its list, drop it
        before its labeling DFS.  A table is built only when a child's
        size is below need, as no bound can drop it otherwise.  While
        replay, a checkpoint's prefix below this node, is nonempty, the
        node is not counted or recorded and only its forced child is
        tried, uncut; replay is emptied once that child returns.

        A child (t, m) is P + (t, m) for this node's family P, so an
        automorphism of P that maps t's vertex set onto itself, extended
        by the identity on the child's fresh vertices, is one of the
        child: the child's walk is seeded with those, and on an accept
        leaves its own in the child's gens.
        """
        if not replay:
            self._count_node()
            self._record()
        buf, sup = node.buf, node.sup
        # rest is the capacity of buf[idx:], and bounds every later child
        rest = node.capacity
        for idx in range(node.start, self.total):
            mm = buf[idx]
            if mm == 0:
                continue
            if not replay and self._cut(self.size, rest):
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
                if replay:
                    if (self.pool[idx], m) < replay[0]:
                        continue
                    if (self.pool[idx], m) != replay[0]:
                        raise SearchError(
                            "checkpoint prefix is not a valid extension path"
                        )
                    # forced branch: descend without recounting ancestors
                    self._push(idx, m)
                    self._process(replay[1:], _Node(self, node, idx))
                    self._pop()
                    replay = ()
                    continue
                if self._cut(self.size + m, rest, lambda: node.child_bound(idx)):
                    continue
                self._push(idx, m)
                child = _Node(self, node, idx)
                if self._cut(self.size, child.capacity, child.private_bound) is None:
                    # the automorphisms of this node that fix t setwise,
                    # extended by the identity on t's fresh vertices
                    t = {a, b, c}
                    fresh = list(range(sup, child.sup))
                    seed = [g + fresh for g in node.gens if {g[v] for v in t if v < sup} <= t]
                    if is_min_labeled(self._rows(), self.cfg.n, seed, child.gens):
                        self._process((), child)
                self._pop()
        if replay:
            raise SearchError("checkpoint prefix is not a valid extension path")

    # -- checkpointing

    def _write_checkpoint(self, done: bool) -> None:
        path = self.cfg.checkpoint_path
        assert path is not None
        cfg, witnesses = self.cfg, self.witnesses
        found = cfg.target == PROVE and bool(witnesses)
        header = (cfg.n, cfg.mode, cfg.target, cfg.prove_k)
        header += (int(done), int(found), self.nodes, _witness_size(witnesses))
        lines = [_CKPT_MAGIC, *(f"{k} {v}" for k, v in zip(_CKPT_KEYS, header))]
        lines.append(f"prefix {len(self.stack)}")
        lines += [f"{a} {b} {c} {m}" for a, b, c, m in self._rows()]
        lines.append(f"witnesses {len(witnesses)}")
        for family in witnesses:
            lines.append("witness")
            lines.append(serialize_family(family).rstrip("\n"))
        _write_checkpoint_file(path, "\n".join(lines) + "\n")


def write_atomic(path: str, payload: str | None) -> None:
    """Write payload to path as UTF-8 by way of a temporary file beside it,
    so a failed write leaves path as it was; with payload None, only check
    that path is no directory and that its directory takes a file.  The
    file gets the mode open(path, "w") would leave, and a symlink, device
    or FIFO at path is written in place, as open would.

    An OSError from the temporary file (making, writing or renaming it)
    is raised again as only its errno and text, without the file's random
    name, so it reads the same each run; a directory at path is named.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        if payload is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f".ckpt-{os.urandom(8).hex()}")
        # made as open makes a file, 0666 less the umask, not mkstemp's 0600
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        if payload is None:
            os.close(fd)
        else:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            if os.path.exists(path):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_checkpoint_file(path: str, payload: str | None) -> None:
    try:
        write_atomic(path, payload)
    except OSError as exc:
        raise SearchError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str) -> dict:
    """Parse a checkpoint file into a plain dict (no engine state).

    A checkpoint is ASCII text: the magic line "ckpt 1"; one "key value"
    line for each of _CKPT_KEYS, in that order; "prefix K" and K lines
    "a b c m", the members on the stack of an unfinished run; then
    "witnesses W" and W TRIFAM blocks, each after a "witness" line.

    The header must be a valid search configuration and agree with the
    stored witnesses: each is on its n and mode, all have one size, and
    best is that size, or -1 for a proof without a witness.  Files
    written while a proof still tracked the largest families it met are
    read too: a found proof takes best from its witness, and the families
    stored by an unfinished or refuted one are checked, then dropped.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SearchError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SearchError(f"{path}: not an ASCII checkpoint ({exc.reason})") from None
    if not lines or lines[0].strip() != _CKPT_MAGIC:
        raise SearchError(f"{path}: not a version-1 checkpoint")
    pos = 1  # lines read so far, so the last one read is line pos

    def integer(text: str) -> int:
        # signed ASCII decimal as written; int() also takes "1_3", may refuse 641 digits
        if re.fullmatch(r"-?[0-9]{1,640}", text):
            return int(text)
        raise SearchError(f"{path}: line {pos}: expected an integer, got {text!r}")

    def field(key: str):
        """The value on the next line, which must read "key value"."""
        nonlocal pos
        parts = lines[pos].split() if pos < len(lines) else []
        pos += 1
        if len(parts) != 2 or parts[0] != key:
            raise SearchError(f"{path}: expected '{key} <value>' on line {pos}")
        return parts[1] if key in ("mode", "target") else integer(parts[1])

    state: dict = {key: field(key) for key in _CKPT_KEYS}
    # the n cap (exit 3) comes before any disagreement with the witnesses
    SearchConfig(state["n"], state["mode"], state["target"], state["prove_k"])
    prefix = []
    for _ in range(field("prefix")):
        nums = lines[pos].split() if pos < len(lines) else []
        pos += 1
        if len(nums) != 4:
            raise SearchError(f"{path}: expected 'a b c m' on line {pos}")
        a, b, c, m = (integer(x) for x in nums)
        prefix.append(((a, b, c), m))
    count = field("witnesses")
    blocks: list[list[str]] = []
    for line in lines[pos:]:
        if line.strip() == "witness":
            blocks.append([])
        elif not blocks:
            raise SearchError(f"{path}: expected 'witness' on line {pos + 1}")
        else:
            blocks[-1].append(line)
    if len(blocks) != count:
        raise SearchError(f"{path}: witness count mismatch ({len(blocks)} != {count})")
    witnesses = []
    for i, block in enumerate(blocks, 1):
        try:
            witnesses.append(parse_family("\n".join(block)))
        except TrifamError as exc:
            raise SearchError(f"{path}: witness {i}: {exc}") from None
    # a resumed search reports the witnesses as read, so they must match the header
    for w in witnesses:
        if (w.n, w.mode) != (state["n"], state["mode"]):
            raise SearchError(
                f"{path}: witness on n {w.n}, mode {w.mode} disagrees with the header"
            )
    if {state["done"], state["found"]} - {0, 1} or state["nodes"] < 0:
        raise SearchError(f"{path}: done and found must be 0 or 1, nodes >= 0")
    sizes = {w.size for w in witnesses}
    if len(sizes) > 1:
        raise SearchError(f"{path}: stored witnesses differ in size {sorted(sizes)}")
    proof = state["target"] == PROVE
    if state["found"]:
        # a found proof is always written as a done prove checkpoint
        if not state["done"] or not proof or len(witnesses) != 1:
            raise SearchError(f"{path}: found-flag set outside a finished proof")
        # an older file holds the largest family met before the witness
        state["best"] = witnesses[0].size
    elif state["best"] != max(sizes, default=-1 if proof else None):
        raise SearchError(f"{path}: best {state['best']} does not match the stored witnesses")
    elif proof:
        # an older unfinished or refuted proof stored the largest families it met
        witnesses, state["best"] = [], -1
    state.update(
        done=bool(state["done"]),
        found=bool(state["found"]),
        prefix=tuple(prefix),
        witnesses=tuple(witnesses),
    )
    return state


def _finish(s: _Searcher) -> SearchResult:
    result = SearchResult(
        target=s.cfg.target,
        witnesses=tuple(sorted(s.witnesses, key=lambda f: f.members)),
        nodes_explored=s.nodes,
        completed=s.completed,
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
    return _finish(s)


def _check_canonical(path: str, state: dict) -> None:
    """Refuse a checkpoint whose prefix family or a stored witness is not
    canonically labeled: the search never holds one, and resuming it
    would visit classes again or report a class twice.

    Every prefix of a canonical prefix is canonical (see the module
    docstring), so the deepest prefix family stands for them all.  Each
    family takes the walk of is_min_labeled, entered below that function
    so a resumed run makes the canonicity calls of one uninterrupted run.
    It prunes with the family's own codes from its first node and stops
    at the first labeling certain to be below them, with no greedy dive,
    where min_labeling would first find the least labeling to compare it.
    A target walk (min_labeling with the family's own codes as target)
    would not do: it stops at the first dive that ties the target, and a
    dive can tie a family's own codes when a smaller labeling exists, as
    on (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 5), (1, 2, 3).
    """
    try:
        prefix = TriangleFamily(state["n"], state["prefix"], state["mode"])
    except TrifamError:
        raise SearchError("checkpoint prefix is not a valid extension path") from None
    named = [("checkpoint prefix", prefix)]
    named += [(f"stored witness {i}", w) for i, w in enumerate(state["witnesses"], 1)]
    for name, f in named:
        rows = [(*t, m) for t, m in sorted(f.members)]
        if _label_dfs(rows, f.n, member_codes(rows, f.n), 1, None):
            raise SearchError(f"{path}: {name} is not canonically labeled")


def resume_search(
    path: str,
    node_limit: int = 0,
    checkpoint_path: str | None = None,
) -> SearchResult:
    """Continue a search from a checkpoint file.

    The search configuration comes from the checkpoint.  A positive node
    limit is a fresh budget for this run (0 = no limit); the stored run
    already consumed its own, so the cap is applied on top of the node
    count recorded in the checkpoint.  A finished checkpoint is not run
    again: its result is returned, and written again at checkpoint_path.
    A checkpoint whose prefix family or a stored witness is not
    canonically labeled is refused.
    """
    state = load_checkpoint(path)
    _check_canonical(path, state)
    s = _Searcher(
        SearchConfig(
            n=state["n"],
            mode=state["mode"],
            target=state["target"],
            prove_k=state["prove_k"],
            # a negative limit goes on to SearchConfig, which refuses it
            node_limit=state["nodes"] + node_limit if node_limit > 0 else node_limit,
            checkpoint_path=checkpoint_path,
        )
    )
    s.nodes = state["nodes"]
    s.witnesses = list(state["witnesses"])
    if not state["done"]:
        # rebuild geometry along the prefix without counting those nodes
        s.run(state["prefix"])
    elif checkpoint_path:
        s._write_checkpoint(done=True)
    return _finish(s)


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
