"""Rainbow-triangle detection, certificates, and edge-sharing counts.

A vertex triple is a rainbow triangle when its three edges can be assigned
to three pairwise distinct member copies, each containing its assigned
edge.  Distinct copies of one doubled triangle count as distinct owners.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._accel import add_member, member_columns, rainbow_triple_scan
from .family import (
    Edge,
    MemberRef,
    Triangle,
    TriangleFamily,
    edge,
    triangle_edges,
)


@dataclass(frozen=True)
class RainbowCertificate:
    """A rainbow triple plus one witnessing edge-to-copy assignment."""

    triple: Triangle
    assignment: tuple[tuple[Edge, MemberRef], ...]  # 3 entries, edges ascending


def edge_owners(f: TriangleFamily, e: Edge) -> tuple[MemberRef, ...]:
    """Member copies containing edge e, in (index, copy) order."""
    u, v = e
    out: list[MemberRef] = []
    for i, (t, m) in enumerate(f.members):
        if u in t and v in t:
            out.extend((i, c) for c in range(m))
    return tuple(out)


def family_state(f: TriangleFamily) -> tuple[list[list[int]], list[int], list[int]]:
    """f as (cnt, codes, tm), the rainbow kernels' member format (see _accel)."""
    n = f.n
    cnt = [[0] * n for _ in range(n)]
    for (a, b, c), m in f.members:
        add_member(cnt, a, b, c, m)
    ta, tb, tc, tm = member_columns(f.members)
    return cnt, [(a * n + b) * n + c for a, b, c in zip(ta, tb, tc)], tm


def find_rainbow(f: TriangleFamily) -> RainbowCertificate | None:
    """First rainbow triangle, or None if the family has none.

    Deterministic: returns the lexicographically least rainbow triple and,
    for it, the lexicographically least assignment of member copies to its
    three ascending edges.  Existence is decided by the counting form of
    Hall's condition; the assignment search below then always succeeds.
    """
    if f.n < 3 or not f.members:
        return None
    packed = rainbow_triple_scan(*family_state(f), f.n)
    if packed < 0:
        return None
    xy, z = divmod(packed, f.n)
    triple: Triangle = (*divmod(xy, f.n), z)
    edges = triangle_edges(triple)
    owners = [edge_owners(f, e) for e in edges]
    for r1 in owners[0]:
        for r2 in owners[1]:
            if r2 == r1:
                continue
            for r3 in owners[2]:
                if r3 == r1 or r3 == r2:
                    continue
                return RainbowCertificate(
                    triple, ((edges[0], r1), (edges[1], r2), (edges[2], r3))
                )
    raise AssertionError(f"SDR promised by counting test but not found at {triple}")


def has_rainbow(f: TriangleFamily) -> bool:
    return find_rainbow(f) is not None


def verify_certificate(f: TriangleFamily, c: RainbowCertificate) -> bool:
    """Check a certificate against f; never raises, returns False on any defect.

    Valid iff: the triple is three ascending in-range vertices, the three
    assignment edges are exactly the triple's edges in ascending order, the
    assigned member copies exist, are pairwise distinct, and each contains
    its assigned edge.
    """
    t = c.triple
    if len(t) != 3 or not (0 <= t[0] < t[1] < t[2] < f.n):
        return False
    if len(c.assignment) != 3:
        return False
    if tuple(e for e, _ in c.assignment) != triangle_edges(t):
        return False
    refs = [r for _, r in c.assignment]
    if len(set(refs)) != 3:
        return False
    for (u, v), (i, cp) in c.assignment:
        if not (0 <= i < len(f.members)):
            return False
        tri, m = f.members[i]
        if not (0 <= cp < m):
            return False
        if u not in tri or v not in tri:
            return False
    return True


def shared_edge_count(f: TriangleFamily, i: int) -> int:
    """How many of member i's edges appear in some other member triangle.

    Copies of the same triangle do not count as sharing; in any
    rainbow-free family this is at most 1 for every member.
    """
    t, _ = f.members[i]
    count = 0
    for u, v in triangle_edges(t):
        for j, (t2, _) in enumerate(f.members):
            if j != i and u in t2 and v in t2:
                count += 1
                break
    return count


def render_certificate(c: RainbowCertificate) -> str:
    x, y, z = c.triple
    lines = [f"rainbow {x} {y} {z}"]
    for (u, v), (i, cp) in c.assignment:
        lines.append(f"edge {u} {v} owner {i} copy {cp}")
    return "\n".join(lines) + "\n"
