"""Rainbow-triangle detection, certificates, and edge-sharing counts.

A vertex triple is a rainbow triangle when its three edges can be assigned
to three pairwise distinct member copies, each containing its assigned
edge.  Distinct copies of one doubled triangle count as distinct owners.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._accel import add_member, rainbow_triple_scan
from .family import (
    Edge,
    MemberRef,
    Triangle,
    TriangleFamily,
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


def family_state(f: TriangleFamily) -> tuple[list[list[int]], dict[int, int]]:
    """f as (cnt, mult), the extension kernels' input (see _accel): the
    n x n edge owner counts and each member's multiplicity keyed by its
    packed triple (a*n+b)*n+c."""
    n = f.n
    cnt = [[0] * n for _ in range(n)]
    mult = {}
    for (a, b, c), m in f.members:
        add_member(cnt, a, b, c, m)
        mult[(a * n + b) * n + c] = m
    return cnt, mult


def scan_state(
    f: TriangleFamily,
) -> tuple[tuple[int, ...], list[int], list[dict[int, int]], dict[int, int]]:
    """The support of f, ascending, and the input of rainbow_triple_scan
    on it (hi, cnt, mult; see _accel), keyed on the support ranks.

    One pass over the members builds all three, so time and memory grow
    with the members, not with n; a bitmask spans from its vertex to its
    highest neighbour.  Ranks keep vertex order, so the least rainbow
    triple of the ranks is the least of f.
    """
    sup = f.support_vertices()
    s = len(sup)
    rank = {v: i for i, v in enumerate(sup)}
    hi = [0] * s
    cnt: list[dict[int, int]] = [{} for _ in range(s)]
    mult: dict[int, int] = {}
    for (a, b, c), m in f.members:
        a, b, c = rank[a], rank[b], rank[c]
        hi[a] |= 1 << (b - a - 1) | 1 << (c - a - 1)
        hi[b] |= 1 << (c - b - 1)
        ra, rb = cnt[a], cnt[b]
        ra[b] = ra.get(b, 0) + m
        ra[c] = ra.get(c, 0) + m
        rb[c] = rb.get(c, 0) + m
        mult[(a * s + b) * s + c] = m
    return sup, hi, cnt, mult


def find_rainbow(f: TriangleFamily) -> RainbowCertificate | None:
    """First rainbow triangle, or None if the family has none.

    Deterministic: returns the lexicographically least rainbow triple and,
    for it, the lexicographically least assignment of member copies to its
    three ascending edges.  Existence is decided by the counting form of
    Hall's condition; the assignment search below then always succeeds.

    A rainbow triple is a triangle of the union graph, so the scan
    (rainbow_triple_scan) walks only those, on the support ranks
    (scan_state).
    """
    sup, hi, cnt, mult = scan_state(f)
    s = len(sup)
    packed = rainbow_triple_scan(hi, cnt, mult, s)
    if packed < 0:
        return None
    xy, z = divmod(packed, s)
    x, y = divmod(xy, s)
    triple: Triangle = (sup[x], sup[y], sup[z])
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


def _is_pair(x: object) -> bool:
    return isinstance(x, tuple) and len(x) == 2


def verify_certificate(f: TriangleFamily, c: RainbowCertificate) -> bool:
    """Check a certificate against f; never raises, returns False on any defect.

    Valid iff: every assignment entry is an (edge, (index, copy)) pair,
    the triple is three ascending in-range vertices, the three assignment
    edges are exactly the triple's edges in ascending order, the assigned
    member copies exist, are pairwise distinct, and each contains its
    assigned edge.
    """
    if not all(_is_pair(entry) and _is_pair(entry[1]) for entry in c.assignment):
        return False
    t = c.triple
    if len(t) != 3 or not (0 <= t[0] < t[1] < t[2] < f.n):
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
