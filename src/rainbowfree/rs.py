"""Multiset decomposition and the unique-triangle premise checker.

A multiset family with multiplicities at most 2 splits into two layers:
T1 holds one copy of every distinct member and T2 holds the members that
appear twice.  Sizes add up, size(f) = |T1| + |T2|.  When the family is
rainbow-free the doubled layer is forced to be very sparse: its members
are pairwise edge-disjoint and their union graph carries no triangles
beyond the members themselves, so every edge of that graph lies in
exactly one triangle.  This module performs the split and verifies those
consequences on concrete families.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .family import (
    MULTISET,
    SET,
    Edge,
    Triangle,
    TriangleFamily,
    TrifamError,
    UnionGraph,
    family_from_triangles,
    triangle_edges,
    union_graph,
)
from .rainbow import find_rainbow

__all__ = [
    "MultisetDecomposition",
    "decompose",
    "check_t2_constraints",
    "unique_triangle_property",
    "bound_report",
]


@dataclass(frozen=True)
class MultisetDecomposition:
    """Two-layer split of a multiset family.

    t2's members are a subset of t1's, and the original family's size is
    t1.size + t2.size.
    """

    t1: TriangleFamily  # one copy of every distinct member
    t2: TriangleFamily  # the members appearing twice
    g2: UnionGraph  # union graph of t2


def decompose(f: TriangleFamily) -> MultisetDecomposition:
    """Split a multiplicity-at-most-2 multiset family into its layers."""
    if f.mode != MULTISET:
        raise TrifamError("decompose expects a multiset-mode family")
    t1 = family_from_triangles(f.n, list(f.support), SET)
    t2 = family_from_triangles(f.n, [t for t, m in f.members if m == 2], SET)
    return MultisetDecomposition(t1, t2, union_graph(t2))


def _neighbours(g: UnionGraph) -> defaultdict[int, set[int]]:
    """Each vertex's neighbours in g, read from its edges, so they take
    memory in proportion to the edges, not to n."""
    nbrs: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in g.owners:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _graph_triangles(g: UnionGraph) -> list[Triangle]:
    # each triangle once, at its lexicographically least edge, with the
    # common neighbours above v ascending
    nbrs = _neighbours(g)
    out: list[Triangle] = []
    for u, v in g.edges:
        out += [(u, v, w) for w in sorted(nbrs[u] & nbrs[v]) if w > v]
    return out


def check_t2_constraints(
    d: MultisetDecomposition, original: TriangleFamily
) -> tuple[bool, tuple[str, ...]]:
    """Verify the structural consequences forced on the doubled layer.

    Returns (ok, diagnostics).  ok is true iff the members of t2 are
    pairwise edge-disjoint and g2 contains no triangle other than the
    member triples.  Rainbow-freeness of the original family forces both,
    so a failure together with a rainbow-free original is flagged in the
    diagnostics as an internal error.
    """
    notes: list[str] = []
    for i, t in enumerate(d.t2.support):
        for e in triangle_edges(t):
            # owners lists an edge's copies in member order
            first = d.g2.owners[e][0][0]
            if first != i:
                notes.append(f"edge {e} shared by members {d.t2.members[first][0]} and {t}")
    members = set(d.t2.support)
    for t in _graph_triangles(d.g2):
        if t not in members:
            notes.append(f"union graph triangle {t} is not a member")
    ok = not notes
    if not ok and find_rainbow(original) is None:
        notes.append(
            "internal error: the original family is rainbow-free, yet a"
            " forced consequence failed"
        )
    return ok, tuple(notes)


def unique_triangle_property(g: UnionGraph) -> tuple[bool, Edge | None]:
    """Does every edge of g lie in exactly one triangle of g?

    Counts triangles of the graph itself, not family members.  Returns
    (True, None) when the property holds, otherwise (False, e) for the
    first edge e in lexicographic order whose triangle count is not 1.
    """
    nbrs = _neighbours(g)
    for u, v in g.edges:
        if len(nbrs[u] & nbrs[v]) != 1:
            return False, (u, v)
    return True, None


def bound_report(d: MultisetDecomposition) -> str:
    """Plain-text size report for a decomposition."""
    n = d.t1.n
    t1, t2 = d.t1.size, d.t2.size
    edges = len(d.g2.edges)
    lines = [
        f"n = {n}",
        "|T1| = {} (bound n^2/8 = {}/8: {})".format(
            t1, n * n, "holds" if 8 * t1 <= n * n else "exceeded"
        ),
        f"|T2| = {t2}",
        "|E(G2)| = {} (3|T2| = {}: {})".format(
            edges, 3 * t2, "holds" if edges == 3 * t2 else "violated"
        ),
        f"total = |T1| + |T2| = {t1 + t2}",
        "note: the subquadratic slack in the size bound is asymptotic"
        " and is not checked numerically",
    ]
    return "\n".join(lines) + "\n"
