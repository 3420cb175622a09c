"""Builders for notable rainbow-free triangle families.

pair_family puts one triangle on every (pair, apex) combination; t_star
is the balanced special case with n/4 pairs and n/2 apexes, which has
n^2/8 members. double takes two copies of every member of a simple
family, and doubled_nine is the doubled 6-triangle support on 9
vertices: a 12-member multiset family, beating the best simple family
on 9 vertices.
"""

from __future__ import annotations

from collections import Counter

from .family import (
    MAX_MEMBERS,
    MULTISET,
    SET,
    Triangle,
    TriangleFamily,
    TrifamError,
    VertexLimitError,
    check_vertex_limit,
    family_from_triangles,
    triangle_edges,
)


def pair_family(n: int, pairs: int, apexes: int) -> TriangleFamily:
    """Family with one triangle per (pair, apex) combination.

    Pairs are {0,1}, {2,3}, ... and apexes are the last `apexes`
    vertices of range(n), so 2*pairs + apexes must be at most n, and
    the pairs * apexes members at most MAX_MEMBERS.
    """
    check_vertex_limit(n)
    if pairs < 1 or apexes < 1:
        raise TrifamError("need at least one pair and one apex")
    if 2 * pairs + apexes > n:
        raise TrifamError(
            f"pairs and apexes overlap: 2*{pairs} + {apexes} > {n}"
        )
    if pairs * apexes > MAX_MEMBERS:
        raise VertexLimitError(
            f"member count must be <= {MAX_MEMBERS}, got {pairs * apexes}"
        )
    tris = [
        (2 * i, 2 * i + 1, a)
        for i in range(pairs)
        for a in range(n - apexes, n)
    ]
    return family_from_triangles(n, tris, SET)


def t_star(n: int) -> TriangleFamily:
    """The n^2/8-member rainbow-free family on n vertices.

    Requires n divisible by 4: n/4 disjoint pairs, n/2 apexes, and a
    triangle on every pair-apex combination.
    """
    if n < 4 or n % 4:
        raise TrifamError("t_star needs n >= 4 with n % 4 == 0")
    return pair_family(n, n // 4, n // 2)


def double(f: TriangleFamily) -> TriangleFamily:
    """Two copies of every member, as a multiset family."""
    if f.mode == MULTISET:
        raise TrifamError("can only double a set-mode family")
    return TriangleFamily(f.n, tuple((t, 2) for t, _ in f.members), MULTISET)


# Six pairwise edge-disjoint triangles on 9 vertices; their union graph
# contains no other triangle, and taking each twice stays rainbow-free.
# Doubled, they form the unique 12-member multiset extremal class at
# n = 9 (pinned by the multiset census test).
DOUBLED_9_SUPPORT: tuple[Triangle, ...] = (
    (0, 1, 2),
    (0, 3, 4),
    (1, 5, 6),
    (2, 7, 8),
    (3, 5, 7),
    (4, 6, 8),
)


def doubled_nine_support() -> TriangleFamily:
    """The frozen 6-triangle support on 9 vertices, as a simple family."""
    return family_from_triangles(9, list(DOUBLED_9_SUPPORT), SET)


def doubled_nine() -> TriangleFamily:
    """12-member rainbow-free multiset family on 9 vertices."""
    return double(doubled_nine_support())


def is_tstar_family(f: TriangleFamily) -> bool:
    """True when f is isomorphic to t_star(f.n), decided structurally.

    In t_star the pair edges are exactly the edges lying in two or more
    members, so the test counts the members' edges (it builds no union
    graph) and checks: all multiplicities 1, size n^2/8, the
    multiply-covered edges form a perfect matching on half the vertices,
    and every member is one matching edge plus one vertex from the other
    half. A simple family of that size passing the member check must
    realize every (pair, apex) combination.
    """
    n = f.n
    if n < 4 or n % 4:
        return False
    if 8 * f.size != n * n:
        return False
    if any(m != 1 for _, m in f.members):
        return False
    cover = Counter(e for t, _ in f.members for e in triangle_edges(t))
    heavy = {e for e, k in cover.items() if k >= 2}
    if len(heavy) != n // 4:
        return False
    pair_verts = {v for e in heavy for v in e}
    if len(pair_verts) != n // 2:
        return False
    apexes = set(range(n)) - pair_verts
    for (a, b, c), _ in f.members:
        if (a, b) in heavy and c in apexes:
            continue
        if (a, c) in heavy and b in apexes:
            continue
        if (b, c) in heavy and a in apexes:
            continue
        return False
    return True
