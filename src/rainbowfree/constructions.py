"""Builders for notable rainbow-free triangle families.

pair_family puts one triangle on every (pair, apex) combination; t_star
is the balanced special case with n/4 pairs and n/2 apexes, which has
n^2/8 members. double takes two copies of every member of a simple
family, and doubled_nine is the doubled 6-triangle support on 9
vertices: a 12-member multiset family, beating the best simple family
on 9 vertices.
"""

from __future__ import annotations

import numpy as np

from ._accel import add_member, build_pool, rainbow_after_add
from .family import (
    MULTISET,
    SET,
    Triangle,
    TriangleFamily,
    TrifamError,
    family_from_triangles,
    union_graph,
)


def pair_family(n: int, pairs: int, apexes: int) -> TriangleFamily:
    """Family with one triangle per (pair, apex) combination.

    Pairs are {0,1}, {2,3}, ... and apexes are the last `apexes`
    vertices of range(n), so 2*pairs + apexes must be at most n.
    """
    if pairs < 1 or apexes < 1:
        raise TrifamError("need at least one pair and one apex")
    if 2 * pairs + apexes > n:
        raise TrifamError(
            f"pairs and apexes overlap: 2*{pairs} + {apexes} > {n}"
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


def find_doubled_support(n: int, size: int) -> TriangleFamily | None:
    """Lex-first set of `size` triangles on n vertices whose doubling is
    rainbow-free, or None if no such set exists.

    Depth-first search over ascending triangle sequences; a branch is
    cut as soon as adding the doubled triangle would create a rainbow
    triple, which in particular forces the chosen triangles to be
    pairwise edge-disjoint.
    """
    pool, tri_index = build_pool(n)
    total = len(pool)
    cnt = np.zeros((n, n), np.int64)
    tri_mult = np.zeros(total, np.int64)
    chosen: list[Triangle] = []

    def dfs(start: int) -> bool:
        if len(chosen) == size:
            return True
        if len(chosen) + (total - start) < size:
            return False
        for idx in range(start, total):
            a, b, c = pool[idx]
            if rainbow_after_add(cnt, tri_mult, tri_index, n, a, b, c, 2):
                continue
            add_member(cnt, tri_mult, idx, a, b, c, 2)
            chosen.append(pool[idx])
            if dfs(idx + 1):
                return True
            chosen.pop()
            add_member(cnt, tri_mult, idx, a, b, c, -2)
        return False

    if not dfs(0):
        return None
    return family_from_triangles(n, list(chosen), SET)


# Output of find_doubled_support(9, 6), frozen. Six pairwise
# edge-disjoint triangles on 9 vertices; their union graph contains no
# other triangle, and taking each twice stays rainbow-free.
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
    members, so the test checks: all multiplicities 1, size n^2/8, the
    multiply-covered edges form a perfect matching on half the
    vertices, and every member is one matching edge plus one vertex
    from the other half. A simple family of that size passing the
    member check must realize every (pair, apex) combination.
    """
    n = f.n
    if n < 4 or n % 4:
        return False
    if 8 * f.size != n * n:
        return False
    if any(m != 1 for _, m in f.members):
        return False
    g = union_graph(f)
    heavy = {e for e, owners in g.owners.items() if len(owners) >= 2}
    if len(heavy) != n // 4:
        return False
    pair_verts: set[int] = set()
    for u, v in heavy:
        pair_verts.add(u)
        pair_verts.add(v)
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
