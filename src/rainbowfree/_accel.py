"""Hot numeric kernels, JIT-compiled with numba when available.

Set RAINBOWFREE_NO_NUMBA=1 to force the pure-Python fallback; the same
source then runs uncompiled, so both paths share one implementation.
USING_NUMBA reports which path is active.  All kernels work on int64
numpy arrays and plain ints.  Packed values use a radix derived from n
(the rainbow scan packs triples with radix n, the labeling DFS packs
member codes with radix n + 2), so no kernel caps the vertex count.

Rainbow test used throughout: a vertex triple is rainbow iff its three
edges exist and admit a system of distinct representatives among owner
copies.  Two different edges of a triple can only share an owner that is
a copy of the triple itself, so Hall's condition reduces to counting:
with edge owner counts c1, c2, c3 and cm copies of the triple itself,
an SDR exists iff every ci >= 1, every ci + cj - cm >= 2, and
c1 + c2 + c3 - 2 * cm >= 3.
"""

from __future__ import annotations

import itertools
import os

import numpy as np


def _want_numba() -> bool:
    flag = os.environ.get("RAINBOWFREE_NO_NUMBA", "").strip().lower()
    return flag not in ("1", "true", "yes")


USING_NUMBA = False
if _want_numba():
    try:
        from numba import njit  # type: ignore[import-untyped]

        USING_NUMBA = True
    except ImportError:
        USING_NUMBA = False

if USING_NUMBA:

    def _jit(fn):
        return njit(cache=True)(fn)

else:

    def _jit(fn):
        return fn


_INF = np.int64(1) << 62


def build_pool(n: int) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """All triangles on 0..n-1 in lexicographic order, plus a rank table.

    tri_index[a, b, c] = pool rank for a < b < c, -1 elsewhere.
    """
    pool = list(itertools.combinations(range(n), 3))
    tri_index = np.full((n, n, n), -1, dtype=np.int64)
    for i, (a, b, c) in enumerate(pool):
        tri_index[a, b, c] = i
    return pool, tri_index


@_jit
def add_member(cnt, tri_mult, idx, a, b, c, m):
    """Add m copies of member (a, b, c), pool rank idx, to the owner counts.

    A negative m removes copies.
    """
    cnt[a, b] += m
    cnt[b, a] += m
    cnt[a, c] += m
    cnt[c, a] += m
    cnt[b, c] += m
    cnt[c, b] += m
    tri_mult[idx] += m


@_jit
def _hall3(c1, c2, c3, cm):
    # SDR over the three edge slots of a triple, by counting (see module doc)
    if c1 < 1 or c2 < 1 or c3 < 1:
        return 0
    if c1 + c2 - cm < 2:
        return 0
    if c1 + c3 - cm < 2:
        return 0
    if c2 + c3 - cm < 2:
        return 0
    if c1 + c2 + c3 - 2 * cm < 3:
        return 0
    return 1


@_jit
def rainbow_triple_scan(cnt, tri_mult, tri_index, n):
    """First rainbow triple in lexicographic order, packed (x*n+y)*n+z.

    cnt is the symmetric edge owner-count matrix, tri_mult the per-pool
    member multiplicities.  Returns -1 when the family is rainbow-free.
    """
    for x in range(n):
        for y in range(x + 1, n):
            if cnt[x, y] == 0:
                continue
            for z in range(y + 1, n):
                if cnt[x, z] == 0 or cnt[y, z] == 0:
                    continue
                cm = tri_mult[tri_index[x, y, z]]
                if _hall3(cnt[x, y], cnt[x, z], cnt[y, z], cm) == 1:
                    return (x * n + y) * n + z
    return -1


@_jit
def rainbow_after_add(cnt, tri_mult, tri_index, n, x, y, z, add_m):
    """Would adding add_m copies of (x, y, z) create a rainbow triple?

    Assumes the current family is rainbow-free, so only triples using an
    edge of the new member need checking.  Returns 1 if a rainbow appears.
    """
    for k in range(3):
        if k == 0:
            a, b = x, y
        elif k == 1:
            a, b = x, z
        else:
            a, b = y, z
        for w in range(n):
            if w == a or w == b:
                continue
            # sort (a, b, w); a < b already
            if w < a:
                p, q, r = w, a, b
            elif w < b:
                p, q, r = a, w, b
            else:
                p, q, r = a, b, w
            own = 1 if (p == x and q == y and r == z) else 0
            cm = tri_mult[tri_index[p, q, r]] + add_m * own
            c1 = cnt[p, q]
            if p == x and q == y or p == x and q == z or p == y and q == z:
                c1 += add_m
            c2 = cnt[p, r]
            if p == x and r == y or p == x and r == z or p == y and r == z:
                c2 += add_m
            c3 = cnt[q, r]
            if q == x and r == y or q == x and r == z or q == y and r == z:
                c3 += add_m
            if _hall3(c1, c2, c3, cm) == 1:
                return 1
    return 0


@_jit
def list_extensions(cnt, tri_mult, tri_index, n, pool_a, pool_b, pool_c, start, max_mult, out):
    """Record the largest rainbow-safe multiplicity per pool triangle >= start.

    out[idx] becomes 0 (cannot extend), 1, or 2; entries below start are
    untouched.  Returns the summed capacity of all recorded extensions.
    Unaddable triangles stay unaddable as the family grows, so the sum
    bounds everything a whole subtree can still add; label-contiguity is
    a per-node constraint and is left to the caller.
    """
    total = pool_a.shape[0]
    cap = 0
    for idx in range(start, total):
        out[idx] = 0
        a = pool_a[idx]
        b = pool_b[idx]
        c = pool_c[idx]
        if rainbow_after_add(cnt, tri_mult, tri_index, n, a, b, c, 1) == 1:
            continue
        m = 1
        if max_mult >= 2 and rainbow_after_add(cnt, tri_mult, tri_index, n, a, b, c, 2) == 0:
            m = 2
        out[idx] = m
        cap += m
    return cap


@_jit
def _label_dfs(ta, tb, tc, tm, sup, n, best, stop, out_lab):
    """Walk labelings of the support, comparing sorted member codes to best.

    ta/tb/tc/tm are the member vertex columns and multiplicities; sup
    lists the support vertices ascending.  Every injection of the support
    onto labels 0..s-1 is tried by DFS, and a branch is cut as soon as a
    determined prefix of its sorted code sequence shows it cannot end
    strictly below best.  With stop=1, returns 1 at the first labeling
    strictly below best.  With stop=0, each complete labeling strictly
    below best replaces it, codes in best and the label of every vertex
    in out_lab (-1 off the support), so best ends as the minimum and ties
    keep the earlier labeling.  Returns 0 when no labeling beats the seed.
    """
    k = ta.shape[0]
    s = sup.shape[0]
    if k == 0 or s == 0:
        return 0
    r = n + 2  # exceeds every label, including the fresh ones below
    lab = np.full(n, -1, np.int64)
    used = np.zeros(s, np.uint8)
    choice = np.full(s, -1, np.int64)
    det = np.empty(k, np.int64)
    found = 0
    level = 0
    while level >= 0:
        prev = choice[level]
        if prev >= 0:
            used[prev] = 0
            lab[sup[prev]] = -1
        c = prev + 1
        while c < s and used[c] == 1:
            c += 1
        if c >= s:
            choice[level] = -1
            level -= 1
            continue
        choice[level] = c
        used[c] = 1
        lab[sup[c]] = level
        nass = level + 1
        lb = _INF
        ndet = 0
        for i in range(k):
            # unassigned slots take the smallest fresh labels, which exceed
            # every assigned label
            fresh = nass
            x0 = lab[ta[i]]
            if x0 < 0:
                x0 = fresh
                fresh += 1
            x1 = lab[tb[i]]
            if x1 < 0:
                x1 = fresh
                fresh += 1
            x2 = lab[tc[i]]
            if x2 < 0:
                x2 = fresh
                fresh += 1
            if x0 > x1:
                x0, x1 = x1, x0
            if x1 > x2:
                x1, x2 = x2, x1
                if x0 > x1:
                    x0, x1 = x1, x0
            code = ((x0 * r + x1) * r + x2) * 4 + tm[i]
            if fresh == nass:
                det[ndet] = code
                ndet += 1
            elif code < lb:
                lb = code
        for ii in range(1, ndet):
            key = det[ii]
            jj = ii - 1
            while jj >= 0 and det[jj] > key:
                det[jj + 1] = det[jj]
                jj -= 1
            det[jj + 1] = key
        p = 0
        while p < ndet and det[p] < lb:
            p += 1
        # codes below lb are final; undetermined members cannot land there
        cmp = 0
        for ii in range(p):
            if det[ii] != best[ii]:
                cmp = -1 if det[ii] < best[ii] else 1
                break
        # a full tie is an automorphism, not an improvement; lb > best[p]
        # means every completion exceeds best at position p
        if cmp == 1 or (cmp == 0 and (p == k or lb > best[p])):
            continue  # advance to the next sibling
        if stop == 1 and cmp == -1:
            return 1
        if level < s - 1:
            level += 1
        else:
            # complete labeling, so p == k and cmp == -1
            best[:] = det
            out_lab[:] = lab
            found = 1
    return found


@_jit
def is_min_labeled(ta, tb, tc, tm, sup, n):
    """Is the identity labeling lexicographically minimal for these members?

    ta/tb/tc/tm must be sorted by member code.  Returns 0 when a strictly
    smaller labeling exists, else 1.
    """
    r = n + 2
    best = ((ta * r + tb) * r + tc) * 4 + tm
    return 1 - _label_dfs(ta, tb, tc, tm, sup, n, best, 1, np.empty(0, np.int64))


@_jit
def min_labeling(ta, tb, tc, tm, sup, n, out_lab):
    """Fill out_lab with the labeling minimizing the sorted code sequence.

    out_lab[v] is the new label of support vertex v, -1 for vertices
    outside the support.
    """
    out_lab[:] = -1
    best = np.full(ta.shape[0], _INF, np.int64)
    _label_dfs(ta, tb, tc, tm, sup, n, best, 0, out_lab)
