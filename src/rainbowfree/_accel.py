"""Hot kernels of the rainbow tests, the extension lists and the labeling DFS.

The kernels run on Python ints and lists: they read one entry at a time,
which a list does several times faster than a numpy array.  There is one
lane; USING_NUMBA = False names it for the benchmark records.
Packed values use a radix derived from n (the rainbow kernels pack
triples with radix n, the labeling DFS packs member codes with radix
n + 2), so no kernel caps the vertex count.

The rainbow kernels take a family as cnt, the symmetric edge owner counts
as a list of n rows, codes, the members' packed triples (a*n+b)*n+c
ascending, and tm, their multiplicities.  A triple's own multiplicity is
found in codes by binary search, so no kernel input grows with n^3.

Rainbow test used throughout: a vertex triple is rainbow iff its three
edges exist and admit a system of distinct representatives among owner
copies.  Two different edges of a triple can only share an owner that is
a copy of the triple itself, so Hall's condition reduces to counting:
with edge owner counts c1, c2, c3 and cm copies of the triple itself,
an SDR exists iff every ci >= 1, every ci + cj - cm >= 2, and
c1 + c2 + c3 - 2 * cm >= 3.

Extension test: adding copies of a triangle to a rainbow-free family can
only turn rainbow its own triple or a triple (a, b, w) on one of its
edges (a, b).  For w off the triangle the latter is a property of the
edge alone, its edge witness (see _edge_witness), so list_extensions
scans each edge once and shares the answer among every triangle on it
and both multiplicities: one call costs O(n^3) for the C(n,3) pool.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left

USING_NUMBA = False

_INF = 1 << 62


def build_pool(n: int) -> tuple[list[tuple[int, int, int]], memoryview, memoryview, memoryview]:
    """All triangles on 0..n-1 in lexicographic order, plus their vertex columns.

    Each column is a one-dimensional int64 memoryview: it has a shape and
    indexes to Python ints.
    """
    pool = list(itertools.combinations(range(n), 3))
    cols = (memoryview(array("q", [t[k] for t in pool])) for k in range(3))
    return (pool, *cols)


def member_columns(members) -> tuple[list[int], list[int], list[int], list[int]]:
    """Lists ta, tb, tc, tm of (triangle, multiplicity) pairs sorted by triangle."""
    rows = sorted(members)
    return (
        [t[0] for t, _ in rows],
        [t[1] for t, _ in rows],
        [t[2] for t, _ in rows],
        [m for _, m in rows],
    )


def add_member(cnt, a, b, c, m):
    """Add m copies of member (a, b, c) to the owner counts.

    A negative m removes copies.
    """
    ra, rb, rc = cnt[a], cnt[b], cnt[c]
    ra[b] += m
    rb[a] += m
    ra[c] += m
    rc[a] += m
    rb[c] += m
    rc[b] += m


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


def _mult(codes, tm, code):
    """Multiplicity of the member with packed code `code`, 0 for a non-member."""
    i = bisect_left(codes, code)
    if i < len(codes) and codes[i] == code:
        return tm[i]
    return 0


def rainbow_triple_scan(cnt, codes, tm, n):
    """First rainbow triple in lexicographic order, packed (x*n+y)*n+z.

    Returns -1 when the family is rainbow-free.
    """
    for x in range(n):
        rx = cnt[x]
        for y in range(x + 1, n):
            cxy = rx[y]
            if cxy == 0:
                continue
            ry = cnt[y]
            for z in range(y + 1, n):
                if rx[z] == 0 or ry[z] == 0:
                    continue
                code = (x * n + y) * n + z
                if _hall3(cxy, rx[z], ry[z], _mult(codes, tm, code)) == 1:
                    return code
    return -1


def _edge_witness(cnt, codes, tm, n, a, b):
    """Would some (a, b, w) turn rainbow once new copies own the edge (a, b)?

    A new copy owns (a, b) and no other edge of (a, b, w) unless w is its
    opposite vertex.  For every other w, (a, b, w) becomes rainbow iff
    (a, w) and (b, w) get distinct owners: both counts are at least 1 and,
    as the cm copies of (a, b, w) own both, cnt[a][w] + cnt[b][w] - cm >= 2
    (the _hall3 test with c1 = cnt[a][b] + m reduces to this, because
    cnt[a][b] >= cm and m >= 1).  So the answer depends on the edge alone,
    not on the number of copies or the opposite vertex.  Returns 1 if some
    w qualifies, else 0.
    """
    ra, rb = cnt[a], cnt[b]
    for w in range(n):
        if w == a or w == b:
            continue
        caw = ra[w]
        cbw = rb[w]
        if caw < 1 or cbw < 1:
            continue
        if w < a:
            code = (w * n + a) * n + b
        elif w < b:
            code = (a * n + w) * n + b
        else:
            code = (a * n + b) * n + w
        if caw + cbw - _mult(codes, tm, code) >= 2:
            return 1
    return 0


def _after_add(cnt, codes, tm, n, x, y, z, m, wit):
    """Would adding m copies of (x, y, z), x < y < z, create a rainbow triple?

    Assumes the current family is rainbow-free, so only triples using an
    edge of the new member can turn rainbow: its own triple, tested
    first, and the triples (a, b, w) on an edge (a, b) of it, which some w
    turns rainbow iff _edge_witness(a, b) is 1.  A witness w equal to the
    opposite vertex needs no exclusion: its test reads the counts of
    (a, w) and (b, w) without the new copies, and with them the own
    triple passes the test above.  wit maps a*n+b to _edge_witness(a, b)
    for the edges already scanned, for every m and every triangle on the
    edge.  Returns 1 if a rainbow appears.
    """
    own = _mult(codes, tm, (x * n + y) * n + z) + m
    rx = cnt[x]
    if _hall3(rx[y] + m, rx[z] + m, cnt[y][z] + m, own) == 1:
        return 1
    for a, b in ((x, y), (x, z), (y, z)):
        e = a * n + b
        w = wit.get(e)
        if w is None:
            w = wit[e] = _edge_witness(cnt, codes, tm, n, a, b)
        if w == 1:
            return 1
    return 0


def rainbow_after_add(cnt, codes, tm, n, x, y, z, add_m):
    """Would adding add_m copies of (x, y, z), x < y < z, create a rainbow?

    Assumes the current family is rainbow-free.  Returns 1 if a rainbow
    appears; _after_add holds the rule.
    """
    return _after_add(cnt, codes, tm, n, x, y, z, add_m, {})


def list_extensions(cnt, codes, tm, n, pool_a, pool_b, pool_c, start, max_mult, out):
    """Record the largest rainbow-safe multiplicity per pool triangle >= start.

    out[idx] becomes 0 (cannot extend), 1, or 2; entries below start are
    untouched.  Returns the summed capacity of all recorded extensions.
    Unaddable triangles stay unaddable as the family grows, so the sum
    bounds everything a whole subtree can still add; label-contiguity is
    a per-node constraint and is left to the caller.

    Each triangle is tested by the rule of _after_add with one edge cache
    for the whole call, so each edge is scanned for witnesses at most once
    and a call costs O(n^3) for the C(n,3) pool.
    """
    wit: dict[int, int] = {}
    cap = 0
    for idx, a, b, c in zip(
        range(start, pool_a.shape[0]), pool_a[start:], pool_b[start:], pool_c[start:]
    ):
        out[idx] = 0
        if _after_add(cnt, codes, tm, n, a, b, c, 1, wit) == 1:
            continue
        m = 1
        if max_mult >= 2 and _after_add(cnt, codes, tm, n, a, b, c, 2, wit) == 0:
            m = 2
        out[idx] = m
        cap += m
    return cap


def _orbit_root(par, x):
    """Smallest position in the orbit of x (union-find with path halving)."""
    while par[x] != x:
        par[x] = par[par[x]]
        x = par[x]
    return x


def _bounds(mem, lab, nass, r):
    """The sorted per-member code bounds, and the least bound of an
    undetermined member (_INF when every member is determined).

    mem lists the members as (a, b, c, m).  A member whose three vertices
    are labeled has its exact code.  The others give their unlabeled
    slots the smallest fresh labels nass, nass + 1, ..., which exceed
    every assigned label, so each bound is at most the member's code in
    any completion.  Sorting keeps that componentwise, so the bounds are
    at most the final sorted code sequence of every completion, and the
    entries below the returned bound are final.
    """
    lb = _INF
    vec = []
    for a, b, c, m in mem:
        fresh = nass
        x0 = lab[a]
        if x0 < 0:
            x0 = fresh
            fresh += 1
        x1 = lab[b]
        if x1 < 0:
            x1 = fresh
            fresh += 1
        x2 = lab[c]
        if x2 < 0:
            x2 = fresh
            fresh += 1
        if x0 > x1:
            x0, x1 = x1, x0
        if x1 > x2:
            x1, x2 = x2, x1
            if x0 > x1:
                x0, x1 = x1, x0
        code = ((x0 * r + x1) * r + x2) * 4 + m
        vec.append(code)
        if fresh > nass and code < lb:
            lb = code
    vec.sort()
    return vec, lb


def _dive(mem, sup, r, lab, choice, level, vec, bpath, out_lab):
    """Complete a partial labeling greedily; return its codes.

    lab holds labels 0..level-1, on positions choice[0..level-1]; when
    level is s the labeling is complete and vec holds its codes.  Each
    further label goes to the unused position whose sorted bound vector
    is lexicographically least, the first such position on ties.  The
    complete labeling's path (position by label) goes to bpath and its
    labels to out_lab; lab is left unchanged.
    """
    s = len(sup)
    out_lab[:] = lab
    bpath[:level] = choice[:level]
    best = vec
    for l in range(level, s):
        pick = -1
        for c in range(s):
            v = sup[c]
            if out_lab[v] >= 0:
                continue
            out_lab[v] = l
            cand, _ = _bounds(mem, out_lab, l + 1, r)
            out_lab[v] = -1
            if pick < 0 or cand < best:
                best = cand
                pick = c
        out_lab[sup[pick]] = l
        bpath[l] = pick
    return best


def _label_dfs(mem, sup, n, best, stop, out_lab):
    """Walk labelings of the support, comparing sorted member codes to best.

    mem lists the members as (a, b, c, m); sup lists the support vertices
    ascending.  Labelings are injections of the support onto labels
    0..s-1, walked by DFS in position order (label 0 to each support
    position in turn, then label 1, ...).  A branch is cut as soon as its
    sorted bound vector (see _bounds) is lexicographically above best,
    which every completion then is too.

    With stop=1, best holds the identity's codes, and the walk returns 1
    at the first node whose final codes are certain to end strictly below
    them; otherwise it returns 0.

    With stop=0, best is not read, and the walk finds the minimal code
    sequence and the first labeling in position order attaining it, whose
    labels go to out_lab (-1 off the support), in three steps:
    1. a greedy descent from the root (see _dive) seeds best and bpath,
       the path of a labeling attaining best (bpath[l] is the position
       labeled l);
    2. the DFS lowers best to the minimum: at a node whose final codes are
       certain to end strictly below best it dives again from that node,
       so best drops to a good labeling at once instead of to the first
       labeling in position order below it;
    3. a complete labeling that ties best and comes before bpath in
       position order replaces bpath and out_lab, so they end as the first
       minimal labeling, whatever labeling the dives found.
    Returns 0.

    Automorphism pruning (McKay 1981; McKay and Piperno 2014): a leaf
    that ties best is the bpath labeling composed with an automorphism,
    stored as a permutation of support positions.  A sibling is skipped
    when its orbit, under the stored automorphisms that fix the assigned
    prefix pointwise, holds a smaller position, and after a tie with an
    earlier bpath the DFS jumps back to the level where the two paths
    part.  Each skipped subtree is the image of an explored one under an
    automorphism fixing the prefix, so it has the same code sequences at
    every node and comes later in position order: it can only tie, and
    ties keep the earlier labeling.  best, out_lab and the return value
    are therefore the same as without pruning.
    """
    k = len(mem)
    s = len(sup)
    if k == 0 or s == 0:
        return 0
    r = n + 2  # exceeds every label, including the fresh ones
    lab = [-1] * n
    used = [False] * s
    choice = [-1] * s
    # with stop=1 the seed path is the identity, which a leaf can only tie
    # when sup is 0..s-1, and then this path attains best
    bpath = list(range(s))
    if stop == 0:
        best = _dive(mem, sup, r, lab, choice, 0, None, bpath, out_lab)
    max_gens = 2 * s + 8
    gens: list[list[int]] = []
    # per level: orbit forest of the stored automorphisms fixing the
    # prefix, and how many of them it has absorbed (-1: not built)
    par: list[list[int]] = [[] for _ in range(s)]
    seen = [-1] * s
    level = 0
    while level >= 0:
        prev = choice[level]
        if prev >= 0:
            used[prev] = False
            lab[sup[prev]] = -1
        else:
            seen[level] = -1  # new prefix
        c = prev + 1
        while c < s:
            if not used[c]:
                if not gens:
                    break
                if seen[level] < 0:
                    par[level] = list(range(s))
                    seen[level] = 0
                orb = par[level]
                for g in gens[seen[level] :]:
                    for j in range(level):
                        if g[choice[j]] != choice[j]:
                            break
                    else:
                        # g fixes the prefix: merge its orbits
                        for i in range(s):
                            if g[i] == i:
                                continue
                            ra = _orbit_root(orb, i)
                            rb = _orbit_root(orb, g[i])
                            if ra < rb:
                                orb[rb] = ra
                            elif rb < ra:
                                orb[ra] = rb
                seen[level] = len(gens)
                if _orbit_root(orb, c) == c:
                    break
            c += 1
        if c >= s:
            choice[level] = -1
            level -= 1
            continue
        choice[level] = c
        used[c] = True
        lab[sup[c]] = level
        vec, lb = _bounds(mem, lab, level + 1, r)
        if vec != best:
            if vec > best:
                continue  # every completion is above best: next sibling
            # entries below lb are final, so when the first difference
            # lies among them every completion is strictly below best
            p = bisect_left(vec, lb)
            if vec[:p] != best[:p]:
                if stop == 1:
                    return 1
                best = _dive(mem, sup, r, lab, choice, level + 1, vec, bpath, out_lab)
        elif level == s - 1:
            # a tie: store the automorphism carrying this path onto bpath
            d = 0
            while d < s and choice[d] == bpath[d]:
                d += 1
            if d == s:
                continue
            if len(gens) < max_gens:
                g = [0] * s
                for i in range(s):
                    g[choice[i]] = bpath[i]
                gens.append(g)
            if choice[d] < bpath[d]:
                # this labeling comes first in position order
                out_lab[:] = lab
                bpath[:] = choice
            else:
                # jump back to where the two paths part
                while level > d:
                    used[choice[level]] = False
                    lab[sup[choice[level]]] = -1
                    choice[level] = -1
                    level -= 1
            continue
        if level < s - 1:
            level += 1
    return 0


def is_min_labeled(ta, tb, tc, tm, sup, n):
    """Is the identity labeling lexicographically minimal for these members?

    ta/tb/tc/tm must be sorted by member code.  Returns 0 when a strictly
    smaller labeling exists, else 1.
    """
    r = n + 2
    mem = list(zip(ta, tb, tc, tm))
    best = [((a * r + b) * r + c) * 4 + m for a, b, c, m in mem]
    return 1 - _label_dfs(mem, sup, n, best, 1, None)


def min_labeling(ta, tb, tc, tm, sup, n, out_lab):
    """Fill out_lab with the labeling minimizing the sorted code sequence.

    out_lab[v] is the new label of support vertex v, -1 for vertices
    outside the support.  Of the labelings attaining the minimum it is
    the first in position order; the greedy dives that _label_dfs uses to
    reach the minimum early do not change which one.
    """
    out_lab[:] = [-1] * n
    _label_dfs(list(zip(ta, tb, tc, tm)), sup, n, None, 0, out_lab)
