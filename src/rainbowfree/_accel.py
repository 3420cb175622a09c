"""Hot kernels of the rainbow tests, the extension lists and the labeling DFS.

The kernels run on Python ints and lists: they read one entry at a time,
which a list does several times faster than a numpy array.  There is one
lane; USING_NUMBA = False names it for the benchmark records.
Packed values use a radix derived from n (the rainbow kernels pack
triples with radix n, the labeling DFS packs member codes with radix
n + 2), so no kernel caps the vertex count.

Every rainbow kernel reads a triple's own multiplicity from mult, a dict
mapping the packed triple (a*n+b)*n+c of each member (a, b, c) to its
multiplicity, with mult.get, so no kernel input grows with n^3.  The
extension kernels take the symmetric edge owner counts cnt as a list of
n rows beside it.  rainbow_after_add reads only the rows of its
triangle's three vertices, so a caller may pass just those, keyed by
vertex, and of mult only the triples holding two of those vertices.
The rainbow scan takes the union graph as one bitmask of higher
neighbours per vertex, relative to the vertex, with one dict of owner
counts per vertex, so its input grows with the members; it visits only
the triangles of the union graph, where every rainbow triple lies.
The labeling DFS takes the member rows (a, b, c, m) in ascending order
and works out the support from them.

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
and both multiplicities: a listing from scratch costs O(n^3) for the
C(n,3) pool, and the search root's, with no members, is written without
a test.  A search child's list is derived from its parent's: only
the triangles that still extend the parent and meet the new member are
tested again, and every edge witness is scanned over the new member's
three vertices alone, the only w whose counts the member changes.  A
triangle meeting it in one vertex needs only its two edges there; its
own triple is tested again only when it shares an edge with the member.

The labeling DFS behind is_min_labeled and min_labeling gives each label
only to the frontier, the unlabeled vertices of the members whose code
bound is least (see _bounds), and prunes later siblings with the
automorphisms it meets, building their orbits only when it tries such a
sibling (see _label_dfs).  A member's bound is read off which of its
slots are labeled, with no sort of the fresh labels.  min_labeling's
greedy dives are the DFS's own descents: at each node a dive enters it
bounds every child once, keeps the bounds in one slot per level, and
tries the least child first; the DFS reads the other children's bounds
from that slot when it comes back, so no node is evaluated twice in one
walk.
is_min_labeled never dives and keeps no slots; it starts from
automorphisms its caller already knows and hands back those it holds on
an accept, so a search seeds each child's walk with its parent's.
min_labeling can also compare its walk with a target code sequence
(member_codes of another family's canonical image) and stop once the
comparison is decided, which is how an isomorphism test needs only one
full walk.
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


def rainbow_triple_scan(hi, cnt, mult, n):
    """First rainbow triple in lexicographic order, packed (x*n+y)*n+z.

    hi[x] holds bit y - x - 1 for each neighbour y > x of x in the union
    graph, cnt[x] maps each such y to the owner count of the edge (x, y),
    and mult maps (x*n+y)*n+z to the multiplicity of the member (x, y, z),
    read with mult.get.  Only the triangles of the union graph are
    tested: x ascending, y over x's higher neighbours and z over the
    common higher neighbours of x and y, each by lowest set bit, which is
    lexicographic order.  Returns -1 when the family is rainbow-free.
    """
    get = mult.get
    for x in range(n):
        hx = hi[x]
        rx = cnt[x]
        while hx:
            low = hx & -hx
            hx ^= low
            d = low.bit_length()
            y = x + d
            # hx now holds x's neighbours above y, at bit z - x - 1
            common = (hx >> d) & hi[y]
            if not common:
                continue
            cxy = rx[y]
            ry = cnt[y]
            xy = (x * n + y) * n
            while common:
                low = common & -common
                common ^= low
                z = y + low.bit_length()
                if _hall3(cxy, rx[z], ry[z], get(xy + z, 0)) == 1:
                    return xy + z
    return -1


def _edge_witness(cnt, mult, n, a, b, ws):
    """Would some (a, b, w), w in ws, turn rainbow once new copies own the
    edge (a, b)?

    A new copy owns (a, b) and no other edge of (a, b, w) unless w is its
    opposite vertex.  For every other w, (a, b, w) becomes rainbow iff
    (a, w) and (b, w) get distinct owners: both counts are at least 1 and,
    as the cm copies of (a, b, w) own both, cnt[a][w] + cnt[b][w] - cm >= 2
    (the _hall3 test with c1 = cnt[a][b] + m reduces to this, because
    cnt[a][b] >= cm and m >= 1).  So the answer depends on the edge alone,
    not on the number of copies or the opposite vertex.

    ws holds the w to try, a and b skipped: range(n) for the full witness.
    When a member t has just been added to a family in which (a, b) had
    no witness, ws is t's three vertices: the term for w reads the counts
    of (a, w) and (b, w) and the multiplicity of (a, b, w), and adding t
    changes counts only on the pairs inside t and no multiplicity but
    t's, so only a w of t can have become a witness (see
    list_extensions).  Returns 1 if some w qualifies, else 0.
    """
    ra, rb = cnt[a], cnt[b]
    for w in ws:
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
        if caw + cbw - mult.get(code, 0) >= 2:
            return 1
    return 0


def _after_add(cnt, mult, n, x, y, z, m, wit, ws):
    """Would adding m copies of (x, y, z), x < y < z, create a rainbow triple?

    Assumes the current family is rainbow-free, so only triples using an
    edge of the new member can turn rainbow: its own triple, tested
    first, and the triples (a, b, w) on an edge (a, b) of it, which some w
    turns rainbow iff _edge_witness(a, b) is 1.  A witness w equal to the
    opposite vertex needs no exclusion: its test reads the counts of
    (a, w) and (b, w) without the new copies, and with them the own
    triple passes the test above.  wit maps a*n+b to the witness of (a, b)
    over ws for the edges already scanned, for every m and every triangle
    on the edge.  ws goes to _edge_witness: range(n), or in a child's
    listing the new member's vertices, where the edges of every listed
    triangle had no witness before it was added (see list_extensions).
    Returns 1 if a rainbow appears.
    """
    own = mult.get((x * n + y) * n + z, 0) + m
    rx = cnt[x]
    if _hall3(rx[y] + m, rx[z] + m, cnt[y][z] + m, own) == 1:
        return 1
    for a, b in ((x, y), (x, z), (y, z)):
        e = a * n + b
        w = wit.get(e)
        if w is None:
            w = wit[e] = _edge_witness(cnt, mult, n, a, b, ws)
        if w == 1:
            return 1
    return 0


def rainbow_after_add(cnt, mult, n, x, y, z, add_m):
    """Would adding add_m copies of (x, y, z), x < y < z, create a rainbow?

    Assumes the current family is rainbow-free.  Returns 1 if a rainbow
    appears; _after_add holds the rule.  Only cnt[x], cnt[y] and cnt[z]
    are read.
    """
    return _after_add(cnt, mult, n, x, y, z, add_m, {}, range(n))


def list_extensions(
    cnt, mult, max_mult, n, pool_a, pool_b, pool_c, start, parent, out, x=0, y=0, z=0
):
    """Record the largest rainbow-safe multiplicity per pool triangle >= start.

    out[idx] becomes 0 (cannot extend), 1, or 2; entries below start are
    untouched.  Returns the summed capacity of all recorded extensions.
    Unaddable triangles stay unaddable as the family grows, so the sum
    bounds everything a whole subtree can still add; label-contiguity is
    a per-node constraint and is left to the caller.

    The family is cnt and mult (see the module docstring).  Each triangle
    is tested by the rule of _after_add with one edge cache for the whole
    call, so each edge is scanned for witnesses at most once.  With parent
    None, every triangle is tested for every multiplicity up to max_mult:
    a listing from scratch, O(n^3) for the C(n,3) pool.  A family with no
    members, the search root, needs no test: every entry is max_mult,
    which is at most 2.

    Otherwise parent is the list of the family without its member
    t = (x, y, z), x < y < z, for the same max_mult and a start no later
    than this one, and only what t changes is tested again.  Adding t
    changes owner counts only on the pairs inside {x, y, z} and changes
    no multiplicity but t's.  Every triangle with a nonzero parent entry
    had all three edge witnesses 0 in the parent, and a witness w of an
    edge (a, b) reads only the counts of (a, w) and (b, w) and the
    multiplicity of (a, b, w), which can change only when w is one of x,
    y, z.  So:
    - a parent entry of 0 stays 0, as rainbow triples stay rainbow when
      copies are added, and a parent entry of 1 caps the entry at 1;
    - every edge witness is scanned over x, y and z alone;
    - a triangle sharing no vertex with t keeps its entry;
    - a triangle meeting t in one vertex p keeps its own triple's counts
      and multiplicity, and its edge missing p keeps its witness, so it
      keeps its entry unless one of its two edges at p gains a witness;
    - a triangle sharing an edge with t, or t itself, is tested by the
      rule of _after_add for the multiplicities its parent entry allows.
    """
    total = len(pool_a)
    if parent is None and not mult:
        # no members: no edge has an owner, and two copies of one triangle
        # admit no rainbow, so every entry is max_mult without a test
        out[start:] = [max_mult] * (total - start)
        return max_mult * (total - start)
    if parent is None:
        parent = [max_mult] * total
        hit = [True] * n
        ws = range(n)
    else:
        hit = [False] * n
        hit[x] = hit[y] = hit[z] = True
        ws = (x, y, z)
    wit: dict[int, int] = {}
    out[start:] = parent[start:]
    for idx in itertools.compress(range(start, total), parent[start:]):
        a, b, c = pool_a[idx], pool_b[idx], pool_c[idx]
        ha, hb, hc = hit[a], hit[b], hit[c]
        k = ha + hb + hc
        if k == 0:
            continue
        if k == 1:
            # the two edges at the shared vertex
            for u, v in ((a, b), (a, c)) if ha else ((a, b), (b, c)) if hb else ((a, c), (b, c)):
                e = u * n + v
                w = wit.get(e)
                if w is None:
                    w = wit[e] = _edge_witness(cnt, mult, n, u, v, ws)
                if w == 1:
                    out[idx] = 0
                    break
        elif _after_add(cnt, mult, n, a, b, c, 1, wit, ws) == 1:
            out[idx] = 0
        elif out[idx] == 2 and _after_add(cnt, mult, n, a, b, c, 2, wit, ws) == 1:
            out[idx] = 1
    return sum(out[start:])


def _orbit_root(par, x):
    """Smallest position in the orbit of x (union-find with path halving)."""
    while par[x] != x:
        par[x] = par[par[x]]
        x = par[x]
    return x


def _moves(g):
    """The bitmask of the positions permutation g moves, and its
    (position, image) pairs there: g fixes a prefix iff the mask misses
    the prefix's positions, and its orbits merge over the pairs alone."""
    pairs = [(i, j) for i, j in enumerate(g) if i != j]
    mask = 0
    for i, _ in pairs:
        mask |= 1 << i
    return mask, pairs


def _bounds(mem, lab, nass, r):
    """The sorted per-member code bounds, the least bound lb of an
    undetermined member (_INF when every member is determined), and the
    frontier: the bitmask of the unlabeled vertices of the undetermined
    members whose bound is lb.

    mem lists the members as (a, b, c, m).  A member whose three vertices
    are labeled has its exact code.  The others give their unlabeled
    slots the smallest fresh labels nass, nass + 1, ..., which exceed
    every assigned label, so each bound is at most the member's code in
    any completion.  Sorting keeps that componentwise, so the bounds are
    at most the final sorted code sequence of every completion, and the
    entries below the returned bound are final.

    A code ((x*r + y)*r + z)*4 + m, x < y < z, is x*r2 + y*r1 + 4z + m
    with r1 = 4r and r2 = r*r1, and a bound is read off the member's slot
    pattern, which of its slots are labeled: the labeled values come
    first, in label order, then the fresh labels nass, nass + 1, ...  So
    the fresh part of a bound is f0, f1 or f2 when none, one or two slots
    are labeled, and only a labeled pair or triple needs ordering.

    The frontier is where the next label, nass, must go.  A bound depends
    only on the member's labels and on how many of its vertices are
    unlabeled, so nass on one of a member's unlabeled vertices keeps its
    bound and nass anywhere else raises it.  Every completion shares the
    entries below lb.  Giving nass to a frontier vertex, and the next
    labels to the other unlabeled vertices of its member, yields a
    completion whose next entry is lb.  Giving nass off the frontier
    raises every member of bound lb, so the next entry of each such
    completion is above lb: it is strictly above a completion through the
    frontier, so neither minimal nor tied with a minimal one.  mem may
    hold vertices or support positions; the frontier's bits index the
    same.
    """
    lb = _INF
    front = 0
    vec = []
    r1 = 4 * r
    r2 = r * r1
    f2 = 4 * nass
    f1 = nass * r1 + f2 + 4
    f0 = nass * r2 + f1 + r1 + 4
    for a, b, c, m in mem:
        x = lab[a]
        y = lab[b]
        z = lab[c]
        if x < 0:
            if y < 0:
                code = f0 + m if z < 0 else z * r2 + f1 + m
            elif z < 0:
                code = y * r2 + f1 + m
            else:
                code = (y * r2 + z * r1 if y < z else z * r2 + y * r1) + f2 + m
        elif y < 0:
            if z < 0:
                code = x * r2 + f1 + m
            else:
                code = (x * r2 + z * r1 if x < z else z * r2 + x * r1) + f2 + m
        elif z < 0:
            code = (x * r2 + y * r1 if x < y else y * r2 + x * r1) + f2 + m
        else:
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            vec.append(x * r2 + y * r1 + 4 * z + m)
            continue
        vec.append(code)
        if code <= lb:
            free = 0
            if x < 0:
                free = 1 << a
            if y < 0:
                free |= 1 << b
            if z < 0:
                free |= 1 << c
            if code < lb:
                lb = code
                front = free
            else:
                front |= free
    vec.sort()
    return vec, lb, front


def _label_dfs(mem, n, best, stop, out_lab, seed=(), gens_out=None, target=None):
    """Walk labelings of the support, comparing sorted member codes to best.

    mem lists the member rows (a, b, c, m) ascending; the support is the
    set of their vertices, s of them, and a support position is a
    vertex's rank in it.  Labelings are injections of the support onto
    labels 0..s-1, walked by DFS (label 0 to each support position in
    turn, then label 1, ...).  A node tries its children in position
    order, except that a dive (below) tries its pick first.  A branch is
    cut as soon as its sorted bound vector (see _bounds) is
    lexicographically above best, which every completion then is too.

    Label l goes only to the frontier that _bounds returns at the node:
    the unlabeled positions of the undetermined members of least bound
    (the search tree of McKay and Piperno 2014 likewise branches only on
    the vertices of one target cell).  As _bounds shows, every completion
    through another child is strictly above some completion through the
    frontier, so it is neither minimal nor tied with a minimal labeling,
    and the frontier's children are tried in the same order.  Hence the
    first minimal labeling, the verdict of stop=1 and, when that verdict
    accepts, the automorphisms it stores (each from a leaf tying the
    identity, which is then minimal) are exactly those of a walk over
    every child; only the other children's subtrees are no longer walked.

    With stop=1, best holds the identity's codes, and the walk returns 1
    at the first node whose final codes are certain to end strictly below
    them; otherwise it returns 0.  It never dives, so it tries every
    node's children in position order.

    With stop=0, best is not read, and the walk finds the minimal code
    sequence and the first labeling in position order attaining it, whose
    labels go to out_lab (-1 off the support), in three steps:
    1. the walk starts with a greedy dive from the root.  At each node a
       dive enters, it bounds every frontier child once into slot[l], the
       slot of the node's level l, and its pick, the child whose sorted
       bound vector is least (the first position on ties), goes first.
       The dive's leaf sets best and bpath, the path of a labeling
       attaining best (bpath[l] is the position labeled l);
    2. the DFS then tries the dive nodes' other children, reading their
       bounds from the slots, and lowers best to the minimum: a node
       whose final codes are certain to end strictly below best starts a
       new dive, so best drops to a good labeling at once instead of to
       the first labeling in position order below it;
    3. a complete labeling that ties best and comes before bpath in
       position order replaces bpath and out_lab, so they end as the first
       minimal labeling, whatever labeling the dives found.
    Returns 2 once the walk ends.

    Each node is bounded once: a dive node's children only into its slot,
    the others when the DFS tries them.  A slot is read only while its
    node is on the DFS path, and the next node at that level replaces it,
    so one slot per level holds every bound still to be read.  Children
    whose vector equals the pick's share the pick's list.  A pick is not
    compared with best: every completion of the node where its dive
    started is strictly below best, and so is every completion of the
    pick, so the dive goes on to a leaf strictly below best, the one
    place where best drops.

    With stop=0 and a target, a sorted code sequence, the walk is the
    same, but at each dive's leaf it compares best with the target.  best
    is always the code sequence of a complete labeling and changes only
    there, so the walk returns 1 as soon as best equals the target (a
    labeling attains it), 0 as soon as best is below it (the minimum is
    below it), and 2 when it ends with best above it (the minimum, best,
    is above it).  out_lab then holds a labeling attaining best.  The
    walk never runs longer than without the target: it keeps every dive
    and every stored automorphism, since a walk cut at the target would
    meet no tie with best, store no automorphism, and could take
    exponentially longer.

    Automorphism pruning (McKay 1981; McKay and Piperno 2014): a leaf
    that ties best is the bpath labeling composed with an automorphism,
    stored as a permutation of support positions.  A sibling is skipped
    when its orbit, under the stored automorphisms that fix the assigned
    prefix pointwise, holds a smaller position, and after a tie with an
    earlier bpath the DFS jumps back to the level where the two paths
    part.  Either way the skipped subtree is the image, under an
    automorphism fixing the prefix, of one walked before it: a node tries
    its pick first and its other children in position order, so the
    smaller position of a sibling's orbit was tried before the sibling,
    and bpath lies below the earlier of the two children where the paths
    part, which was therefore walked first.  So the skipped subtree has
    the same code sequences at every node and comes later in position
    order: it can only tie, and ties keep the earlier labeling.  Such an
    automorphism maps the frontier onto itself, so the smaller position
    of the orbit is on it too.  best, out_lab and the return value are
    therefore the same as without pruning.

    Orbits are built only when they can skip something.  A new prefix's
    first child, its pick or else its least frontier position, is taken
    with no orbit work, as nothing below the prefix has been walked yet.
    A level's orbits, a union-find forest over the positions, are built
    when the walk returns to that level to try a later sibling, and then
    absorb only the automorphisms stored since.  The frontier positions
    not yet tried are kept as a bitmask per level.  Each stored
    automorphism keeps the bitmask of the positions it moves and its
    (position, image) pairs there, and each level keeps the bitmask of
    its prefix's positions: an automorphism fixes the prefix iff the two
    masks are disjoint, and its orbits merge over the moved pairs alone.

    The argument holds for any automorphisms, so the stored list starts
    from seed, automorphisms known in advance as permutations of support
    positions; they count toward its cap of 2s + 8.  When the walk ends
    without returning 1, the automorphisms it holds go to gens_out.
    """
    sup = sorted({v for a, b, c, _ in mem for v in (a, b, c)})
    s = len(sup)
    pos = {v: i for i, v in enumerate(sup)}
    # the rows on positions: a labeling's codes read only its labels
    mem = [(pos[a], pos[b], pos[c], m) for a, b, c, m in mem]
    r = n + 2  # exceeds every label, including the fresh ones
    lab = [-1] * s
    choice = [-1] * s
    # front[l]: the frontier of the node whose labels 0..l-1 are choice[:l]
    front = [0] * (s + 1)
    vec, _, front[0] = _bounds(mem, lab, 0, r)
    # todo[l]: its frontier positions not yet tried; slot[l]: the bounds
    # of its frontier children by position when a dive entered it, else None
    todo = [0] * s
    slot: list[dict | None] = [None] * s

    def emit(labels):
        for i, v in enumerate(sup):
            out_lab[v] = labels[i]

    # with stop=1 the seed path is the identity, which a leaf can only tie
    # when sup is 0..s-1, and then this path attains best
    bpath = list(range(s))
    # a minimum walk starts with a dive from the root, whose leaf sets best
    # before a comparison reads it; with no members, the root is that leaf
    diving = stop == 0
    if diving:
        best = vec
    max_gens = 2 * s + 8
    gens: list[list[int]] = list(seed[:max_gens])
    moves = [_moves(g) for g in gens]
    # fixed[l]: the bitmask of the prefix's positions choice[:l]
    fixed = [0] * (s + 1)
    # per level: orbit forest of the stored automorphisms fixing the
    # prefix, and how many of them it has absorbed (-1: not built)
    par: list[list[int]] = [[] for _ in range(s)]
    seen = [-1] * s
    level = 0 if s else -1  # no members: the empty labeling is the only one
    while level >= 0:
        c = choice[level]
        if c < 0:
            # a new prefix: its first child needs no orbit work
            seen[level] = -1
            rest = front[level]
            got = None
            if diving:
                got = {}
                pick = -1
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c = low.bit_length() - 1
                    lab[c] = level
                    got[c] = node = _bounds(mem, lab, level + 1, r)
                    lab[c] = -1
                    if pick < 0 or node[0] < least:
                        least, pick = node[0], c
                c = pick
                for i, (v, lb, f) in got.items():
                    if v == least:
                        got[i] = least, lb, f  # share the pick's list
            else:
                c = (rest & -rest).bit_length() - 1
            slot[level] = got
            todo[level] = front[level] ^ 1 << c
        else:
            lab[c] = -1
            diving = False
            c = -1
            rest = todo[level]
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                if not gens:
                    break
                if seen[level] < 0:
                    par[level] = list(range(s))
                    seen[level] = 0
                orb = par[level]
                pre = fixed[level]
                for mask, pairs in moves[seen[level] :]:
                    if mask & pre:
                        continue
                    # it fixes the prefix: merge its orbits over the points it moves
                    for i, j in pairs:
                        ra = _orbit_root(orb, i)
                        rb = _orbit_root(orb, j)
                        if ra < rb:
                            orb[rb] = ra
                        elif rb < ra:
                            orb[ra] = rb
                seen[level] = len(gens)
                if _orbit_root(orb, c) == c:
                    break
                c = -1
            todo[level] = rest
        if c < 0:
            choice[level] = -1
            level -= 1
            continue
        choice[level] = c
        lab[c] = level
        fixed[level + 1] = fixed[level] | 1 << c
        got = slot[level]
        if got is None:
            vec, lb, front[level + 1] = _bounds(mem, lab, level + 1, r)
        else:
            vec, lb, front[level + 1] = got.pop(c)
        if not diving:  # a dive's pick is below best, or no best is set yet
            if vec != best:
                if vec > best:
                    continue  # every completion is above best: next sibling
                # entries below lb are final, so when the first difference
                # lies among them every completion is strictly below best
                p = bisect_left(vec, lb)
                if vec[:p] == best[:p]:
                    level += 1
                    continue
                if stop == 1:
                    return 1
                diving = True
            elif level < s - 1:
                level += 1
                continue
            else:
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
                    moves.append(_moves(g))
                if choice[d] < bpath[d]:
                    # this labeling comes first in position order
                    emit(lab)
                    bpath[:] = choice
                else:
                    # jump back to where the two paths part
                    while level > d:
                        lab[choice[level]] = -1
                        choice[level] = -1
                        level -= 1
                continue
        if level < s - 1:
            level += 1
            continue
        # a dive's leaf
        best = vec
        bpath[:] = choice
        emit(lab)
        if target is not None and best <= target:
            break
    if gens_out is not None:
        gens_out[:] = gens
    if stop:
        return 0
    if target is not None and best <= target:
        return 1 if best == target else 0
    return 2


def member_codes(mem, n):
    """The packed codes ((a*r + b)*r + c)*4 + m, r = n + 2, of member rows
    (a, b, c, m), in row order: the sequence the labeling DFS compares.

    Rows in ascending order give ascending codes.
    """
    r = n + 2
    return [((a * r + b) * r + c) * 4 + m for a, b, c, m in mem]


def is_min_labeled(mem, n, seed=(), gens_out=None):
    """Is the identity labeling lexicographically minimal for these members?

    mem lists the member rows (a, b, c, m) ascending.  Returns 0 when a
    strictly smaller labeling exists, else 1.

    seed lists automorphisms of the members known in advance, each as a
    list mapping support position to support position; the walk prunes
    with them from its first node, and any automorphisms give the same
    verdict.  On a 1, the automorphisms the walk held at its end (the
    seeds included, at most 2s + 8 for s support vertices) are written to
    gens_out when it is given.
    """
    return 1 - _label_dfs(mem, n, member_codes(mem, n), 1, None, seed, gens_out)


def min_labeling(mem, n, out_lab, target=None):
    """Fill out_lab with the labeling minimizing the sorted code sequence.

    mem lists the member rows (a, b, c, m) ascending.  out_lab[v] is the
    new label of support vertex v, -1 for vertices outside the support.
    Of the labelings attaining the minimum it is the first in position
    order; the greedy dives that _label_dfs uses to reach the minimum
    early do not change which one.  Returns 2.

    With target, a sorted list of member codes (see member_codes), the
    walk stops at its first greedy dive whose codes are not above the
    target: it returns 0 when they are below it, so the minimum is too,
    and 1 when they equal it; it returns 2 when it ends with the minimum
    above the target.  After a 0 or a 1, out_lab holds that dive's
    labeling, not necessarily a minimal one.  When the target is itself a
    minimum, the canonical codes of some family as in
    canon.are_isomorphic, the three answers say that the minimum is below,
    equal to or above it.  For other targets a 1 says only that some
    labeling attains the target: a dive may tie a family's own codes
    before the walk meets a smaller labeling.
    """
    out_lab[:] = [-1] * n
    return _label_dfs(mem, n, None, 0, out_lab, target=target)
