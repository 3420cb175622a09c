"""Certifying checks for rainbow-free families.

Given a rainbow-free family, this module recomputes the counting
argument that bounds its size. It builds the union graph once, splits
the vertices into a maximum independent set A of it and the rest B,
assigns every member a B-edge (beta) with each edge's preimage, and
builds a witness set per B-vertex from those preimages. Each witness
picks one vertex per member copy on its B-vertex's edges, so its size is
that vertex's d-sum: the witnesses give the degree identity and the
per-vertex bound, and the master chain 2|T| <= |A||B| <= n^2/4 follows.
For families of the extremal size n^2/8 it also checks the structural
facts that force the family to be t_star: no member inside B, the four
colored-multigraph properties, and the matched-pairs decomposition.

Apart from the rainbow scan and the exact independent-set solver, each
step is one pass over the members or over the edges. One pass over the
members counts each one's vertices in B: two give its beta edge and, as
its color, its third vertex (in A); three fail step1. So with no member
inside B the projected multigraph comes straight from that pass. Each
witness reads only its own B-edges, from a per-vertex index of them
built once in ascending edge order. P2, P3 and P4 read, per vertex, its
degree and the far ends of its edges grouped by color; P2 looks at each
distinct edge once, once per color present at both its ends.

A is the lexicographically least maximum independent set, found by an
exact solver that takes each connected component of the union graph
apart. Maximum sizes add across components, so the per-component sets
together are the same set a solver over the whole graph would find,
while the work grows with the sum of the components' costs instead of
their product.

All arithmetic is exact (integers and fractions); every witness set is
re-verified against the union graph rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .constructions import is_tstar_family
from .family import (
    MULTISET,
    SET,
    Edge,
    MemberRef,
    TriangleFamily,
    UnionGraph,
    Vertex,
    family_from_triangles,
    triangle_edges,
    union_graph,
)
from .rainbow import RainbowCertificate, find_rainbow

MIS_VERTEX_LIMIT = 64


class CertifierError(ValueError):
    """A certifier input contract was broken."""


class MISLimitError(CertifierError):
    """Graph too large for the exact independent-set solver."""


def _check_mis_limit(n: int) -> None:
    """Refuse a graph on more vertices than the exact solver takes."""
    if n > MIS_VERTEX_LIMIT:
        raise MISLimitError(f"graph has {n} vertices, exact solver limit is {MIS_VERTEX_LIMIT}")


class RainbowFamilyError(CertifierError):
    """The family to certify contains a rainbow triangle."""

    def __init__(self, certificate: RainbowCertificate):
        self.certificate = certificate
        t = certificate.triple
        super().__init__(f"family has a rainbow triangle on {t}")


@dataclass(frozen=True)
class Bipartition:
    """Vertex split: A independent (maximum when built here), B the rest."""

    a: tuple[Vertex, ...]
    b: tuple[Vertex, ...]
    e_b: tuple[Edge, ...]

    @cached_property
    def edges_at(self) -> dict[Vertex, list[Edge]]:
        """The edges of e_b at each B-vertex, in e_b's order."""
        at: dict[Vertex, list[Edge]] = {v: [] for v in self.b}
        for e in self.e_b:
            for v in e:
                here = at.get(v)
                if here is not None:
                    here.append(e)
        return at


@dataclass(frozen=True)
class BetaAssignment:
    """Choice of one B-edge per member; preimage lists each edge's copies in order.

    colored pairs each copy's edge with its member's third vertex, the
    color, in copy order; it is None when some member lies inside B, so
    that step1 fails.
    """

    beta: dict[MemberRef, Edge]
    preimage: dict[Edge, list[MemberRef]]
    colored: tuple[tuple[Edge, Vertex], ...] | None

    @property
    def d(self) -> dict[Edge, int]:
        """d(e) = |beta^-1(e)| for every E_B edge and every assigned edge."""
        return {e: len(refs) for e, refs in self.preimage.items()}


@dataclass(frozen=True)
class IndependentWitness:
    """Independent set proving sum of d(e) over edges at b is <= |A|."""

    b: Vertex
    i_b: tuple[Vertex, ...]


@dataclass(frozen=True)
class ColoredMultigraph:
    """One B-edge per member, colored by the member's A-vertex."""

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Edge, Vertex], ...]
    m: int


@dataclass(frozen=True)
class CertifierReport:
    n: int
    mode: str
    size: int
    support_size: int
    partition: Bipartition
    beta: BetaAssignment
    witnesses: tuple[IndependentWitness, ...]
    eq1_holds: bool
    eq1_value: int
    eq2_holds: bool
    eq2_values: tuple[tuple[Vertex, int, bool], ...]
    chain_holds: bool
    chain_values: tuple[int, int, Fraction]
    step1_holds: bool
    tb_properties: tuple[bool, bool, bool, bool] | None
    matched_pairs: bool | None
    extremal: bool
    is_tstar: bool | None

    @property
    def verdict(self) -> bool:
        ok = self.eq1_holds and self.eq2_holds and self.chain_holds
        if self.extremal:
            ok = ok and self.step1_holds
            ok = ok and self.tb_properties is not None and all(self.tb_properties)
            ok = ok and bool(self.matched_pairs) and bool(self.is_tstar)
        return ok


def max_independent_set(g: UnionGraph) -> tuple[Vertex, ...]:
    """Lexicographically least maximum independent set of g.

    The graph is split into connected components by a bitmask flood
    fill, and each component is solved apart: exact branch and bound
    over vertex bitmasks with memoization, degree-0 and degree-1
    vertices taken greedily (always safe for the size). Within a
    component the lex-least maximum set is grown front to back, keeping
    a vertex exactly when the rest of the component can still reach its
    optimum. Because maximum sizes add across components, that test on
    the whole graph depends only on the vertex's own component, so the
    sorted union of the per-component sets is the whole graph's
    lex-least maximum set, even when components interleave.
    """
    n = g.n
    _check_mis_limit(n)
    adj = g.adj
    memo: dict[int, int] = {}

    def mis_size(mask: int) -> int:
        if mask == 0:
            return 0
        known = memo.get(mask)
        if known is not None:
            return known
        result = None
        best_v = -1
        best_deg = -1
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            dv = (adj[v] & mask).bit_count()
            if dv <= 1:
                # safe reduction: some maximum set keeps v
                result = 1 + mis_size(mask & ~(adj[v] | (1 << v)))
                break
            if dv > best_deg:
                best_deg = dv
                best_v = v
        if result is None:
            v = best_v
            take = 1 + mis_size(mask & ~(adj[v] | (1 << v)))
            skip = mis_size(mask & ~(1 << v))
            result = max(take, skip)
        memo[mask] = result
        return result

    chosen: list[Vertex] = []
    rest = (1 << n) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        rest &= ~comp
        need = mis_size(comp)
        mask = comp
        m = comp
        while m:
            low = m & -m
            m ^= low
            if not mask & low:
                continue
            v = low.bit_length() - 1
            after = mask & ~(adj[v] | low)
            if 1 + mis_size(after) == need:
                chosen.append(v)
                need -= 1
                mask = after
            else:
                mask &= ~low
        assert need == 0
    return tuple(sorted(chosen))


def bipartition(g: UnionGraph) -> Bipartition:
    """Split vertices into a maximum independent set A and B = V - A."""
    a = max_independent_set(g)
    a_set = set(a)
    b = tuple(v for v in range(g.n) if v not in a_set)
    e_b = tuple(e for e in g.edges if e[0] not in a_set and e[1] not in a_set)
    return Bipartition(a, b, e_b)


def build_beta(f: TriangleFamily, g: UnionGraph, p: Bipartition) -> BetaAssignment:
    """Assign each member one of its edges lying inside B.

    One pass over the members counts each one's vertices in B. A member
    with two there takes the edge between them, colored by its third
    vertex. A member entirely inside B takes the edge it shares with
    another member when one exists (there is at most one in a
    rainbow-free family), otherwise its lexicographically least B-edge;
    it fails step1, and colored is None.
    """
    in_b = [False] * f.n
    for v in p.b:
        in_b[v] = True
    beta: dict[MemberRef, Edge] = {}
    preimage: dict[Edge, list[MemberRef]] = {e: [] for e in p.e_b}
    colored: list[tuple[Edge, Vertex]] | None = []
    for i, (t, m) in enumerate(f.members):
        a, b, c = t
        x, y, z = in_b[a], in_b[b], in_b[c]
        if x and y and z:
            shared = [e for e in triangle_edges(t) if len(g.owners[e]) >= 2]
            if len(shared) > 1:
                raise CertifierError(
                    f"member {t} shares {len(shared)} edges: family has a rainbow"
                )
            pick = shared[0] if shared else (a, b)
            colored = None
        elif y and z:
            pick, color = (b, c), a
        elif x and z:
            pick, color = (a, c), b
        elif x and y:
            pick, color = (a, b), c
        else:
            raise CertifierError(
                f"member {t} has no edge inside B: partition or family invalid"
            )
        refs = preimage.setdefault(pick, [])
        for k in range(m):
            beta[i, k] = pick
            refs.append((i, k))
        if colored is not None:
            colored += [(pick, color)] * m
    return BetaAssignment(beta, preimage, None if colored is None else tuple(colored))


def build_witness(
    f: TriangleFamily, g: UnionGraph, p: Bipartition, beta: BetaAssignment, b: Vertex
) -> IndependentWitness:
    """Independent set with one vertex per (edge at b, contributing member).

    For an edge e = {b, u} with a single contributor the pick is u; with
    several contributors each picks its own vertex outside e. Distinct
    picks and independence are verified, not assumed.
    """
    edges = p.edges_at.get(b)
    if edges is None:
        raise CertifierError(f"witness vertex {b} is not in B")
    picks: dict[Vertex, MemberRef] = {}
    for e in edges:
        contributors = beta.preimage.get(e, [])
        for ref in contributors:
            t = f.members[ref[0]][0]
            if len(contributors) == 1:
                v = e[0] if e[1] == b else e[1]
            else:
                (v,) = [x for x in t if x not in e]
            if v in picks:
                other = picks[v]
                raise CertifierError(
                    f"witness picks collide at vertex {v} (members "
                    f"{f.members[other[0]][0]} and {t}): would-be rainbow near "
                    f"{tuple(sorted({b, v} | set(e)))}"
                )
            picks[v] = ref
    i_b = tuple(sorted(picks))
    picked = sum(1 << v for v in i_b)
    for u in i_b:
        # the first u with a neighbour among the picks has none earlier
        # (that one would have been found first), so the lowest is v > u
        hit = g.adj[u] & picked
        if hit:
            v = (hit & -hit).bit_length() - 1
            tu, tv = f.members[picks[u][0]][0], f.members[picks[v][0]][0]
            raise CertifierError(
                f"witness for {b} not independent: edge ({u},{v}) between "
                f"picks of {tu} and {tv}"
            )
    return IndependentWitness(b, i_b)


def check_master_chain(
    f: TriangleFamily, p: Bipartition
) -> tuple[bool, tuple[int, int, Fraction]]:
    """2*size <= |A|*|B| <= n^2/4, in exact arithmetic."""
    lhs = 2 * f.size
    mid = len(p.a) * len(p.b)
    rhs = Fraction(f.n * f.n, 4)
    return lhs <= mid and mid <= rhs, (lhs, mid, rhs)


def _path_ends_differ(
    fu: dict[Vertex, set[Vertex]], fw: dict[Vertex, set[Vertex]], u: Vertex, w: Vertex
) -> bool:
    """Do the end edges of every 3-edge path x-u-w-y, x != y, differ in color?

    fu and fw map each color at u and at w to the far ends of its edges
    there; the middle edge's color plays no part. For a color c at both
    ends, with X the far ends of u's c-edges other than w and Y those of
    w's other than u, an x in X and a y in Y with x != y exist iff X and
    Y are both nonempty and not one and the same vertex.
    """
    if len(fw) < len(fu):
        u, w, fu, fw = w, u, fw, fu
    for c, xs in fu.items():
        ys = fw.get(c)
        if ys is None:
            continue
        nx = len(xs) - (w in xs)
        ny = len(ys) - (u in ys)
        if nx and ny and (nx > 1 or ny > 1 or xs - {w} != ys - {u}):
            return False
    return True


def check_tb_properties(g: ColoredMultigraph) -> tuple[bool, bool, bool, bool]:
    """The four structural facts about the projected multigraph.

    P1: the underlying simple graph has no triangle. P2: on every
    3-edge path the two end edges have distinct colors. P3: two edges
    of the same color sharing a vertex are both simple (no parallel
    copy). P4: every vertex has degree m, multiplicities counted.
    """
    count: dict[Edge, int] = {}
    deg: dict[Vertex, int] = {v: 0 for v in g.vertices}
    nbr: dict[Vertex, int] = {v: 0 for v in g.vertices}
    # far[v][c]: the far ends of v's edges of color c
    far: dict[Vertex, dict[Vertex, set[Vertex]]] = {v: {} for v in g.vertices}
    for e, c in g.edges:
        u, w = e
        count[e] = count.get(e, 0) + 1
        deg[u] += 1
        deg[w] += 1
        nbr[u] |= 1 << w
        nbr[w] |= 1 << u
        far[u].setdefault(c, set()).add(w)
        far[w].setdefault(c, set()).add(u)

    # a triangle is an edge whose ends share a neighbour
    p1 = not any(nbr[u] & nbr[w] for u, w in count)

    # each distinct edge is the middle of its 3-edge paths once, however
    # many copies it has
    p2 = all(_path_ends_differ(far[u], far[w], u, w) for u, w in count)

    # two same-colored edges at a vertex must both be simple
    p3 = not any(
        len(xs) >= 2 and any(count[(v, x) if v < x else (x, v)] > 1 for x in xs)
        for v, by_color in far.items()
        for xs in by_color.values()
    )

    p4 = all(d == g.m for d in deg.values())
    return p1, p2, p3, p4


def check_matched_pairs(g: ColoredMultigraph) -> bool:
    """B splits into m/2 pairs, each carrying m edges of all m colors.

    All edges must lie within the pairs, every pair must carry exactly
    m edges whose colors are pairwise distinct, and the palette must be
    the same m colors for every pair.
    """
    m = g.m
    if m == 0:
        return not g.edges
    if m % 2 or len(g.vertices) != m:
        return False
    partner: dict[Vertex, Vertex] = {}
    per_pair: dict[Edge, list[Vertex]] = {}
    for e, c in g.edges:
        u, v = e
        if partner.setdefault(u, v) != v or partner.setdefault(v, u) != u:
            return False
        per_pair.setdefault(e, []).append(c)
    if len(per_pair) != m // 2:
        return False
    if set(partner) != set(g.vertices):
        return False
    palette: set[Vertex] | None = None
    for e, cs in per_pair.items():
        if len(cs) != m or len(set(cs)) != m:
            return False
        if palette is None:
            palette = set(cs)
        elif set(cs) != palette:
            return False
    return True


def certify(f: TriangleFamily) -> CertifierReport:
    """Run every check on a rainbow-free family and report the results.

    A multiset family is certified through its distinct support; the
    doubling layer is handled by the decomposition module. A rainbow
    input raises RainbowFamilyError carrying the certificate. A
    rainbow-free family on more vertices than the independent-set solver
    takes raises MISLimitError before the union graph is built.
    """
    cert = find_rainbow(f)
    if cert is not None:
        raise RainbowFamilyError(cert)
    _check_mis_limit(f.n)
    support = f
    if f.mode == MULTISET:
        support = family_from_triangles(f.n, list(f.support), SET)
    size = support.size
    g = union_graph(support)
    p = bipartition(g)
    beta = build_beta(support, g, p)
    witnesses = tuple(build_witness(support, g, p, beta, b) for b in p.b)
    # a witness holds one pick per copy on b's B-edges: its size is b's d-sum
    eq2_rows = tuple((w.b, len(w.i_b), len(w.i_b) == len(p.a)) for w in witnesses)
    eq1_val = sum(s for _, s, _ in eq2_rows)
    chain_ok, chain_vals = check_master_chain(support, p)
    step1 = beta.colored is not None
    tb_props: tuple[bool, bool, bool, bool] | None = None
    matched: bool | None = None
    if beta.colored is not None:
        tb = ColoredMultigraph(p.b, beta.colored, len(p.b))
        tb_props = check_tb_properties(tb)
        matched = check_matched_pairs(tb)
    extremal = 8 * size == support.n * support.n
    is_tstar = is_tstar_family(support) if extremal else None
    return CertifierReport(
        n=f.n,
        mode=f.mode,
        size=f.size,
        support_size=size,
        partition=p,
        beta=beta,
        witnesses=witnesses,
        eq1_holds=eq1_val == 2 * size,
        eq1_value=eq1_val,
        eq2_holds=all(s <= len(p.a) for _, s, _ in eq2_rows),
        eq2_values=eq2_rows,
        chain_holds=chain_ok,
        chain_values=chain_vals,
        step1_holds=step1,
        tb_properties=tb_props,
        matched_pairs=matched,
        extremal=extremal,
        is_tstar=is_tstar,
    )


def _fmt_bool(v: bool | None) -> str:
    if v is None:
        return "n/a"
    return "true" if v else "false"


def render_report(r: CertifierReport, porcelain: bool = False) -> str:
    """Stable key-value rendering of a report; porcelain uses key=value."""
    sep = "=" if porcelain else " = "
    chain_lhs, chain_mid, chain_rhs = r.chain_values
    lines = [
        f"n{sep}{r.n}",
        f"mode{sep}{r.mode}",
        f"size{sep}{r.size}",
        f"support_size{sep}{r.support_size}",
        f"A{sep}{','.join(map(str, r.partition.a))}",
        f"B{sep}{','.join(map(str, r.partition.b))}",
        f"eb_edges{sep}{len(r.partition.e_b)}",
        f"eq1{sep}{_fmt_bool(r.eq1_holds)}",
        f"eq1_value{sep}{r.eq1_value}",
        f"eq2{sep}{_fmt_bool(r.eq2_holds)}",
    ]
    for b, s, tight in r.eq2_values:
        suffix = "" if porcelain else (" (tight)" if tight else "")
        lines.append(f"eq2.{b}{sep}{s}{suffix}")
    for w in r.witnesses:
        lines.append(f"witness.{w.b}{sep}{','.join(map(str, w.i_b))}")
    lines += [
        f"chain{sep}{_fmt_bool(r.chain_holds)}",
        f"chain_lhs{sep}{chain_lhs}",
        f"chain_mid{sep}{chain_mid}",
        f"chain_rhs{sep}{chain_rhs}",
        f"step1{sep}{_fmt_bool(r.step1_holds)}",
    ]
    if r.tb_properties is None:
        lines.append(f"tb{sep}n/a")
    else:
        for i, v in enumerate(r.tb_properties, start=1):
            lines.append(f"tb.p{i}{sep}{_fmt_bool(v)}")
    lines += [
        f"matched_pairs{sep}{_fmt_bool(r.matched_pairs)}",
        f"extremal{sep}{_fmt_bool(r.extremal)}",
        f"is_tstar{sep}{_fmt_bool(r.is_tstar)}",
        f"verdict{sep}{'pass' if r.verdict else 'fail'}",
    ]
    return "\n".join(lines) + "\n"
