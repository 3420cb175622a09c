"""Independent reference implementations the tests compare against.

Everything here favors directness over speed: rainbow checks try
explicit copy assignments edge by edge, and the isomorphism oracle tries
every vertex permutation.  None of it shares code with the package's
counting shortcuts.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

from rainbowfree.family import TriangleFamily, Triangle, family_from_triangles


def copy_owners(f: TriangleFamily, u: int, v: int) -> list[tuple[int, int]]:
    """All member copies whose triangle contains the edge (u, v)."""
    owners = []
    for i, (t, m) in enumerate(f.members):
        if u in t and v in t:
            owners.extend((i, c) for c in range(m))
    return owners


def brute_rainbow_triples(f: TriangleFamily) -> list[Triangle]:
    """Every vertex triple admitting three distinct owner copies."""
    out = []
    for a, b, c in itertools.combinations(range(f.n), 3):
        own = [copy_owners(f, u, v) for u, v in ((a, b), (a, c), (b, c))]
        if any(not o for o in own):
            continue
        for pick in itertools.product(*own):
            if len(set(pick)) == 3:
                out.append((a, b, c))
                break
    return out


def brute_has_rainbow(f: TriangleFamily) -> bool:
    return bool(brute_rainbow_triples(f))


def brute_extend_ok(f: TriangleFamily, t: Triangle, add_m: int = 1) -> bool:
    """Would the family stay rainbow-free after adding add_m copies of t?

    The copies may take t's multiplicity past 2, which no TriangleFamily
    holds, so the rainbow check runs on a bare (n, members) record.
    """
    members = [(trip, m) for trip, m in f.members if trip != t]
    members.append((t, f.multiplicity(t) + add_m))
    return not brute_has_rainbow(SimpleNamespace(n=f.n, members=members))


def brute_are_isomorphic(f: TriangleFamily, g: TriangleFamily) -> bool:
    """Isomorphism by trying every vertex permutation.  n <= 8 or so."""
    if f.n != g.n or f.size != g.size or len(f.members) != len(g.members):
        return False
    target = sorted(g.members)
    for perm in itertools.permutations(range(f.n)):
        mapped = sorted(
            (tuple(sorted((perm[a], perm[b], perm[c]))), m)
            for (a, b, c), m in f.members
        )
        if mapped == target:
            return True
    return False


def brute_child_minima(rows, lab) -> dict[int, list[tuple[int, int, int, int]]]:
    """The least completion below each child of a partial labeling.

    rows lists members as (a, b, c, m); lab gives labels 0..l-1 to some
    support vertices and -1 to the rest.  A completion gives the unlabeled
    support vertices the labels l..s-1; its sequence is the sorted member
    rows (x, y, z, m) with x < y < z its labels.  Returns, for each
    unlabeled support vertex v, the least sequence over the completions
    that give v the label l, by trying every completion.
    """
    sup = sorted({v for row in rows for v in row[:3]})
    free = [v for v in sup if lab[v] < 0]
    l = len(sup) - len(free)
    best: dict[int, list[tuple[int, int, int, int]]] = {}
    for labels in itertools.permutations(range(l, len(sup))):
        full = {v: lab[v] for v in sup}
        full.update(zip(free, labels))
        seq = sorted((*sorted(full[v] for v in (a, b, c)), m) for a, b, c, m in rows)
        v = free[labels.index(l)]
        if v not in best or seq < best[v]:
            best[v] = seq
    return best


def brute_max_independent_sets(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All maximum independent sets of a small graph, lex sorted."""
    best: list[tuple[int, ...]] = []
    for r in range(n, -1, -1):
        for sub in itertools.combinations(range(n), r):
            chosen = set(sub)
            if all(not (u in chosen and v in chosen) for u, v in edges):
                best.append(sub)
        if best:
            return sorted(best)
    return [()]


def brute_end_colors_differ(edges) -> bool:
    """Property P2 of a colored multigraph, by every 3-edge path.

    edges lists ((u, v), color) copies.  Tries every ordered triple of
    copies x-u, u-w, w-y on four distinct vertices and fails when the two
    end copies share a color.
    """
    for (e1, c1), (e2, _), (e3, c3) in itertools.product(edges, repeat=3):
        for u, w in (e2, e2[::-1]):
            if u in e1 and w in e3:
                x = e1[0] + e1[1] - u
                y = e3[0] + e3[1] - w
                if len({x, u, w, y}) == 4 and c1 == c3:
                    return False
    return True


def brute_same_color_simple(edges) -> bool:
    """Property P3 of a colored multigraph, by every pair of copies.

    edges lists ((u, v), color) copies.  Tries every pair of copies of
    distinct edges that have the same color and share a vertex, and fails
    when either edge has a parallel copy, of any color.
    """
    copies = [e for e, _ in edges]
    for (e1, c1), (e2, c2) in itertools.combinations(edges, 2):
        if e1 != e2 and c1 == c2 and set(e1) & set(e2):
            if copies.count(e1) > 1 or copies.count(e2) > 1:
                return False
    return True


def random_family(
    rng: random.Random, n: int, max_members: int, mode: str = "set"
) -> TriangleFamily:
    pool = list(itertools.combinations(range(n), 3))
    k = rng.randint(0, min(max_members, len(pool)))
    tris = rng.sample(pool, k)
    if mode == "set":
        return family_from_triangles(n, tris, "set")
    return family_from_triangles(
        n, [t + (rng.choice((1, 2)),) for t in tris], "multiset"
    )
