"""Input generation and answer checks written without the rainbowfree package.

Families here are plain (n, mode, members) data, members being a list of
((a, b, c), multiplicity) pairs in file order.  Every expected answer the
benchmark checks comes from how an input was built (a relabeling, a
disjoint union, a planted member) or from the brute-force tests below,
never from the code being measured.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Triangle = tuple[int, int, int]
Member = tuple[Triangle, int]


@dataclass(frozen=True)
class Fam:
    n: int
    mode: str
    members: tuple[Member, ...]

    @property
    def size(self) -> int:
        return sum(m for _, m in self.members)


def tri(*vs: int) -> Triangle:
    a, b, c = sorted(vs)
    return (a, b, c)


def tri_edges(t: Triangle) -> tuple[tuple[int, int], ...]:
    a, b, c = t
    return ((a, b), (a, c), (b, c))


# -- constructions, built from their definitions


def pair_apex(n: int, pairs: int, apexes: int) -> Fam:
    """One triangle per (pair, apex): pairs {0,1},{2,3},..., apexes last."""
    members = [
        ((2 * i, 2 * i + 1, a), 1) for i in range(pairs) for a in range(n - apexes, n)
    ]
    return Fam(n, "set", tuple(members))


def t_star(n: int) -> Fam:
    return pair_apex(n, n // 4, n // 2)


# Six pairwise edge-disjoint triangles on 9 vertices whose union graph has
# no other triangle; two copies of each stay rainbow-free.
NINE_SUPPORT: tuple[Triangle, ...] = (
    (0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8), (3, 5, 7), (4, 6, 8),
)


def doubled_nine() -> Fam:
    return Fam(9, "multiset", tuple((t, 2) for t in NINE_SUPPORT))


def disjoint_union(n: int, parts: list[Fam], mode: str) -> Fam:
    """Parts placed side by side on 0..n-1; unused vertices stay isolated.

    A triple meeting two parts has an edge that no member covers, so the
    union of rainbow-free parts is rainbow-free.
    """
    members: list[Member] = []
    offset = 0
    for part in parts:
        members += [
            (tuple(v + offset for v in t), m) for t, m in part.members  # type: ignore[misc]
        ]
        offset += part.n
    if offset > n:
        raise ValueError(f"parts need {offset} vertices, only {n} given")
    return Fam(n, mode, tuple(members))


def isolated_vertices(f: Fam) -> list[int]:
    used = {v for t, _ in f.members for v in t}
    return [v for v in range(f.n) if v not in used]


def random_relabel(f: Fam, rng: random.Random) -> Fam:
    """Image of f under a random vertex permutation, members shuffled."""
    perm = list(range(f.n))
    rng.shuffle(perm)
    members = [(tri(*(perm[v] for v in t)), m) for t, m in f.members]
    rng.shuffle(members)
    return Fam(f.n, f.mode, tuple(members))


def plant_rainbow(f: Fam, rng: random.Random) -> Triangle:
    """A new triangle T = (u, w1, w2) that makes T itself rainbow.

    Members M1 != M2 both contain u, w1 is in M1 and w2 in M2: then M1
    owns (u, w1), M2 owns (u, w2) and the added T owns (w1, w2).
    """
    present = {t for t, _ in f.members}
    by_vertex: dict[int, list[Triangle]] = {}
    for t, _ in f.members:
        for v in t:
            by_vertex.setdefault(v, []).append(t)
    choices = set()
    for u, ms in by_vertex.items():
        for m1, m2 in itertools.combinations(ms, 2):
            for w1 in m1:
                for w2 in m2:
                    if len({u, w1, w2}) == 3 and tri(u, w1, w2) not in present:
                        choices.add(tri(u, w1, w2))
    if not choices:
        raise ValueError("no member pair to plant a rainbow on")
    return rng.choice(sorted(choices))


def with_member(f: Fam, t: Triangle, rng: random.Random) -> Fam:
    members = list(f.members)
    members.insert(rng.randrange(len(members) + 1), (t, 1))
    return Fam(f.n, f.mode, tuple(members))


def degree_sequence(f: Fam) -> list[int]:
    deg = [0] * f.n
    for t, m in f.members:
        for v in t:
            deg[v] += m
    return sorted(deg)


def move_member(f: Fam, rng: random.Random) -> Fam:
    """Same size and multiplicities, different degree sequence.

    Replaces one vertex of one member by a vertex outside it; families
    with different degree sequences are never isomorphic.
    """
    present = {t for t, _ in f.members}
    base = degree_sequence(f)
    moves = []
    for i, (t, m) in enumerate(f.members):
        for old in t:
            for new in range(f.n):
                if new in t:
                    continue
                moved = tri(*(new if v == old else v for v in t))
                if moved not in present:
                    moves.append((i, moved, m))
    rng.shuffle(moves)
    for i, moved, m in moves:
        members = list(f.members)
        members[i] = (moved, m)
        g = Fam(f.n, f.mode, tuple(members))
        if degree_sequence(g) != base:
            return g
    raise ValueError("no member move changes the degree sequence")


def random_rainbow_free(n: int, size: int, rng: random.Random) -> Fam:
    """Greedy random set family: triangles in random order, kept when safe.

    A greedy pass can get stuck below ``size``; it is then retried with a
    fresh order drawn from the same generator.
    """
    pool = list(itertools.combinations(range(n), 3))
    for _ in range(100):
        rng.shuffle(pool)
        members: list[Member] = []
        for t in pool:
            if len(members) == size:
                return Fam(n, "set", tuple(members))
            if not has_rainbow(Fam(n, "set", tuple(members + [(t, 1)]))):
                members.append((t, 1))
        if len(members) == size:
            return Fam(n, "set", tuple(members))
    raise ValueError(f"no greedy rainbow-free family of size {size} on {n} vertices")


# -- answer checks


def copy_owners(f: Fam, u: int, v: int) -> list[tuple[int, int]]:
    return [
        (i, c) for i, (t, m) in enumerate(f.members) if u in t and v in t for c in range(m)
    ]


def is_rainbow_triple(f: Fam, t: Triangle) -> bool:
    owners = [copy_owners(f, u, v) for u, v in tri_edges(t)]
    return any(len(set(pick)) == 3 for pick in itertools.product(*owners))


def has_rainbow(f: Fam) -> bool:
    """Brute force over the triples whose three edges are all covered."""
    covered: dict[int, set[int]] = {}
    for t, _ in f.members:
        for u, v in tri_edges(t):
            covered.setdefault(u, set()).add(v)
            covered.setdefault(v, set()).add(u)
    for x, nbrs in covered.items():
        for y, z in itertools.combinations(sorted(w for w in nbrs if w > x), 2):
            if z in covered.get(y, ()) and is_rainbow_triple(f, (x, y, z)):
                return True
    return False


def certificate_problem(
    f: Fam, triple: Triangle, assignment: list[tuple[tuple[int, int], tuple[int, int]]]
) -> str | None:
    """Owner check of a rainbow certificate: None when it proves a rainbow."""
    if not (len(triple) == 3 and 0 <= triple[0] < triple[1] < triple[2] < f.n):
        return f"triple {triple} out of range"
    if [e for e, _ in assignment] != list(tri_edges(triple)):
        return f"assigned edges {[e for e, _ in assignment]} are not the edges of {triple}"
    refs = [r for _, r in assignment]
    if len(set(refs)) != 3:
        return f"owner copies {refs} are not distinct"
    for (u, v), (i, c) in assignment:
        if not 0 <= i < len(f.members):
            return f"owner index {i} out of range"
        t, m = f.members[i]
        if not 0 <= c < m:
            return f"copy {c} of member {t} does not exist"
        if u not in t or v not in t:
            return f"member {t} does not contain edge ({u}, {v})"
    return None


def is_tstar_shape(f: Fam) -> bool:
    """f is t_star(n) up to relabeling: n/4 disjoint pairs times n/2 apexes."""
    n = f.n
    if n % 4 or f.size * 8 != n * n or any(m != 1 for _, m in f.members):
        return False
    count: dict[tuple[int, int], int] = {}
    for t, _ in f.members:
        for e in tri_edges(t):
            count[e] = count.get(e, 0) + 1
    pairs = [e for e, c in count.items() if c == n // 2]
    paired = {v for e in pairs for v in e}
    if len(pairs) != n // 4 or len(paired) != n // 2:
        return False
    apexes = set(range(n)) - paired
    want = {tri(a, b, x) for a, b in pairs for x in apexes}
    return {t for t, _ in f.members} == want


# -- TRIFAM v1 text


def trifam_text(f: Fam) -> str:
    lines = ["trifam 1", f"mode {f.mode}", f"n {f.n}"]
    for (a, b, c), m in f.members:
        lines.append(f"{a} {b} {c}" + (" x2" if m == 2 else ""))
    return "\n".join(lines) + "\n"


def parse_trifam(text: str) -> Fam:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 3 or lines[0] != "trifam 1":
        raise ValueError(f"not TRIFAM v1 text: {text[:40]!r}")
    mode = lines[1].split()[1]
    n = int(lines[2].split()[1])
    members = []
    for ln in lines[3:]:
        parts = ln.split()
        m = int(parts[3][1:]) if len(parts) == 4 else 1
        members.append((tri(*map(int, parts[:3])), m))
    return Fam(n, mode, tuple(members))
