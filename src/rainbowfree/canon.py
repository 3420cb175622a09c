"""Canonical forms and isomorphism for triangle families.

Two families are isomorphic when some vertex bijection carries one member
multiset onto the other (multiplicities included; mode labels do not
matter).  The canonical form is the lexicographically least sorted member
sequence over all relabelings, and the canonical map is the first
labeling in position order that attains it (label 0 to the least possible
support vertex, then label 1, and so on).  canonical_relabeling and
is_canonical both pass the member rows (a, b, c, m), ascending, to the
one labeling DFS in _accel, a backtracking search over label
assignments that cuts a branch once the sorted bounds of its member
codes exceed the best sequence.  is_canonical stops at the first
labeling below the identity.  canonical_relabeling finds the map in
three steps: a greedy descent gives each label to the vertex whose bounds
are least, which seeds the best sequence; the DFS lowers it to the
minimum, diving greedily again wherever a branch is certain to beat it;
and a labeling that ties the best one and comes earlier in position order
takes its place.  The dives only decide how soon the minimum is known:
the map is still the first minimal labeling in position order, so it
does not depend on them.
A member's bound gives its unlabeled vertices the next unused labels in
order, so it is read off which of its vertices are labeled.  Each dive
records the bounds of every vertex choice it weighs, and the DFS reads
them there instead of computing them again, so no partial labeling is
bounded twice in one walk.  A choice whose final codes already put it
above the dive's labeling keeps only a marker: the best sequence only
drops, so the DFS cuts that choice at once.
The DFS and the dives give the next label only to the frontier: the
unlabeled vertices of the members whose code bound is least among the
members not yet fully labeled.  A bound depends only on a member's labels
and on how many of its vertices are unlabeled, so the next label keeps
the bound of each member it lands in and raises every other one.  Placed
off the frontier, it raises every least-bound member, and each
completion of that child is strictly above a completion through the
frontier.  So no minimal labeling, and none tying a minimal one, lies off
the frontier: maps and verdicts are unchanged, and so are the
automorphisms a canonicity walk stores, since each comes from a leaf that
ties the identity when the identity is minimal.
A labeling that ties the best one found so far exposes an automorphism;
the DFS stores it and skips every later sibling choice lying in the orbit
of an explored one, under the stored automorphisms that fix the labels
already assigned.  Such a subtree mirrors an explored one code for code,
so it could only produce ties, which never replace the earlier labeling:
forms, maps and verdicts are exactly those of the unpruned search, and
families with huge automorphism groups such as t_star(32) stay cheap.
The first choice at a node is its least frontier vertex, which is least
in its orbit too, so orbits are built only when the DFS comes back to a
node for a later sibling.  Each automorphism keeps the bitmask of the
positions it moves: whether it fixes the labeled ones is one AND, and
its orbits merge over the moved positions alone.
Support vertices always receive labels 0..s-1 in a canonical labeling;
collapsing label gaps never increases the sequence.

are_isomorphic runs at most one full walk.  It first compares an
invariant, the sorted per-vertex counts of single and doubled members,
and refuses a pair that differs there with no walk at all.  Then it
labels the first family canonically and walks the second with the first
one's canonical codes as a target: every dive ends at a complete
labeling, so the walk stops with "isomorphic" once its best sequence
equals the target and with "not isomorphic" once it drops below it, and
a walk that ends above it has a larger minimum.  The target walk keeps
every dive and automorphism of a plain walk, so it is never longer.
"""

from __future__ import annotations

from ._accel import is_min_labeled, member_codes, min_labeling
from .family import TriangleFamily


def _rows(f: TriangleFamily) -> list[tuple[int, int, int, int]]:
    """f's member rows (a, b, c, m), ascending: the labeling DFS's input."""
    return [(*t, m) for t, m in sorted(f.members)]


def canonical_relabeling(f: TriangleFamily) -> tuple[dict[int, int], TriangleFamily]:
    """Vertex map old -> new minimizing the member sequence, plus the image.

    Support vertices receive labels 0..s-1; isolated vertices take the
    remaining labels in ascending order.
    """
    lab: list[int] = []
    min_labeling(_rows(f), f.n, lab)
    mapping = {v: l for v, l in enumerate(lab) if l >= 0}
    taken = set(mapping.values())
    spare = iter(l for l in range(f.n) if l not in taken)
    for v in range(f.n):
        if v not in mapping:
            mapping[v] = next(spare)
    members = sorted(
        ((tuple(sorted((mapping[a], mapping[b], mapping[c]))), m) for (a, b, c), m in f.members)
    )
    relabeled = TriangleFamily(f.n, tuple(members), f.mode)  # type: ignore[arg-type]
    return mapping, relabeled


def canonical_form(f: TriangleFamily) -> bytes:
    """Relabeling-invariant fingerprint: equal iff families are isomorphic.

    Covers n and the canonical member sequence with multiplicities; the
    mode label is excluded because isomorphism is defined on the member
    multiset alone.
    """
    _, g = canonical_relabeling(f)
    parts = [f"{a}.{b}.{c}.{m}" for (a, b, c), m in g.members]
    return (f"cf1 {f.n} " + " ".join(parts)).encode("ascii")


def is_canonical(f: TriangleFamily) -> bool:
    """Is f labeled canonically (identity relabeling is minimal)?"""
    return bool(is_min_labeled(_rows(f), f.n))


def _degrees(f: TriangleFamily) -> list[list[int]]:
    """Sorted [members of multiplicity 1, of multiplicity 2] on each
    support vertex: an isomorphism invariant that ignores the mode."""
    deg: dict[int, list[int]] = {}
    for t, m in f.members:
        for v in t:
            deg.setdefault(v, [0, 0])[m - 1] += 1
    return sorted(deg.values())


def are_isomorphic(f1: TriangleFamily, f2: TriangleFamily) -> bool:
    """True iff some vertex bijection maps one member multiset to the other.

    Families with different n are never isomorphic (isolated vertices
    count); mode labels are ignored.  Families whose degree rows (see
    _degrees) differ are refused without a labeling walk.  Otherwise f1
    is labeled canonically, and f2's labeling walk takes f1's canonical
    codes as its target: it stops as soon as its best labeling reaches
    them (isomorphic) or passes below them (not), and a walk that ends
    above them means not isomorphic.
    """
    if f1.n != f2.n or _degrees(f1) != _degrees(f2):
        return False
    _, g = canonical_relabeling(f1)
    target = member_codes(_rows(g), g.n)
    return min_labeling(_rows(f2), f2.n, [], target) == 1
