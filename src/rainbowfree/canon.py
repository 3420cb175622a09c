"""Canonical forms and isomorphism for triangle families.

Two families are isomorphic when some vertex bijection carries one member
multiset onto the other (multiplicities included; mode labels do not
matter).  The canonical form is the lexicographically least sorted member
sequence over all relabelings, and the canonical map is the first
labeling in position order that attains it (label 0 to the least possible
support vertex, then label 1, and so on).  canonical_relabeling and
is_canonical both use the one labeling DFS in _accel, a backtracking
search over label assignments that cuts a branch once the sorted bounds
of its member codes exceed the best sequence.  is_canonical stops at the
first labeling below the identity.  canonical_relabeling finds the map in
three steps: a greedy descent gives each label to the vertex whose bounds
are least, which seeds the best sequence; the DFS lowers it to the
minimum, diving greedily again wherever a branch is certain to beat it;
and a labeling that ties the best one and comes earlier in position order
takes its place.  The dives only decide how soon the minimum is known:
the map is still the first minimal labeling in position order, so it
does not depend on them.
A labeling that ties the best one found so far exposes an automorphism;
the DFS stores it and skips every later sibling choice lying in the orbit
of an explored one, under the stored automorphisms that fix the labels
already assigned.  Such a subtree mirrors an explored one code for code,
so it could only produce ties, which never replace the earlier labeling:
forms, maps and verdicts are exactly those of the unpruned search, and
families with huge automorphism groups such as t_star(32) stay cheap.
Support vertices always receive labels 0..s-1 in a canonical labeling;
collapsing label gaps never increases the sequence.
"""

from __future__ import annotations

from ._accel import is_min_labeled, member_columns, min_labeling
from .family import TriangleFamily, Triangle


def _member_arrays(
    f: TriangleFamily,
) -> tuple[list[int], list[int], list[int], list[int], tuple[int, ...]]:
    """ta, tb, tc, tm (see member_columns) and the support vertices."""
    return (*member_columns(f.members), f.support_vertices())


def canonical_relabeling(f: TriangleFamily) -> tuple[dict[int, int], TriangleFamily]:
    """Vertex map old -> new minimizing the member sequence, plus the image.

    Support vertices receive labels 0..s-1; isolated vertices take the
    remaining labels in ascending order.
    """
    mapping: dict[int, int] = {}
    if f.members:
        ta, tb, tc, tm, sup = _member_arrays(f)
        lab = [-1] * f.n
        min_labeling(ta, tb, tc, tm, sup, f.n, lab)
        mapping = {v: lab[v] for v in sup}
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
    if not f.members:
        return True
    ta, tb, tc, tm, sup = _member_arrays(f)
    return bool(is_min_labeled(ta, tb, tc, tm, sup, f.n))


def are_isomorphic(f1: TriangleFamily, f2: TriangleFamily) -> bool:
    """True iff some vertex bijection maps one member multiset to the other.

    Families with different n are never isomorphic (isolated vertices
    count); mode labels are ignored.
    """
    if f1.n != f2.n:
        return False
    if sorted(m for _, m in f1.members) != sorted(m for _, m in f2.members):
        return False
    return canonical_form(f1) == canonical_form(f2)
