"""Canonical forms and isomorphism for triangle families.

Two families are isomorphic when some vertex bijection carries one member
multiset onto the other (multiplicities included; mode labels do not
matter).  The canonical form is the lexicographically least sorted member
sequence over all relabelings.  canonical_relabeling and is_canonical both
find it with the one labeling DFS in _accel, a backtracking search over
label assignments that prunes on determined prefixes; the first seeks the
minimum, the second stops at the first labeling below the identity.
Support vertices always receive labels 0..s-1 in a canonical labeling;
collapsing label gaps never increases the sequence.
"""

from __future__ import annotations

import numpy as np

from ._accel import is_min_labeled, min_labeling
from .family import TriangleFamily, Triangle


def _member_arrays(
    f: TriangleFamily,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ms = sorted(f.members)
    ta = np.array([t[0] for t, _ in ms], np.int64)
    tb = np.array([t[1] for t, _ in ms], np.int64)
    tc = np.array([t[2] for t, _ in ms], np.int64)
    tm = np.array([m for _, m in ms], np.int64)
    sup = np.array(f.support_vertices(), np.int64)
    return ta, tb, tc, tm, sup


def canonical_relabeling(f: TriangleFamily) -> tuple[dict[int, int], TriangleFamily]:
    """Vertex map old -> new minimizing the member sequence, plus the image.

    Support vertices receive labels 0..s-1; isolated vertices take the
    remaining labels in ascending order.
    """
    mapping: dict[int, int] = {}
    if f.members:
        ta, tb, tc, tm, sup = _member_arrays(f)
        lab = np.empty(f.n, np.int64)
        min_labeling(ta, tb, tc, tm, sup, f.n, lab)
        mapping = {int(v): int(lab[v]) for v in sup}
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
