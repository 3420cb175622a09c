"""Triangle-family data model and the TRIFAM v1 text format.

A family is a multiset of triangles over vertices 0..n-1.  Every copy of a
member triangle counts as a distinct color class for rainbow checks, so the
model tracks (triangle, multiplicity) pairs rather than a flat list.  Set
mode restricts every multiplicity to 1; multiset mode allows up to 2 (three
copies of one triangle always contain a rainbow triple, so higher
multiplicities are rejected outright).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Vertex = int
Edge = tuple[int, int]            # (u, v) with u < v
Triangle = tuple[int, int, int]   # (a, b, c) with a < b < c
MemberRef = tuple[int, int]       # (member index, copy number)

SET = "set"
MULTISET = "multiset"
MODES = (SET, MULTISET)

MAX_MULTIPLICITY = 2

# Largest vertex count a family may have.  The labeling DFS packs a member
# into one code with radix n + 2 that must stay below its 2^62 sentinel,
# which holds up to n = 1,664,508.
MAX_VERTICES = 1_000_000

# Largest member count a construction builds.  t_star(2828), with 999,698
# members, takes about 5 s and 370 MB to build and serialize in the
# pure-Python lane; pair_family refuses a larger count before building.
MAX_MEMBERS = 1_000_000


class TrifamError(ValueError):
    """Malformed TRIFAM input or invalid family data."""


class VertexLimitError(TrifamError):
    """A family on more than MAX_VERTICES vertices, or a construction of
    more than MAX_MEMBERS members."""


def check_vertex_limit(n: int) -> None:
    """Raise VertexLimitError when n is above MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise VertexLimitError(f"vertex count must be <= {MAX_VERTICES}, got {n}")


def edge(u: int, v: int) -> Edge:
    if u == v:
        raise TrifamError(f"degenerate edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def triangle(a: int, b: int, c: int) -> Triangle:
    t = tuple(sorted((a, b, c)))
    if t[0] == t[1] or t[1] == t[2]:
        raise TrifamError(f"degenerate triangle ({a}, {b}, {c})")
    return t  # type: ignore[return-value]


def triangle_edges(t: Triangle) -> tuple[Edge, Edge, Edge]:
    a, b, c = t
    return ((a, b), (a, c), (b, c))


@dataclass(frozen=True)
class TriangleFamily:
    """A multiset of triangles on vertices 0..n-1.

    members holds (triangle, multiplicity) pairs with distinct triangles;
    order is preserved as constructed.  Isolated vertices are legal and
    affect nothing but n.
    """

    n: int
    members: tuple[tuple[Triangle, int], ...]
    mode: str = SET

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TrifamError(f"vertex count must be >= 1, got {self.n}")
        check_vertex_limit(self.n)
        if self.mode not in MODES:
            raise TrifamError(f"unknown mode {self.mode!r}")
        seen: set[Triangle] = set()
        for t, m in self.members:
            a, b, c = t
            if not (0 <= a < b < c < self.n):
                raise TrifamError(f"triangle {t} not ascending in range 0..{self.n - 1}")
            if t in seen:
                raise TrifamError(f"repeated triangle entry {t}; use multiplicity instead")
            seen.add(t)
            if self.mode == SET:
                if m != 1:
                    raise TrifamError(f"multiplicity {m} not allowed in set mode")
            elif not (1 <= m <= MAX_MULTIPLICITY):
                raise TrifamError(f"multiplicity {m} outside 1..{MAX_MULTIPLICITY}")

    @property
    def size(self) -> int:
        """Total number of member copies."""
        return sum(m for _, m in self.members)

    @property
    def support(self) -> tuple[Triangle, ...]:
        """Distinct member triangles, in member order."""
        return tuple(t for t, _ in self.members)

    def multiplicity(self, t: Triangle) -> int:
        for u, m in self.members:
            if u == t:
                return m
        return 0

    def member_copies(self) -> Iterator[tuple[MemberRef, Triangle]]:
        """Yield ((index, copy), triangle) for every copy."""
        for i, (t, m) in enumerate(self.members):
            for c in range(m):
                yield (i, c), t

    def support_vertices(self) -> tuple[int, ...]:
        verts: set[int] = set()
        for t, _ in self.members:
            verts.update(t)
        return tuple(sorted(verts))

    def normalized(self) -> "TriangleFamily":
        """Same family with members sorted lexicographically by triangle."""
        return TriangleFamily(self.n, tuple(sorted(self.members)), self.mode)

    def same_family(self, other: "TriangleFamily") -> bool:
        """Equality up to member order (n, mode, and multiset of members)."""
        return (
            self.n == other.n
            and self.mode == other.mode
            and sorted(self.members) == sorted(other.members)
        )


def family_from_triangles(
    n: int,
    triangles: Iterable[tuple[int, ...]],
    mode: str = SET,
) -> TriangleFamily:
    """Build a family from bare triples or (a, b, c, mult) tuples."""
    members: list[tuple[Triangle, int]] = []
    for item in triangles:
        if len(item) == 4:
            a, b, c, m = item
        else:
            (a, b, c), m = item, 1
        members.append((triangle(a, b, c), m))
    return TriangleFamily(n, tuple(members), mode)


def parse_family(data: str | bytes) -> TriangleFamily:
    """Parse TRIFAM v1 text into a family.

    Format: header line "trifam 1", then "mode set|multiset", then "n <int>",
    then one line per member: three ascending vertices, optionally followed
    by "x2" for a doubled member.  '#' starts a comment; blank lines are
    ignored.  Member order in the result follows the input.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TrifamError(f"input is not valid UTF-8: {exc}") from None
    lines: list[str] = []
    for raw in data.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if len(lines) < 3:
        raise TrifamError("truncated input: expected header, mode, and n lines")
    if lines[0].split() != ["trifam", "1"]:
        raise TrifamError(f"bad header line {lines[0]!r}, expected 'trifam 1'")
    mode_parts = lines[1].split()
    if len(mode_parts) != 2 or mode_parts[0] != "mode" or mode_parts[1] not in MODES:
        raise TrifamError(f"bad mode line {lines[1]!r}")
    mode = mode_parts[1]
    n_parts = lines[2].split()
    if len(n_parts) != 2 or n_parts[0] != "n":
        raise TrifamError(f"bad vertex-count line {lines[2]!r}")
    try:
        n = int(n_parts[1])
    except ValueError:
        raise TrifamError(f"bad vertex count {n_parts[1]!r}") from None

    members: list[tuple[Triangle, int]] = []
    for line in lines[3:]:
        parts = line.split()
        mult = 1
        if len(parts) == 4:
            suffix = parts.pop()
            if not (len(suffix) >= 2 and suffix[0] == "x" and suffix[1:].isdecimal()):
                raise TrifamError(f"bad multiplicity suffix {suffix!r} on line {line!r}")
            mult = int(suffix[1:])
        if len(parts) != 3:
            raise TrifamError(f"bad member line {line!r}")
        try:
            a, b, c = (int(p) for p in parts)
        except ValueError:
            raise TrifamError(f"non-integer vertex on line {line!r}") from None
        if not a < b < c:
            raise TrifamError(f"vertices not ascending on line {line!r}")
        members.append(((a, b, c), mult))
    return TriangleFamily(n, tuple(members), mode)


def serialize_family(f: TriangleFamily) -> str:
    """Render a family as normalized TRIFAM v1 text (members sorted)."""
    out = ["trifam 1", f"mode {f.mode}", f"n {f.n}"]
    for (a, b, c), m in sorted(f.members):
        line = f"{a} {b} {c}"
        if m == 2:
            line += " x2"
        out.append(line)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class UnionGraph:
    """Union of all member edges, with per-edge owner copies.

    owners maps each edge to the tuple of member copies containing it,
    in member order.  adj holds one vertex bitmask per vertex.
    """

    n: int
    owners: dict[Edge, tuple[MemberRef, ...]]
    adj: tuple[int, ...]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.owners))

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.owners

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")


def union_graph(f: TriangleFamily) -> UnionGraph:
    owners: dict[Edge, list[MemberRef]] = {}
    adj = [0] * f.n
    for ref, t in f.member_copies():
        for u, v in triangle_edges(t):
            owners.setdefault((u, v), []).append(ref)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return UnionGraph(f.n, {e: tuple(refs) for e, refs in sorted(owners.items())}, tuple(adj))
