"""Family model, TRIFAM parsing, and union graph tests."""

from __future__ import annotations

import random

import pytest

from rainbowfree.family import (
    MULTISET,
    SET,
    TriangleFamily,
    TrifamError,
    family_from_triangles,
    parse_family,
    serialize_family,
    triangle,
    triangle_edges,
    union_graph,
)

from oracles import random_family


def test_edge_and_triangle_normalize_order():
    assert triangle(5, 0, 2) == (0, 2, 5)
    assert triangle_edges((0, 2, 5)) == ((0, 2), (0, 5), (2, 5))


def test_edge_rejects_loops():
    with pytest.raises(TrifamError):
        triangle(1, 1, 4)


def test_family_validation():
    with pytest.raises(TrifamError):
        TriangleFamily(0, ())
    with pytest.raises(TrifamError):
        TriangleFamily(4, (((0, 1, 2), 1),), "bag")
    with pytest.raises(TrifamError):
        TriangleFamily(3, (((0, 1, 3), 1),))  # vertex out of range
    with pytest.raises(TrifamError):
        TriangleFamily(4, (((0, 1, 2), 1), ((0, 1, 2), 1)))  # repeat entry
    with pytest.raises(TrifamError):
        TriangleFamily(4, (((0, 1, 2), 2),), SET)  # mult 2 needs multiset
    with pytest.raises(TrifamError):
        TriangleFamily(4, (((0, 1, 2), 3),), MULTISET)  # above the cap
    with pytest.raises(TrifamError):
        TriangleFamily(4, (((0, 1, 2), 0),), MULTISET)


def test_size_support_multiplicity():
    f = family_from_triangles(6, [(0, 1, 2, 2), (3, 4, 5, 1)], MULTISET)
    assert f.size == 3
    assert f.support == ((0, 1, 2), (3, 4, 5))
    assert f.multiplicity((0, 1, 2)) == 2
    assert f.multiplicity((0, 1, 3)) == 0
    assert list(f.member_copies()) == [
        ((0, 0), (0, 1, 2)),
        ((0, 1), (0, 1, 2)),
        ((1, 0), (3, 4, 5)),
    ]
    assert f.support_vertices() == (0, 1, 2, 3, 4, 5)


def test_isolated_vertices_are_legal():
    f = family_from_triangles(9, [(0, 1, 2)])
    assert f.n == 9
    assert f.support_vertices() == (0, 1, 2)


def test_parse_round_trip_seeded():
    rng = random.Random(1207)
    for _ in range(200):
        n = rng.randint(3, 10)
        mode = rng.choice((SET, MULTISET))
        f = random_family(rng, n, 8, mode)
        g = parse_family(serialize_family(f))
        # parsing keeps the serialized order, which sorts the members
        assert g == TriangleFamily(f.n, tuple(sorted(f.members)), f.mode)
        assert serialize_family(g) == serialize_family(f)


def test_parse_comments_blanks_and_x1():
    text = """
    # header comment
    trifam 1
    mode multiset   # trailing comment
    n 6

    0 1 2 x2
    3 4 5 x1
    """
    f = parse_family(text)
    assert f.mode == MULTISET
    assert f.members == (((0, 1, 2), 2), ((3, 4, 5), 1))


def test_parse_accepts_bytes():
    f = parse_family(b"trifam 1\nmode set\nn 4\n0 1 2\n")
    assert f.members == (((0, 1, 2), 1),)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "trifam 2\nmode set\nn 4\n",
        "trifam 1\nmode bag\nn 4\n",
        "trifam 1\nmode set\nnn 4\n",
        "trifam 1\nmode set\nn four\n",
        "trifam 1\nmode set\nn 4\n0 1\n",
        "trifam 1\nmode set\nn 4\n0 1 2 3 4\n",
        "trifam 1\nmode set\nn 4\n2 1 0\n",
        "trifam 1\nmode set\nn 4\n0 1 x\n",
        "trifam 1\nmode set\nn 4\n0 1 2 y2\n",
        "trifam 1\nmode set\nn 4\n0 1 2 x2\n",
        # a digit int() cannot read: a ValueError traceback before the fix
        "trifam 1\nmode multiset\nn 4\n0 1 2 x\u00b2\n",
        "trifam 1\nmode set\nn 4\n0 a 2\n",
        # numbers int() reads that are not ASCII decimal digits
        "trifam 1\nmode set\nn 1_0\n0 1 2\n",
        "trifam 1\nmode set\nn 4\n0 1 +2\n",
        "trifam 1\nmode multiset\nn \u0661\u0660\n0 1 2 x\u0662\n",
        # more digits than int() may take: a ValueError traceback before the fix
        pytest.param("trifam 1\nmode set\nn " + "1" * 5000 + "\n0 1 2\n", id="long-n"),
        pytest.param("trifam 1\nmode set\nn 4\n0 1 " + "2" * 5000 + "\n", id="long-vertex"),
        pytest.param(
            "trifam 1\nmode set\nn 4\n" + " ".join(d * 1500 for d in "123") + "\n",
            id="long-vertices",
        ),
        "trifam 1\nmode set\nn 3\n0 1 3\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(TrifamError):
        parse_family(text)


def test_serialize_is_sorted_and_stable():
    f = family_from_triangles(7, [(2, 5, 6), (0, 1, 2, 2)], MULTISET)
    assert serialize_family(f) == "trifam 1\nmode multiset\nn 7\n0 1 2 x2\n2 5 6\n"


def test_union_graph_owners_and_degrees():
    f = family_from_triangles(5, [(0, 1, 2), (0, 1, 3, 2)], MULTISET)
    g = union_graph(f)
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    assert g.owners[(0, 1)] == ((0, 0), (1, 0), (1, 1))
    assert g.owners[(0, 2)] == ((0, 0),)
    assert (0, 1) in g.owners and (2, 3) not in g.owners
    assert g.degree(0) == 3 and g.degree(4) == 0


def test_union_graph_adj_matches_edges():
    rng = random.Random(88)
    for _ in range(50):
        f = random_family(rng, rng.randint(3, 9), 6, MULTISET)
        g = union_graph(f)
        for u in range(f.n):
            for v in range(f.n):
                bit = bool(g.adj[u] >> v & 1)
                assert bit == ((min(u, v), max(u, v)) in g.owners)
