"""Certifier checks: MIS, beta assignment, witnesses, projected multigraph."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rainbowfree.certifier import (
    Bipartition,
    CertifierError,
    ColoredMultigraph,
    MISLimitError,
    RainbowFamilyError,
    bipartition,
    build_beta,
    build_witness,
    certify,
    check_master_chain,
    check_matched_pairs,
    check_tb_properties,
    max_independent_set,
    render_report,
)
from rainbowfree.constructions import doubled_nine, pair_family, t_star
from rainbowfree.family import MULTISET, family_from_triangles, union_graph
from rainbowfree.rainbow import verify_certificate

from oracles import (
    brute_end_colors_differ,
    brute_max_independent_sets,
    brute_same_color_simple,
    random_family,
)


def test_mis_matches_brute_force_on_random_graphs():
    rng = random.Random(515)
    for _ in range(200):
        n = rng.randint(2, 10)
        f = random_family(rng, n, 7, MULTISET)
        g = union_graph(f)
        got = max_independent_set(g)
        best = brute_max_independent_sets(n, list(g.edges))
        assert got == best[0]  # size-maximal and lex-least


def _connected_triangles(rng, block):
    """Random triangles on the vertices of block whose union is connected."""
    tris = [tuple(block[:3])]
    for i, v in enumerate(block[3:], start=3):
        x = rng.choice(block[:i])
        y = rng.choice([u for u in block if u not in (v, x)])
        tris.append((v, x, y))
    for _ in range(rng.randint(0, 2)):
        tris.append(tuple(rng.sample(block, 3)))
    return tris


def test_mis_matches_brute_force_on_disconnected_graphs():
    rng = random.Random(2006)
    for _ in range(60):
        k = rng.randint(2, 4)
        sizes = [rng.randint(3, 14 // k) for _ in range(k)]
        n = sum(sizes) + rng.randint(0, 14 - sum(sizes))
        # shuffled labels make the components and isolated vertices interleave
        perm = list(range(n))
        rng.shuffle(perm)
        tris: set[tuple[int, ...]] = set()
        start = 0
        for size in sizes:
            block = perm[start : start + size]
            start += size
            tris.update(tuple(sorted(t)) for t in _connected_triangles(rng, block))
        g = union_graph(family_from_triangles(n, sorted(tris)))
        best = brute_max_independent_sets(n, list(g.edges))
        assert max_independent_set(g) == best[0]


def test_mis_empty_graph_takes_everything():
    g = union_graph(family_from_triangles(5, []))
    assert max_independent_set(g) == (0, 1, 2, 3, 4)


def test_mis_vertex_limit():
    g = union_graph(family_from_triangles(70, [(0, 1, 2)]))
    with pytest.raises(MISLimitError):
        max_independent_set(g)


def test_bipartition_t_star8():
    p = bipartition(union_graph(t_star(8)))
    assert p.a == (4, 5, 6, 7)
    assert p.b == (0, 1, 2, 3)
    assert p.e_b == ((0, 1), (2, 3))


def test_beta_prefers_the_shared_b_edge():
    f = t_star(8)
    g = union_graph(f)
    p = bipartition(g)
    beta = build_beta(f, g, p)
    # every member projects to its pair edge, four copies each
    assert sorted(beta.d.items()) == [((0, 1), 4), ((2, 3), 4)]
    assert all(e in ((0, 1), (2, 3)) for e in beta.beta.values())


def test_beta_requires_a_b_edge():
    # A = {0, 3}: member (0,1,2) has B-edge (1,2); member (0,1,3) has none
    f = family_from_triangles(4, [(0, 1, 2), (0, 1, 3)])
    p = Bipartition(a=(0, 3), b=(1, 2), e_b=((1, 2),))
    with pytest.raises(CertifierError):
        build_beta(f, union_graph(f), p)


def test_beta_refuses_a_member_sharing_two_edges():
    # (0,1,2) lies inside B and shares (0,1) and (1,2): a rainbow on 0,1,2
    f = family_from_triangles(5, [(0, 1, 2), (0, 1, 3), (1, 2, 4)])
    p = Bipartition(a=(3, 4), b=(0, 1, 2), e_b=((0, 1), (0, 2), (1, 2)))
    with pytest.raises(CertifierError, match="shares 2 edges: family has a rainbow"):
        build_beta(f, union_graph(f), p)


def test_eq1_counts_every_copy_twice():
    for f in (t_star(8), pair_family(7, 2, 3), doubled_nine()):
        r = certify(f)
        assert r.eq1_holds and r.eq1_value == 2 * r.support_size


def test_witnesses_on_t_star8():
    f = t_star(8)
    g = union_graph(f)
    p = bipartition(g)
    beta = build_beta(f, g, p)
    for b in p.b:
        w = build_witness(f, g, p, beta, b)
        assert len(w.i_b) == sum(beta.d.get(e, 0) for e in p.e_b if b in e)
        assert set(w.i_b) <= set(p.a)


def test_witness_pick_collision_on_doubled_member():
    # both copies of the doubled member contribute to (1,2) and both
    # pick the outside vertex 6
    f = family_from_triangles(7, [(1, 2, 6, 2)], MULTISET)
    g = union_graph(f)
    p = Bipartition(a=(0, 3, 4, 5, 6), b=(1, 2), e_b=((1, 2),))
    beta = build_beta(f, g, p)
    assert beta.d[(1, 2)] == 2
    with pytest.raises(CertifierError, match="collide"):
        build_witness(f, g, p, beta, 1)
    # b = 1 has two edges whose doubled members collide, (1,2) at 6 and
    # (1,3) at 7, listed first: the report names the one on the lesser edge
    f = family_from_triangles(8, [(1, 3, 7, 2), (1, 2, 6, 2)], MULTISET)
    g = union_graph(f)
    p = Bipartition(a=(0, 4, 5, 6, 7), b=(1, 2, 3), e_b=((1, 2), (1, 3)))
    beta = build_beta(f, g, p)
    with pytest.raises(
        CertifierError,
        match=r"^witness picks collide at vertex 6 \(members \(1, 2, 6\) and "
        r"\(1, 2, 6\)\): would-be rainbow near \(1, 2, 6\)$",
    ):
        build_witness(f, g, p, beta, 1)


def test_witness_dependence_is_reported():
    # picks 2 and 3 for b=1 are joined by the edge of member (0,2,3)
    f = family_from_triangles(7, [(1, 2, 5), (1, 3, 6), (0, 2, 3)])
    g = union_graph(f)
    p = Bipartition(a=(0, 4, 5, 6), b=(1, 2, 3), e_b=((1, 2), (1, 3), (2, 3)))
    beta = build_beta(f, g, p)
    with pytest.raises(
        CertifierError,
        match=r"^witness for 1 not independent: edge \(2,3\) between picks of "
        r"\(1, 2, 5\) and \(1, 3, 6\)$",
    ):
        build_witness(f, g, p, beta, 1)


def test_eq2_rows_track_tightness():
    r = certify(t_star(8))
    assert r.eq2_holds
    assert r.eq2_values == ((0, 4, True), (1, 4, True), (2, 4, True), (3, 4, True))


def test_master_chain_values():
    f = pair_family(5, 1, 3)
    p = bipartition(union_graph(f))
    ok, (lhs, mid, rhs) = check_master_chain(f, p)
    assert ok and (lhs, mid, rhs) == (6, 6, Fraction(25, 4))
    one = family_from_triangles(3, [(0, 1, 2)])
    ok, (lhs, mid, rhs) = check_master_chain(one, bipartition(union_graph(one)))
    assert ok and (lhs, mid, rhs) == (2, 2, Fraction(9, 4))


def test_step1_false_on_hub_with_pendants():
    # the hub triangle keeps all three vertices in B because the MIS
    # prefers pendant vertices; not extremal, so the verdict still passes
    members = [(0, 1, 2)]
    nxt = 3
    for v in (0, 1, 2):
        for _ in range(2):
            members.append((v, nxt, nxt + 1))
            nxt += 2
    f = family_from_triangles(15, members)
    r = certify(f)
    assert not r.step1_holds
    assert r.tb_properties is None and r.matched_pairs is None
    assert not r.extremal and r.verdict


def test_certify_t_star_all_true():
    r = certify(t_star(8))
    assert r.size == 8 and r.support_size == 8
    assert r.eq1_holds and r.eq1_value == 16
    assert r.eq2_holds and r.chain_holds
    assert r.chain_values == (16, 16, Fraction(16))
    assert r.step1_holds and r.tb_properties == (True, True, True, True)
    assert r.matched_pairs and r.extremal and r.is_tstar
    assert r.verdict


def test_certify_non_extremal_pass():
    # step1 holds here, so the projection is still analyzed: its degree
    # and matched-pairs checks fail, which a non-extremal verdict ignores
    r = certify(pair_family(7, 2, 3))
    assert r.verdict and not r.extremal
    assert r.is_tstar is None
    assert r.step1_holds
    assert r.tb_properties == (True, True, True, False)
    assert r.matched_pairs is False


def test_certify_multiset_uses_support():
    r = certify(doubled_nine())
    assert r.mode == MULTISET and r.size == 12 and r.support_size == 6
    assert r.eq1_value == 12
    assert r.verdict and not r.extremal


def test_certify_seven_relabeled_doubled_nines():
    # 63 vertices, one below the exact solver's limit: the union graph is
    # seven interleaved 9-vertex components
    rng = random.Random(63)
    perm = list(range(63))
    rng.shuffle(perm)
    f = family_from_triangles(
        63,
        [
            tuple(perm[9 * k + v] for v in t) + (m,)
            for k in range(7)
            for t, m in doubled_nine().members
        ],
        MULTISET,
    )
    r = certify(f)
    assert r.verdict and len(r.partition.a) == 21
    pore = render_report(r, porcelain=True).splitlines()
    assert "A=0,1,2,3,4,5,6,7,9,13,18,20,23,24,37,38,39,40,43,53,62" in pore
    assert "verdict=pass" in pore


def test_certify_empty_family():
    # A swallows every vertex, so B and all the sums are empty
    r = certify(family_from_triangles(4, []))
    assert r.verdict and r.chain_values == (0, 0, Fraction(4))


def test_certify_rejects_rainbow_input():
    f = family_from_triangles(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(RainbowFamilyError) as exc_info:
        certify(f)
    cert = exc_info.value.certificate
    assert verify_certificate(f, cert)


def test_tb_properties_on_constructed_violations():
    # P1: a triangle in the simple graph
    g = ColoredMultigraph(
        vertices=(0, 1, 2),
        edges=(((0, 1), 9), ((0, 2), 8), ((1, 2), 7)),
        m=2,
    )
    p1, _, _, p4 = check_tb_properties(g)
    assert not p1 and p4
    # P2: 3-edge path with equal end colors
    g = ColoredMultigraph(
        vertices=(0, 1, 2, 3),
        edges=(((0, 1), 9), ((1, 2), 8), ((2, 3), 9)),
        m=2,
    )
    _, p2, _, _ = check_tb_properties(g)
    assert not p2
    # same shape with distinct end colors passes P2
    g = ColoredMultigraph(
        vertices=(0, 1, 2, 3),
        edges=(((0, 1), 9), ((1, 2), 8), ((2, 3), 7)),
        m=2,
    )
    _, p2, _, _ = check_tb_properties(g)
    assert p2
    # random colored multigraphs, parallel copies included, against every
    # 3-edge path and every pair of same-colored copies
    rng = random.Random(2)
    for _ in range(300):
        k = rng.randint(4, 7)
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges = tuple(
            (rng.choice(pairs), rng.randrange(4)) for _ in range(rng.randint(0, 10))
        )
        g = ColoredMultigraph(vertices=tuple(range(k)), edges=edges, m=2)
        _, p2, p3, _ = check_tb_properties(g)
        assert p2 == brute_end_colors_differ(edges), edges
        assert p3 == brute_same_color_simple(edges), edges
    # P3: same-colored edges meet at a vertex and one is doubled
    g = ColoredMultigraph(
        vertices=(0, 1, 2),
        edges=(((0, 1), 9), ((0, 1), 8), ((1, 2), 9)),
        m=3,
    )
    _, _, p3, _ = check_tb_properties(g)
    assert not p3
    # P4: degree deficit
    g = ColoredMultigraph(vertices=(0, 1, 2), edges=(((0, 1), 9),), m=1)
    _, _, _, p4 = check_tb_properties(g)
    assert not p4


def _mg(vertices, edges, m):
    return ColoredMultigraph(vertices=vertices, edges=edges, m=m)


def test_matched_pairs_cases():
    # m = |B| = 4: two pairs, each carrying all four colors
    full = tuple(((0, 1), c) for c in (8, 9, 10, 11)) + tuple(
        ((2, 3), c) for c in (8, 9, 10, 11)
    )
    assert check_matched_pairs(_mg((0, 1, 2, 3), full, 4))
    # palette differs between the pairs
    skew = full[:7] + (((2, 3), 12),)
    assert not check_matched_pairs(_mg((0, 1, 2, 3), skew, 4))
    # an edge leaves the matching
    stray = full[:7] + (((1, 2), 11),)
    assert not check_matched_pairs(_mg((0, 1, 2, 3), stray, 4))
    # duplicated color inside one pair
    dup = full[:7] + (((2, 3), 8),)
    assert not check_matched_pairs(_mg((0, 1, 2, 3), dup, 4))
    # single pair, both colors
    assert check_matched_pairs(_mg((0, 1), (((0, 1), 8), ((0, 1), 9)), 2))
    # no edges: vacuously matched only at m = 0
    assert check_matched_pairs(_mg((), (), 0))
    assert not check_matched_pairs(_mg((0, 1), (), 2))
    # odd m can never split into pairs
    assert not check_matched_pairs(_mg((0, 1, 2), (((0, 1), 8),), 3))


def test_step1_checker_directly():
    # build_beta's member pass decides step1: colored is None exactly
    # when some member lies inside B
    f = family_from_triangles(4, [(0, 1, 2)])
    g = union_graph(f)
    beta = build_beta(f, g, Bipartition(a=(3, 0), b=(1, 2), e_b=((1, 2),)))
    assert beta.colored == (((1, 2), 0),)
    beta = build_beta(f, g, Bipartition(a=(3,), b=(0, 1, 2), e_b=()))
    assert beta.colored is None and beta.beta == {(0, 0): (0, 1)}


def test_certify_t_star_sweep_is_fast_and_true():
    # 64 is MIS_VERTEX_LIMIT
    for n in (4, 12, 16, 20, 24, 60, 64):
        r = certify(t_star(n))
        assert r.verdict and r.extremal and r.is_tstar
        assert r.chain_values[0] == 2 * (n * n // 8)


def test_render_report_stable_fields():
    r = certify(t_star(8))
    plain = render_report(r)
    pore = render_report(r, porcelain=True)
    assert "verdict = pass" in plain
    assert pore.splitlines()[0] == "n=8"
    assert "verdict=pass" in pore
    for key in ("eq1", "eq2", "chain", "step1", "matched_pairs", "is_tstar"):
        assert any(line.startswith(key) for line in pore.splitlines())
