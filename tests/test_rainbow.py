"""Rainbow detection against explicit-assignment oracles."""

from __future__ import annotations

import itertools
import random
import tracemalloc

from rainbowfree._accel import _hall3, rainbow_triple_scan
from rainbowfree.family import MULTISET, SET, family_from_triangles
from rainbowfree.rainbow import (
    RainbowCertificate,
    edge_owners,
    find_rainbow,
    has_rainbow,
    render_certificate,
    scan_state,
    shared_edge_count,
    verify_certificate,
)
from rainbowfree.constructions import t_star

from oracles import brute_rainbow_triples, random_family


def test_three_members_on_one_triple_is_rainbow():
    f = family_from_triangles(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    cert = find_rainbow(f)
    assert cert is not None
    assert verify_certificate(f, cert)
    assert cert.triple in brute_rainbow_triples(f)


def test_two_members_never_rainbow():
    # three distinct edge owners are impossible with only two copies
    f = family_from_triangles(5, [(0, 1, 2), (0, 1, 3)])
    assert find_rainbow(f) is None


def test_doubled_triangle_needs_private_edges():
    # a doubled member with a vertex-sharing neighbor stays safe, but an
    # edge-sharing neighbor hands (0,1) a third owner and the double's
    # own triple turns rainbow
    f = family_from_triangles(5, [(0, 1, 2, 2), (0, 3, 4, 1)], MULTISET)
    assert not has_rainbow(f)
    f = family_from_triangles(4, [(0, 1, 2, 2), (0, 1, 3, 1)], MULTISET)
    cert = find_rainbow(f)
    assert cert is not None and cert.triple == (0, 1, 2)
    assert verify_certificate(f, cert)


def test_certificate_render_and_owners():
    f = family_from_triangles(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    cert = find_rainbow(f)
    text = render_certificate(cert)
    x, y, z = cert.triple
    assert text.startswith(f"rainbow {x} {y} {z}\n")
    assert text.count("owner") == 3
    assert edge_owners(f, (0, 1)) == ((0, 0), (1, 0))


def test_verify_certificate_refuses_each_defect():
    f = family_from_triangles(
        5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4, 2)], MULTISET
    )
    good = RainbowCertificate(
        (0, 1, 2), (((0, 1), (0, 0)), ((0, 2), (2, 0)), ((1, 2), (3, 0)))
    )
    e01, e02, e12 = good.assignment
    assert verify_certificate(f, good)
    # the doubled member's second copy serves as well
    assert verify_certificate(f, RainbowCertificate((0, 1, 2), (e01, e02, ((1, 2), (3, 1)))))
    defects = {
        "triple out of range": ((0, 1, 5), good.assignment),
        # the edges and owners match the triple, only its order is wrong
        "triple not ascending": ((0, 2, 1), (e02, e01, ((2, 1), (3, 0)))),
        "two entries": ((0, 1, 2), (e01, e02)),
        "an edge not the triple's": ((0, 1, 2), (e01, e02, ((1, 3), (3, 0)))),
        "edges out of order": ((0, 1, 2), (e02, e01, e12)),
        "one copy assigned twice": ((0, 1, 2), (e01, ((0, 2), (0, 0)), e12)),
        "member index too large": ((0, 1, 2), (e01, e02, ((1, 2), (4, 0)))),
        "member index negative": ((0, 1, 2), (e01, e02, ((1, 2), (-1, 0)))),
        "copy beyond the multiplicity": ((0, 1, 2), (e01, e02, ((1, 2), (3, 2)))),
        "member lacks its edge": ((0, 1, 2), (((0, 1), (3, 1)), e02, e12)),
        "an entry that is a triple": ((0, 1, 2), ((0, 1, 2),)),
        "a last entry that is a triple": ((0, 1, 2), (e01, e02, (0, 1, 2))),
        "an owner of three numbers": ((0, 1, 2), (e01, e02, ((1, 2), (3, 0, 0)))),
    }
    for name, (triple, assignment) in defects.items():
        assert not verify_certificate(f, RainbowCertificate(triple, assignment)), name


def test_hall3_matches_distinct_representatives():
    # cm copies of the triple own all three edges; edge i also has
    # c_i - cm private owners, so an owner serves at most one edge unless
    # it is a copy of the triple
    for c in itertools.product(range(4), repeat=3):
        for cm in range(min(c) + 1):
            owners = [
                [("t", k) for k in range(cm)] + [(i, k) for k in range(c[i] - cm)]
                for i in range(3)
            ]
            sdr = any(len(set(pick)) == 3 for pick in itertools.product(*owners))
            assert _hall3(*c, cm) == sdr, (c, cm)


def test_find_rainbow_matches_oracle_exhaustive_small():
    import itertools

    pool = list(itertools.combinations(range(5), 3))
    for k in range(0, 4):
        for sub in itertools.combinations(pool, k):
            f = family_from_triangles(5, list(sub), SET)
            got = find_rainbow(f)
            want = brute_rainbow_triples(f)
            assert (got is None) == (not want)
            if got is not None:
                assert got.triple == want[0]
                assert verify_certificate(f, got)


def test_find_rainbow_matches_oracle_random():
    # set and multiset families on up to 9 vertices, every other one
    # spread over up to 40 by an injection that need not keep vertex
    # order, so the scan's support ranks differ from the labels
    rng = random.Random(41)
    for i in range(400):
        k = rng.randint(3, 9)
        mode = rng.choice((SET, MULTISET))
        f = random_family(rng, k, 7, mode)
        if i % 2:
            n = rng.randint(k, 40)
            place = rng.sample(range(n), k)
            f = family_from_triangles(
                n, [tuple(place[v] for v in t) + (m,) for t, m in f.members], mode
            )
        got = find_rainbow(f)
        want = brute_rainbow_triples(f)
        assert (got is not None) == bool(want)
        if got is not None:
            assert got.triple == want[0]
            assert verify_certificate(f, got)


class _Lookups(dict):
    """A multiplicity mapping that records the keys looked up."""

    def __init__(self, items):
        super().__init__(items)
        self.keys_read = []

    def get(self, key, default=None):
        self.keys_read.append(key)
        return super().get(key, default)


def _scan_lookups(f):
    """The triple the scan reports, None for a rainbow-free family, and
    the triples whose multiplicity it read, in order."""
    sup, hi, cnt, mult = scan_state(f)
    s = len(sup)
    mult = _Lookups(mult)
    packed = rainbow_triple_scan(hi, cnt, mult, s)

    def unpack(code):
        xy, z = divmod(code, s)
        return (sup[xy // s], sup[xy % s], sup[z])

    found = unpack(packed) if packed >= 0 else None
    return found, [unpack(code) for code in mult.keys_read]


def test_scan_visits_only_union_graph_triangles():
    # t_star's union graph has no triangle but its members, so the scan
    # reads the multiplicity of each of the 200 members once and of no
    # other triple
    rng = random.Random(27)
    perm = rng.sample(range(40), 40)
    f = family_from_triangles(40, [tuple(perm[v] for v in t) for t in t_star(40).support])
    found, read = _scan_lookups(f)
    assert found is None
    assert len(read) == 200
    assert sorted(read) == read == sorted(f.support)
    # a member on a pair vertex and two apexes makes every pair vertex
    # rainbow with the apexes; the reads stop at the first such triple
    g = family_from_triangles(40, [*f.support, (perm[0], perm[20], perm[21])])
    found, read = _scan_lookups(g)
    assert read[-1] == found == find_rainbow(g).triple == brute_rainbow_triples(g)[0]
    assert read == sorted(read)
    members = set(g.support)
    assert all(t in members for t in read[:-1])


def test_find_rainbow_memory_follows_the_support():
    # the scan runs on the 4 support vertices; an owner matrix on all
    # 3,000 vertices would take about 70 MB
    f = family_from_triangles(3000, [(0, 1500, 2999), (0, 1500, 2000), (1500, 2000, 2999)])
    tracemalloc.start()
    try:
        cert = find_rainbow(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert render_certificate(cert) == (
        "rainbow 0 1500 2000\n"
        "edge 0 1500 owner 0 copy 0\n"
        "edge 0 2000 owner 1 copy 0\n"
        "edge 1500 2000 owner 2 copy 0\n"
    )


def test_rainbow_is_monotone_under_member_addition():
    rng = random.Random(4242)
    tried = 0
    while tried < 120:
        f = random_family(rng, 7, 5, MULTISET)
        if not has_rainbow(f):
            continue
        tried += 1
        import itertools

        extras = [
            t
            for t in itertools.combinations(range(7), 3)
            if f.multiplicity(t) == 0
        ]
        t = rng.choice(extras)
        g = family_from_triangles(
            7, [trip + (m,) for trip, m in f.members] + [t + (1,)], MULTISET
        )
        assert has_rainbow(g)


def test_shared_edge_count_examples():
    ts = t_star(8)
    for i in range(len(ts.members)):
        assert shared_edge_count(ts, i) == 1
    f = family_from_triangles(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert shared_edge_count(f, 0) == 2
    lone = family_from_triangles(4, [(0, 1, 2)])
    assert shared_edge_count(lone, 0) == 0
    doubled = family_from_triangles(4, [(0, 1, 2, 2)], MULTISET)
    assert shared_edge_count(doubled, 0) == 0  # own copies do not count
