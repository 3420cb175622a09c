"""The kernels' outputs across every module, pinned byte for byte.

A driver script runs searches, canonical labeling, rainbow tests and
certifier reports in a fresh interpreter, and its output must equal the
golden file.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "kernels_golden.txt"

DRIVER = r"""
import itertools
import random
import sys

from rainbowfree._accel import USING_NUMBA
from rainbowfree.canon import canonical_form, canonical_relabeling, is_canonical
from rainbowfree.certifier import certify, render_report
from rainbowfree.constructions import doubled_nine, pair_family, t_star
from rainbowfree.family import (
    MULTISET,
    SET,
    TriangleFamily,
    family_from_triangles,
    serialize_family,
)
from rainbowfree.rainbow import find_rainbow, render_certificate, shared_edge_count
from rainbowfree.search import enumerate_extremal, extend_ok, max_family, prove_size

out = ["lane " + ("numba" if USING_NUMBA else "python")]

out.append(f"tstar8-clean {find_rainbow(t_star(8)) is None}")
bad = family_from_triangles(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
out.append("bad-cert " + render_certificate(find_rainbow(bad)).replace("\n", "|"))

r = max_family(6)
out.append(f"max6 {r.best_size} nodes {r.nodes_explored}")
for w in r.witnesses:
    out.append("wit " + serialize_family(w).replace("\n", "|"))
out.append(f"enum7 {enumerate_extremal(7).extremal_class_count}")
p = prove_size(9, 12, mode=MULTISET)
out.append("prove912 " + serialize_family(p.witnesses[0]).replace("\n", "|"))

out.append("cf-t8 " + canonical_form(t_star(8)).hex())
out.append("cf-d9 " + canonical_form(doubled_nine()).hex())

f = t_star(8)
out.append(
    "shared " + ",".join(str(shared_edge_count(f, i)) for i in range(len(f.members)))
)
out.append(
    "cert-t8 " + render_report(certify(t_star(8)), porcelain=True).replace("\n", "|")
)

g = family_from_triangles(5, [(0, 1, 2), (0, 3, 4)])
out.append(f"extend {extend_ok(g, (1, 3, 4))} {extend_ok(g, (0, 1, 3))}")

# labeling DFS: forms, relabeling maps and canonicity verdicts, pinned
# byte for byte by the golden file
rng = random.Random(20221)
for i in range(50):
    n = rng.randint(5, 8)
    tris = rng.sample(list(itertools.combinations(range(n), 3)), rng.randint(1, 7))
    mode = MULTISET if i % 2 else SET
    members = tuple(sorted((t, rng.randint(1, 2) if mode == MULTISET else 1) for t in tris))
    rf = TriangleFamily(n, members, mode)
    mapping, image = canonical_relabeling(rf)
    out.append(
        f"rand{i} {canonical_form(rf).hex()} map "
        + ",".join(str(mapping[v]) for v in range(n))
        + f" canon {is_canonical(rf)} {is_canonical(image)}"
    )
pf = pair_family(10, 3, 4)
out.append(f"cf-p10-3-4 {canonical_form(pf).hex()} canon {is_canonical(pf)}")
r8 = max_family(8)
out.append(f"max8 {r8.best_size} nodes {r8.nodes_explored}")
for w in r8.witnesses:
    out.append("wit8 " + serialize_family(w).replace("\n", "|"))

# automorphism-rich inputs, where the labeling DFS meets many tied leaves
rng = random.Random(20222)
for name, fam, reps in (
    ("p10-2-6", pair_family(10, 2, 6), 3),
    ("p10-3-4", pair_family(10, 3, 4), 3),
    ("t8", t_star(8), 3),
    ("d9", doubled_nine(), 3),
    ("t12", t_star(12), 1),
    ("t12x", t_star(12), 3),
    ("t16", t_star(16), 1),
):
    for j in range(reps):
        perm = list(range(fam.n))
        rng.shuffle(perm)
        members = tuple(
            sorted((tuple(sorted(perm[v] for v in t)), m) for t, m in fam.members)
        )
        rf = TriangleFamily(fam.n, members, fam.mode)
        mapping, image = canonical_relabeling(rf)
        out.append(
            f"sym-{name}-{j} {canonical_form(rf).hex()} map "
            + ",".join(str(mapping[v]) for v in range(fam.n))
            + f" canon {is_canonical(rf)} {is_canonical(image)}"
        )

# low-symmetry inputs, where the labeling DFS lowers its best sequence
# many times: greedy random rainbow-free families with 5..10 members
rng = random.Random(20224)
for i in range(40):
    n = rng.randint(9, 11)
    want = rng.randint(5, 10)
    tris = list(itertools.combinations(range(n), 3))
    rng.shuffle(tris)
    members = []
    for t in tris:
        if len(members) == want:
            break
        if find_rainbow(family_from_triangles(n, members + [t])) is None:
            members.append(t)
    rf = family_from_triangles(n, members)
    mapping, image = canonical_relabeling(rf)
    out.append(
        f"low{i} {canonical_form(rf).hex()} map "
        + ",".join(str(mapping[v]) for v in range(n))
        + f" canon {is_canonical(rf)} {is_canonical(image)}"
    )

# certifier reports, plain and porcelain, pinned byte for byte
hub = family_from_triangles(
    15, [(0, 1, 2)] + [(v, 3 + 2 * k, 4 + 2 * k) for k, v in enumerate((0, 0, 1, 1, 2, 2))]
)
reports = [
    ("t16", t_star(16)),
    ("p7-2-3", pair_family(7, 2, 3)),
    ("p20-3-8", pair_family(20, 3, 8)),
    ("d9", doubled_nine()),
    ("hub", hub),
]
# greedy random rainbow-free families: members taken in shuffled order
# while the family stays rainbow-free
rng = random.Random(20223)
for i in range(20):
    n = rng.randint(4, 10)
    mode = MULTISET if i % 2 else SET
    tris = list(itertools.combinations(range(n), 3))
    rng.shuffle(tris)
    members = []
    for t in tris[: rng.randint(1, len(tris))]:
        item = t + (rng.randint(1, 2) if mode == MULTISET else 1,)
        if find_rainbow(family_from_triangles(n, members + [item], mode)) is None:
            members.append(item)
    reports.append((f"rand{i}", family_from_triangles(n, members, mode)))
for name, fam in reports:
    r = certify(fam)
    for kind, porcelain in (("plain", False), ("porc", True)):
        out.append(
            f"certify-{name}-{kind} "
            + render_report(r, porcelain=porcelain).replace("\n", "|")
        )

sys.stdout.write("\n".join(out) + "\n")
"""


def _run_driver(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(DRIVER)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def python_out(tmp_path_factory):
    return _run_driver(tmp_path_factory.mktemp("driver"))


def test_python_lane_reports_itself(python_out):
    assert python_out.splitlines()[0] == "lane python"


def test_python_lane_matches_golden(python_out):
    # regenerate only when an output change is intended, by running DRIVER
    assert python_out == GOLDEN.read_text()
