"""Both kernel lanes (compiled and pure Python) compute identical results."""

from __future__ import annotations

import os
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

sys.stdout.write("\n".join(out) + "\n")
"""


def _run_driver(tmp_path, force_python):
    script = tmp_path / "driver.py"
    script.write_text(DRIVER)
    env = dict(os.environ)
    if force_python:
        env["RAINBOWFREE_NO_NUMBA"] = "1"
    else:
        env.pop("RAINBOWFREE_NO_NUMBA", None)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def lane_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lanes")
    return _run_driver(tmp, False), _run_driver(tmp, True)


def test_python_lane_reports_itself(lane_outputs):
    _, python_out = lane_outputs
    assert python_out.splitlines()[0] == "lane python"


def test_env_flag_selects_lane(lane_outputs):
    compiled_out, _ = lane_outputs
    lane = compiled_out.splitlines()[0]
    try:
        import numba  # noqa: F401

        assert lane == "lane numba"
    except ImportError:
        assert lane == "lane python"


def test_lanes_agree_everywhere(lane_outputs):
    compiled_out, python_out = lane_outputs
    a = compiled_out.splitlines()[1:]
    b = python_out.splitlines()[1:]
    assert a == b
    assert len(a) > 10  # the driver exercised every module


def test_python_lane_matches_golden(lane_outputs):
    # recorded from the pure-Python lane; regenerate only when an output
    # change is intended, by running DRIVER with RAINBOWFREE_NO_NUMBA=1
    _, python_out = lane_outputs
    assert python_out == GOLDEN.read_text()


def test_flag_parsing_accepts_variants(tmp_path):
    script = tmp_path / "flag.py"
    script.write_text(
        "from rainbowfree._accel import USING_NUMBA\nprint(USING_NUMBA)\n"
    )
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    for value, allows in (("1", False), ("true", False), ("", True), ("0", True)):
        env = dict(os.environ)
        env["RAINBOWFREE_NO_NUMBA"] = value
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(allows and have_numba)
