"""What the package promises outside readers: a package root that loads
modules on first use, and the kernel module's pool columns."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from math import comb
from pathlib import Path

import rainbowfree
from rainbowfree._accel import build_pool


def test_import_does_not_load_numpy():
    code = "import sys, rainbowfree; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# the package root's public names, by owning module, as the eager root had them
ROOT_NAMES = {
    "canon": "are_isomorphic canonical_form canonical_relabeling is_canonical",
    "certifier": "CertifierError CertifierReport MISLimitError RainbowFamilyError"
    " bipartition certify max_independent_set render_report",
    "constructions": "DOUBLED_9_SUPPORT double doubled_nine doubled_nine_support"
    " is_tstar_family pair_family t_star",
    "family": "MULTISET SET Edge MemberRef Triangle TriangleFamily TrifamError UnionGraph"
    " family_from_triangles parse_family serialize_family triangle triangle_edges"
    " union_graph",
    "rainbow": "RainbowCertificate edge_owners find_rainbow has_rainbow"
    " render_certificate shared_edge_count verify_certificate",
    "rs": "MultisetDecomposition bound_report check_t2_constraints decompose"
    " unique_triangle_property",
    "search": "SearchConfig SearchError SearchResult enumerate_extremal extend_ok"
    " load_checkpoint max_family prove_size resume_search run_search",
}

LAZY_ROOT = """
import importlib, json, sys
owners = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in sys.modules if m.startswith("rainbowfree."))
import rainbowfree as rf
out = {"after_import": loaded(), "all": sorted(rf.__all__)}
out["dir_misses"] = sorted(set(rf.__all__) - set(dir(rf)))
out["after_dir"] = loaded()
rf.canonical_form
out["after_one_name"] = loaded()
out["not_same"] = [
    name
    for mod, names in owners.items()
    for name in names.split()
    if getattr(rf, name) is not getattr(importlib.import_module("rainbowfree." + mod), name)
]
out["submodules"] = [
    rf.family.MAX_MEMBERS, rf.certifier.MIS_VERTEX_LIMIT, callable(rf.cli.main)
]
try:
    rf.no_such_name
    out["unknown"] = "resolved"
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def test_package_root_loads_modules_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_ROOT, json.dumps(ROOT_NAMES)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_import"] == [] and out["after_dir"] == []
    assert out["all"] == sorted(" ".join(ROOT_NAMES.values()).split())
    assert len(out["all"]) == 55 and out["dir_misses"] == []
    # a name loads its module and what that module imports, nothing more
    assert out["after_one_name"] == [
        "rainbowfree._accel", "rainbowfree.canon", "rainbowfree.family"
    ]
    assert out["not_same"] == []
    assert out["submodules"] == [1_000_000, 64, True]
    assert out["unknown"] == "module 'rainbowfree' has no attribute 'no_such_name'"


def test_cli_import_loads_every_module():
    # the benchmark's tracer patches only modules already in sys.modules
    code = "import sys, rainbowfree.cli; print(sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    src = Path(rainbowfree.__file__).parent
    want = {f"rainbowfree.{p.stem}" for p in src.glob("*.py") if p.stem != "__init__"}
    assert want <= set(ast.literal_eval(proc.stdout))


def test_pool_columns_have_a_shape():
    # perfbench/tracing.py reads list_extensions' pool column by its shape
    for n in (3, 4, 9, 20):
        pool, pool_a, pool_b, pool_c = build_pool(n)
        assert len(pool) == comb(n, 3)
        for col in (pool_a, pool_b, pool_c):
            assert col.shape == (comb(n, 3),)
        assert list(zip(pool_a, pool_b, pool_c)) == pool
