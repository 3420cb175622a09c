"""What the package promises outside readers of its kernel module."""

from __future__ import annotations

import subprocess
import sys
from math import comb

from rainbowfree._accel import build_pool


def test_import_does_not_load_numpy():
    code = "import sys, rainbowfree; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_pool_columns_have_a_shape():
    # perfbench/tracing.py reads list_extensions' pool column by its shape
    for n in (3, 4, 9, 20):
        pool, pool_a, pool_b, pool_c = build_pool(n)
        assert len(pool) == comb(n, 3)
        for col in (pool_a, pool_b, pool_c):
            assert col.shape == (comb(n, 3),)
        assert list(zip(pool_a, pool_b, pool_c)) == pool
