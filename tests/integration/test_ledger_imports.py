"""No ledger workload imports ``numpy.ma``.

``np.unique`` and ``np.setdiff1d`` import it on first use (≈ 1.2 MB of
RSS and 8–15 ms on numpy 2.4); the program dedupes and subtracts index sets
with ``repro.utils.arrays`` instead.  Each workload of
``benchmarks/ledger/workloads.py`` is built as the ledger builds it and
run for three rounds in a fresh interpreter, which must end without
``numpy.ma`` in ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
LEDGER = REPO_ROOT / "benchmarks" / "ledger"

WORKLOADS = (
    "cnn_sync_serial",
    "wide_mlp_sync",
    "fleet_async_1m",
    "cnn_semiasync_process",
)

CODE = """
import sys
sys.path.insert(0, sys.argv[2])
from workloads import WORKLOADS, derive_seeds
from repro.fl.server import FLServer
server = FLServer(WORKLOADS[sys.argv[1]].build(derive_seeds(0)))
try:
    for _ in range(3):
        server.run_round()
finally:
    server.close()
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_workload_never_imports_numpy_ma(workload):
    out = subprocess.run(
        [sys.executable, "-c", CODE, workload, str(LEDGER)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.split() == ["False"], out.stderr
