"""What a ledger workload imports — and what it must not.

``np.unique`` and ``np.setdiff1d`` import ``numpy.ma`` on first use
(≈ 1.2 MB of RSS and 8–15 ms on numpy 2.4); the program dedupes and
subtracts index sets with ``repro.utils.arrays`` instead.  And the process
backend shares memory through anonymous mappings made before it forks, so
no run imports ``multiprocessing.shared_memory`` or starts
``multiprocessing.resource_tracker`` — a second interpreter that a named
segment would start, and that outlives the run's own output.  Each
workload of ``benchmarks/ledger/workloads.py`` is built as the ledger
builds it and run for three rounds in a fresh interpreter, which reports
which of those modules it ended with.
"""

from __future__ import annotations

import json
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

#: modules no workload may end with
WATCHED = (
    "numpy.ma",
    "multiprocessing.shared_memory",
    "multiprocessing.resource_tracker",
)

CODE = """
import json, sys
sys.path.insert(0, sys.argv[2])
from workloads import WORKLOADS, derive_seeds
from repro.fl.server import FLServer
server = FLServer(WORKLOADS[sys.argv[1]].build(derive_seeds(0)))
try:
    for _ in range(3):
        server.run_round()
finally:
    server.close()
print(json.dumps(sorted(set(json.loads(sys.argv[3])) & set(sys.modules))))
"""


@pytest.fixture(scope="module", params=WORKLOADS)
def imported(request):
    """``(the WATCHED modules a workload's run imported, its stderr)``."""
    out = subprocess.run(
        [sys.executable, "-c", CODE, request.param, str(LEDGER), json.dumps(WATCHED)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return set(json.loads(out.stdout)), out.stderr


def test_ledger_workload_never_imports_numpy_ma(imported):
    modules, stderr = imported
    assert "numpy.ma" not in modules, stderr


def test_ledger_workload_names_no_shared_memory(imported):
    modules, stderr = imported
    assert not modules & {
        "multiprocessing.shared_memory",
        "multiprocessing.resource_tracker",
    }, stderr
