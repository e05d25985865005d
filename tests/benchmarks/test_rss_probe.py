"""The population-scale RSS probe measures its run, not its launcher,
and leaves the tree it runs from untouched.

``bench_device_churn.population_scale_run`` runs the probe in a child
process and reports its ``peak_rss_mb``; the 10^6-client memory gate
compares that reading against a pinned ceiling.  On Linux a child's
``ru_maxrss`` starts from the launcher's peak, so a launcher that had
once held 200 MB made the child read over 200 MB for a ~14 MB run.  The
same 10^3-client run, launched from a bare interpreter and from one
holding 200 MB, must read the same peak.

The child also inherits ``PYTHONDONTWRITEBYTECODE``: a probe that wrote
``__pycache__/`` into the source tree would make later timings from that
tree (the ledger's ``setup_s``) read low against a clean export.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: a launcher process: optionally hold ``argv[1]`` MB of touched memory,
#: then run the probe the way the bench does
LAUNCHER = """\
import json, sys
import numpy as np
from benchmarks.bench_device_churn import SRC, population_scale_run
held = np.ones(int(sys.argv[1]) * 2**20 // 8)
print(json.dumps(population_scale_run(SRC, 1_000, rounds=2)))
"""


def probe_from_launcher(held_mb: int) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(held_mb)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def test_peak_rss_ignores_the_launchers_peak():
    bare = probe_from_launcher(0)
    loaded = probe_from_launcher(200)
    assert bare < 150  # the 10^3 run itself is tens of MB
    assert abs(loaded - bare) < 5.0, (bare, loaded)


def test_probe_writes_no_bytecode_into_the_tree_it_imports(
    tmp_path, monkeypatch
):
    from benchmarks.bench_device_churn import population_scale_run

    src = tmp_path / "src"
    shutil.copytree(
        REPO_ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    population_scale_run(str(src), 1_000, rounds=2)
    assert not list(src.rglob("__pycache__"))
