"""Self-test of the ledger benchmark (``pytest -m bench benchmarks/ledger``).

Auto-marked ``bench`` by ``benchmarks/conftest.py``: tier-1 only collects
this file, so nothing runs at import time.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    """One ``run.py --quick`` pass over every workload, spans dumped."""
    tmp = tmp_path_factory.mktemp("ledger")
    out, spans = tmp / "ledger.json", tmp / "spans"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "3",
         "--out", str(out), "--trace-out", str(spans)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text()), spans, proc.stdout


def test_benchmark_json_mirrors_the_tables():
    import metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(metrics.PER_LAYER)


def test_quick_run_emits_every_named_metric_with_a_unit(quick_ledger):
    import metrics
    from workloads import WORKLOADS

    ledger, _, stdout = quick_ledger
    assert set(ledger["workloads"]) == set(WORKLOADS)
    for name, summary in ledger["workloads"].items():
        assert summary["failures"] == []
        for metric, unit, _, _ in metrics.END_TO_END:
            assert summary["end_to_end"][metric]["unit"] == unit
            assert summary["end_to_end"][metric]["median"] > 0, (name, metric)
        for metric, unit, _ in metrics.PER_LAYER:
            assert summary["per_layer"][metric]["unit"] == unit
            assert metric in stdout
    assert ledger["host"]["blas_threads"] == 1


def test_tracing_is_inert_and_attributes_the_whole_run(quick_ledger):
    # the ledger run fails its own check if the traced twin's simulated
    # metrics or model digest differ; here the attribution arithmetic
    ledger, spans_dir, _ = quick_ledger
    from metrics import ROOT_SEAM
    from tracer import self_times

    for name in ledger["workloads"]:
        spans = [
            json.loads(line)
            for line in (spans_dir / f"{name}.spans.jsonl").read_text().splitlines()
        ]
        busy, _ = self_times(spans)
        roots = sum(s["end"] - s["start"] for s in spans if s["name"] == ROOT_SEAM)
        assert sum(busy.values()) == pytest.approx(roots, rel=1e-9)
        events = json.loads((spans_dir / f"{name}.chrome.json").read_text())
        assert len(events["traceEvents"]) == len(spans)


def test_self_time_is_span_minus_children():
    from tracer import Tracer, self_times

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")               # 1 tick each
    mid = tracer.wrap(lambda: (leaf(), leaf()), "mid")     # 2 leaves inside
    root = tracer.root(lambda: (mid(), leaf()))
    root()
    spans = tracer.span_dicts()
    busy, calls = self_times(spans)
    assert calls == {"engine.round": 1, "mid": 1, "leaf": 3}
    assert busy["leaf"] == 3.0
    # mid spans ticks 1..6 (5), its two leaves cover 2
    assert busy["mid"] == 3.0
    assert sum(busy.values()) == spans[0]["end"] - spans[0]["start"]
    assert [s["parent"] for s in spans] == [-1, 0, 1, 1, 0]


def test_missing_attach_point_is_an_error_not_a_skipped_metric():
    from tracer import Tracer

    class Bare:
        population = None

    with pytest.raises(AttributeError):
        Tracer().attach(Bare(), absent_layers=("population", "datasets"))


def test_wrappers_are_absent_in_untraced_runs_and_removed_after_traced():
    code = (
        "import sys, argparse, worker\n"
        "worker._import_program()\n"
        "from repro.nn.optim import SGD\n"
        "args = argparse.Namespace(workload='cnn_sync_serial', seed=0,"
        " horizon=2, seconds=0.0, target=0.0, trace=int(sys.argv[1]),"
        " spans_out=None)\n"
        "worker.run(args)\n"
        "assert ('tracer' in sys.modules) == bool(args.trace)\n"
        "assert not hasattr(SGD.step, '__wrapped__')\n"
    )
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(HERE)}
    for trace in ("0", "1"):
        subprocess.run(
            [sys.executable, "-c", code, trace], env=env, check=True, timeout=120
        )


def test_compare_flags_an_injected_slowdown_and_passes_an_identical_pair(
    quick_ledger, tmp_path, capsys
):
    import compare

    ledger, _, _ = quick_ledger
    slow = copy.deepcopy(ledger)
    entry = slow["workloads"]["wide_mlp_sync"]["end_to_end"]["rounds_per_s"]
    assert entry["bound"] < 0.3
    entry["values"] = [v * 0.7 for v in entry["values"]]
    entry["median"] *= 0.7
    base, same, worse = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    base.write_text(json.dumps(ledger))
    same.write_text(json.dumps(ledger))
    worse.write_text(json.dumps(slow))
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(worse)]) == 1
    assert "wide_mlp_sync.rounds_per_s: worse" in capsys.readouterr().out
