"""The repo's benchmark: four workloads, host + simulated end-to-end
metrics, per-layer traced runs.

One run (what ``BENCHMARK.json``'s command is called with)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last stdout line, ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

The whole ledger (no ``--workload``)::

    python3 benchmarks/ledger/run.py [--seed 0] [--out FILE] [--trace-out DIR] [--quick]

runs every workload three times untraced and once traced, prints every
metric by name with its unit, checks that the simulated metrics and the
model digest agree across all of them, and exits non-zero if any check
fails.

This process only supervises: every measurement happens in a fresh
``worker.py`` subprocess with the BLAS thread pools pinned to 1.
``setup_s`` is the median wall time of :data:`SETUP_PROBES` zero-round
runs (process start → imports → dataset → ``FLServer`` → warm-up round →
close → exit), timed from here.  Host times are reported in seconds of a
quiet reference host: each is rescaled by ``metrics.host_speed`` of a
fixed calibration kernel timed alongside it, because this VM's speed
drifts by 20 % over minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from worker import BLAS_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: zero-round runs timed per untraced run; ``setup_s`` is their median
SETUP_PROBES = 5
#: untraced repeats per workload in ledger mode
REPEATS = 3
#: a worker that takes longer than this is killed (the contract's limit
#: on a whole run is 180 s)
WORKER_TIMEOUT_S = 170

E2E_UNITS = {name: unit for name, unit, _, _ in metrics.END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in metrics.PER_LAYER}
HOST_METRICS = ("setup_s", "rounds_per_s", "peak_rss_mb")


def _spawn(workload, seed, horizon, seconds, target, trace=0, spans_out=None):
    """Run ``worker.py`` once; returns ``(result dict, wall seconds)``."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--horizon", str(horizon),
        "--seconds", str(seconds), "--target", str(target),
        "--trace", str(trace),
    ]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = {**os.environ, **dict.fromkeys(BLAS_ENV, "1")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def run_one(name, seed, seconds, trace, quick=False, spans_out=None) -> dict:
    """One benchmark run of workload ``name`` (untraced or traced).

    ``quick`` is the smoke-test size: one eval period of rounds, no
    accuracy target, one set-up probe.
    """
    workload = WORKLOADS[name]
    horizon = workload.eval_every if quick else workload.horizon
    target = 0.0 if quick else workload.target_accuracy
    setups = []
    if trace:
        # the untraced twin over the same rounds: tracing must be inert,
        # and the time difference is the tracing overhead
        ref, _ = _spawn(name, seed, horizon, 0, target)
        out, _ = _spawn(name, seed, horizon, 0, target, 1, spans_out)
        failures = ref["failures"] + out["failures"]
        if (ref["digest"], ref["sim"]) != (out["digest"], out["sim"]):
            failures.append("tracing changed the simulated results")
        values = dict(out["metrics"])
        # both in reference-host seconds, or host drift reads as overhead
        values["trace.overhead_share"] = (
            values["trace.run_s"] * out["host_speed"]
            / (ref["horizon_run_s"] * ref["host_speed"])
            - 1.0
        )
        units = LAYER_UNITS
    else:
        for _ in range(1 if quick else SETUP_PROBES):
            probe, wall = _spawn(name, seed, 0, 0, target)
            # the probe times the calibration kernel once its set-up is
            # over: take that out, and rescale to reference-host seconds
            calib_s = probe["calib_s"]
            setups.append((wall - sum(calib_s)) * metrics.host_speed(calib_s))
        out, _ = _spawn(name, seed, horizon, 0 if quick else seconds, target)
        failures = out["failures"]
        values = {"setup_s": statistics.median(setups), **out["metrics"]}
        units = E2E_UNITS
    if set(values) != set(units):
        failures.append(f"metric names differ: {sorted(set(values) ^ set(units))}")
    return {
        "correct": not failures,
        "attempted": out["attempted"],
        # a failed check voids the run: all its rounds count as failed
        "failed": out["failed_rounds"] if not failures else out["attempted"],
        "metrics": {
            k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()
        },
        "failures": failures,
        "sim": out["sim"],
        "digest": out["digest"],
        "host": out["host"],
        "host_speed": out["host_speed"],
        "setup_samples": setups,
    }


# -- ledger mode ---------------------------------------------------------------
def _summary(name, runs, traced, cpus) -> dict:
    """Medians, per-repeat values and spreads of one workload's runs."""
    failures = [f for r in runs + [traced] for f in r["failures"]]
    reference = (runs[0]["digest"], runs[0]["sim"])
    if any((r["digest"], r["sim"]) != reference for r in runs + [traced]):
        failures.append("simulated metrics or model digest differ across runs")
    end_to_end = {}
    for metric, unit, better, bound in metrics.END_TO_END:
        values = [r["metrics"][metric]["value"] for r in runs]
        median = statistics.median(values)
        end_to_end[metric] = {
            "unit": unit, "better": better, "bound": bound, "values": values,
            "median": median, "spread": (max(values) - min(values)) / median,
        }
        # a pool of 2 workers on fewer than 2 CPUs measures contention,
        # not the process path (ROADMAP 1d): keep the run, not the number
        if name == "cnn_semiasync_process" and cpus < 2 and metric in HOST_METRICS:
            end_to_end[metric]["status"] = "unresolved"
    attempted = sum(r["attempted"] for r in runs)
    return {
        "why": WORKLOADS[name].why,
        "horizon": WORKLOADS[name].horizon,
        "target_accuracy": WORKLOADS[name].target_accuracy,
        "end_to_end": end_to_end,
        "failed_op_share": sum(r["failed"] for r in runs) / attempted,
        "host_speed": [r["host_speed"] for r in runs],
        "per_layer": {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in traced["metrics"].items()
        },
        "digest": runs[0]["digest"],
        "failures": failures,
    }


def _print_workload(name, summary) -> None:
    print(f"\n== {name}  ({summary['why']})")
    for metric, row in summary["end_to_end"].items():
        status = f"  [{row['status']}]" if "status" in row else ""
        print(
            f"  {metric:<26}{row['median']:>16.6g} {row['unit']:<9}"
            f"spread {row['spread']:.3f}  bound {row['bound']}{status}"
        )
    print(f"  {'failed_op_share':<26}{summary['failed_op_share']:>16.6g} fraction")
    layer = summary["per_layer"]
    run_s = layer["trace.run_s"]["value"]
    for metric, row in layer.items():
        share = (
            f"  {row['value'] / run_s:6.1%} of traced run"
            if metric.endswith(".busy_s") or metric == "engine.round_self_s"
            else ""
        )
        print(f"  {metric:<42}{row['value']:>16.6g} {row['unit']:<9}{share}")
    for failure in summary["failures"]:
        print(f"  CHECK FAILED: {failure}")
    sys.stdout.flush()


def ledger(seed, seconds, quick, out_path, trace_out) -> int:
    result = {"seed": seed, "run_seconds": seconds, "quick": quick, "workloads": {}}
    for name in WORKLOADS:
        runs = [
            run_one(name, seed, seconds, 0, quick)
            for _ in range(1 if quick else REPEATS)
        ]
        traced = run_one(name, seed, seconds, 1, quick, trace_out)
        result["host"] = traced["host"]
        summary = _summary(name, runs, traced, traced["host"]["cpus"])
        result["workloads"][name] = summary
        _print_workload(name, summary)
    layers = {n: w["per_layer"] for n, w in result["workloads"].items()}
    serial, pool = layers["cnn_sync_serial"], layers["cnn_semiasync_process"]
    efficiency = serial["runtime.task_ms"]["value"] / (
        pool["runtime.task_ms"]["value"] * pool["runtime.workers"]["value"]
    )
    result["runtime.parallel_efficiency"] = {
        "value": efficiency, "unit": "fraction",
        "base": "runtime.task_ms[cnn_sync_serial] / "
                "(runtime.task_ms[cnn_semiasync_process] * runtime.workers)",
        "status": "ok" if result["host"]["cpus"] >= 2 else "unresolved",
    }
    print(f"\nruntime.parallel_efficiency  {efficiency:.4f} fraction")
    if out_path:
        Path(out_path).write_text(json.dumps(result, indent=1) + "\n")
    failed = [n for n, w in result["workloads"].items() if w["failures"]]
    if failed:
        print(f"\nFAILED: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size: one eval period per workload")
    parser.add_argument("--out", help="ledger mode: write the results here")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="write traced runs' spans (JSONL + Chrome trace)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
    if args.workload is None:
        return ledger(args.seed, seconds, args.quick, args.out, args.trace_out)
    result = run_one(
        args.workload, args.seed, seconds, args.trace, args.quick, args.trace_out
    )
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"host_speed {result['host_speed']:.3f} of the reference host", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
