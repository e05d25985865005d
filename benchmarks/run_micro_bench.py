"""Dump the micro/e2e performance numbers to ``BENCH_micro.json``.

Run from the repo root:

    PYTHONPATH=src python benchmarks/run_micro_bench.py [--out BENCH_micro.json]
        [--seed-src PATH] [--rounds 20] [--repeats 3]

Times the same hot paths as ``bench_micro_ops.py`` (plain
``time.perf_counter`` medians, no pytest needed) plus the end-to-end
quickstart-scale run (K=10, CNN) on every backend/dtype combination, and
writes one JSON blob so the performance trajectory is tracked across PRs.

``--seed-src`` points at an older checkout's ``src/`` directory (e.g. a
``git worktree`` of the seed commit); the same e2e workload is then timed
in a subprocess against that version and recorded as the baseline.
``speedup_vs_seed`` is the seed time over the *best* e2e combo
(``speedup_combo`` names it) — the ratio the regression gate holds.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.compression.base import ClientPayload
from repro.compression.topk import top_k_indices
from repro.nn import Conv2d, Sequential

D = 5_000_000

E2E_SNIPPET = """\
import json, sys, time
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import RunConfig, run_training

rounds = int(sys.argv[1])
extra = json.loads(sys.argv[2])
dataset = femnist_like(num_clients=100, num_classes=10, image_size=16,
                       samples_per_client=32, seed=0)
strategy, sampler = make_gluefl(10, q=0.20, q_shr=0.16, regen_interval=10)
config = RunConfig(dataset=dataset, model_name="cnn", strategy=strategy,
                   sampler=sampler, rounds=rounds, local_steps=5, seed=7,
                   **extra)
t0 = time.perf_counter()
result = run_training(config)
print(json.dumps({"seconds": time.perf_counter() - t0,
                  "final_accuracy": result.final_accuracy()}))
"""


#: population-size scaling probe: one event-driven, scalable-sampling
#: run per federation size.  Round 1 (sticky init + lazy materialization
#: warm-up) is charged to setup; the steady-state per-round figure is
#: what must stay flat in N.
POPULATION_SCALE_SNIPPET = """\
import json, resource, sys, time
import numpy as np
from repro.compression import FedAvgStrategy
from repro.datasets import lazy_synthetic_federation
from repro.fl import RunConfig, UniformSampler
from repro.fl.server import FLServer
from repro.population import DeviceStatePopulation, DutyCycleTrace

n, rounds = int(sys.argv[1]), int(sys.argv[2])
dataset = lazy_synthetic_federation(
    num_clients=n, num_classes=4, image_size=6, samples_per_client=8,
    cache_size=64, seed=5)
pop = DeviceStatePopulation(
    n, np.random.default_rng(0),
    trace=DutyCycleTrace(n, np.random.default_rng(1), mean_on_fraction=0.8,
                         min_period=100, max_period=400))
config = RunConfig(
    dataset=dataset, model_name="mlp", model_kwargs={"hidden": (8,)},
    strategy=FedAvgStrategy(), sampler=UniformSampler(10), rounds=rounds,
    local_steps=1, batch_size=4, lr=0.05, eval_every=10**9, population=pop,
    population_scalable_sampling=True, residual_max_clients=256,
    skip_empty_rounds=True, seed=2)
t0 = time.perf_counter()
server = FLServer(config)
server.run_round()
setup_s = time.perf_counter() - t0
t1 = time.perf_counter()
for _ in range(rounds - 1):
    server.run_round()
per_round = (time.perf_counter() - t1) / (rounds - 1)
server.close()
print(json.dumps({
    "seconds_per_round": per_round,
    "setup_seconds": setup_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""

#: federation sizes the scaling probe reports (10^3 .. 10^6)
POPULATION_SCALE_SIZES = (1_000, 10_000, 100_000, 1_000_000)


def population_scale_run(
    python_path: str, num_clients: int, rounds: int = 20
) -> dict:
    """Per-round seconds + peak RSS of one scalable run, in a fresh
    subprocess (so ``ru_maxrss`` measures this run alone)."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            POPULATION_SCALE_SNIPPET,
            str(num_clients),
            str(rounds),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": python_path, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    fn()  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def micro_ops(repeats: int) -> dict:
    out = {}
    rng = np.random.default_rng(0)
    vec = rng.normal(size=D)
    out["topk_5m_s"] = timed(lambda: top_k_indices(vec, D // 10), repeats)

    payloads = []
    keep = D // 10
    for i in range(30):
        idx = np.sort(rng.choice(D, size=keep, replace=False))
        payloads.append(
            (i, 1 / 30, ClientPayload(0, {"idx": idx, "vals": rng.normal(size=keep)}))
        )

    def fold_round():
        # a round's Eq. 6 sum as a strategy builds it: one fold per payload
        acc = np.zeros(D, dtype=np.float64)
        for _, weight, payload in payloads:
            np.add.at(acc, payload.data["idx"], weight * payload.data["vals"])
        return acc

    out["aggregate_scatter_k30_5m_s"] = timed(fold_round, repeats)

    for dtype, label in ((np.float64, "f64"), (np.float32, "f32")):
        model = Sequential(
            Conv2d(8, 16, 3, padding=1, rng=np.random.default_rng(3), dtype=dtype),
            Conv2d(16, 16, 3, padding=1, groups=16,
                   rng=np.random.default_rng(4), dtype=dtype),
        )
        x = np.random.default_rng(5).normal(size=(16, 8, 14, 14)).astype(dtype)

        def step():
            o = model(x)
            model.backward(np.ones_like(o) / o.size)

        out[f"conv_step_{label}_s"] = timed(step, max(repeats, 10))
    return out


def e2e(python_path: str, rounds: int, extra: dict) -> dict:
    """Run the quickstart-scale workload in a subprocess and parse its JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", E2E_SNIPPET, str(rounds), json.dumps(extra)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": python_path, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_micro.json")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--seed-src",
        default=None,
        help="src/ dir of an older checkout to time as the e2e baseline",
    )
    parser.add_argument(
        "--sanitize-overhead",
        action="store_true",
        help="time the e2e workload on the process backend (the one path "
        "the runtime sanitizer guards) with it off vs on and print the "
        "ratio (documented in docs/analysis.md, not gated; writes nothing)",
    )
    args = parser.parse_args()

    # the published numbers must never be taxed by the debug sanitizer:
    # RunConfig.sanitize defaults off, and the e2e subprocesses run with a
    # scrubbed environment (no REPRO_SANITIZE passthrough, see e2e())
    from repro.fl import RunConfig

    assert (
        RunConfig.__dataclass_fields__["sanitize"].default is False
    ), "RunConfig.sanitize must default off — the bench numbers assume it"
    if args.seed_src and not (Path(args.seed_src) / "repro").is_dir():
        parser.error(
            f"--seed-src {args.seed_src!r} does not contain a repro/ package"
        )

    here = str(Path(__file__).resolve().parent.parent / "src")

    if args.sanitize_overhead:
        reps = max(1, args.repeats - 1)
        ring = {"dtype": "float32", "execution_backend": "process"}
        timings = {}
        for label, extra in (
            ("sanitize_off", ring),
            ("sanitize_on", {**ring, "sanitize": True}),
        ):
            samples = [e2e(here, args.rounds, extra) for _ in range(reps)]
            timings[label] = statistics.median(s["seconds"] for s in samples)
        timings["overhead_ratio"] = round(
            timings["sanitize_on"] / timings["sanitize_off"], 2
        )
        print(json.dumps(timings, indent=2))
        return

    report = {
        "workload": {
            "e2e": "GlueFL K=10, CNN, femnist_like(100 clients), "
            f"{args.rounds} rounds, local_steps=5",
            "d_micro": D,
        },
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": __import__("os").cpu_count(),
        },
        "micro": micro_ops(args.repeats),
        "e2e": {},
        # event-driven population scaling: per-round seconds must stay
        # flat (and RSS bounded) as the federation grows 10^3 -> 10^6
        "population_scale": {
            f"n{n}": population_scale_run(here, n)
            for n in POPULATION_SCALE_SIZES
        },
    }

    combos = [
        ("serial_float64", {"execution_backend": "serial", "dtype": "float64"}),
        ("serial_float32", {"execution_backend": "serial", "dtype": "float32"}),
        ("process_float32", {"execution_backend": "process", "dtype": "float32"}),
        # async/buffered scheduler (one round == one 5-arrival flush)
        (
            "async_serial_float32",
            {
                "execution_backend": "serial",
                "dtype": "float32",
                "scheduler": "async",
                "async_buffer_size": 5,
            },
        ),
        # tiered semi-async scheduler (sync fast tier + straggler fold-in)
        (
            "semiasync_serial_float32",
            {
                "execution_backend": "serial",
                "dtype": "float32",
                "scheduler": "semiasync",
            },
        ),
        # churn-storm device population (vectorized state columns + the
        # trace-driven failure scheduler, quorum re-draws on bursts)
        (
            "churn_storm_serial_float32",
            {
                "execution_backend": "serial",
                "dtype": "float32",
                "scheduler": "failure",
                "failure_burst_every": 5,
                "failure_burst_dropout": 0.8,
                "skip_empty_rounds": True,
                "quorum_fraction": 0.5,
                "redraw_max_attempts": 2,
            },
        ),
    ]
    for label, extra in combos:
        samples = [
            e2e(here, args.rounds, extra) for _ in range(max(1, args.repeats - 1))
        ]
        report["e2e"][label] = {
            "seconds": statistics.median(s["seconds"] for s in samples),
            "final_accuracy": samples[0]["final_accuracy"],
        }

    if args.seed_src:
        samples = [
            e2e(args.seed_src, args.rounds, {})
            for _ in range(max(1, args.repeats - 1))
        ]
        report["e2e"]["seed_serial_float64"] = {
            "seconds": statistics.median(s["seconds"] for s in samples),
            "final_accuracy": samples[0]["final_accuracy"],
            "src": args.seed_src,
        }
        # the headline ratio: seed time over the best candidate combo
        best_label = min(
            (label for label, _ in combos),
            key=lambda lb: report["e2e"][lb]["seconds"],
        )
        report["speedup_combo"] = best_label
        report["speedup_vs_seed"] = round(
            report["e2e"]["seed_serial_float64"]["seconds"]
            / report["e2e"][best_label]["seconds"],
            2,
        )

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
