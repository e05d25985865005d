"""Quickstart: train a federated model with GlueFL and compare to FedAvg.

Run:
    python examples/quickstart.py

Builds a small synthetic non-IID federation (the FEMNIST stand-in), trains
it twice — once with plain FedAvg, once with GlueFL (sticky sampling +
mask shifting) — and prints accuracy plus the bandwidth/time ledger for
both.  Takes ~15 seconds on a laptop CPU.

Runtime knobs (``repro.runtime``)
---------------------------------
Two :class:`~repro.fl.RunConfig` fields control *how fast* the simulation
itself executes, without changing what it simulates:

* ``execution_backend="serial" | "process"`` — how the round's
  participants are trained.  Results are bit-identical across backends for
  a given seed (per-client RNG streams are order-independent).  Which one
  when: ``"process"`` for training-bound rounds (a small CNN runs at about
  1.8× serial on 2 CPUs), ``"serial"`` when each client's compress rivals
  its training (a wide MLP runs at about 0.6× serial on ``"process"``) and
  for debugging.  Each forked worker costs its own replica and step
  buffers, about 7 MB of private memory for the small CNN.
* ``dtype="float64" | "float32"`` — the precision of the whole run.
  float32 roughly halves the simulator's memory traffic (~1.4× faster
  here; more on conv-heavy models) and changes headline metrics only in
  the noise: upstream volume is byte-for-byte identical (wire sizes
  depend on mask schedules, not parameter values) and downstream/accuracy
  differ only where float32 top-k picks different coordinates.

The bandwidth-planning loop below uses them to sweep what matters cheaply:
when sizing a deployment ("how much downstream volume until 60% accuracy
at K=10 vs K=20?"), run the sweep with ``dtype="float32"`` and
``execution_backend="process"``, then re-run only the chosen operating
point in float64 if you need the extra digits.  See
``examples/bandwidth_planning.py`` for the full planning workflow.
"""

from repro.compression import FedAvgStrategy
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import RunConfig, UniformSampler, run_training

ROUNDS = 60
K = 10  # clients aggregated per round


def main() -> None:
    dataset = femnist_like(
        num_clients=150,
        num_classes=16,
        samples_per_client=36,
        noise=3.0,
        seed=0,
    )
    print(
        f"federation: {dataset.num_clients} clients, "
        f"{dataset.total_samples()} samples, "
        f"non-IID degree {dataset.noniid_degree():.2f}"
    )

    # --- baseline: FedAvg with uniform sampling -------------------------------
    fedavg_config = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (48,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(K),
        rounds=ROUNDS,
        local_steps=3,
        lr=0.01,
        seed=7,
    )
    fedavg = run_training(fedavg_config)

    # --- GlueFL: sticky sampling + mask shifting + REC -------------------------
    strategy, sampler = make_gluefl(K, q=0.20, q_shr=0.16, regen_interval=10)
    gluefl_config = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (48,)},
        strategy=strategy,
        sampler=sampler,
        rounds=ROUNDS,
        local_steps=3,
        lr=0.01,
        seed=7,
    )
    gluefl = run_training(gluefl_config)

    print(f"\n{'':14} {'accuracy':>9} {'down MB':>9} {'up MB':>8} {'time s':>8}")
    for name, result in (("FedAvg", fedavg), ("GlueFL", gluefl)):
        report = result.report()
        print(
            f"{name:<14} {result.final_accuracy():>9.3f} "
            f"{report.dv_gb * 1e3:>9.1f} "
            f"{(report.tv_gb - report.dv_gb) * 1e3:>8.1f} "
            f"{report.tt_hours * 3600:>8.1f}"
        )

    saved = 1 - gluefl.report().dv_gb / fedavg.report().dv_gb
    print(f"\nGlueFL downstream saving vs FedAvg: {saved:.0%}")

    # --- same experiment, fast runtime policy ---------------------------------
    # float32 + process pool: identical bandwidth ledger, faster wall-clock.
    import time

    strategy, sampler = make_gluefl(K, q=0.20, q_shr=0.16, regen_interval=10)
    fast_config = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (48,)},
        strategy=strategy,
        sampler=sampler,
        rounds=ROUNDS,
        local_steps=3,
        lr=0.01,
        seed=7,
        execution_backend="process",
        dtype="float32",
    )
    t0 = time.perf_counter()
    fast = run_training(fast_config)
    elapsed = time.perf_counter() - t0
    same_upstream = [r.up_bytes for r in fast.records] == [
        r.up_bytes for r in gluefl.records
    ]
    print(
        f"process/float32 rerun: {elapsed:.1f}s wall-clock, "
        f"accuracy {fast.final_accuracy():.3f}, "
        f"upstream ledger identical: {same_upstream}"
    )

    # --- beyond Algorithm 1: pluggable round schedulers -----------------------
    # The round is written once (repro.engine.steps) under swappable
    # scheduler policies.  "async" runs FedBuff-style buffered asynchrony: clients
    # train on their own clocks from the global state at dispatch time, and
    # the server aggregates every `async_buffer_size` arrivals with
    # staleness-discounted weights — one RoundRecord per buffer flush.
    async_config = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (48,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(K),
        rounds=ROUNDS,
        local_steps=3,
        lr=0.01,
        seed=7,
        scheduler="async",
        async_buffer_size=5,
        async_concurrency=2 * K,
        async_staleness_alpha=0.5,
    )
    async_result = run_training(async_config)
    stale = [r.mean_update_staleness for r in async_result.records]
    print(
        f"\nasync/buffered (M=5, {2 * K} in flight): "
        f"accuracy {async_result.final_accuracy():.3f}, "
        f"mean update staleness {sum(stale) / len(stale):.2f} versions, "
        f"wall-clock simulated {async_result.cumulative_seconds()[-1]:.0f}s "
        f"(sync: {gluefl.cumulative_seconds()[-1]:.0f}s)"
    )

    # "failure" replays the sync pipeline under injected dropout bursts and
    # straggler storms; skip_empty_rounds keeps the run alive when a burst
    # wipes out every participant.
    failure_config = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (48,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(K),
        rounds=ROUNDS,
        local_steps=3,
        lr=0.01,
        seed=7,
        scheduler="failure",
        failure_burst_every=10,
        failure_burst_dropout=0.9,
        skip_empty_rounds=True,
    )
    failure_result = run_training(failure_config)
    bursts = [r for r in failure_result.records if r.injected_failure]
    print(
        f"failure injection (burst every 10th round): "
        f"accuracy {failure_result.final_accuracy():.3f}, "
        f"{len(bursts)} burst rounds, "
        f"{sum(1 for r in bursts if r.num_participants == 0)} fully wiped out"
    )

    # --- the simulated clock: tiered and overlapped rounds --------------------
    # Every scheduler runs on a shared SimClock and stamps cumulative
    # simulated time into RoundRecord.wall_clock_s.  "semiasync" keeps the
    # sync fast tier but salvages over-committed stragglers into later
    # rounds (staleness-discounted); "overlapped" keeps sync's learning
    # dynamics bit-identical and only pipelines round t+1's downloads
    # behind round t's uploads, shrinking the simulated wall clock.
    def timed(scheduler):
        config = RunConfig(
            dataset=dataset,
            model_name="mlp",
            model_kwargs={"hidden": (48,)},
            strategy=FedAvgStrategy(),
            sampler=UniformSampler(K),
            rounds=ROUNDS,
            local_steps=3,
            lr=0.01,
            seed=7,
            scheduler=scheduler,
        )
        return run_training(config)

    for scheduler in ("sync", "semiasync", "overlapped"):
        result = timed(scheduler)
        print(
            f"{scheduler:10s}: accuracy {result.final_accuracy():.3f}, "
            f"simulated wall-clock {result.wall_clock_series()[-1]:7.1f}s, "
            f"mean participants/round "
            f"{result.series('num_participants').mean():.1f}"
        )


if __name__ == "__main__":
    main()
