"""The ledger's four workloads, built through the public API only.

Names are fixed (later issues cite them).  Each workload stresses a
different layer of ``repro``; the *why* strings are the one-line reasons
recorded in ``BENCHMARK.json``, the README carries the measured shares.

``--seed`` is the only source of randomness: :func:`derive_seeds` fans it
out into the dataset seed, ``RunConfig.seed`` and the population RNG
seeds, so the program receives only generated inputs.

Importing this module imports neither numpy nor ``repro`` — the
supervisor reads the static fields; only the run process calls ``build``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

__all__ = ["WORKLOADS", "Workload", "derive_seeds"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: rounds (async: buffer flushes) every simulated metric is taken over;
    #: sized to ~80 % of the 20 s timed window on the 2-core reference host
    horizon: int
    #: smoothed test accuracy the run must reach inside the horizon
    target_accuracy: float
    #: mirrors the config's ``eval_every``; ``--quick`` runs one eval period
    eval_every: int
    #: layers (``repro.<module>``) with no live object in this workload —
    #: their probes are skipped and their per-layer metrics read 0
    absent_layers: Tuple[str, ...]
    #: ``build(seeds) -> RunConfig``
    build: Callable[[Dict[str, int]], object]


def derive_seeds(seed: int) -> Dict[str, int]:
    """Fan ``--seed`` out into the independent input seeds."""
    import numpy as np

    names = ("dataset", "run", "population", "trace")
    state = np.random.SeedSequence([int(seed), 0x1ED6E4]).generate_state(
        len(names)
    )
    return {name: int(word) for name, word in zip(names, state)}


def _cnn_config(seeds, **overrides):
    from repro.core import make_gluefl
    from repro.datasets import femnist_like
    from repro.fl import RunConfig

    dataset = femnist_like(
        num_clients=100, num_classes=10, image_size=16,
        samples_per_client=32, seed=seeds["dataset"],
    )
    strategy, sampler = make_gluefl(10, q=0.20, q_shr=0.16, regen_interval=10)
    return RunConfig(
        dataset=dataset, model_name="cnn", strategy=strategy, sampler=sampler,
        rounds=10**9, local_steps=5, dtype="float32", eval_every=5,
        seed=seeds["run"], **overrides,
    )


def _cnn_semiasync_process(seeds):
    return _cnn_config(
        seeds, scheduler="semiasync", execution_backend="process",
        backend_workers=2,
    )


def _wide_mlp_sync(seeds):
    from repro.core import make_gluefl
    from repro.datasets import femnist_like
    from repro.fl import RunConfig

    dataset = femnist_like(
        num_clients=200, num_classes=62, image_size=28,
        samples_per_client=16, noise=2.0, seed=seeds["dataset"],
    )
    strategy, sampler = make_gluefl(20, q=0.20, q_shr=0.16, regen_interval=10)
    return RunConfig(
        dataset=dataset, model_name="mlp",
        model_kwargs={"hidden": (512, 128)}, strategy=strategy,
        sampler=sampler, rounds=10**9, local_steps=1, batch_size=8,
        eval_every=10, dtype="float32", seed=seeds["run"],
    )


def _fleet_async_1m(seeds):
    import numpy as np

    from repro.compression import FedAvgStrategy
    from repro.datasets import lazy_synthetic_federation
    from repro.fl import RunConfig, UniformSampler
    from repro.population import DeviceStatePopulation, DutyCycleTrace

    n = 1_000_000
    dataset = lazy_synthetic_federation(
        num_clients=n, num_classes=4, image_size=6, samples_per_client=8,
        cache_size=64, seed=seeds["dataset"],
    )
    population = DeviceStatePopulation(
        n, np.random.default_rng(seeds["population"]),
        trace=DutyCycleTrace(
            n, np.random.default_rng(seeds["trace"]), mean_on_fraction=0.8,
            min_period=100, max_period=400,
        ),
        dropout_prob=0.05,
    )
    return RunConfig(
        dataset=dataset, model_name="mlp", model_kwargs={"hidden": (8,)},
        strategy=FedAvgStrategy(), sampler=UniformSampler(10), rounds=10**9,
        local_steps=1, batch_size=4, lr=0.05, eval_every=50,
        dtype="float32", scheduler="async", async_buffer_size=10,
        async_concurrency=40, population=population,
        population_scalable_sampling=True, residual_max_clients=256,
        skip_empty_rounds=True, seed=seeds["run"],
    )


_EAGER_NO_FLEET = ("population", "datasets")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cnn_sync_serial",
            "paper round shape on the default path: client compute (nn, "
            "trainer, serial backend) is ~90% of the round, server kernels <1%",
            horizon=120, target_accuracy=0.70, eval_every=5,
            absent_layers=_EAGER_NO_FLEET, build=_cnn_config,
        ),
        Workload(
            "wide_mlp_sync",
            "d=475k with one local step: server kernels (top-k compress, "
            "mask shift, aggregate) are the round and the bytes are largest",
            horizon=100, target_accuracy=0.40, eval_every=10,
            absent_layers=_EAGER_NO_FLEET, build=_wide_mlp_sync,
        ),
        Workload(
            "fleet_async_1m",
            "10^6-client async fleet with a tiny model: population events, "
            "sampler, staleness, clock and scheduler are the round",
            horizon=1500, target_accuracy=0.50, eval_every=50,
            absent_layers=(), build=_fleet_async_1m,
        ),
        Workload(
            "cnn_semiasync_process",
            "cnn_sync_serial's data and model across a 2-worker process "
            "pool under semi-async tiers: the shared-memory path and "
            "straggler fold-in",
            horizon=150, target_accuracy=0.70, eval_every=5,
            absent_layers=_EAGER_NO_FLEET, build=_cnn_semiasync_process,
        ),
    )
}
