"""Empirical Theorem 1 through the *full server path*.

The aggregation-weight unit tests verify Eq. 3 in isolation; these tests
verify that the whole pipeline — sampler draw, over-commit selection,
weight assignment, strategy aggregation, model update — produces an
update whose expectation over sampling equals the full-participation
FedAvg update ``Σ p_i Δ_i``, with deterministic per-client deltas standing
in for local training.
"""

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.core import make_sticky_fedavg
from repro.fl import RunConfig, UniformSampler
from repro.fl.client import LocalResult
from repro.fl.server import FLServer


def fixed_delta(client_id: int, d: int) -> np.ndarray:
    """A deterministic, client-specific delta (no actual SGD)."""
    return np.random.default_rng(1000 + client_id).normal(size=d)


def one_round_delta(dataset, sampler_factory, seed: int) -> np.ndarray:
    """Run exactly one server round with stubbed local training."""
    strategy, sampler = sampler_factory()
    cfg = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (4,)},
        strategy=strategy,
        sampler=sampler,
        rounds=1,
        local_steps=1,
        always_available=True,
        overcommit=1.0,
        eval_every=10**9,
        seed=seed,
    )
    server = FLServer(cfg)
    d = server.d

    def stub_run(
        global_params, global_buffers, shard, lr, rng, local_steps=None
    ):
        return LocalResult(
            delta=fixed_delta(shard.client_id, d),
            buffer_delta=np.zeros(0),
            num_samples=len(shard),
            mean_loss=1.0,
        )

    server.trainer.run = stub_run
    before = server.global_params.copy()
    server.run_round()
    return server.global_params - before


@pytest.fixture(scope="module")
def unbias_dataset():
    from repro.datasets import femnist_like

    # alpha=0.3 gives genuinely non-uniform shard sizes, hence p_i
    return femnist_like(
        num_clients=24,
        num_classes=4,
        image_size=4,
        samples_per_client=20,
        alpha=0.3,
        min_samples=3,
        seed=5,
    )


def reference_update(dataset, d) -> np.ndarray:
    p = dataset.weights()
    ref = np.zeros(d)
    for i in range(dataset.num_clients):
        ref += p[i] * fixed_delta(i, d)
    return ref


def _mean_round_delta(dataset, factory, trials=300):
    deltas = [one_round_delta(dataset, factory, seed) for seed in range(trials)]
    return np.mean(deltas, axis=0), np.std(deltas, axis=0) / np.sqrt(trials)


def test_uniform_sampling_is_unbiased(unbias_dataset):
    mean, stderr = _mean_round_delta(
        unbias_dataset, lambda: (FedAvgStrategy(), UniformSampler(6)), trials=250
    )
    ref = reference_update(unbias_dataset, len(mean))
    # within 4 standard errors coordinate-wise
    assert np.all(np.abs(mean - ref) < 4 * stderr + 1e-9)


def test_sticky_sampling_is_unbiased(unbias_dataset):
    """Theorem 1: inverse-propensity weights make sticky sampling unbiased.

    Each trial re-initializes the sticky group uniformly at random, which
    is the distribution Theorem 1's expectation is taken over.
    """
    mean, stderr = _mean_round_delta(
        unbias_dataset,
        lambda: make_sticky_fedavg(6, group_size=12, sticky_count=4),
        trials=300,
    )
    ref = reference_update(unbias_dataset, len(mean))
    assert np.all(np.abs(mean - ref) < 4.5 * stderr + 1e-9)


def test_equal_weights_are_biased_with_nonuniform_p(unbias_dataset):
    """The Fig. 5 contrast: 1/K weights target the unweighted client mean,
    not the p-weighted objective, whenever shard sizes differ."""

    def factory():
        return FedAvgStrategy(), UniformSampler(6)

    # Build the equal-weight round manually via weight_mode="equal".
    def one_round_equal(seed):
        strategy, sampler = factory()
        cfg = RunConfig(
            dataset=unbias_dataset,
            model_name="mlp",
            model_kwargs={"hidden": (4,)},
            strategy=strategy,
            sampler=sampler,
            rounds=1,
            local_steps=1,
            always_available=True,
            overcommit=1.0,
            weight_mode="equal",
            eval_every=10**9,
            seed=seed,
        )
        server = FLServer(cfg)
        d = server.d

        def stub_run(
            global_params, global_buffers, shard, lr, rng, local_steps=None
        ):
            return LocalResult(
                delta=fixed_delta(shard.client_id, d),
                buffer_delta=np.zeros(0),
                num_samples=len(shard),
                mean_loss=1.0,
            )

        server.trainer.run = stub_run
        before = server.global_params.copy()
        server.run_round()
        return server.global_params - before

    deltas = [one_round_equal(seed) for seed in range(250)]
    mean = np.mean(deltas, axis=0)
    d = len(mean)
    ref_weighted = reference_update(unbias_dataset, d)
    ref_unweighted = np.mean(
        [fixed_delta(i, d) for i in range(unbias_dataset.num_clients)], axis=0
    )
    err_weighted = np.linalg.norm(mean - ref_weighted)
    err_unweighted = np.linalg.norm(mean - ref_unweighted)
    # the equal-weight estimator tracks the unweighted mean, not the objective
    assert err_unweighted < err_weighted

def test_ocs_sampling_is_unbiased(unbias_dataset):
    """Horvitz–Thompson weights make norm-aware sampling unbiased end to end.

    Each trial runs one full server round with an OptimalClientSampler
    whose estimator is pre-fed the *true* norms of the stubbed per-client
    deltas, so inclusion probabilities are genuinely non-uniform (the
    interesting case) while the HT correction must still recover the
    full-participation update in expectation.
    """
    from repro.compression import FedAvgStrategy
    from repro.fl.extra_samplers import OptimalClientSampler

    dataset = unbias_dataset
    n = dataset.num_clients

    def one_round(seed):
        cfg = RunConfig(
            dataset=dataset,
            model_name="mlp",
            model_kwargs={"hidden": (4,)},
            strategy=FedAvgStrategy(),
            sampler=OptimalClientSampler(6),
            rounds=1,
            local_steps=1,
            always_available=True,
            overcommit=1.0,
            eval_every=10**9,
            seed=seed,
        )
        server = FLServer(cfg)
        d = server.d
        for cid in range(n):
            server.sampler.observe_update(
                cid, float(np.linalg.norm(fixed_delta(cid, d)))
            )

        def stub_run(
            global_params, global_buffers, shard, lr, rng, local_steps=None
        ):
            return LocalResult(
                delta=fixed_delta(shard.client_id, d),
                buffer_delta=np.zeros(0),
                num_samples=len(shard),
                mean_loss=1.0,
            )

        server.trainer.run = stub_run
        before = server.global_params.copy()
        server.run_round()
        return server.global_params - before

    trials = 300
    deltas = [one_round(seed) for seed in range(trials)]
    mean = np.mean(deltas, axis=0)
    stderr = np.std(deltas, axis=0) / np.sqrt(trials)
    ref = reference_update(dataset, len(mean))
    assert np.all(np.abs(mean - ref) < 4.5 * stderr + 1e-9)
