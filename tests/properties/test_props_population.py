"""Hypothesis properties of population-backed training runs.

Every example here runs a real (tiny) training loop under a randomly
churned device population and checks scheduler-independent invariants:
the simulated clock never runs backwards, no client is aggregated twice
in one round, participants only ever come from the online pool, and a
quorum collapse degrades into empty rounds instead of crashing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import FedAvgStrategy
from repro.datasets import femnist_like
from repro.engine import SCHEDULERS
from repro.fl import RunConfig, UniformSampler, run_training
from repro.population import (
    DeviceStatePopulation,
    ExternalAvailabilityTrace,
)
from tests.population.storms import storm_population


#: one tiny federation shared by every example (module import, not a
#: fixture: hypothesis re-enters the test body per example, not per
#: fixture resolution)
DATASET = femnist_like(
    num_clients=12,
    num_classes=3,
    image_size=6,
    samples_per_client=10,
    min_samples=2,
    seed=1,
)


def tiny_config(**overrides):
    params = dict(
        dataset=DATASET,
        model_name="mlp",
        model_kwargs={"hidden": (8,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(3),
        rounds=3,
        local_steps=1,
        batch_size=4,
        lr=0.05,
        eval_every=10,
        skip_empty_rounds=True,
    )
    params.update(overrides)
    return RunConfig(**params)


class SpyStrategy(FedAvgStrategy):
    """Records which client ids reach aggregation, per round."""

    def __init__(self):
        super().__init__()
        self.rounds = []

    def begin_round(self, round_idx):
        self.rounds.append([])
        return super().begin_round(round_idx)

    def client_compress(self, client_id, delta, weight):
        self.rounds[-1].append(int(client_id))
        return super().client_compress(client_id, delta, weight)


# ------------------------------------------------------------- clock
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    preset=st.sampled_from(("none", "diurnal", "device-classes", "storm")),
    dropout=st.floats(0.0, 0.8),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_wall_clock_monotone_under_random_churn(
    scheduler, preset, dropout, seed
):
    """Simulated time never runs backwards, whatever the churn or the
    round shape — including quorum backoff charges and empty rounds."""
    result = run_training(
        tiny_config(
            scheduler=scheduler,
            population_preset=preset,
            dropout_prob=dropout,
            always_available=False,
            seed=seed,
        )
    )
    wall = result.series("wall_clock_s")
    assert len(wall) == 3
    assert (np.diff(wall) >= 0).all()
    assert (result.series("round_seconds") >= 0).all()


# ------------------------------------------------- aggregation uniqueness
@given(
    quorum=st.one_of(st.none(), st.floats(0.2, 1.0)),
    dropout=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_no_client_is_aggregated_twice_in_one_round(quorum, dropout, seed):
    """Even when quorum re-draws contact extra waves, a client's update
    is folded into a round's aggregate at most once."""
    spy = SpyStrategy()
    run_training(
        tiny_config(
            strategy=spy,
            population=storm_population(
                DATASET.num_clients, seed, burst_every=2, burst_dropout=dropout
            ),
            quorum_fraction=quorum,
            redraw_max_attempts=2,
            seed=seed,
        )
    )
    for ids in spy.rounds:
        assert len(ids) == len(set(ids)), f"double aggregation: {ids}"


# ------------------------------------------------------ online-pool safety
@given(
    matrix_seed=st.integers(0, 2**31 - 1),
    on_prob=st.floats(0.3, 0.9),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_participants_only_come_from_the_online_pool(
    matrix_seed, on_prob, seed
):
    """Under an arbitrary external availability matrix, every aggregated
    client was online in the round that aggregated it."""
    rng = np.random.default_rng(matrix_seed)
    rounds, n = 4, DATASET.num_clients
    matrix = rng.random((rounds + 1, n)) < on_prob

    class MatrixTrace:
        def online(self, round_idx):
            return matrix[min(round_idx, rounds)]

    pop = DeviceStatePopulation(
        n,
        np.random.default_rng(matrix_seed),
        trace=ExternalAvailabilityTrace(MatrixTrace()),
    )
    spy = SpyStrategy()
    run_training(
        tiny_config(strategy=spy, population=pop, rounds=rounds, seed=seed)
    )
    for t, ids in enumerate(spy.rounds, start=1):
        offline = [c for c in ids if not matrix[min(t, rounds)][c]]
        assert not offline, f"round {t} aggregated offline clients {offline}"


# ---------------------------------------------------------- quorum collapse
@given(
    quorum=st.floats(0.1, 1.0),
    attempts=st.integers(0, 3),
    backoff=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=12, deadline=None)
def test_quorum_collapse_degrades_instead_of_crashing(
    quorum, attempts, backoff, seed
):
    """Total-dropout bursts can never satisfy any quorum: the run must
    finish anyway, reporting bounded re-draws and empty burst rounds."""
    result = run_training(
        tiny_config(
            population=storm_population(
                DATASET.num_clients,
                seed,
                always_available=True,
                burst_every=2,
                burst_dropout=1.0,
                straggler_fraction=0.0,
            ),
            quorum_fraction=quorum,
            redraw_max_attempts=attempts,
            redraw_backoff_s=backoff,
            rounds=4,
            seed=seed,
        )
    )
    assert result.num_rounds == 4
    for r in result.records:
        assert r.quorum_redraws <= attempts
        if r.quorum_failed:
            assert r.num_participants == 0
        if r.injected_failure:
            assert r.quorum_failed
            assert r.num_participants == 0
    assert (np.diff(result.series("wall_clock_s")) >= 0).all()
