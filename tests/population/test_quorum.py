"""Quorum-degradation behavior: bounded re-draws, clock charges, fallback."""

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, UniformSampler, run_training
from repro.population import ChurnStormTrace, DeviceStatePopulation


@pytest.fixture(scope="module")
def dataset():
    return femnist_like(
        num_clients=40,
        num_classes=4,
        image_size=8,
        samples_per_client=24,
        min_samples=5,
        seed=7,
    )


def make_config(dataset, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(5),
        rounds=6,
        local_steps=2,
        batch_size=8,
        lr=0.05,
        eval_every=4,
        seed=3,
    )
    params.update(overrides)
    return RunConfig(**params)


def storm_config(dataset, **overrides):
    """Total-dropout bursts every 3rd round, quorum checking on."""
    params = dict(
        scheduler="failure",
        failure_burst_every=3,
        failure_burst_dropout=1.0,
        failure_straggler_fraction=0.0,
        skip_empty_rounds=True,
        always_available=True,
        dropout_prob=0.0,
        quorum_fraction=0.6,
        redraw_max_attempts=2,
    )
    params.update(overrides)
    return make_config(dataset, **params)


def test_quorum_met_rounds_do_not_redraw(dataset):
    result = run_training(storm_config(dataset))
    calm = [r for r in result.records if not r.injected_failure]
    assert calm
    assert all(r.quorum_redraws == 0 for r in calm)
    assert all(not r.quorum_failed for r in calm)
    assert all(r.num_participants == 5 for r in calm)


def test_quorum_exhausts_redraws_then_degrades(dataset):
    """On total-dropout bursts every re-draw fails too: the round reports
    the attempt count, the degradation flag, and zero participants."""
    result = run_training(storm_config(dataset))
    burst = [r for r in result.records if r.injected_failure]
    assert burst
    assert all(r.quorum_redraws == 2 for r in burst)
    assert all(r.quorum_failed for r in burst)
    assert all(r.num_participants == 0 for r in burst)
    # fresh waves were contacted and paid for
    assert all(r.num_candidates > 7 for r in burst)  # first draw was 7


def test_redraw_waves_are_charged_to_the_clock(dataset):
    """Burst rounds include the failed waves' time plus backoff, so they
    run longer than the same rounds without quorum checking."""
    with_q = run_training(storm_config(dataset, redraw_backoff_s=100.0))
    without_q = run_training(
        storm_config(dataset, quorum_fraction=None, redraw_backoff_s=0.0)
    )
    for rq, r0 in zip(with_q.records, without_q.records):
        if rq.injected_failure:
            # ≥ 2 failed waves × 100 s backoff on top of wave times
            assert rq.round_seconds >= r0.round_seconds + 200.0
    # wall clock stays monotone through the charges
    assert (np.diff(with_q.series("wall_clock_s")) >= 0).all()


def test_quorum_failure_raises_without_skip_empty_rounds(dataset):
    cfg = storm_config(dataset, skip_empty_rounds=False)
    with pytest.raises(RuntimeError, match="below quorum"):
        run_training(cfg)


def test_redraw_recovers_quorum_when_fresh_candidates_survive(dataset):
    """A storm that only wipes the *first* wave: re-drawn candidates
    survive, so the round recovers quorum instead of degrading."""

    class FirstWaveKiller(ChurnStormTrace):
        """Connectivity starts at 0 on burst rounds; restored after the
        first survives_round consumes it (via a stateful population hook
        below)."""

    pop = DeviceStatePopulation(dataset.num_clients, np.random.default_rng(5))
    orig_survives = pop.survives_round
    state = {"calls": 0}

    def survives_once_then_ok(ids):
        state["calls"] += 1
        if state["calls"] <= 2:  # sticky + nonsticky mask of wave 1
            return np.zeros(len(ids), dtype=bool)
        return orig_survives(ids)

    pop.survives_round = survives_once_then_ok
    cfg = make_config(
        dataset,
        population=pop,
        quorum_fraction=0.6,
        redraw_max_attempts=3,
        rounds=1,
        skip_empty_rounds=True,
    )
    result = run_training(cfg)
    (record,) = result.records
    assert record.quorum_redraws >= 1
    assert not record.quorum_failed
    assert record.num_participants >= 3  # ceil(0.6 * 5)
    assert record.num_candidates > 7


def test_redraw_never_recontacts_a_tried_candidate(dataset):
    """Re-draw waves exclude every already-contacted candidate."""
    pop = DeviceStatePopulation(dataset.num_clients, np.random.default_rng(5))
    pop.writable("connectivity")[:] = 0.0  # nobody ever survives
    contacted = []

    server = FLServer(
        make_config(
            dataset,
            population=pop,
            quorum_fraction=1.0,
            redraw_max_attempts=4,
            skip_empty_rounds=True,
            rounds=1,
        )
    )
    orig_draw = server.sampler.draw

    def spy_draw(t, available, overcommit):
        draw = orig_draw(t, available, overcommit)
        contacted.append(np.asarray(draw.candidates))
        return draw

    server.sampler.draw = spy_draw
    record = server.run_round()
    server.close()
    assert record.quorum_failed
    all_ids = np.concatenate(contacted)
    assert len(all_ids) == len(np.unique(all_ids)), "a candidate was re-drawn"
    assert record.num_candidates == len(all_ids)
