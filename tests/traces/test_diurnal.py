import numpy as np
import pytest

from repro.traces import DiurnalAvailabilityTrace


def make(rng, **kw):
    defaults = dict(rounds_per_day=24, window_hours=8.0, jitter_prob=0.0, dropout_prob=0.0)
    defaults.update(kw)
    return DiurnalAvailabilityTrace(300, rng, **defaults)


def test_mean_availability_matches_window(rng):
    trace = make(rng)
    fracs = trace.online_fraction_over_day()
    assert np.mean(fracs) == pytest.approx(8 / 24, abs=0.05)


def test_availability_rotates_with_time(rng):
    """Different times of day see different client cohorts."""
    trace = make(rng)
    morning = set(np.flatnonzero(trace.online(0)).tolist())
    evening = set(np.flatnonzero(trace.online(12)).tolist())
    overlap = len(morning & evening) / max(len(morning | evening), 1)
    assert overlap < 0.5


def test_daily_periodicity(rng):
    trace = make(rng)
    np.testing.assert_array_equal(trace.online(3), trace.online(3 + 24))


def test_jitter_perturbs_mask(rng):
    base = make(rng, jitter_prob=0.0)
    jittery = make(np.random.default_rng(1234), jitter_prob=0.3)
    # same windows different object; check jitter flips some entries per round
    mask_a = jittery.online(5)
    mask_b = jittery.online(6)
    assert mask_a.shape == (300,)
    assert 0 < mask_a.sum() < 300
    assert base.online(5).sum() != -1  # smoke


def test_survives_round(rng):
    trace = make(rng, dropout_prob=0.25)
    draws = np.concatenate(
        [trace.survives_round(np.arange(300)) for _ in range(50)]
    )
    assert 0.7 < draws.mean() < 0.8


def test_validation(rng):
    with pytest.raises(ValueError):
        make(rng, rounds_per_day=0)
    with pytest.raises(ValueError):
        make(rng, window_hours=0.0)
    with pytest.raises(ValueError):
        make(rng, dropout_prob=1.0)


def test_plugs_into_server(tiny_dataset, rng):
    from repro.compression import FedAvgStrategy
    from repro.fl import RunConfig, UniformSampler, run_training

    trace = DiurnalAvailabilityTrace(
        tiny_dataset.num_clients,
        rng,
        rounds_per_day=6,
        window_hours=16.0,
        dropout_prob=0.0,
    )
    cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(4),
        rounds=8,
        local_steps=2,
        availability_trace=trace,
        seed=0,
    )
    result = run_training(cfg)
    assert result.num_rounds == 8
