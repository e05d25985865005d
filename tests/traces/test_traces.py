import numpy as np
import pytest

from repro.traces import AvailabilityTrace, ComputeTrace, always_available


def test_availability_fraction_near_mean(rng):
    trace = AvailabilityTrace(500, rng, mean_on_fraction=0.7, dropout_prob=0.0)
    fracs = [trace.online(t).mean() for t in range(0, 400, 7)]
    assert 0.55 < np.mean(fracs) < 0.85


def test_availability_is_temporally_correlated(rng):
    """Duty cycles: consecutive rounds mostly agree (not i.i.d. coin flips)."""
    trace = AvailabilityTrace(400, rng, mean_on_fraction=0.6, dropout_prob=0.0)
    agree = [
        (trace.online(t) == trace.online(t + 1)).mean() for t in range(100)
    ]
    assert np.mean(agree) > 0.9


def test_online_clients_ids(rng):
    trace = AvailabilityTrace(50, rng)
    ids = trace.online_clients(3)
    mask = trace.online(3)
    np.testing.assert_array_equal(ids, np.flatnonzero(mask))


def test_survives_round_rate(rng):
    trace = AvailabilityTrace(10, rng, dropout_prob=0.3)
    draws = np.concatenate(
        [trace.survives_round(np.arange(10)) for _ in range(500)]
    )
    assert 0.65 < draws.mean() < 0.75


def test_always_available():
    trace = always_available(20)
    for t in (0, 5, 99):
        assert trace.online(t).all()
    assert trace.survives_round(np.arange(20)).all()


def test_availability_validation(rng):
    with pytest.raises(ValueError):
        AvailabilityTrace(10, rng, mean_on_fraction=0.0)
    with pytest.raises(ValueError):
        AvailabilityTrace(10, rng, dropout_prob=1.0)


def test_compute_trace_heterogeneity(rng):
    trace = ComputeTrace(1000, rng, base_step_seconds=0.1, sigma=0.6)
    times = trace.round_seconds_many(np.arange(1000), local_steps=10)
    assert times.max() / times.min() > 3.0  # heavy tail exists
    assert np.median(times) == pytest.approx(10 * 0.1, rel=0.3)


@pytest.mark.parametrize("sigma", (0.0, 0.5, 1.3))
def test_compute_trace_speed_equals_the_whole_array_expression(sigma):
    """The speed factors are drawn in place; the expression they were
    written out as before is the reference."""
    trace = ComputeTrace(20_000, np.random.default_rng(3), sigma=sigma)
    want = np.exp(sigma * np.random.default_rng(3).standard_normal(20_000))
    np.testing.assert_array_equal(trace.speed_factor, want)


def test_compute_trace_scalar_vector_agree(rng):
    trace = ComputeTrace(10, rng)
    vec = trace.round_seconds_many(np.arange(10), 5, model_scale=2.0)
    for i in range(10):
        assert vec[i] == pytest.approx(trace.round_seconds(i, 5, model_scale=2.0))


def test_model_scale_linear():
    assert ComputeTrace.model_scale(40_000) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ComputeTrace.model_scale(0)


def test_compute_trace_validation(rng):
    with pytest.raises(ValueError):
        ComputeTrace(5, rng, base_step_seconds=0.0)
