"""Behavioural tests for FedAvg / STC / APF strategies."""

import numpy as np
import pytest

from repro.compression import (
    APFStrategy,
    ErrorCompMode,
    FedAvgStrategy,
    GlueFLMaskStrategy,
    QuantizedStrategy,
    STCStrategy,
)
from repro.network.encoding import dense_bytes, sparse_bytes, values_bytes
from repro.privacy import PrivateStrategy
from tests.compression.rounds import aggregate_payloads


def setup_strategy(strategy, d=100, seed=0):
    strategy.setup(d, np.random.default_rng(seed))
    return strategy


# ------------------------------------------------------------------ FedAvg
def test_fedavg_roundtrip(rng):
    s = setup_strategy(FedAvgStrategy())
    delta = rng.normal(size=100)
    payload = s.client_compress(0, delta, 1.0)
    assert payload.upstream_bytes == dense_bytes(100)
    agg = aggregate_payloads(s, [(0, 0.5, payload)])
    np.testing.assert_allclose(agg.global_delta, 0.5 * delta)
    np.testing.assert_array_equal(agg.changed_idx, np.arange(100))


def test_fedavg_weighted_sum(rng):
    s = setup_strategy(FedAvgStrategy())
    d1, d2 = rng.normal(size=100), rng.normal(size=100)
    agg = aggregate_payloads(
        s,
        [
            (0, 0.3, s.client_compress(0, d1, 0.3)),
            (1, 0.7, s.client_compress(1, d2, 0.7)),
        ]
    )
    np.testing.assert_allclose(agg.global_delta, 0.3 * d1 + 0.7 * d2)


def test_strategy_requires_setup(rng):
    with pytest.raises(RuntimeError):
        FedAvgStrategy().client_compress(0, rng.normal(size=10), 1.0)


def test_strategy_rejects_bad_delta(rng):
    s = setup_strategy(FedAvgStrategy())
    with pytest.raises(ValueError):
        s.client_compress(0, rng.normal(size=7), 1.0)


# ------------------------------------------------------------------ STC
def test_stc_upload_is_sparse(rng):
    s = setup_strategy(STCStrategy(q=0.1))
    payload = s.client_compress(0, rng.normal(size=100), 1.0)
    assert len(payload.data["idx"]) == 10
    assert payload.upstream_bytes == sparse_bytes(10, 100)
    assert payload.upstream_bytes < dense_bytes(100)


def test_stc_server_topq_bounds_changed_coordinates(rng):
    s = setup_strategy(STCStrategy(q=0.2))
    payloads = [
        (i, 0.25, s.client_compress(i, rng.normal(size=100), 0.25))
        for i in range(4)
    ]
    agg = aggregate_payloads(s, payloads)
    assert len(agg.changed_idx) == 20
    assert np.count_nonzero(agg.global_delta) <= 20
    # outside the mask nothing changes
    untouched = np.setdiff1d(np.arange(100), agg.changed_idx)
    np.testing.assert_array_equal(agg.global_delta[untouched], 0.0)


def test_stc_error_feedback_accumulates(rng):
    """Dropped mass must reappear in the next participation."""
    s = setup_strategy(STCStrategy(q=0.1))
    delta1 = np.zeros(100)
    delta1[50] = 0.5  # not large enough to win top-10 vs others
    delta1[:10] = 10.0
    s.client_compress(0, delta1, 1.0)
    h, _ = s.residuals.peek(0)
    assert h[50] == pytest.approx(0.5, rel=1e-6)
    # second round: the residual is added back
    delta2 = np.zeros(100)
    payload2 = s.client_compress(0, delta2, 1.0)
    sent = np.zeros(100)
    sent[payload2.data["idx"]] = payload2.data["vals"]
    assert sent[50] == pytest.approx(0.5, rel=1e-6)


def test_stc_conservation_delta_equals_sent_plus_residual(rng):
    s = setup_strategy(STCStrategy(q=0.3))
    delta = rng.normal(size=100)
    payload = s.client_compress(7, delta, 1.0)
    sent = np.zeros(100)
    sent[payload.data["idx"]] = payload.data["vals"]
    h, _ = s.residuals.peek(7)
    np.testing.assert_allclose(sent + h, delta, atol=1e-6)


@pytest.mark.parametrize(
    "make", [lambda: STCStrategy(q=0.3), lambda: GlueFLMaskStrategy(q=0.3, q_shr=0.2)]
)
def test_setup_starts_a_fresh_residual_store(make, rng):
    """A strategy bound a second time must not compensate with the previous
    run's residuals — nor die on them when ``d`` changed."""
    s = setup_strategy(make(), d=100)
    s.residuals.bound(5)
    s.begin_round(1)
    s.client_compress(0, rng.normal(size=100), 1.0)
    assert len(s.residuals) == 1
    setup_strategy(s, d=60)
    assert len(s.residuals) == 0
    delta = rng.normal(size=60)
    fresh = setup_strategy(make(), d=60)
    for strategy in (s, fresh):
        strategy.begin_round(1)
    again, first = (x.client_compress(0, delta, 1.0) for x in (s, fresh))
    np.testing.assert_array_equal(again.data["idx"], first.data["idx"])
    np.testing.assert_array_equal(again.data["vals"], first.data["vals"])
    # the LRU bound is configuration, not run state: it survives
    s.client_compress(1, delta, 1.0)
    for cid in range(2, 8):
        s.client_compress(cid, delta, 1.0)
    assert len(s.residuals) == 5
    s.close()
    assert len(s.residuals) == 0


def test_close_reaches_the_store_through_wrappers(rng):
    inner = GlueFLMaskStrategy(q=0.3, q_shr=0.2)
    stack = QuantizedStrategy(PrivateStrategy(inner, noise_multiplier=0.0), bits=8)
    setup_strategy(stack)
    stack.begin_round(1)
    stack.client_compress(0, rng.normal(size=100), 1.0)
    assert len(inner.residuals) == 1
    stack.close()
    assert len(inner.residuals) == 0
    FedAvgStrategy().close()  # strategies without a store ignore it


def test_stc_validation():
    with pytest.raises(ValueError):
        STCStrategy(q=0.0)
    with pytest.raises(ValueError):
        STCStrategy(q=1.5)
    s = STCStrategy(q=0.001)
    with pytest.raises(ValueError):
        s.setup(10, np.random.default_rng(0))  # keeps zero coords


def test_stc_nominal_upstream_matches_actual(rng):
    s = setup_strategy(STCStrategy(q=0.25))
    payload = s.client_compress(0, rng.normal(size=100), 1.0)
    assert payload.upstream_bytes == s.nominal_upstream_bytes()


# ------------------------------------------------------------------ APF
def make_apf(d=200, **kw):
    defaults = dict(
        threshold=0.2, check_every=2, base_period=3, max_period=12, warmup_rounds=2
    )
    defaults.update(kw)
    return setup_strategy(APFStrategy(**defaults), d=d)


def test_apf_starts_fully_active():
    s = make_apf()
    assert s.active_mask().all()


def test_apf_freezes_oscillating_coordinates(rng):
    """Coordinates whose updates cancel out get frozen; drifting ones stay."""
    s = make_apf(d=100)
    sign = 1.0
    for t in range(1, 12):
        s.begin_round(t)
        # flip the oscillation sign only on rounds where the coords train,
        # so thaw windows always observe cancelling updates
        if s.active_mask()[50]:
            sign = -sign
        delta = np.zeros(100)
        delta[:50] = 0.1  # steady drift: effective perturbation 1 -> stays
        delta[50:] = 0.1 * sign  # oscillation -> freezes
        payload = s.client_compress(0, delta, 1.0)
        agg = aggregate_payloads(s, [(0, 1.0, payload)])
        s.end_round(agg, t)
    active = s.active_mask()
    assert active[:50].all()  # drifting coords keep training
    assert not active[50:].any()  # oscillating coords are frozen


def test_apf_frozen_coordinates_not_transmitted(rng):
    s = make_apf(d=100)
    s._frozen_until[:30] = 10**9  # force-freeze for the test
    s.begin_round(5)
    payload = s.client_compress(0, rng.normal(size=100), 1.0)
    assert len(payload.data["idx"]) == 70
    assert payload.upstream_bytes == values_bytes(70)
    agg = aggregate_payloads(s, [(0, 1.0, payload)])
    np.testing.assert_array_equal(agg.global_delta[:30], 0.0)
    assert len(agg.changed_idx) == 70


def test_apf_thaws_after_period(rng):
    s = make_apf(d=20)
    # freeze everything manually with a short period
    s._freeze_len[:] = 3
    s._frozen_until[:] = 8
    s.begin_round(7)
    assert not s.active_mask().any()
    s.begin_round(8)
    assert s.active_mask().all()


def test_apf_freeze_period_doubles(rng):
    """TCP-style backoff: stable coords freeze for 2x longer each time."""
    s = make_apf(d=10, check_every=1, base_period=2, max_period=16, warmup_rounds=0)
    lengths = []
    t = 0
    for _ in range(4):
        # run rounds until the coords thaw, feeding oscillating updates
        while True:
            t += 1
            s.begin_round(t)
            if s.active_mask().any():
                break
        delta = np.full(10, 0.1 * (-1) ** t)
        payload = s.client_compress(0, delta, 1.0)
        agg = aggregate_payloads(s, [(0, 1.0, payload)])
        s.end_round(agg, t)
        if not s.active_mask().any() if t >= 2 else False:
            pass
        lengths.append(int(s._freeze_len[0]))
    nonzero = [x for x in lengths if x > 0]
    assert nonzero == sorted(nonzero)
    assert max(nonzero) <= 16


def test_apf_downstream_extra_is_bitmap():
    s = make_apf(d=800)
    assert s.downstream_extra_bytes() == 100


def test_apf_validation():
    with pytest.raises(ValueError):
        APFStrategy(threshold=0.0)
    with pytest.raises(ValueError):
        APFStrategy(check_every=0)
    with pytest.raises(ValueError):
        APFStrategy(base_period=10, max_period=5)


# ------------------------------------------- AggregateResult invariant
def _private(inner):
    return PrivateStrategy(
        inner, clip_norm=1.0, noise_multiplier=0.5, values_only=True,
    )


def _gluefl():
    return GlueFLMaskStrategy(q=0.2, q_shr=0.1, regen_interval=3)


@pytest.mark.filterwarnings("ignore:.*transmits client-chosen indices:UserWarning")
@pytest.mark.parametrize(
    "build",
    [
        FedAvgStrategy,
        lambda: STCStrategy(q=0.2),
        lambda: _private(STCStrategy(q=0.2)),
        _gluefl,
        lambda: APFStrategy(warmup_rounds=2, check_every=1, base_period=2),
        lambda: QuantizedStrategy(_gluefl(), bits=4),
        lambda: QuantizedStrategy(STCStrategy(q=0.2), bits=4),
        lambda: _private(_gluefl()),
        lambda: _private(FedAvgStrategy()),
    ],
)
def test_global_delta_is_zero_outside_changed_idx(rng, build):
    """What the support-sized mask shift and staleness ledger rely on:
    every coordinate a strategy moves is listed — once, in order."""
    d = 120
    s = setup_strategy(build(), d=d)
    for t in range(1, 7):
        s.begin_round(t)
        payloads = [
            (i, 0.5, s.client_compress(i, rng.normal(size=d), 0.5))
            for i in range(2)
        ]
        agg = aggregate_payloads(s, payloads)
        s.end_round(agg, t)
        assert agg.changed_idx.dtype == np.int64
        assert (np.diff(agg.changed_idx) > 0).all()  # sorted, no duplicates
        outside = np.ones(d, dtype=bool)
        outside[agg.changed_idx] = False
        np.testing.assert_array_equal(agg.global_delta[outside], 0.0)
