"""Tests of GlueFL mask shifting (Algorithm 3)."""

import numpy as np
import pytest

from repro.compression import ErrorCompMode, GlueFLMaskStrategy
from repro.network.encoding import bitmap_bytes, sparse_bytes, values_bytes
from tests.compression.rounds import aggregate_payloads


def make(d=200, q=0.2, q_shr=0.1, regen=None, ec=ErrorCompMode.NONE, seed=0):
    s = GlueFLMaskStrategy(q=q, q_shr=q_shr, regen_interval=regen, error_comp=ec)
    s.setup(d, np.random.default_rng(seed))
    return s


def run_round(s, t, deltas, weights=None):
    """Drive one full strategy round with the given client deltas."""
    weights = weights or [1.0 / len(deltas)] * len(deltas)
    s.begin_round(t)
    payloads = [
        (i, w, s.client_compress(i, delta, w))
        for i, (delta, w) in enumerate(zip(deltas, weights))
    ]
    agg = aggregate_payloads(s, payloads)
    s.end_round(agg, t)
    return agg, payloads


def test_first_round_acts_as_regeneration(rng):
    s = make()
    s.begin_round(1)
    assert s.is_regen_round
    assert len(s._effective_mask()) == 0
    # clients send a full top-q
    payload = s.client_compress(0, rng.normal(size=200), 1.0)
    assert len(payload.data["idx"]) == 40  # q·d


def test_mask_built_after_first_round(rng):
    s = make()
    agg, _ = run_round(s, 1, [rng.normal(size=200)])
    assert len(s.mask_idx) == 20  # q_shr·d
    # the new mask lies inside this round's changed coordinates
    assert np.isin(s.mask_idx, agg.changed_idx).all()


def test_changed_coordinates_bounded_by_q(rng):
    s = make()
    run_round(s, 1, [rng.normal(size=200)])
    agg, _ = run_round(s, 2, [rng.normal(size=200)])
    assert len(agg.changed_idx) <= 40  # q·d
    untouched = np.setdiff1d(np.arange(200), agg.changed_idx)
    np.testing.assert_array_equal(agg.global_delta[untouched], 0.0)


def test_consecutive_updates_overlap_at_least_q_shr(rng):
    """The paper's key property (§3.2): |supp Δ̃ᵗ ∩ supp Δ̃ᵗ⁺¹| ≥ q_shr·d."""
    s = make(d=500, q=0.2, q_shr=0.12)
    prev_changed = None
    for t in range(1, 8):
        agg, _ = run_round(
            s, t, [np.random.default_rng(100 + t + i).normal(size=500) for i in range(3)]
        )
        if prev_changed is not None and not s.is_regen_round:
            overlap = len(np.intersect1d(prev_changed, agg.changed_idx))
            assert overlap >= 60  # q_shr·d
        prev_changed = agg.changed_idx


def test_upstream_bytes_composition(rng):
    s = make(d=200, q=0.2, q_shr=0.1)
    run_round(s, 1, [rng.normal(size=200)])
    s.begin_round(2)
    payload = s.client_compress(0, rng.normal(size=200), 1.0)
    # shared part: 20 values (positions known); unique part: 20 sparse
    assert payload.upstream_bytes == values_bytes(20) + sparse_bytes(20, 200)
    assert payload.upstream_bytes == s.nominal_upstream_bytes()


def test_unique_part_avoids_shared_mask(rng):
    s = make(d=200, q=0.2, q_shr=0.1)
    run_round(s, 1, [rng.normal(size=200)])
    s.begin_round(2)
    payload = s.client_compress(0, rng.normal(size=200), 1.0)
    assert not np.isin(payload.data["idx"], s.mask_idx).any()


def test_regeneration_schedule():
    s = make(d=200, regen=5)
    s.begin_round(1)
    assert s.is_regen_round  # no mask yet
    s.mask_idx = np.arange(20)  # fabricate a mask so only the schedule decides
    for t, expect in [(2, False), (4, False), (5, True), (6, False), (10, True)]:
        s.begin_round(t)
        assert s.is_regen_round == expect, t


def test_regen_round_uses_full_q(rng):
    s = make(d=200, q=0.2, q_shr=0.1, regen=3)
    run_round(s, 1, [rng.normal(size=200)])
    run_round(s, 2, [rng.normal(size=200)])
    s.begin_round(3)
    assert s.is_regen_round
    payload = s.client_compress(0, rng.normal(size=200), 1.0)
    assert len(payload.data["idx"]) == 40
    assert len(payload.data["shr_vals"]) == 0


def test_aggregate_uses_weights(rng):
    s = make(d=100, q=0.3, q_shr=0.0)  # pure top-k, no shared mask
    d1 = np.zeros(100)
    d1[0] = 1.0
    d2 = np.zeros(100)
    d2[0] = -1.0
    agg, _ = run_round(s, 1, [d1, d2], weights=[0.75, 0.25])
    assert agg.global_delta[0] == pytest.approx(0.5)


def test_rec_residual_conservation(rng):
    """sent + residual == compensated delta (Eq. 7 bookkeeping)."""
    s = make(d=200, q=0.2, q_shr=0.1, ec=ErrorCompMode.REC)
    run_round(s, 1, [rng.normal(size=200)])
    s.begin_round(2)
    delta = rng.normal(size=200)
    payload = s.client_compress(5, delta, 0.8)
    h, w = s.residuals.peek(5)
    sent = np.zeros(200)
    sent[s.mask_idx] = payload.data["shr_vals"]
    sent[payload.data["idx"]] = payload.data["vals"]
    np.testing.assert_allclose(sent + h, delta, atol=1e-5)
    assert w == 0.8


def test_mask_shifts_toward_large_updates(rng):
    s = make(d=100, q=0.4, q_shr=0.2)
    run_round(s, 1, [rng.normal(size=100)])
    # now force one round where coordinates 80..99 dominate
    big = np.zeros(100)
    big[80:] = 50.0
    agg, _ = run_round(s, 2, [big + 0.01 * rng.normal(size=100)])
    assert np.isin(np.arange(80, 100), s.mask_idx).all()


def test_validation():
    with pytest.raises(ValueError):
        GlueFLMaskStrategy(q=0.0, q_shr=0.0)
    with pytest.raises(ValueError):
        GlueFLMaskStrategy(q=0.2, q_shr=0.2)  # q_shr must be < q
    with pytest.raises(ValueError):
        GlueFLMaskStrategy(q=0.2, q_shr=0.1, regen_interval=0)


def test_downstream_extra_is_mask_bitmap():
    s = make(d=1600)
    assert s.downstream_extra_bytes() == bitmap_bytes(1600)


def test_aggregate_matches_dense_reference(rng):
    """The scatter (np.add.at) aggregation == a naive dense reference."""
    s = make(d=300, q=0.3, q_shr=0.1)
    run_round(s, 1, [rng.normal(size=300)])
    s.begin_round(2)
    weights = [0.5, 0.3, 0.2]
    payloads = [
        (i, w, s.client_compress(i, rng.normal(size=300), w))
        for i, w in enumerate(weights)
    ]
    agg = aggregate_payloads(s, payloads)

    mask = s.mask_idx
    shr_ref = np.zeros(300)
    uni_ref = np.zeros(300)
    for _, w, payload in payloads:
        shr_ref[mask] += w * payload.data["shr_vals"]
        np.add.at(uni_ref, payload.data["idx"], w * payload.data["vals"])
    from repro.compression.topk import top_k_indices

    keep = top_k_indices(uni_ref, s._k_unique())
    expected = shr_ref.copy()
    expected[keep] += uni_ref[keep]
    np.testing.assert_allclose(agg.global_delta, expected, rtol=1e-12, atol=1e-12)


def test_aggregate_owns_global_delta(rng):
    """Regression: the returned delta must not alias internal accumulators.

    The old implementation returned the shared-mask accumulator itself
    (``global_delta = shr_acc``) and then mutated it in place via
    ``global_delta[keep] += ...`` — aggregate must be repeatable and its
    result safe for callers to mutate.
    """
    s = make(d=200, q=0.3, q_shr=0.1)
    run_round(s, 1, [rng.normal(size=200)])
    s.begin_round(2)
    payloads = [
        (i, 0.5, s.client_compress(i, rng.normal(size=200), 0.5))
        for i in range(2)
    ]
    first = aggregate_payloads(s, payloads)
    # caller mutates its copy of the update (e.g. applies it in place) ...
    first.global_delta[:] = 123.0
    # ... and a repeated aggregation of the same payloads is unaffected
    second = aggregate_payloads(s, payloads)
    assert not np.array_equal(second.global_delta, first.global_delta)
    sent_mask = np.zeros(200, dtype=bool)
    sent_mask[s.mask_idx] = True
    for _, _, p in payloads:
        sent_mask[p.data["idx"]] = True
    np.testing.assert_array_equal(second.global_delta[~sent_mask], 0.0)


def test_client_compress_does_not_mutate_caller_delta(rng):
    """client_compress works in place on an owned copy, never on the input."""
    s = make(d=200, q=0.2, q_shr=0.1, ec=ErrorCompMode.REC)
    run_round(s, 1, [rng.normal(size=200)])
    s.begin_round(2)
    delta = rng.normal(size=200)
    original = delta.copy()
    s.client_compress(0, delta, 1.0)
    np.testing.assert_array_equal(delta, original)


def test_mask_shift_selects_within_the_support(rng, monkeypatch):
    """Work count: Alg. 3 line 26 must never hand ``argpartition`` more
    than the ``q·d`` values of the update's support — over the dense
    vector its ``(1 − q)·d`` exact zeros are introselect's worst case."""
    s = make(d=1000, q=0.2, q_shr=0.1)
    lengths = []
    real = np.argpartition

    def recording(a, *args, **kwargs):
        lengths.append(len(a))
        return real(a, *args, **kwargs)

    for t in (1, 2):  # a regeneration round, then a shifted one
        s.begin_round(t)
        payloads = [
            (i, 0.5, s.client_compress(i, rng.normal(size=1000), 0.5))
            for i in range(2)
        ]
        agg = aggregate_payloads(s, payloads)
        with monkeypatch.context() as m:
            m.setattr(np, "argpartition", recording)
            s.end_round(agg, t)
        assert lengths and max(lengths) <= len(agg.changed_idx) == 200
        assert len(s.mask_idx) == 100
        lengths.clear()
