"""Hypothesis properties of the GlueFL mask-shifting strategy itself."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import ErrorCompMode, GlueFLMaskStrategy
from repro.compression.topk import ratio_to_k
from repro.theory import sticky_expected_gap, sticky_resample_prob
from tests.compression.rounds import aggregate_payloads


@st.composite
def mask_configs(draw):
    d = draw(st.integers(20, 300))
    q = draw(st.floats(0.05, 0.9))
    q_shr = draw(st.floats(0.0, 0.9)) * q * 0.99
    return d, q, q_shr


@given(mask_configs(), st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_gluefl_round_invariants(config, num_clients, seed):
    """For any (d, q, q_shr) and any client deltas:

    - the global update support is within q·d (+rounding),
    - the next mask has exactly q_shr·d positions inside that support,
    - residual bookkeeping conserves the compensated delta.
    """
    d, q, q_shr = config
    rng = np.random.default_rng(seed)
    s = GlueFLMaskStrategy(
        q=q, q_shr=q_shr, regen_interval=None, error_comp=ErrorCompMode.REC
    )
    s.setup(d, rng)
    k_total = ratio_to_k(q, d)
    k_shr = ratio_to_k(q_shr, d)
    for t in (1, 2, 3):
        s.begin_round(t)
        payloads = []
        weight = 1.0 / num_clients
        deltas = [rng.normal(size=d) for _ in range(num_clients)]
        for i, delta in enumerate(deltas):
            payloads.append((i, weight, s.client_compress(i, delta, weight)))
        agg = aggregate_payloads(s, payloads)
        assert np.count_nonzero(agg.global_delta) <= len(agg.changed_idx)
        assert len(agg.changed_idx) <= k_total + k_shr
        s.end_round(agg, t)
        if k_shr > 0:
            assert len(s.mask_idx) == k_shr
            assert np.isin(s.mask_idx, agg.changed_idx).all()


@given(
    st.integers(2, 60),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_sticky_pmf_is_normalized(k_scale, seed):
    """Proposition 2's pmf sums to 1 and has mean N/K for random configs."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 10))
    s = k * int(rng.integers(1, 5)) + k  # S >= K
    n = s + int(rng.integers(k, 200)) + k  # N > S, N-S >= K-C
    c = int(rng.integers(1, k))  # C < K: the N/K identity needs group churn
    if (n - s) * k - (k - c) * s <= 0:
        return  # degenerate; rejected by the implementation
    r = np.arange(1, 200_000)
    pmf = sticky_resample_prob(n, k, s, c, r)
    assert abs(pmf.sum() - 1.0) < 1e-6
    assert abs(sticky_expected_gap(n, k, s, c) - n / k) < 1e-6 * n / k
