"""Hypothesis properties of the samplers under random configurations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fl.samplers import StickySampler, UniformSampler


@st.composite
def sticky_configs(draw):
    k = draw(st.integers(2, 12))
    c = draw(st.integers(1, k))
    s = draw(st.integers(max(c, k), 4 * k))
    n = draw(st.integers(s + k + 1, s + 10 * k))
    return n, k, s, c


@given(sticky_configs(), st.floats(1.0, 2.0), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_sticky_draw_invariants(config, overcommit, seed):
    n, k, s, c = config
    sampler = StickySampler(k, group_size=s, sticky_count=c)
    sampler.setup(n, np.random.default_rng(seed))
    available = np.ones(n, dtype=bool)
    for t in range(3):
        draw = sampler.draw(t, available, overcommit)
        # buckets are disjoint and within bounds
        assert not set(draw.sticky) & set(draw.nonsticky)
        assert len(np.unique(draw.candidates)) == len(draw.candidates)
        assert draw.candidates.max(initial=-1) < n
        # quotas never exceed candidates or K
        assert draw.quota_sticky <= len(draw.sticky)
        assert draw.quota_nonsticky <= len(draw.nonsticky)
        assert draw.quota_total <= k
        # sticky candidates really are group members
        group = set(sampler.sticky_group.tolist())
        assert set(draw.sticky) <= group
        assert not set(draw.nonsticky) & group
        # rebalance keeps the group size constant and unique
        sampler.complete_round(
            draw.sticky[: draw.quota_sticky],
            draw.nonsticky[: draw.quota_nonsticky],
        )
        assert len(sampler.sticky_group) == s
        assert len(np.unique(sampler.sticky_group)) == s


@given(
    st.integers(1, 20),
    st.integers(0, 2**31 - 1),
    st.floats(1.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_uniform_draw_invariants(k, seed, overcommit):
    rng = np.random.default_rng(seed)
    n = k + int(rng.integers(1, 100))
    sampler = UniformSampler(k)
    sampler.setup(n, rng)
    available = rng.random(n) < 0.7
    if not available.any():
        available[0] = True
    draw = sampler.draw(1, available, overcommit)
    assert len(np.unique(draw.nonsticky)) == len(draw.nonsticky)
    assert draw.quota_nonsticky <= min(k, len(draw.nonsticky))
    assert available[draw.nonsticky].all()


@st.composite
def ocs_pools(draw):
    n = draw(st.integers(8, 60))
    k = draw(st.integers(1, min(10, n - 1)))
    norms = draw(
        st.lists(
            st.floats(0.01, 100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return n, k, np.array(norms)


@given(ocs_pools(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_ocs_draw_invariants(pool, seed):
    """OCS draws are distinct, sized to the budget, and carry valid π."""
    from repro.fl.extra_samplers import OptimalClientSampler

    n, k, norms = pool
    sampler = OptimalClientSampler(k)
    sampler.setup(n, np.random.default_rng(seed))
    for cid in range(n):
        sampler.observe_update(cid, float(norms[cid]))
    available = np.ones(n, dtype=bool)
    draw = sampler.draw(1, available)
    ids = draw.nonsticky
    assert len(np.unique(ids)) == len(ids)
    assert len(ids) == k
    pi = sampler._last_inclusion[ids]
    assert np.all(pi > 0) and np.all(pi <= 1.0 + 1e-12)
    # the water-filled probabilities spend exactly the budget
    all_pi = sampler._last_inclusion[np.arange(n)]
    assert np.nansum(all_pi) == pytest.approx(k)


@given(st.integers(0, 2**31 - 1))
@example(22)  # the first 400 draws of this seed average 0.899
@settings(max_examples=6, deadline=None, derandomize=True)
def test_ocs_weight_sum_is_unbiased_estimator(seed):
    """Monte Carlo over draws: E[Σ_{i∈S} ν_i] = Σ_i p_i = 1.

    The sum of Horvitz–Thompson weights over a draw is itself an unbiased
    estimator of the total data weight, whatever the norm profile — the
    scalar version of Theorem-1-style unbiasedness for OCS.

    The sum is right-skewed (a large ``p_i`` behind a small ``π_i`` is
    rare and heavy), so a few hundred draws underestimate its spread and
    a sample-σ bound rejects a correct sampler.  The bound here is built
    from the design instead: independent (Poisson) inclusion with the
    same π has variance ``Σ p_i² (1 − π_i) / π_i``, which a fixed-size
    draw only undercuts.  Seeds are fixed (``derandomize``), and the trial
    count keeps the 4 σ band inside ±0.06, so a sampler whose weights sum
    to 0.9 in expectation still fails.
    """
    from repro.fl.extra_samplers import OptimalClientSampler

    n, k, trials = 30, 6, 4000
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n))
    sampler = OptimalClientSampler(k)
    sampler.setup(n, np.random.default_rng(seed + 1))
    # heavy-tailed norm profile: a few dominant clients, π capped at 1
    for cid in range(n):
        sampler.observe_update(cid, 50.0 if cid < 2 else rng.uniform(0.5, 2.0))
    available = np.ones(n, dtype=bool)
    sums = np.empty(trials)
    for t in range(trials):
        draw = sampler.draw(t, available)
        _, nu = sampler.aggregation_weights(
            p, np.empty(0, dtype=np.int64), draw.nonsticky
        )
        sums[t] = nu.sum()
    pi = sampler._last_inclusion  # the norms never change: same π every draw
    band = 4 * np.sqrt(np.sum(p**2 * (1.0 - pi) / pi) / trials)
    assert band < 0.06
    assert abs(sums.mean() - 1.0) < band
