import numpy as np
import pytest

from repro.fl.samplers import PoissonSampler, StickySampler, UniformSampler


def all_available(n):
    return np.ones(n, dtype=bool)


# ---------------------------------------------------------------- uniform
def test_uniform_draw_counts(rng):
    sampler = UniformSampler(10)
    sampler.setup(100, rng)
    draw = sampler.draw(1, all_available(100), overcommit=1.3)
    assert len(draw.nonsticky) == 13  # ceil(0.3*10) extras
    assert draw.quota_nonsticky == 10
    assert draw.quota_sticky == 0
    assert len(np.unique(draw.nonsticky)) == len(draw.nonsticky)


def test_uniform_respects_availability(rng):
    sampler = UniformSampler(5)
    sampler.setup(50, rng)
    available = np.zeros(50, dtype=bool)
    available[:10] = True
    draw = sampler.draw(1, available, overcommit=1.0)
    assert set(draw.nonsticky) <= set(range(10))


def test_uniform_shrinks_when_pool_small(rng):
    sampler = UniformSampler(5)
    sampler.setup(50, rng)
    available = np.zeros(50, dtype=bool)
    available[:3] = True
    draw = sampler.draw(1, available, overcommit=1.5)
    assert len(draw.nonsticky) == 3
    assert draw.quota_nonsticky == 3


def test_uniform_validation(rng):
    with pytest.raises(ValueError):
        UniformSampler(0)
    sampler = UniformSampler(10)
    with pytest.raises(ValueError):
        sampler.setup(5, rng)
    sampler.setup(20, rng)
    with pytest.raises(ValueError):
        sampler.draw(1, all_available(20), overcommit=0.9)


def test_uniform_no_clients_available(rng):
    sampler = UniformSampler(5)
    sampler.setup(20, rng)
    with pytest.raises(RuntimeError):
        sampler.draw(1, np.zeros(20, dtype=bool))


# ---------------------------------------------------------------- poisson
def test_poisson_draw_is_bernoulli_over_the_pool(rng):
    sampler = PoissonSampler(10)
    sampler.setup(100, rng)
    draw = sampler.draw(1, all_available(100), overcommit=1.3)
    assert draw.quota_sticky == 0 and len(draw.sticky) == 0
    assert len(np.unique(draw.nonsticky)) == len(draw.nonsticky)
    assert draw.quota_nonsticky == min(10, len(draw.nonsticky))
    # size varies round to round — it is not a fixed-size draw
    sizes = {
        len(sampler.draw(r, all_available(100), overcommit=1.3).nonsticky)
        for r in range(2, 30)
    }
    assert len(sizes) > 1


def test_poisson_respects_availability(rng):
    sampler = PoissonSampler(5)
    sampler.setup(50, rng)
    available = np.zeros(50, dtype=bool)
    available[:10] = True
    for r in range(10):
        assert set(sampler.draw(r, available).nonsticky) <= set(range(10))


def test_poisson_empirical_rate_matches_claim(rng):
    sampler = PoissonSampler(10)
    sampler.setup(100, rng)
    rate = sampler.dp_sample_rate(100, 1.3)
    counts = [
        len(sampler.draw(r, all_available(100), overcommit=1.3).nonsticky)
        for r in range(400)
    ]
    assert np.mean(counts) == pytest.approx(100 * rate, rel=0.1)


def test_poisson_can_draw_empty_but_not_from_empty_pool(rng):
    sampler = PoissonSampler(1)
    sampler.setup(100, rng)
    available = np.zeros(100, dtype=bool)
    available[0] = True  # rate 0.01 over one client: usually empty
    sizes = [len(sampler.draw(r, available).nonsticky) for r in range(50)]
    assert 0 in sizes  # an empty round is a legitimate Poisson outcome
    with pytest.raises(RuntimeError):
        sampler.draw(1, np.zeros(100, dtype=bool))
    with pytest.raises(ValueError):
        sampler.draw(1, available, overcommit=0.9)


def test_poisson_is_sync_only(rng):
    assert PoissonSampler(5).supports_async is False


# ---------------------------------------------------------------- sticky
def make_sticky(rng, n=100, k=10, s=40, c=8, **kw):
    sampler = StickySampler(k, group_size=s, sticky_count=c, **kw)
    sampler.setup(n, rng)
    return sampler


def test_sticky_group_initialized(rng):
    sampler = make_sticky(rng)
    assert len(sampler.sticky_group) == 40
    assert len(np.unique(sampler.sticky_group)) == 40


def test_sticky_draw_buckets(rng):
    sampler = make_sticky(rng)
    draw = sampler.draw(1, all_available(100), overcommit=1.0)
    assert len(draw.sticky) == 8
    assert len(draw.nonsticky) == 2
    assert draw.quota_sticky == 8
    assert draw.quota_nonsticky == 2
    in_group = set(sampler.sticky_group.tolist())
    assert set(draw.sticky) <= in_group
    assert not (set(draw.nonsticky) & in_group)


def test_sticky_overcommit_split_default(rng):
    """Default OC split follows C/K (the Table 3a 'default' row)."""
    sampler = make_sticky(rng)
    draw = sampler.draw(1, all_available(100), overcommit=1.5)
    extras = 5  # ceil(0.5 * 10)
    assert len(draw.sticky) == 8 + round(extras * 0.8)
    assert len(draw.nonsticky) == 2 + (extras - round(extras * 0.8))


def test_sticky_overcommit_custom_share(rng):
    sampler = make_sticky(rng, oc_sticky_share=0.0)
    draw = sampler.draw(1, all_available(100), overcommit=1.5)
    assert len(draw.sticky) == 8  # no sticky extras
    assert len(draw.nonsticky) == 7  # all extras non-sticky


def test_rebalance_keeps_group_size(rng):
    sampler = make_sticky(rng)
    draw = sampler.draw(1, all_available(100), overcommit=1.0)
    sampler.complete_round(draw.sticky, draw.nonsticky)
    assert len(sampler.sticky_group) == 40
    # newcomers admitted
    for cid in draw.nonsticky:
        assert cid in sampler.sticky_group


def test_rebalance_preserves_participants(rng):
    """Sticky participants never get evicted (removal is from S \\ C)."""
    sampler = make_sticky(rng)
    for t in range(1, 20):
        draw = sampler.draw(t, all_available(100), overcommit=1.0)
        sampler.complete_round(draw.sticky, draw.nonsticky)
        for cid in draw.sticky:
            assert cid in sampler.sticky_group
        assert len(np.unique(sampler.sticky_group)) == 40


def test_rebalance_no_newcomers_is_noop(rng):
    sampler = make_sticky(rng)
    before = sampler.sticky_group.copy()
    sampler.complete_round(np.array([before[0]]), np.array([], dtype=np.int64))
    np.testing.assert_array_equal(sampler.sticky_group, before)


def test_sticky_availability_shrinks_quota(rng):
    sampler = make_sticky(rng)
    available = np.zeros(100, dtype=bool)
    available[sampler.sticky_group[:3]] = True  # only 3 sticky online
    others = np.setdiff1d(np.arange(100), sampler.sticky_group)
    available[others[:20]] = True
    draw = sampler.draw(1, available, overcommit=1.0)
    assert draw.quota_sticky == 3
    assert draw.quota_nonsticky == 7  # refilled from non-sticky pool


def test_sticky_validation(rng):
    with pytest.raises(ValueError):
        StickySampler(10, group_size=5, sticky_count=8)  # S < C
    with pytest.raises(ValueError):
        StickySampler(10, group_size=40, sticky_count=0)
    with pytest.raises(ValueError):
        StickySampler(10, group_size=40, sticky_count=8, oc_sticky_share=1.5)
    sampler = StickySampler(10, group_size=40, sticky_count=8)
    with pytest.raises(ValueError):
        sampler.setup(40, rng)  # S must be < N


def test_sticky_resample_rate_empirical(rng):
    """A sticky-group member should participate ~C/S per round (§3.1)."""
    sampler = make_sticky(rng, n=200, k=10, s=40, c=8)
    counts = np.zeros(200)
    rounds = 800
    for t in range(rounds):
        draw = sampler.draw(t, all_available(200), overcommit=1.0)
        in_group_before = sampler.sticky_group.copy()
        for cid in draw.sticky:
            counts[cid] += 1
        for cid in draw.nonsticky:
            counts[cid] += 1
        sampler.complete_round(draw.sticky, draw.nonsticky)
    # long-run: every client participates K/N of the time on average
    mean_rate = counts.mean() / rounds
    assert mean_rate == pytest.approx(10 / 200, rel=0.15)

# ------------------------------------------------- sampler-owned weights
def test_uniform_aggregation_weights_match_eq2(rng):
    """The base contract returns FedAvg's (N/K)·p_i over the non-sticky ids."""
    from repro.fl.aggregation import fedavg_weights

    sampler = UniformSampler(5)
    sampler.setup(30, rng)
    p = rng.dirichlet(np.ones(30))
    ids = np.array([3, 7, 11, 20, 29])
    nu_s, nu_r = sampler.aggregation_weights(p, np.empty(0, dtype=np.int64), ids)
    assert len(nu_s) == 0
    np.testing.assert_allclose(nu_r, fedavg_weights(p, ids, 30))
    np.testing.assert_allclose(nu_r, (30 / 5) * p[ids])


def test_sticky_aggregation_weights_match_eq3(rng):
    """StickySampler owns the Eq. 3 inverse-propensity correction."""
    from repro.fl.aggregation import sticky_weights

    sampler = make_sticky(rng, n=100, k=10, s=40, c=8)
    p = rng.dirichlet(np.ones(100))
    sticky_ids = sampler.sticky_group[:6]
    nonsticky_ids = np.setdiff1d(np.arange(100), sampler.sticky_group)[:4]
    nu_s, nu_r = sampler.aggregation_weights(p, sticky_ids, nonsticky_ids)
    want_s, want_r = sticky_weights(
        p, sticky_ids, nonsticky_ids, group_size=40, num_clients=100
    )
    np.testing.assert_allclose(nu_s, want_s)
    np.testing.assert_allclose(nu_r, want_r)
    np.testing.assert_allclose(nu_s, (40 / 6) * p[sticky_ids])


def test_sticky_weights_fall_back_to_eq2_when_bucket_empty(rng):
    """A wiped-out sticky bucket degenerates the round to a uniform draw."""
    sampler = make_sticky(rng, n=100, k=10, s=40, c=8)
    p = np.full(100, 1 / 100)
    ids = np.arange(10)
    nu_s, nu_r = sampler.aggregation_weights(
        p, np.empty(0, dtype=np.int64), ids
    )
    assert len(nu_s) == 0
    np.testing.assert_allclose(nu_r, (100 / 10) * p[ids])


def test_base_sampler_norm_feedback_is_opt_in(rng):
    """Default samplers neither request nor react to update-norm feedback."""
    sampler = UniformSampler(5)
    sampler.setup(20, rng)
    assert sampler.wants_update_norms is False
    sampler.observe_update(3, 1.25)  # no-op, must not raise
