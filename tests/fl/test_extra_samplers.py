import numpy as np
import pytest

from repro.fl.extra_samplers import OortLikeSampler


def all_available(n):
    return np.ones(n, dtype=bool)


# ---------------------------------------------------------------- Oort-like
def test_oort_starts_with_exploration(rng):
    sampler = OortLikeSampler(6, exploration=0.5)
    sampler.setup(60, rng)
    draw = sampler.draw(1, all_available(60))
    # nothing explored yet: all candidates are fresh draws
    assert len(draw.nonsticky) >= 6


def test_oort_exploits_high_loss_clients(rng):
    sampler = OortLikeSampler(4, exploration=0.0)
    sampler.setup(40, rng)
    # feed back losses: clients 0..3 have the highest
    for cid in range(20):
        sampler.observe_loss(cid, 5.0 if cid < 4 else 0.1)
        sampler.observe_speed(cid, 0.5)
    draw = sampler.draw(2, all_available(40), overcommit=1.0)
    assert set(draw.nonsticky[:4]) == {0, 1, 2, 3}


def test_oort_setup_keeps_earlier_observations(rng):
    """A sampler set up again (a second run) still counts the clients it
    observed before as explored, as its loss table does."""
    sampler = OortLikeSampler(4, exploration=0.0)
    sampler.setup(40, rng)
    for cid in range(20):
        sampler.observe_loss(cid, 5.0 if cid < 4 else 0.1)
    sampler.setup(40, rng)
    draw = sampler.draw(1, all_available(40), overcommit=1.0)
    assert set(draw.nonsticky) == {0, 1, 2, 3}


def test_oort_penalizes_slow_clients(rng):
    sampler = OortLikeSampler(2, exploration=0.0, deadline_seconds=1.0)
    sampler.setup(10, rng)
    sampler.observe_loss(0, 1.0)
    sampler.observe_loss(1, 1.0)
    sampler.observe_speed(0, 0.5)  # fast
    sampler.observe_speed(1, 50.0)  # very slow
    assert sampler.utility(0) > sampler.utility(1)


def test_oort_exploration_mixes_fresh_clients(rng):
    sampler = OortLikeSampler(10, exploration=0.4)
    sampler.setup(100, rng)
    for cid in range(50):
        sampler.observe_loss(cid, 1.0)
        sampler.observe_speed(cid, 1.0)
    draw = sampler.draw(3, all_available(100), overcommit=1.0)
    fresh = [c for c in draw.nonsticky if c >= 50]
    assert len(fresh) >= 2  # ~40% of 10 slots


def test_oort_backfills_when_no_fresh_clients(rng):
    sampler = OortLikeSampler(5, exploration=0.5)
    sampler.setup(10, rng)
    for cid in range(10):
        sampler.observe_loss(cid, float(cid))
    draw = sampler.draw(1, all_available(10), overcommit=1.0)
    assert len(draw.nonsticky) == 5


def test_oort_validation():
    with pytest.raises(ValueError):
        OortLikeSampler(5, exploration=1.5)


def test_oort_in_full_training_loop(tiny_dataset):
    """OortLikeSampler plugs into the server loop with equal weights."""
    from repro.compression import FedAvgStrategy
    from repro.fl import RunConfig, run_training

    sampler = OortLikeSampler(5, exploration=0.3)
    cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=FedAvgStrategy(),
        sampler=sampler,
        rounds=6,
        local_steps=2,
        weight_mode="equal",
        seed=0,
    )
    result = run_training(cfg)
    assert result.num_rounds == 6


def test_oort_exploits_what_the_run_fed_back(tiny_dataset):
    """The engine feeds every result's loss and finish offset back, so a
    pure-exploitation Oort re-draws round 1's observed clients."""
    from repro.compression import FedAvgStrategy
    from repro.fl import RunConfig, run_training

    sampler = OortLikeSampler(5, exploration=0.0)
    draws = []
    draw = sampler.draw
    sampler.draw = lambda *a, **kw: draws.append(draw(*a, **kw)) or draws[-1]
    cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=FedAvgStrategy(),
        sampler=sampler,
        rounds=3,
        local_steps=2,
        weight_mode="equal",
        overcommit=1.0,
        seed=0,
    )
    run_training(cfg)
    first = set(draws[0].candidates.tolist())
    assert set(sampler._loss) == set(sampler._speed) == first
    assert all(seconds > 0 for seconds in sampler._speed.values())
    assert [set(d.candidates.tolist()) for d in draws[1:]] == [first, first]


@pytest.mark.parametrize("quantized", [False, True])
def test_privatized_oort_gets_no_raw_loss(tiny_dataset, quantized):
    """A privacy wrapper withholds the training loss — through a
    quantizer above it too — so Oort under noise observes nothing and
    keeps drawing data-independently."""
    from repro.compression import FedAvgStrategy, QuantizedStrategy
    from repro.fl import RunConfig, run_training
    from repro.privacy import PrivateStrategy

    strategy = PrivateStrategy(FedAvgStrategy(), epsilon=6.0, clip_norm=1.0)
    if quantized:
        strategy = QuantizedStrategy(strategy, bits=8)
    assert strategy.feedback_loss(0, 1.5) is None
    sampler = OortLikeSampler(5, exploration=0.0)
    cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        rounds=3,
        local_steps=2,
        weight_mode="equal",
        seed=0,
    )
    run_training(cfg)
    assert sampler._loss == {} and sampler._speed == {}


# --------------------------------------------------------- weight ownership
def test_oort_owns_equal_weights(rng):
    """The biased sampler returns 1/K weights instead of inheriting Eq. 2."""
    sampler = OortLikeSampler(4)
    sampler.setup(20, rng)
    p = rng.dirichlet(np.ones(20))
    ids = np.array([1, 5, 9, 13])
    nu_s, nu_r = sampler.aggregation_weights(p, np.empty(0, dtype=np.int64), ids)
    assert len(nu_s) == 0
    np.testing.assert_allclose(nu_r, np.full(4, 0.25))


# ------------------------------------------------- capped proportional probs
def test_capped_probs_sum_and_bounds(rng):
    from repro.fl.extra_samplers import capped_proportional_probs

    scores = rng.uniform(0.1, 10.0, size=50)
    probs = capped_proportional_probs(scores, 12)
    assert probs.sum() == pytest.approx(12.0)
    assert (probs >= 0).all() and (probs <= 1.0 + 1e-12).all()
    # uncapped entries stay proportional to their scores
    free = probs < 1.0
    ratio = probs[free] / scores[free]
    np.testing.assert_allclose(ratio, ratio[0])


def test_capped_probs_caps_heavy_clients():
    from repro.fl.extra_samplers import capped_proportional_probs

    scores = np.array([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
    probs = capped_proportional_probs(scores, 4)
    np.testing.assert_allclose(probs[:2], 1.0)
    assert probs[2:].sum() == pytest.approx(2.0)


def test_capped_probs_edges():
    from repro.fl.extra_samplers import capped_proportional_probs

    np.testing.assert_allclose(
        capped_proportional_probs(np.array([3.0, 1.0]), 2), [1.0, 1.0]
    )
    np.testing.assert_allclose(
        capped_proportional_probs(np.zeros(4), 2), np.full(4, 0.5)
    )
    assert capped_proportional_probs(np.ones(3), 0).sum() == 0.0


# ------------------------------------------------------- norm estimator
def test_norm_estimator_ema_and_optimistic_prior():
    from repro.fl.extra_samplers import UpdateNormEstimator

    est = UpdateNormEstimator(4, smoothing=0.5)
    # nothing observed: uniform optimistic prior
    np.testing.assert_allclose(est.estimates(), 1.0)
    est.observe(0, 4.0)
    est.observe(0, 2.0)  # EMA: 0.5*4 + 0.5*2
    assert est.estimates()[0] == pytest.approx(3.0)
    # unknown clients sit at the max known estimate (exploration)
    assert est.estimates()[1] == pytest.approx(3.0)
    est.observe(1, 10.0)
    assert est.estimates()[2] == pytest.approx(10.0)
    # observed-but-tiny norms are floored, never zero
    est.observe(3, 0.0)
    assert est.estimates()[3] > 0.0


def test_norm_estimator_validation():
    from repro.fl.extra_samplers import UpdateNormEstimator

    with pytest.raises(ValueError):
        UpdateNormEstimator(4, smoothing=0.0)
    est = UpdateNormEstimator(4)
    with pytest.raises(ValueError):
        est.observe(0, -1.0)


# ------------------------------------------------- optimal client sampling
def test_ocs_draw_invariants(rng):
    from repro.fl.extra_samplers import OptimalClientSampler

    sampler = OptimalClientSampler(6)
    sampler.setup(40, rng)
    draw = sampler.draw(1, all_available(40), overcommit=1.3)
    assert len(np.unique(draw.nonsticky)) == len(draw.nonsticky)
    assert len(draw.nonsticky) == 6 + 2  # ceil(0.3*6) extras
    assert draw.quota_sticky == 0 and len(draw.sticky) == 0
    assert draw.quota_nonsticky == 6


def test_ocs_respects_availability(rng):
    from repro.fl.extra_samplers import OptimalClientSampler

    sampler = OptimalClientSampler(4)
    sampler.setup(30, rng)
    available = np.zeros(30, dtype=bool)
    available[:10] = True
    draw = sampler.draw(1, available)
    assert set(draw.nonsticky) <= set(range(10))


def test_ocs_prefers_high_norm_clients(rng):
    """Clients with 20× the update norm should be drawn far more often."""
    from repro.fl.extra_samplers import OptimalClientSampler

    sampler = OptimalClientSampler(5)
    sampler.setup(50, rng)
    for cid in range(50):
        sampler.observe_update(cid, 20.0 if cid < 5 else 1.0)
    counts = np.zeros(50)
    for t in range(300):
        draw = sampler.draw(t, all_available(50))
        counts[draw.nonsticky] += 1
    assert counts[:5].mean() > 5 * counts[5:].mean()


def test_ocs_weights_are_horvitz_thompson(rng):
    from repro.fl.extra_samplers import OptimalClientSampler

    sampler = OptimalClientSampler(5)
    sampler.setup(20, rng)
    for cid in range(20):
        sampler.observe_update(cid, float(cid + 1))
    p = rng.dirichlet(np.ones(20))
    draw = sampler.draw(1, all_available(20))
    nu_s, nu_r = sampler.aggregation_weights(
        p, np.empty(0, dtype=np.int64), draw.nonsticky
    )
    assert len(nu_s) == 0
    pi = sampler._last_inclusion[draw.nonsticky]
    np.testing.assert_allclose(nu_r, p[draw.nonsticky] / pi)
    # ids never drawn this round are rejected instead of silently weighted
    outsider = np.setdiff1d(np.arange(20), draw.nonsticky)[:1]
    unavailable = np.zeros(20, dtype=bool)
    unavailable[draw.nonsticky] = True
    sampler.draw(2, unavailable)  # π is now nan for pool outsiders
    with pytest.raises(RuntimeError, match="outside the last draw"):
        sampler.aggregation_weights(p, np.empty(0, dtype=np.int64), outsider)


def test_ocs_uniform_norms_degenerate_to_uniform_inclusion(rng):
    """With equal estimates the inclusion probabilities equal K/N, so the
    HT weights equal FedAvg's Eq. 2."""
    from repro.fl.aggregation import fedavg_weights
    from repro.fl.extra_samplers import OptimalClientSampler

    sampler = OptimalClientSampler(5)
    sampler.setup(25, rng)
    p = rng.dirichlet(np.ones(25))
    draw = sampler.draw(1, all_available(25))
    _, nu_r = sampler.aggregation_weights(
        p, np.empty(0, dtype=np.int64), draw.nonsticky
    )
    np.testing.assert_allclose(nu_r, fedavg_weights(p, draw.nonsticky, 25))


def test_ocs_replacement_dispatch_is_norm_aware(rng):
    from repro.fl.extra_samplers import OptimalClientSampler

    sampler = OptimalClientSampler(4)
    sampler.setup(30, rng)
    for cid in range(30):
        sampler.observe_update(cid, 50.0 if cid < 3 else 1.0)
    counts = np.zeros(30)
    for _ in range(200):
        picked = sampler.sample_replacements(
            all_available(30), np.array([29]), 3
        )
        assert 29 not in picked
        counts[picked] += 1
    assert counts[:3].mean() > 3 * counts[3:29].mean()


# ------------------------------------------------- dynamic schedule wrapper
def test_dynamic_budget_schedule(rng):
    from repro.fl.extra_samplers import DynamicScheduleSampler
    from repro.fl.samplers import UniformSampler

    wrapper = DynamicScheduleSampler(UniformSampler(10), k_min=3, decay=0.8)
    wrapper.setup(50, rng)
    budgets = [wrapper.budget_at(t) for t in (1, 2, 5, 10, 100)]
    assert budgets[0] == 10
    assert budgets == sorted(budgets, reverse=True)
    assert budgets[-1] == 3  # clamps at k_min
    draw = wrapper.draw(5, all_available(50))
    assert draw.quota_nonsticky == wrapper.budget_at(5)


def test_dynamic_delegates_weights_and_feedback(rng):
    from repro.fl.extra_samplers import (
        DynamicScheduleSampler,
        OptimalClientSampler,
    )

    inner = OptimalClientSampler(6)
    wrapper = DynamicScheduleSampler(inner, k_min=2, decay=0.9)
    assert wrapper.wants_update_norms is True
    wrapper.setup(30, rng)
    wrapper.observe_update(4, 7.0)
    assert inner.estimator.estimates()[4] == pytest.approx(7.0)
    p = np.full(30, 1 / 30)
    draw = wrapper.draw(1, all_available(30))
    _, nu_r = wrapper.aggregation_weights(
        p, np.empty(0, dtype=np.int64), draw.nonsticky
    )
    assert len(nu_r) == len(draw.nonsticky)


def test_dynamic_validation(rng):
    from repro.fl.extra_samplers import DynamicScheduleSampler
    from repro.fl.samplers import StickySampler, UniformSampler

    with pytest.raises(ValueError):
        DynamicScheduleSampler(UniformSampler(5), k_min=0)
    with pytest.raises(ValueError):
        DynamicScheduleSampler(UniformSampler(5), k_min=6)
    with pytest.raises(ValueError):
        DynamicScheduleSampler(UniformSampler(5), k_min=2, decay=1.5)
    with pytest.raises(ValueError, match="nest"):
        DynamicScheduleSampler(
            DynamicScheduleSampler(UniformSampler(5), k_min=2), k_min=2
        )
    with pytest.raises(ValueError, match="sticky_count"):
        DynamicScheduleSampler(
            StickySampler(10, group_size=40, sticky_count=8), k_min=3
        )


def test_dynamic_sampler_in_full_training_loop(tiny_dataset):
    """Annealed budgets flow through the whole server path."""
    from repro.compression import FedAvgStrategy
    from repro.fl import RunConfig, run_training
    from repro.fl.extra_samplers import DynamicScheduleSampler
    from repro.fl.samplers import UniformSampler

    sampler = DynamicScheduleSampler(UniformSampler(8), k_min=3, decay=0.8)
    cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=FedAvgStrategy(),
        sampler=sampler,
        rounds=8,
        local_steps=2,
        always_available=True,
        overcommit=1.0,
        seed=0,
    )
    result = run_training(cfg)
    participants = result.series("num_participants")
    assert participants[0] == 8
    assert participants[-1] == sampler.budget_at(8)
    assert (np.diff(participants) <= 0).all()


def test_ocs_overcommit_weights_self_normalize(rng):
    """With over-commitment only K of the ~1.3K drawn aggregate; the
    realized-count normalization keeps E[Σν] = Σp = 1."""
    from repro.fl.extra_samplers import OptimalClientSampler

    n, k, trials = 30, 6, 500
    sampler = OptimalClientSampler(k)
    sampler.setup(n, rng)
    for cid in range(n):
        sampler.observe_update(cid, 30.0 if cid < 2 else rng.uniform(0.5, 2.0))
    p = rng.dirichlet(np.ones(n))
    available = np.ones(n, dtype=bool)
    sums = np.empty(trials)
    for t in range(trials):
        draw = sampler.draw(t, available, overcommit=1.5)
        # participation = a speed-independent K-subset of the drawn pool
        participants = rng.choice(draw.nonsticky, size=k, replace=False)
        _, nu = sampler.aggregation_weights(
            p, np.empty(0, dtype=np.int64), participants
        )
        sums[t] = nu.sum()
    stderr = sums.std() / np.sqrt(trials)
    assert abs(sums.mean() - 1.0) < 4 * stderr + 1e-9


def test_dynamic_wrapper_passes_through_inner_hooks(rng):
    """Inner-specific feedback (Oort's observe_loss/observe_speed) reaches
    the wrapped sampler instead of raising AttributeError."""
    from repro.fl.extra_samplers import DynamicScheduleSampler

    inner = OortLikeSampler(6)
    wrapper = DynamicScheduleSampler(inner, k_min=3, decay=0.9)
    wrapper.setup(40, rng)
    wrapper.observe_loss(4, 2.5)
    wrapper.observe_speed(4, 0.7)
    assert inner._loss[4] == 2.5
    assert inner._speed[4] == 0.7
    with pytest.raises(AttributeError):
        wrapper.no_such_hook
