"""The O(idle) sampling path: config gating, pool draws, end-to-end runs.

Pool draws are a *different RNG stream* than the mask-based ``draw``
path (that is why ``population_scalable_sampling`` is opt-in), so these
tests pin structure — quotas, distinctness, idle-only membership,
stickiness — not cohort identity against the mask path.
"""

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.datasets import femnist_like
from repro.fl import RunConfig, StickySampler, UniformSampler, run_training
from repro.fl.extra_samplers import DynamicScheduleSampler, MDSampler
from repro.population import DeviceStatePopulation

pytestmark = pytest.mark.population


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


def make_pop(n=30, seed=0, **kwargs):
    return DeviceStatePopulation(n, np.random.default_rng(seed), **kwargs)


def ready(sampler, num_clients, seed=5):
    sampler.setup(num_clients, np.random.default_rng(seed))
    return sampler


# -- config gating -----------------------------------------------------------------


def test_scalable_sampling_needs_a_population(dataset):
    with pytest.raises(ValueError, match="idle index"):
        make_config(dataset, population_scalable_sampling=True).validate()


def test_scalable_sampling_rejects_mask_only_samplers(dataset):
    with pytest.raises(ValueError, match="supports_pool_draw"):
        make_config(
            dataset,
            population_preset="diurnal",
            population_scalable_sampling=True,
            sampler=MDSampler(5),
        ).validate()


def test_scalable_sampling_excludes_quorum(dataset):
    with pytest.raises(ValueError, match="quorum_fraction"):
        make_config(
            dataset,
            population_preset="diurnal",
            population_scalable_sampling=True,
            quorum_fraction=0.5,
        ).validate()


def test_residual_budget_validates(dataset):
    with pytest.raises(ValueError, match="residual_max_clients"):
        make_config(dataset, residual_max_clients=0).validate()
    with pytest.raises(ValueError, match="residual_max_clients"):
        make_config(dataset, residual_max_clients=True).validate()


# -- pool draws --------------------------------------------------------------------


def test_uniform_pool_draw_shapes_and_membership():
    pop = make_pop(30)
    pop.begin_work(np.arange(10))  # 20 idle
    pool = pop.idle_pool(1)
    sampler = ready(UniformSampler(8), 30)
    draw = sampler.draw_pool(1, pool, overcommit=1.25)
    assert len(draw.sticky) == 0
    assert len(draw.nonsticky) == 10  # k + extras
    assert draw.quota_nonsticky == 8
    assert len(set(draw.nonsticky.tolist())) == 10
    assert (pop.state[draw.nonsticky] == 0).all()  # all drawn ids idle


def test_uniform_pool_draw_caps_and_empty_pool():
    pop = make_pop(12)
    pop.begin_work(np.arange(6))  # 6 idle, k = 10
    sampler = ready(UniformSampler(10), 12)
    draw = sampler.draw_pool(1, pop.idle_pool(1))
    assert len(draw.nonsticky) == 6
    assert draw.quota_nonsticky == 6
    pop.begin_work(np.arange(6, 12))
    with pytest.raises(RuntimeError, match="no clients available"):
        sampler.draw_pool(2, pop.idle_pool(2))


def test_sticky_pool_draw_splits_quotas():
    pop = make_pop(40)
    pool = pop.idle_pool(1)
    sampler = ready(StickySampler(10, group_size=20, sticky_count=6), 40)
    draw = sampler.draw_pool(1, pool)
    assert len(draw.sticky) == draw.quota_sticky == 6
    assert len(draw.nonsticky) == draw.quota_nonsticky == 4
    assert np.isin(draw.sticky, sampler.sticky_group).all()
    assert not np.isin(draw.nonsticky, sampler.sticky_group).any()


def test_sticky_pool_draw_shrinks_with_busy_sticky_group():
    pop = make_pop(40)
    sampler = ready(StickySampler(10, group_size=20, sticky_count=6), 40)
    pop.begin_work(sampler.sticky_group[:18])  # 2 sticky ids left idle
    pool = pop.idle_pool(1)
    draw = sampler.draw_pool(1, pool)
    assert len(draw.sticky) == draw.quota_sticky == 2
    assert draw.quota_nonsticky == 8  # nonsticky quota absorbs the slack
    assert not np.isin(draw.nonsticky, sampler.sticky_group).any()


def test_dynamic_schedule_sampler_delegates_pool_support():
    dyn = ready(
        DynamicScheduleSampler(UniformSampler(6), k_min=2, decay=0.5), 30
    )
    assert dyn.supports_pool_draw
    pop = make_pop(30)
    draw = dyn.draw_pool(4, pop.idle_pool(4))
    assert draw.quota_nonsticky == 2  # annealed budget reached k_min
    assert not MDSampler(5).supports_pool_draw


# -- end-to-end --------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["sync", "async", "semiasync"])
def test_scalable_runs_train_end_to_end(dataset, scheduler):
    result = run_training(
        make_config(
            dataset,
            scheduler=scheduler,
            population_preset="diurnal",
            population_scalable_sampling=True,
            residual_max_clients=8,
            skip_empty_rounds=True,
            rounds=5,
        )
    )
    assert len(result.records) == 5
    assert all(r.num_participants <= 12 for r in result.records)
    assert np.isfinite(result.records[-1].train_loss)


def test_scalable_sticky_run_reuses_sticky_group(dataset):
    sampler = StickySampler(6, group_size=24, sticky_count=4)
    result = run_training(
        make_config(
            dataset,
            sampler=sampler,
            population_preset="diurnal",
            population_scalable_sampling=True,
            skip_empty_rounds=True,
            rounds=5,
        )
    )
    assert len(result.records) == 5
    assert all(r.num_participants <= 6 for r in result.records)
