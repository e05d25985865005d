import numpy as np
import pytest

from repro.compression import STCStrategy
from repro.core import make_gluefl
from repro.experiments.analysis import gap_fraction_curve
from repro.fl import RunConfig, UniformSampler, run_training


@pytest.fixture(scope="module")
def detailed_run():
    from repro.datasets import femnist_like

    dataset = femnist_like(
        num_clients=50, num_classes=4, image_size=8, samples_per_client=24,
        min_samples=5, seed=9,
    )
    cfg = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (12,)},
        strategy=STCStrategy(q=0.2),
        sampler=UniformSampler(6),
        rounds=25,
        local_steps=2,
        collect_sync_details=True,
        always_available=True,
        overcommit=1.0,
        eval_every=10**9,
        seed=4,
    )
    return run_training(cfg)


def test_gap_fraction_curve_monotone_overall(detailed_run):
    curve = gap_fraction_curve(detailed_run)
    gaps = sorted(curve)
    assert gaps[0] >= 1
    # staleness grows: the last third of gaps beats the first third
    third = max(1, len(gaps) // 3)
    early = np.mean([curve[g] for g in gaps[:third]])
    late = np.mean([curve[g] for g in gaps[-third:]])
    assert late > early
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in curve.values())


def test_gap_fraction_max_gap(detailed_run):
    curve = gap_fraction_curve(detailed_run, max_gap=5)
    assert max(curve) <= 5


def test_sticky_run_skews_participation():
    from repro.datasets import femnist_like

    dataset = femnist_like(
        num_clients=60, num_classes=4, image_size=8, samples_per_client=24,
        min_samples=5, seed=9,
    )
    strategy, sampler = make_gluefl(6, group_size=24, sticky_count=5, q=0.2, q_shr=0.1)
    cfg = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (12,)},
        strategy=strategy,
        sampler=sampler,
        rounds=25,
        local_steps=2,
        collect_sync_details=True,
        always_available=True,
        overcommit=1.0,
        eval_every=10**9,
        seed=4,
    )
    result = run_training(cfg)
    # contacts per client, read off the run's sync details
    values = np.zeros(dataset.num_clients)
    for record in result.records:
        for cid, _, _ in record.sync_details:
            values[cid] += 1
    # sticky sampling concentrates participation: the dispersion is higher
    # than uniform sampling's over the same budget
    assert values.std() > 0.8


def test_requires_sync_details(detailed_run):
    from repro.fl.metrics import RunResult

    empty = RunResult()
    empty.append(detailed_run.records[0].__class__(**{
        **detailed_run.records[0].__dict__, "sync_details": None,
    }))
    with pytest.raises(ValueError, match="sync details"):
        gap_fraction_curve(empty, d=10)
