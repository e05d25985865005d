"""Integration tests of the full server round loop."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.compression import (
    APFStrategy,
    FedAvgStrategy,
    GlueFLMaskStrategy,
    STCStrategy,
)
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, StickySampler, UniformSampler, run_training

from tests.conftest import held_arrays


def make_config(dataset, strategy, sampler, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        rounds=12,
        local_steps=3,
        batch_size=8,
        lr=0.05,
        eval_every=4,
        seed=11,
    )
    params.update(overrides)
    return RunConfig(**params)


def test_fedavg_run_completes(tiny_dataset):
    cfg = make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5))
    result = run_training(cfg)
    assert result.num_rounds == 12
    assert result.accuracy_points()  # evaluations happened
    assert (result.series("down_bytes") > 0).all()
    assert (result.series("up_bytes") > 0).all()
    assert (result.series("round_seconds") > 0).all()


def test_run_is_reproducible(tiny_dataset):
    cfg_a = make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5))
    cfg_b = make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5))
    ra = run_training(cfg_a)
    rb = run_training(cfg_b)
    np.testing.assert_array_equal(ra.series("down_bytes"), rb.series("down_bytes"))
    assert ra.accuracy_points() == rb.accuracy_points()


def test_seed_changes_run(tiny_dataset):
    """FedAvg down_bytes are seed-invariant (always the dense model), but
    timing depends on which clients get which bandwidth — seed-sensitive."""
    ra = run_training(make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5)))
    rb = run_training(
        make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5), seed=99)
    )
    assert not np.array_equal(
        ra.series("round_seconds"), rb.series("round_seconds")
    )


def test_model_accuracy_improves(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        FedAvgStrategy(),
        UniformSampler(5),
        rounds=30,
        local_steps=5,
        always_available=True,
    )
    result = run_training(cfg)
    num_classes = tiny_dataset.num_classes
    assert result.final_accuracy() > 1.5 / num_classes


def test_stc_downstream_below_fedavg(tiny_dataset):
    fed = run_training(make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5)))
    stc = run_training(
        make_config(tiny_dataset, STCStrategy(q=0.2), UniformSampler(5))
    )
    assert (
        stc.cumulative_down_bytes()[-1] < fed.cumulative_down_bytes()[-1]
    )
    assert stc.cumulative_up_bytes()[-1] < fed.cumulative_up_bytes()[-1]


def test_gluefl_downstream_below_stc(tiny_dataset):
    stc = run_training(
        make_config(tiny_dataset, STCStrategy(q=0.2), UniformSampler(5), rounds=25)
    )
    strategy, sampler = make_gluefl(5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16)
    glue = run_training(make_config(tiny_dataset, strategy, sampler, rounds=25))
    assert glue.cumulative_down_bytes()[-1] < stc.cumulative_down_bytes()[-1]


def test_gluefl_equal_weight_mode_runs(tiny_dataset):
    strategy, sampler = make_gluefl(5, group_size=20, sticky_count=4, q=0.2, q_shr=0.1)
    cfg = make_config(tiny_dataset, strategy, sampler, weight_mode="equal")
    result = run_training(cfg)
    assert result.num_rounds == 12


def test_apf_freezes_and_saves_upstream(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        APFStrategy(threshold=0.5, check_every=2, base_period=6, warmup_rounds=4),
        UniformSampler(5),
        rounds=30,
    )
    server = FLServer(cfg)
    result = server.run()
    assert server.strategy.frozen_fraction() > 0.0
    # later rounds upload less than the first (pre-freeze) rounds
    up = result.series("up_bytes")
    assert up[-1] < up[0]


def test_overcommit_contacts_more_but_aggregates_k(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        FedAvgStrategy(),
        UniformSampler(5),
        overcommit=1.6,
        always_available=True,
    )
    result = run_training(cfg)
    assert (result.series("num_candidates") == 8).all()
    assert (result.series("num_participants") == 5).all()


def test_higher_overcommit_higher_downstream(tiny_dataset):
    r1 = run_training(
        make_config(
            tiny_dataset, FedAvgStrategy(), UniformSampler(5), overcommit=1.0,
            always_available=True,
        )
    )
    r2 = run_training(
        make_config(
            tiny_dataset, FedAvgStrategy(), UniformSampler(5), overcommit=1.6,
            always_available=True,
        )
    )
    assert r2.cumulative_down_bytes()[-1] > r1.cumulative_down_bytes()[-1]


def test_bn_buffers_sync_counted(tiny_dataset):
    cfg_with = make_config(
        tiny_dataset,
        FedAvgStrategy(),
        UniformSampler(5),
        model_name="cnn",
        model_kwargs={"widths": (4,)},
        count_buffer_sync=True,
        rounds=4,
    )
    cfg_without = make_config(
        tiny_dataset,
        FedAvgStrategy(),
        UniformSampler(5),
        model_name="cnn",
        model_kwargs={"widths": (4,)},
        count_buffer_sync=False,
        rounds=4,
    )
    with_sync = run_training(cfg_with)
    without = run_training(cfg_without)
    assert (
        with_sync.cumulative_down_bytes()[-1] > without.cumulative_down_bytes()[-1]
    )


def test_bn_buffers_updated_by_training(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        FedAvgStrategy(),
        UniformSampler(5),
        model_name="cnn",
        model_kwargs={"widths": (4,)},
        rounds=3,
    )
    server = FLServer(cfg)
    before = server.global_buffers.copy()
    server.run()
    assert np.abs(server.global_buffers - before).sum() > 0


def test_stop_at_target(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        FedAvgStrategy(),
        UniformSampler(5),
        rounds=50,
        target_accuracy=0.1,  # trivially reachable
        stop_at_target=True,
        eval_every=2,
    )
    result = run_training(cfg)
    assert result.num_rounds < 50


def test_sync_details_collected(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        STCStrategy(q=0.2),
        UniformSampler(5),
        collect_sync_details=True,
        rounds=6,
    )
    result = run_training(cfg)
    details = result.records[3].sync_details
    assert details is not None and len(details) > 0
    cid, gap, nbytes = details[0]
    assert nbytes >= 0


def test_config_validation(tiny_dataset):
    with pytest.raises(ValueError):
        RunConfig(
            dataset=tiny_dataset,
            model_name="mlp",
            strategy=FedAvgStrategy(),
            sampler=UniformSampler(10**6),
            rounds=5,
        ).validate()
    cfg = make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5))
    cfg.weight_mode = "bogus"
    with pytest.raises(ValueError):
        cfg.validate()


def test_validate_rejects_a_trace_that_cannot_survive_a_round(tiny_dataset):
    """A trace must answer both questions a round asks it; one with only
    ``online`` used to pass validate() and fail mid-round."""

    class OnlineOnly:
        def online(self, round_idx):
            return np.ones(tiny_dataset.num_clients, dtype=bool)

    cfg = make_config(
        tiny_dataset, FedAvgStrategy(), UniformSampler(5),
        availability_trace=OnlineOnly(),
    )
    with pytest.raises(ValueError, match="survives_round"):
        cfg.validate()


def test_validate_rejects_a_top_k_that_covers_every_class(tiny_dataset):
    """Top-5 on a 4-class dataset counts every sample correct untrained."""
    assert tiny_dataset.num_classes == 4
    make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5)).validate()
    cfg = make_config(
        tiny_dataset, FedAvgStrategy(), UniformSampler(5), eval_top_k=5
    )
    with pytest.raises(ValueError, match="eval_top_k"):
        cfg.validate()


def test_sticky_sampler_weights_used(tiny_dataset):
    """With sticky sampling, weights differ between buckets (Eq. 3)."""
    strategy, sampler = make_gluefl(5, group_size=20, sticky_count=4, q=0.3, q_shr=0.1)
    cfg = make_config(tiny_dataset, strategy, sampler, rounds=3)
    server = FLServer(cfg)
    nu_s, nu_r = server._weights_for(np.array([0, 1]), np.array([2]))
    p = tiny_dataset.weights()
    np.testing.assert_allclose(nu_s, (20 / 2) * p[[0, 1]])
    np.testing.assert_allclose(
        nu_r, ((tiny_dataset.num_clients - 20) / 1) * p[[2]]
    )


# ---------------------------------------------------------------- evaluation
def _evaluate_traced(model_name):
    """Two ``evaluate()`` calls of a 28×28 float32 server at ``eval_batch``
    256 under ``tracemalloc``: ``(server, bytes kept, peak growth)``."""
    dataset = femnist_like(
        num_clients=20, num_classes=10, image_size=28,
        samples_per_client=32, seed=3,
    )
    cfg = make_config(
        dataset, FedAvgStrategy(), UniformSampler(4),
        model_name=model_name, model_kwargs={}, dtype="float32", eval_batch=256,
    )
    server = FLServer(cfg)
    assert len(dataset.test_y) >= 2 * cfg.eval_batch
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        first = server.evaluate()
        second = server.evaluate()
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        server.close()
    assert first == second
    assert server.model.training
    # the stream's block buffers die with the call, like every activation
    assert held_arrays(server.model) == []
    eval_input = cfg.eval_batch * dataset.test_x[0].size * 4  # 0.8 MB
    assert after - before <= eval_input
    return peak - before


def test_evaluate_is_inference():
    """``evaluate()`` pushes the test set through in eval mode, where no
    layer keeps backward state, and streams 32-sample blocks through the
    conv trunk: the peak is one block's widest transient (+4.9 MB).  The
    whole-batch chain reads +38.6 MB here, and caching every layer's
    im2col matrix, mask and pooling input on top measured +104 MB."""
    peak = _evaluate_traced("cnn")
    assert peak < 12e6, peak


def test_evaluate_streams_a_residual_network():
    """The same bound on ResNetLite, whose row-wise run holds nested
    ``Sequential`` / ``ResidualAdd`` blocks: +9.8 MB, where the
    whole-batch chain reads +78.0 MB."""
    peak = _evaluate_traced("resnet")
    assert peak <= 15e6, peak


def test_evaluate_restores_train_mode_on_error(tiny_dataset):
    """The serial backend trains on the instance ``evaluate`` flips to eval
    mode; an exception mid-evaluation must not leave it there."""
    server = FLServer(make_config(tiny_dataset, FedAvgStrategy(), UniformSampler(5)))

    def boom(x):
        raise FloatingPointError("bad batch")

    server.model.forward = boom
    with pytest.raises(FloatingPointError):
        server.evaluate()
    assert all(m.training for m in server.model.modules())
    server.close()
