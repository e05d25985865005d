import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.datasets.base import ClientDataset
from repro.fl import FLServer, RunConfig, UniformSampler
from repro.fl.client import LocalTrainer
from repro.nn import MLP, Linear, ReLU, Sequential
from repro.nn.flat import FlatParamView
from repro.nn.models import build_model

from tests.nn.flat_bn import FlatBatchNorm


def make_shard(rng, n=40, classes=3, dim=10):
    return ClientDataset(
        x=rng.normal(size=(n, dim)), y=rng.integers(0, classes, n), client_id=0
    )


class FlatMLP(Sequential):
    """2-D input MLP (no Flatten needed) with a BN layer for buffer tests."""

    def __init__(self, rng, dim=10, classes=3):
        super().__init__(
            Linear(dim, 16, rng=rng),
            FlatBatchNorm(16),
            ReLU(),
            Linear(16, classes, rng=rng),
        )


def test_local_training_reduces_loss(rng):
    model = FlatMLP(rng)
    view = FlatParamView(model)
    trainer = LocalTrainer(model, local_steps=20, batch_size=8)
    shard = make_shard(rng)
    result = trainer.run(
        view.get_flat(), view.get_buffers_flat(), shard, lr=0.1, rng=rng
    )
    assert result.num_samples == 40
    # the delta moves the model: it must be non-trivial
    assert np.abs(result.delta).max() > 0


def test_delta_is_difference_from_global(rng):
    model = FlatMLP(rng)
    view = FlatParamView(model)
    global_params = view.get_flat()
    global_buffers = view.get_buffers_flat()
    trainer = LocalTrainer(model, local_steps=3, batch_size=4)
    result = trainer.run(
        global_params, global_buffers, make_shard(rng), lr=0.05, rng=rng
    )
    np.testing.assert_allclose(
        view.get_flat(), global_params + result.delta, atol=1e-12
    )


def test_buffer_delta_tracks_bn_stats(rng):
    model = FlatMLP(rng)
    view = FlatParamView(model)
    trainer = LocalTrainer(model, local_steps=5, batch_size=8)
    buffers_before = view.get_buffers_flat()
    result = trainer.run(
        view.get_flat(), buffers_before, make_shard(rng), lr=0.05, rng=rng
    )
    assert np.abs(result.buffer_delta).sum() > 0  # running stats moved
    np.testing.assert_allclose(
        view.get_buffers_flat(), buffers_before + result.buffer_delta
    )


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_delta_built_in_place_is_the_plain_difference_bit_for_bit(rng, dtype):
    """``run`` subtracts the globals into ``get_flat()``'s copy instead of
    allocating ``get_flat() - global`` — the same IEEE operation in the same
    dtype, so the bytes (SHA-256 of delta + buffer delta) are those of the
    two-vector expression evaluated on the trained model."""
    model = build_model(
        "cnn", in_channels=1, num_classes=4, image_size=8, rng=rng,
        dtype=np.dtype(dtype), widths=(4,),
    )
    view = FlatParamView(model)
    assert view.dtype == np.dtype(dtype) and view.num_buffer > 0
    theta, bufs = view.get_flat(), view.get_buffers_flat()
    shard = ClientDataset(
        x=rng.normal(size=(24, 1, 8, 8)), y=rng.integers(0, 4, 24), client_id=0
    )
    trainer = LocalTrainer(model, local_steps=3, batch_size=8)
    result = trainer.run(theta, bufs, shard, 0.05, rng)

    def digest(delta, buffer_delta):
        assert delta.dtype == buffer_delta.dtype == np.dtype(dtype)
        return hashlib.sha256(delta.tobytes() + buffer_delta.tobytes()).hexdigest()

    assert digest(result.delta, result.buffer_delta) == digest(
        view.get_flat() - theta, view.get_buffers_flat() - bufs
    )
    assert np.abs(result.delta).max() > 0 and np.abs(result.buffer_delta).max() > 0
    # owned memory, not a view: ClientResult.detach() must stay a no-op on it
    assert result.delta.base is None and result.buffer_delta.base is None


def test_training_is_deterministic_given_rng(rng):
    model = FlatMLP(rng)
    view = FlatParamView(model)
    trainer = LocalTrainer(model, local_steps=4, batch_size=8)
    shard = make_shard(np.random.default_rng(5))
    theta = view.get_flat()
    bufs = view.get_buffers_flat()
    r1 = trainer.run(theta, bufs, shard, 0.05, np.random.default_rng(42))
    r2 = trainer.run(theta, bufs, shard, 0.05, np.random.default_rng(42))
    np.testing.assert_array_equal(r1.delta, r2.delta)


def test_momentum_resets_between_clients(rng):
    """Two identical runs must match — stale momentum would break this."""
    model = FlatMLP(rng)
    view = FlatParamView(model)
    trainer = LocalTrainer(model, local_steps=4, batch_size=8)
    shard = make_shard(np.random.default_rng(5))
    theta = view.get_flat()
    bufs = view.get_buffers_flat()
    r1 = trainer.run(theta, bufs, shard, 0.05, np.random.default_rng(1))
    # interleave a different client
    trainer.run(theta, bufs, make_shard(np.random.default_rng(6)), 0.05, np.random.default_rng(2))
    r3 = trainer.run(theta, bufs, shard, 0.05, np.random.default_rng(1))
    np.testing.assert_array_equal(r1.delta, r3.delta)


def test_zero_lr_gives_zero_delta(rng):
    model = MLP(in_features=10, hidden=(8,), num_classes=3, rng=rng)
    view = FlatParamView(model)
    trainer = LocalTrainer(model, local_steps=3, batch_size=4)
    result = trainer.run(
        view.get_flat(),
        view.get_buffers_flat(),
        make_shard(rng, dim=10),
        lr=1e-300,
        rng=rng,
    )
    assert np.abs(result.delta).max() < 1e-250


def test_run_retains_no_step_scratch(rng):
    """Step temporaries are numpy's to free and layer caches die in the
    backward that reads them: once ``run`` returns, only the result stays
    live.  Both shard shapes count — a ragged last batch (32 + 2 samples:
    a pool that parks every shape it ever served shows up) and a full one
    (2 × 32: layers that kept their last batch's im2col / norm / pool
    planes retained ≈ 11.5 MB here)."""
    model = build_model(
        "cnn", in_channels=1, num_classes=10, image_size=28, rng=rng
    )
    view = FlatParamView(model)
    trainer = LocalTrainer(model, local_steps=2, batch_size=32)
    theta, bufs = view.get_flat(), view.get_buffers_flat()
    vector = view.num_trainable * theta.itemsize
    for n_samples in (34, 64):
        shard = ClientDataset(
            x=rng.normal(size=(n_samples, 1, 28, 28)),
            y=rng.integers(0, 10, n_samples),
            client_id=0,
        )
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = trainer.run(theta, bufs, shard, 0.05, rng)
            gc.collect()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.delta.nbytes == vector
        # the step really did allocate well beyond what may stay resident
        assert peak - before > 256 * vector
        assert after - before <= 32 * vector, n_samples


def test_validation(rng):
    model = FlatMLP(rng)
    with pytest.raises(ValueError):
        LocalTrainer(model, local_steps=0, batch_size=4)


def test_bound_trainer_matches_a_fresh_trainer_per_participation(rng):
    """One trainer binds one optimizer for its life.  Clients A, B, then A
    again on it give, bit for bit, the deltas a fresh trainer gives each
    of them: no momentum and no learning rate leak from one participation
    into the next."""
    model = FlatMLP(np.random.default_rng(11))
    view = FlatParamView(model)
    theta, bufs = view.get_flat(), view.get_buffers_flat()
    shards = {
        "A": make_shard(np.random.default_rng(5)),
        "B": make_shard(np.random.default_rng(6)),
    }
    lrs = {"A": 0.05, "B": 0.2}

    def run(trainer, name):
        return trainer.run(
            theta, bufs, shards[name], lrs[name], np.random.default_rng(ord(name))
        )

    def fresh(name):
        model = FlatMLP(np.random.default_rng(11))
        return run(LocalTrainer(model, local_steps=4, batch_size=8), name)

    bound = LocalTrainer(model, local_steps=4, batch_size=8)
    for name in ("A", "B", "A"):
        got, want = run(bound, name), fresh(name)
        np.testing.assert_array_equal(got.delta, want.delta)
        np.testing.assert_array_equal(got.buffer_delta, want.buffer_delta)
        assert got.mean_loss == want.mean_loss


def test_run_after_evaluate_trains_in_training_mode(tiny_dataset):
    """The serial backend trains on the model ``server.evaluate()`` runs in
    eval mode: the next ``run`` trains in training mode, so the CNN's
    batch-norm running statistics move — also when the model was left in
    eval mode."""
    server = FLServer(
        RunConfig(
            dataset=tiny_dataset, model_name="cnn", strategy=FedAvgStrategy(),
            sampler=UniformSampler(2), rounds=1, local_steps=2, batch_size=8,
            seed=3,
        )
    )
    try:
        assert server.view.num_buffer > 0
        for leave_in_eval in (False, True):
            server.evaluate()
            if leave_in_eval:
                server.model.eval()
            result = server.trainer.run(
                server.global_params, server.global_buffers,
                tiny_dataset.clients[0], 0.05, np.random.default_rng(0),
            )
            assert server.model.training
            assert np.abs(result.buffer_delta).max() > 0
    finally:
        server.close()


@pytest.mark.parametrize("lr", [0.0, -0.1])
def test_run_rejects_a_non_positive_learning_rate(rng, lr):
    model = FlatMLP(rng)
    view = FlatParamView(model)
    trainer = LocalTrainer(model, local_steps=2, batch_size=8)
    with pytest.raises(ValueError, match="learning rate"):
        trainer.run(
            view.get_flat(), view.get_buffers_flat(), make_shard(rng), lr, rng
        )
