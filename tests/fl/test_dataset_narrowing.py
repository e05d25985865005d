"""A run stores its federation in the run dtype, and only its own copy.

``FLServer`` narrows an eager float64 federation to a narrower run dtype
once, at setup, into a new ``FederatedDataset`` on its own config.
Training and evaluation also cast every batch to the run dtype, so the
oracle for "same results" is a run with narrowing switched off
(``narrowed`` returns the federation unchanged), which casts per batch.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import make_gluefl
from repro.datasets import FederatedDataset, femnist_like, lazy_synthetic_federation
from repro.fl import RunConfig
from repro.fl.server import FLServer


def _dataset():
    return femnist_like(
        num_clients=30, num_classes=4, image_size=8, samples_per_client=20,
        min_samples=5, seed=7,
    )


def _config(dataset, dtype="float32", **overrides):
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=3)
    return RunConfig(
        dataset=dataset, model_name="mlp", model_kwargs={"hidden": (16,)},
        strategy=strategy, sampler=sampler, rounds=3, local_steps=2,
        batch_size=8, seed=11, eval_every=2, dtype=dtype, **overrides,
    )


def _outcome(server, rounds=3):
    """Round records plus a digest of the final global model."""
    try:
        records = [
            (r.down_bytes, r.up_bytes, r.train_loss, r.accuracy)
            for r in (server.run_round() for _ in range(rounds))
        ]
        return records, hashlib.sha256(server.global_params.tobytes()).hexdigest()
    finally:
        server.close()


def test_narrowed_run_leaves_the_callers_dataset_untouched():
    ds = _dataset()
    xs = [c.x.copy() for c in ds.clients]
    test_x = ds.test_x.copy()
    cfg = _config(ds)
    server = FLServer(cfg)
    _outcome(server, rounds=2)
    assert cfg.dataset is ds and server.config.dataset is not ds
    for c, x in zip(ds.clients, xs):
        assert c.x.dtype == np.float64
        np.testing.assert_array_equal(c.x, x)
    assert ds.test_x.dtype == np.float64
    np.testing.assert_array_equal(ds.test_x, test_x)
    narrowed = server.config.dataset
    assert narrowed.test_x.dtype == np.float32
    for c, mine in zip(ds.clients, narrowed.clients):
        assert mine.x.dtype == np.float32 and mine.y is c.y
        assert mine.client_id == c.client_id
        np.testing.assert_array_equal(mine.x, c.x.astype(np.float32))


def test_float64_run_after_a_narrowed_one_is_unchanged():
    ds = _dataset()
    _outcome(FLServer(_config(ds)))
    again = _outcome(FLServer(_config(ds, "float64")))
    assert again == _outcome(FLServer(_config(_dataset(), "float64")))


def test_float64_run_keeps_the_very_same_dataset():
    cfg = _config(_dataset(), "float64")
    server = FLServer(cfg)
    assert server.config is cfg and server.config.dataset is cfg.dataset


def test_narrow_dataset_is_not_widened():
    ds32 = _dataset().narrowed(np.float32)
    assert ds32.clients[0].x.dtype == np.float32
    server = FLServer(_config(ds32, "float64"))
    assert server.config.dataset is ds32


def test_weights_and_metadata_are_preserved():
    ds = _dataset()
    server = FLServer(_config(ds))
    narrowed = server.config.dataset
    np.testing.assert_array_equal(narrowed.weights(), ds.weights())
    np.testing.assert_array_equal(server.p, ds.weights())
    assert narrowed.test_y is ds.test_y
    for attr in ("num_classes", "in_channels", "image_size", "name"):
        assert getattr(narrowed, attr) == getattr(ds, attr)


@pytest.mark.parametrize(
    "dtype, overrides",
    [
        ("float32", {}),
        ("float16", {}),
        ("float32", {"execution_backend": "process", "backend_workers": 2}),
        (
            "float32",
            {
                "execution_backend": "thread", "backend_workers": 1,
                "batch_replicas": 4,
            },
        ),
    ],
    ids=["serial", "serial-float16", "process", "batch_replicas"],
)
def test_backends_train_on_run_dtype_shards_bit_identically(
    monkeypatch, dtype, overrides
):
    server = FLServer(_config(_dataset(), dtype, **overrides))
    shards = server.backend.spec.clients
    assert all(c.x.dtype == np.dtype(dtype) for c in shards)
    narrowed = _outcome(server)
    # narrowing off: the shards stay float64 and every batch is cast
    monkeypatch.setattr(FederatedDataset, "narrowed", lambda self, dtype: self)
    server = FLServer(_config(_dataset(), dtype, **overrides))
    assert server.backend.spec.clients[0].x.dtype == np.float64
    assert _outcome(server) == narrowed


def test_lazy_federation_is_left_alone():
    ds = lazy_synthetic_federation(num_clients=50, seed=1)
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=3)
    server = FLServer(
        RunConfig(
            dataset=ds, model_name="mlp", model_kwargs={"hidden": (8,)},
            strategy=strategy, sampler=sampler, rounds=1, batch_size=4,
            dtype="float32", seed=0,
        )
    )
    assert server.config.dataset is ds
    assert callable(server.config.dataset.clients.factory)
    _outcome(server, rounds=1)
