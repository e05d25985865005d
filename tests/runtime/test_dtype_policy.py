"""Dtype-policy tests: float32 runs stay float32 and track float64 closely."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import make_gluefl
from repro.fl import RunConfig
from repro.fl.server import FLServer, run_training
from repro.nn import MLP
from repro.nn.flat import FlatParamView
from repro.nn.models import MODELS, build_model
from repro.runtime import DTYPE_NAMES, cast_model_dtype, resolve_dtype


def test_resolve_dtype_spellings():
    assert resolve_dtype("float32") == np.dtype(np.float32)
    assert resolve_dtype(np.float64) == np.dtype(np.float64)
    assert resolve_dtype(np.dtype("float32")) == np.dtype(np.float32)


@pytest.mark.parametrize("bad", ["int32", "complex128", "bool"])
def test_resolve_dtype_rejects_non_float(bad):
    with pytest.raises(ValueError, match="unsupported runtime dtype"):
        resolve_dtype(bad)


def test_float16_is_rejected_at_both_gates(tiny_dataset):
    """Two run dtypes: a 2-byte float is refused by resolve_dtype and by
    RunConfig.validate() alike, and both errors name the accepted pair."""
    with pytest.raises(ValueError, match=r"\('float32', 'float64'\)"):
        resolve_dtype("float16")
    with pytest.raises(ValueError, match=r"\('float32', 'float64'\)"):
        _config(tiny_dataset, "float16").validate()


def test_bfloat16_is_an_unknown_dtype():
    """Cut, not gated: the ordinary unknown-dtype error, like any other
    name outside ``DTYPE_NAMES``."""
    assert "bfloat16" not in DTYPE_NAMES
    with pytest.raises(ValueError, match="unsupported runtime dtype"):
        resolve_dtype("bfloat16")


@pytest.mark.parametrize("model_name", ["mlp", "cnn", "resnet", "shufflenet", "mobilenet"])
def test_models_thread_dtype_everywhere(model_name):
    model = build_model(
        model_name,
        in_channels=1,
        num_classes=4,
        image_size=16,
        rng=np.random.default_rng(0),
        dtype=np.float32,
    )
    for name, p in model.named_parameters():
        assert p.data.dtype == np.float32, name
        assert p.grad.dtype == np.float32, name
    for name, b in model.named_buffers():
        assert b.data.dtype == np.float32, name
    view = FlatParamView(model)
    assert view.dtype == np.float32
    assert view.get_flat().dtype == np.float32
    assert view.get_buffers_flat().dtype == np.float32
    # a training step keeps activations/gradients in float32 end to end
    x = np.random.default_rng(1).normal(size=(2, 1, 16, 16))
    out = model(x.astype(np.float32))
    assert out.dtype == np.float32
    model.backward(np.ones_like(out) / out.size)
    assert np.concatenate([p.grad.ravel() for p in model.parameters()]).dtype == np.float32


def test_cast_model_dtype_round_trip():
    model = build_model(
        "mlp", in_channels=1, num_classes=3, image_size=8,
        rng=np.random.default_rng(2),
    )
    before = FlatParamView(model).get_flat()
    cast_model_dtype(model, "float32")
    assert FlatParamView(model).dtype == np.float32
    after = FlatParamView(model).get_flat()
    np.testing.assert_allclose(before, after, rtol=1e-6)


def _config(tiny_dataset, dtype):
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=4)
    return RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        rounds=6,
        local_steps=2,
        batch_size=8,
        seed=3,
        eval_every=3,
        dtype=dtype,
    )


def test_float32_run_stays_float32(tiny_dataset):
    server = FLServer(_config(tiny_dataset, "float32"))
    try:
        record = server.run_round()
    finally:
        server.close()
    assert server.global_params.dtype == np.float32
    assert server.strategy.dtype == np.float32
    assert np.isfinite(record.train_loss)


def test_float32_tracks_float64_on_quickstart_scale(tiny_dataset):
    """Same config, both precisions: losses and accuracy stay close."""
    f64 = run_training(_config(tiny_dataset, "float64"))
    f32 = run_training(_config(tiny_dataset, "float32"))
    loss64 = np.array([r.train_loss for r in f64.records])
    loss32 = np.array([r.train_loss for r in f32.records])
    np.testing.assert_allclose(loss32, loss64, rtol=0.05, atol=0.05)
    assert abs(f32.final_accuracy() - f64.final_accuracy()) < 0.1
    # upstream sizes are determined by the mask-size schedule, not values,
    # so they are precision-independent (downstream may differ slightly:
    # float32 top-k can select different coordinates)
    assert [r.up_bytes for r in f32.records] == [r.up_bytes for r in f64.records]


def test_invalid_dtype_rejected(tiny_dataset):
    cfg = _config(tiny_dataset, "int32")
    with pytest.raises(ValueError, match="dtype"):
        cfg.validate()


def _mlp_ignoring_dtype(in_channels, num_classes, image_size, rng=None, **kw):
    """A registry builder written without dtype threading: it drops
    ``dtype=`` and builds float64 layers whatever the run asks for."""
    kw.pop("dtype")
    return MLP(in_channels * image_size * image_size, num_classes=num_classes,
               rng=rng, **kw)


def test_dtype_gate_holds_for_a_builder_that_ignores_dtype(
    tiny_dataset, monkeypatch
):
    """The server's model and every worker replica come out of the same
    gate: a float32 run of a dtype-blind builder is float32 on every
    backend, and the backends stay bit-identical."""
    monkeypatch.setitem(MODELS._entries, "mlp-f64-only", _mlp_ignoring_dtype)
    digests = {}
    for backend in ("serial", "process"):
        cfg = _config(tiny_dataset, "float32")
        cfg.model_name = "mlp-f64-only"
        cfg.execution_backend = backend
        if backend == "process":
            cfg.backend_workers = 2
        server = FLServer(cfg)
        try:
            for _ in range(3):
                server.run_round()
        finally:
            server.close()
        assert server.global_params.dtype == np.float32
        digests[backend] = hashlib.sha256(server.global_params.tobytes()).hexdigest()
    assert digests["serial"] == digests["process"]
