"""Half-precision (float16) policy and numerics.

Storage lives in the 2-byte dtype; accumulations are pinned to float32
(:func:`repro.runtime.dtype.accumulation_dtype`) and GEMMs compute through
a float32 widening (:func:`repro.nn.functional.matmul_widened`).  Half
precision is a tolerance mode, not a bit-identical one: these tests pin
the documented tolerance story, the accumulation policy, and the
validation of unsupported combos.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_gluefl
from repro.fl import RunConfig
from repro.fl.server import run_training
from repro.nn.functional import matmul_widened
from repro.runtime.dtype import (
    DTYPE_NAMES,
    HALF_DTYPE_NAMES,
    accumulation_dtype,
    resolve_dtype,
)


def _config(tiny_dataset, dtype, **overrides):
    strategy, sampler = make_gluefl(6, q=0.3, q_shr=0.15, regen_interval=3)
    base = dict(
        dataset=tiny_dataset,
        model_name="cnn",
        model_kwargs={"widths": (4,)},
        strategy=strategy,
        sampler=sampler,
        rounds=6,
        local_steps=3,
        batch_size=8,
        seed=11,
        eval_every=3,
        dtype=dtype,
    )
    base.update(overrides)
    return RunConfig(**base)


# -- dtype policy --------------------------------------------------------------


def test_dtype_names_include_half():
    assert set(HALF_DTYPE_NAMES) <= set(DTYPE_NAMES)


def test_resolve_float16():
    assert resolve_dtype("float16") == np.dtype(np.float16)


def test_bfloat16_is_an_unknown_dtype():
    """Cut, not gated: the ordinary unknown-dtype error, like any other
    name outside ``DTYPE_NAMES``."""
    assert "bfloat16" not in DTYPE_NAMES
    with pytest.raises(ValueError, match="unsupported runtime dtype"):
        resolve_dtype("bfloat16")


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("float16", "float32"),
        ("float32", "float32"),
        ("float64", "float64"),
    ],
)
def test_accumulation_pins_half_to_float32(spec, expected):
    assert accumulation_dtype(spec).name == expected


# -- widened GEMM --------------------------------------------------------------


def test_matmul_widened_is_matmul_for_float32_and_float64(rng):
    for dt in (np.float32, np.float64):
        a = rng.normal(size=(6, 5)).astype(dt)
        b = rng.normal(size=(5, 4)).astype(dt)
        np.testing.assert_array_equal(matmul_widened(a, b), a @ b)
        out = np.empty((6, 4), dtype=dt)
        matmul_widened(a, b, out=out)
        np.testing.assert_array_equal(out, a @ b)


def test_matmul_widened_float16_accumulates_in_float32(rng):
    a = rng.normal(size=(8, 300)).astype(np.float16)
    b = rng.normal(size=(300, 8)).astype(np.float16)
    got = matmul_widened(a, b)
    assert got.dtype == np.float16
    # reference: float32 product rounded once at the end
    ref = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float16)
    np.testing.assert_array_equal(got, ref)
    out = np.empty((8, 8), dtype=np.float16)
    matmul_widened(a, b, out=out)
    np.testing.assert_array_equal(out, ref)


# -- config validation ---------------------------------------------------------


def test_validate_rejects_gaussian_privacy_in_half_precision(tiny_dataset):
    cfg = _config(
        tiny_dataset,
        "float16",
        privacy_mode="gaussian",
        privacy_epsilon=2.0,
        privacy_clip_norm=1.0,
    )
    with pytest.raises(ValueError, match="privacy_mode"):
        cfg.validate()


def test_validate_accepts_plain_float16(tiny_dataset):
    _config(tiny_dataset, "float16").validate()


# -- e2e tolerance story -------------------------------------------------------


def test_float16_tracks_float32_within_tolerance(tiny_dataset):
    """A float16 run follows its float32 twin per the documented story:
    per-step math in the half dtype, long reductions in float32, loss
    within ~1% relative at quickstart scale."""
    r16 = run_training(_config(tiny_dataset, "float16"))
    r32 = run_training(_config(tiny_dataset, "float32"))
    l16 = r16.series("train_loss")
    l32 = r32.series("train_loss")
    assert np.all(np.isfinite(l16))
    np.testing.assert_allclose(l16, l32, rtol=2e-2)
    acc16 = r16.final_accuracy()
    acc32 = r32.final_accuracy()
    assert abs(acc16 - acc32) <= 0.1
