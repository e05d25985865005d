import numpy as np
import pytest

from repro.compression.error_comp import ErrorCompMode, ResidualStore


def test_none_mode_is_identity(rng):
    store = ResidualStore(ErrorCompMode.NONE)
    delta = rng.normal(size=10)
    store.record(3, np.ones(10), weight=2.0)
    np.testing.assert_array_equal(store.compensate(3, delta, 1.0), delta)
    assert len(store) == 0  # NONE never stores


def test_ec_adds_raw_residual(rng):
    store = ResidualStore(ErrorCompMode.EC)
    residual = rng.normal(size=5)
    store.record(1, residual, weight=4.0)
    delta = rng.normal(size=5)
    out = store.compensate(1, delta, current_weight=1.0)
    np.testing.assert_allclose(out, delta + residual.astype(np.float32), rtol=1e-6)


def test_rec_rescales_by_weight_ratio(rng):
    """Eq. 7: Δ + (ν_old / ν_new) · h."""
    store = ResidualStore(ErrorCompMode.REC)
    residual = rng.normal(size=5)
    store.record(1, residual, weight=4.0)
    delta = rng.normal(size=5)
    out = store.compensate(1, delta, current_weight=2.0)
    np.testing.assert_allclose(
        out, delta + 2.0 * residual.astype(np.float32), rtol=1e-6
    )


def test_rec_weighted_contribution_is_preserved(rng):
    """The whole point of re-scaling: ν_new · (scaled h) == ν_old · h."""
    store = ResidualStore(ErrorCompMode.REC)
    h = rng.normal(size=8)
    nu_old, nu_new = 3.0, 0.7
    store.record(0, h, weight=nu_old)
    contribution = nu_new * (store.compensate(0, np.zeros(8), nu_new))
    np.testing.assert_allclose(contribution, nu_old * h, rtol=1e-6)


def test_no_residual_is_identity(rng):
    store = ResidualStore(ErrorCompMode.REC)
    delta = rng.normal(size=4)
    np.testing.assert_array_equal(store.compensate(9, delta, 1.0), delta)


def test_rec_rejects_nonpositive_weight(rng):
    store = ResidualStore(ErrorCompMode.REC)
    store.record(1, np.ones(3), weight=1.0)
    with pytest.raises(ValueError):
        store.compensate(1, np.zeros(3), current_weight=0.0)


def test_peek(rng):
    store = ResidualStore(ErrorCompMode.EC)
    assert store.peek(5) is None
    store.record(5, np.ones(3), weight=2.5)
    h, w = store.peek(5)
    assert w == 2.5
    np.testing.assert_array_equal(h, np.ones(3, dtype=np.float32))


def test_mode_accepts_string():
    assert ResidualStore("rec").mode is ErrorCompMode.REC


@pytest.mark.parametrize("mode", [ErrorCompMode.EC, ErrorCompMode.REC])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compensate_is_bit_identical_to_eq7_reference(rng, mode, dtype):
    """The fused in-place form performs Eq. 7's two operations in the
    delta's dtype — no different from the three-temporary expression."""
    store = ResidualStore(mode)
    residual = rng.normal(size=257).astype(dtype)
    store.record(0, residual.copy(), weight=0.3)
    delta = rng.normal(size=257).astype(dtype)
    kept = delta.copy()
    out = store.compensate(0, delta, current_weight=0.7)

    h = residual.astype(np.float32)
    scale = 0.3 / 0.7 if mode is ErrorCompMode.REC else None
    expected = (
        delta + scale * h.astype(dtype) if scale else delta + h.astype(dtype)
    )
    assert out.dtype == expected.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out, expected)
    # caller-owned: zeroing it touches neither the delta nor the store
    out[:] = 0.0
    np.testing.assert_array_equal(delta, kept)
    np.testing.assert_array_equal(store.peek(0)[0], h)
