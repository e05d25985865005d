"""Hypothesis properties of the support-sized server kernels.

A server-side vector is zero outside a known sorted support (the
``AggregateResult`` invariant), so the mask shift
(``top_k_indices(x, k, support=support)``) selects among the support's values only and index sets are combined by a
linear merge.  Both must be indistinguishable from the dense formulations
they replace: ``top_k_indices`` over the scattered vector whenever the
k-th magnitude is untied, and ``np.union1d``.

Values are continuous draws from a seeded PRNG, so ties among non-zeros
are measure-zero; exact zeros are planted *inside* the support on
purpose (an aggregate can cancel to zero on a listed coordinate).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.gluefl_mask import GlueFLMaskStrategy
from repro.compression.topk import (
    top_k_in_support,
    top_k_indices,
    union_sorted,
)
from tests.compression.rounds import aggregate_payloads

pytestmark = pytest.mark.server_kernels


def sparse_vector(rng, d, support_size, zeros_inside):
    """``(x, support)``: ``x`` is zero outside the sorted ``support`` and
    at ``zeros_inside`` of its members."""
    support = np.sort(rng.choice(d, size=support_size, replace=False)).astype(
        np.int64
    )
    x = np.zeros(d)
    x[support] = rng.normal(size=support_size)
    x[rng.choice(support, size=zeros_inside, replace=False)] = 0.0
    return x, support


sparse_cases = st.tuples(
    st.integers(2, 400),  # d
    st.floats(0.0, 1.0),  # support size as a fraction of d
    st.floats(0.0, 1.0),  # zeros inside the support, as a fraction of it
    st.floats(0.0, 1.0),  # k as a fraction of the non-zero count
    st.integers(0, 2**32 - 1),
)


def draw_untied(case):
    """A sparse vector and a ``k`` whose k-th magnitude is non-zero."""
    d, f_support, f_zeros, f_k, seed = case
    rng = np.random.default_rng(seed)
    m = max(1, round(f_support * d))
    z = min(m - 1, round(f_zeros * m))
    x, support = sparse_vector(rng, d, m, z)
    k = max(1, round(f_k * (m - z)))
    return x, support, k


@given(sparse_cases)
def test_support_topk_equals_dense_when_untied(case):
    x, support, k = draw_untied(case)
    expected = top_k_indices(x, k)
    np.testing.assert_array_equal(
        top_k_in_support(x[support], support, k), expected
    )
    got = top_k_indices(x, k, support=support)
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == np.int64


@given(
    d=st.integers(2, 200),
    support_size=st.integers(0, 200),
    extra=st.integers(0, 250),
    seed=st.integers(0, 2**32 - 1),
)
def test_k_at_least_support_is_todays_dense_result(d, support_size, extra, seed):
    """``k >= |support|`` needs coordinates from outside the support:
    the answer is whatever the dense selection gives (ties and all)."""
    rng = np.random.default_rng(seed)
    m = min(support_size, d)
    x, support = sparse_vector(rng, d, m, 0)
    k = m + extra
    np.testing.assert_array_equal(
        top_k_indices(x, k, support=support), top_k_indices(x, k)
    )
    # the coordinate-form helper has nothing outside the support to offer
    np.testing.assert_array_equal(
        top_k_in_support(x[support], support, k), support
    )


sorted_index_sets = st.lists(
    st.integers(0, 300), min_size=0, max_size=120, unique=True
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


@given(sorted_index_sets, sorted_index_sets)
def test_union_sorted_equals_union1d(a, b):
    """Disjoint, overlapping, identical and empty inputs alike."""
    got = union_sorted(a, b)
    np.testing.assert_array_equal(got, np.union1d(a, b))
    assert got.dtype == np.int64


@given(
    d=st.integers(20, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_gluefl_mask_shift_equals_dense_topk(d, seed):
    """Regeneration (empty mask) and shifted rounds: the next mask is the
    dense ``top_{q_shr}(Δ̃_t)`` and ``changed_idx`` is ``mask ∪ keep``."""
    rng = np.random.default_rng(seed)
    s = GlueFLMaskStrategy(q=0.3, q_shr=0.2, regen_interval=3)
    s.setup(d, rng)
    for t in range(1, 5):
        s.begin_round(t)
        mask = s._effective_mask()
        assert (len(mask) == 0) == (t in (1, 3))
        payloads = [
            (i, 0.5, s.client_compress(i, rng.normal(size=d), 0.5))
            for i in range(2)
        ]
        agg = aggregate_payloads(s, payloads)
        np.testing.assert_array_equal(
            agg.changed_idx,
            np.union1d(mask, np.flatnonzero(agg.global_delta)),
        )
        s.end_round(agg, t)
        np.testing.assert_array_equal(
            s.mask_idx, top_k_indices(agg.global_delta, s._k_shr)
        )
