"""Hypothesis differential suite: the server round against the textbook.

Each strategy folds a round's payloads into its sums one at a time, as
they arrive, and selects through ``repro.compression.topk``.  These
properties draw random (d, k, dtype) combinations — empty payloads, empty
shared masks (GlueFL regeneration rounds), k larger than the support —
and compare the folded round against the whole-list numpy expressions
of ``tests/compression/server_reference.py``, bit for bit.

Value data is drawn as a PRNG seed and expanded to continuous normals:
bit-identity of top-k *index sets* is only guaranteed when the k-th
magnitude is untied (the same arbitrary-tie contract ``argpartition``
has), and continuous draws make ties measure-zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import APFStrategy, QuantizedStrategy
from repro.compression.base import ClientPayload
from repro.compression.fedavg import FedAvgStrategy
from repro.compression.gluefl_mask import GlueFLMaskStrategy
from repro.compression.stc import STCStrategy
from repro.compression.topk import top_k_indices
from repro.privacy import PrivateStrategy
from tests.compression import server_reference as reference
from tests.compression.rounds import aggregate_payloads

pytestmark = pytest.mark.server_kernels


# ---------------------------------------------------------------- sums
@given(
    d=st.integers(2, 400),
    num_clients=st.integers(1, 6),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_weighted_sum_bit_identical(d, num_clients, dtype, seed):
    rng = np.random.default_rng(seed)
    payloads = []
    for cid in range(num_clients):
        nnz = int(rng.integers(0, d + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
        vals = rng.normal(size=nnz).astype(dtype)
        payloads.append(
            (
                cid,
                float(rng.uniform(0.1, 3.0)),
                ClientPayload(0, data={"idx": idx, "vals": vals}),
            )
        )
    # STC at q = 1 keeps every coordinate: its global delta is Eq. 6's sum,
    # folded payload by payload into the round's accumulator
    stc = STCStrategy(q=1.0)
    stc.setup(d, rng, dtype=dtype)
    ref = reference.weighted_dense_sum(payloads, d, dtype=dtype)
    got = aggregate_payloads(stc, payloads).global_delta
    np.testing.assert_array_equal(ref, got)


@given(
    d=st.integers(2, 300),
    num_clients=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_slice_sums_bit_identical(d, num_clients, dtype, seed):
    """The dense FedAvg sum, folded payload by payload."""
    rng = np.random.default_rng(seed)
    payloads = [
        (
            cid,
            float(rng.uniform(0.1, 3.0)),
            ClientPayload(0, data={"dense": rng.normal(size=d).astype(dtype)}),
        )
        for cid in range(num_clients)
    ]
    fedavg = FedAvgStrategy()
    fedavg.setup(d, rng, dtype=dtype)
    np.testing.assert_array_equal(
        reference.slice_weighted_sum(payloads, "dense", d, dtype),
        aggregate_payloads(fedavg, payloads).global_delta,
    )


# ------------------------------------------------- full strategy rounds
def run_strategy_rounds(strategy, d, seed, deltas):
    """Drive a strategy through full rounds (compress, fold, aggregate,
    end the round); check each against the textbook round and return the
    per-round ``(global_delta, changed_idx)``."""
    strategy.setup(d, np.random.default_rng(seed), dtype=np.float64)
    out = []
    for t, round_deltas in enumerate(deltas, start=1):
        strategy.begin_round(t)
        payloads = [
            (cid, w, strategy.client_compress(cid, delta, w))
            for cid, w, delta in round_deltas
        ]
        want_delta, want_idx = reference.strategy_round(strategy, payloads)
        agg = aggregate_payloads(strategy, payloads)
        np.testing.assert_array_equal(agg.global_delta, want_delta)
        np.testing.assert_array_equal(agg.changed_idx, want_idx)
        strategy.end_round(agg, t)
        out.append((agg.global_delta.copy(), agg.changed_idx.copy()))
    return out


def draw_deltas(rng, d, rounds):
    return [
        [
            (cid, float(rng.uniform(0.5, 2.0)), rng.normal(size=d))
            for cid in range(3)
        ]
        for _ in range(rounds)
    ]


@given(d=st.integers(30, 200), seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_gluefl_rounds_bit_identical(d, seed):
    """Regeneration and shifted rounds; every mask shift is the dense
    top-``k_shr`` of the round's update."""
    rng = np.random.default_rng(seed)
    s = GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=2)
    rounds = run_strategy_rounds(s, d, seed, draw_deltas(rng, d, 3))
    last_delta, _ = rounds[-1]
    np.testing.assert_array_equal(
        s.mask_idx, top_k_indices(last_delta, s._k_shr)
    )


@given(d=st.integers(30, 200), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_stc_rounds_bit_identical(d, seed):
    rng = np.random.default_rng(seed)
    rounds = run_strategy_rounds(
        STCStrategy(q=0.25), d, seed, draw_deltas(rng, d, 2)
    )
    for global_delta, changed_idx in rounds:
        assert len(changed_idx) == round(0.25 * d)
        np.testing.assert_array_equal(np.flatnonzero(global_delta), changed_idx)


def plain_sparse_round(payloads, d, k):
    """Round 1 of STC / GlueFL (no mask yet) in plain numpy: top-k of the
    scatter-summed uploads."""
    uni = reference.weighted_dense_sum(payloads, d)
    keep = top_k_indices(uni, k)
    delta = np.zeros(d)
    delta[keep] = uni[keep]
    return delta


@pytest.mark.parametrize(
    "make,plain_round",
    [
        (
            lambda: GlueFLMaskStrategy(q=0.3, q_shr=0.15),
            lambda payloads, d: plain_sparse_round(payloads, d, round(0.3 * d)),
        ),
        (
            lambda: STCStrategy(q=0.25),
            lambda payloads, d: plain_sparse_round(payloads, d, round(0.25 * d)),
        ),
        (
            FedAvgStrategy,
            lambda payloads, d: reference.slice_weighted_sum(payloads, "dense", d),
        ),
    ],
    ids=["gluefl", "stc", "fedavg"],
)
def test_strategy_runs_a_round_after_setup_alone(make, plain_round):
    """No server: ``setup()`` is all a strategy needs, and a round on it
    is the plain-expression round."""
    d = 120
    rng = np.random.default_rng(7)
    strategy = make()
    strategy.setup(d, rng)
    strategy.begin_round(1)
    payloads = [
        (cid, 0.5, strategy.client_compress(cid, rng.normal(size=d), 0.5))
        for cid in range(3)
    ]
    agg = aggregate_payloads(strategy, payloads)
    strategy.end_round(agg, 1)
    np.testing.assert_array_equal(agg.global_delta, plain_round(payloads, d))


def _private(inner):
    return PrivateStrategy(
        inner, clip_norm=1.0, noise_multiplier=0.5, values_only=True
    )


FOLDING_STRATEGIES = {
    "gluefl": lambda: GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=2),
    "stc": lambda: STCStrategy(q=0.25),
    "stc-server-residual": lambda: STCStrategy(q=0.25, server_residual=True),
    "apf": lambda: APFStrategy(
        threshold=0.5, check_every=1, base_period=2, warmup_rounds=1
    ),
    "fedavg": FedAvgStrategy,
    # quantized values tie in magnitude, and which of a tie the k-th pick
    # takes is arbitrary (argpartition's contract), so the wrapper rides a
    # strategy whose aggregate selects nothing
    "quantized-fedavg": lambda: QuantizedStrategy(FedAvgStrategy(), bits=4),
    "private-gluefl": lambda: _private(
        GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=2)
    ),
}


def _scatters(strategy):
    """True when the strategy folds its payloads by ``idx`` (Eq. 6)."""
    while hasattr(strategy, "inner"):
        strategy = strategy.inner
    return isinstance(strategy, (GlueFLMaskStrategy, STCStrategy))


def _empty_unique_part(payload):
    """The payload with no sparse part: an empty ``idx`` and ``vals``."""
    data = payload.data
    return ClientPayload(
        0, data=dict(data, idx=data["idx"][:0], vals=data["vals"][:0])
    )


@pytest.mark.parametrize("name", sorted(FOLDING_STRATEGIES))
@given(
    d=st.integers(30, 200),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_fold_then_aggregate_is_the_plain_round(name, d, dtype, seed):
    """Folding a round's payloads one at a time, then ``aggregate()``,
    gives the bits of the whole-list textbook round
    (``reference.strategy_round``) for every strategy and wrapper and
    dtype — over rounds that regenerate GlueFL's mask (an empty shared
    part), carry STC's server residual and freeze APF coordinates, with
    an empty sparse part among every scattering round's payloads."""
    rng = np.random.default_rng(seed)
    strategy = FOLDING_STRATEGIES[name]()
    strategy.setup(d, np.random.default_rng(seed), dtype=dtype)
    for t in range(1, 5):
        strategy.begin_round(t)
        payloads = []
        for cid in range(3):
            weight = float(rng.uniform(0.5, 2.0))
            delta = rng.normal(size=d).astype(dtype)
            payload = strategy.client_compress(cid, delta, weight)
            payloads.append((cid, weight, payload))
        if _scatters(strategy):
            payloads.insert(1, (3, 0.75, _empty_unique_part(payloads[0][2])))
        want_delta, want_idx = reference.strategy_round(strategy, payloads)
        agg = aggregate_payloads(strategy, payloads)
        assert agg.global_delta.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(agg.global_delta, want_delta)
        np.testing.assert_array_equal(agg.changed_idx, want_idx)
        strategy.end_round(agg, t)
