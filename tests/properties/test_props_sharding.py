"""Hypothesis differential suite: every shard count is bit-identical.

The contract of :mod:`repro.sharding` is that the shard count changes
*nothing* — not within tolerance, but bit-for-bit.  These properties draw
random (d, shard_count, k, dtype, scheduler) combinations — one shard,
ragged last shards (d % shard_count != 0), more shards than coordinates,
k larger than every shard — and compare the kernels against the plain
numpy expressions (``tests/sharding/reference.py``), and a full strategy
round and whole scheduler runs at N shards against the default one shard
(which the goldens pin).

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
from repro.privacy import PrivateStrategy
from repro.sharding import ShardingRuntime
from tests.compression.rounds import aggregate_payloads
from tests.sharding import reference

pytestmark = pytest.mark.sharding


# ------------------------------------------------------------- kernels
@given(
    d=st.integers(2, 400),
    shard_count=st.integers(1, 32),
    k=st.integers(0, 450),
    seed=st.integers(0, 2**32 - 1),
)
def test_topk_bit_identical(d, shard_count, k, seed):
    x = np.random.default_rng(seed).normal(size=d)
    rt = ShardingRuntime(d, shard_count)
    try:
        np.testing.assert_array_equal(
            reference.select_top_k(x, k), rt.top_k_indices(x, k)
        )
    finally:
        rt.close()


@given(
    d=st.integers(2, 400),
    shard_count=st.integers(1, 32),
    num_clients=st.integers(1, 6),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_weighted_sum_bit_identical(
    d, shard_count, num_clients, dtype, seed
):
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
    # folded payload by payload into the accumulator of the bound runtime
    stc = STCStrategy(q=1.0)
    stc.setup(d, rng, dtype=dtype)
    rt = ShardingRuntime(d, shard_count)
    stc.bind_sharding(rt)
    try:
        ref = reference.weighted_dense_sum(payloads, d, dtype=dtype)
        got = aggregate_payloads(stc, payloads).global_delta
        np.testing.assert_array_equal(ref, got)
    finally:
        rt.close()


@given(
    d=st.integers(2, 300),
    shard_count=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_elementwise_add_bit_identical(d, shard_count, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=d).astype(np.float32)
    b = rng.normal(size=d).astype(np.float32)
    rt = ShardingRuntime(d, shard_count)
    try:
        np.testing.assert_array_equal(
            reference.elementwise_add(a, b), rt.elementwise_add(a, b)
        )
    finally:
        rt.close()


@given(
    d=st.integers(2, 300),
    shard_count=st.integers(1, 32),
    num_clients=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_slice_sums_bit_identical(d, shard_count, num_clients, dtype, seed):
    """The dense FedAvg sum, folded through a ``shard_count``-shard
    runtime."""
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
    fedavg.bind_sharding(ShardingRuntime(d, shard_count))
    np.testing.assert_array_equal(
        reference.slice_weighted_sum(payloads, "dense", d, dtype),
        aggregate_payloads(fedavg, payloads).global_delta,
    )


# ------------------------------------------------- full strategy rounds
def run_strategy_rounds(make, d, seed, deltas, shard_count=None, backend="serial"):
    """Drive a strategy through full rounds; return per-round deltas.

    ``shard_count=None`` drives it after ``setup()`` alone — on the
    one-shard runtime ``setup()`` leaves bound."""
    strategy = make()
    strategy.setup(d, np.random.default_rng(seed), dtype=np.float64)
    assert strategy.sharding.spec.count == 1
    rt = None
    if shard_count is not None:
        rt = ShardingRuntime(d, shard_count, backend=backend)
        strategy.bind_sharding(rt)
    out = []
    try:
        for t, round_deltas in enumerate(deltas, start=1):
            strategy.begin_round(t)
            payloads = [
                (cid, w, strategy.client_compress(cid, delta, w))
                for cid, w, delta in round_deltas
            ]
            agg = aggregate_payloads(strategy, payloads)
            strategy.end_round(agg, t)
            out.append((agg.global_delta.copy(), agg.changed_idx.copy()))
    finally:
        if rt is not None:
            rt.close()
    return out


@given(
    d=st.integers(30, 200),
    shard_count=st.sampled_from([1, 2, 7, 16]),
    backend=st.sampled_from(["serial", "thread"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_gluefl_rounds_bit_identical(d, shard_count, backend, seed):
    rng = np.random.default_rng(seed)
    deltas = [
        [
            (cid, float(rng.uniform(0.5, 2.0)), rng.normal(size=d))
            for cid in range(3)
        ]
        for _ in range(3)
    ]
    make = lambda: GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=2)
    base = run_strategy_rounds(make, d, seed, deltas)
    shard = run_strategy_rounds(
        make, d, seed, deltas, shard_count=shard_count, backend=backend
    )
    for (gd_a, ci_a), (gd_b, ci_b) in zip(base, shard):
        np.testing.assert_array_equal(gd_a, gd_b)
        np.testing.assert_array_equal(ci_a, ci_b)


@given(
    d=st.integers(30, 200),
    shard_count=st.sampled_from([1, 2, 7, 16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_stc_rounds_bit_identical(d, shard_count, seed):
    rng = np.random.default_rng(seed)
    deltas = [
        [
            (cid, float(rng.uniform(0.5, 2.0)), rng.normal(size=d))
            for cid in range(3)
        ]
        for _ in range(2)
    ]
    make = lambda: STCStrategy(q=0.25)
    base = run_strategy_rounds(make, d, seed, deltas)
    shard = run_strategy_rounds(make, d, seed, deltas, shard_count=shard_count)
    for (gd_a, ci_a), (gd_b, ci_b) in zip(base, shard):
        np.testing.assert_array_equal(gd_a, gd_b)
        np.testing.assert_array_equal(ci_a, ci_b)


def plain_sparse_round(payloads, d, k):
    """Round 1 of STC / GlueFL (no mask yet) in plain numpy: top-k of the
    scatter-summed uploads."""
    uni = reference.weighted_dense_sum(payloads, d)
    keep = reference.select_top_k(uni, k)
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
    """No server, no ``bind_sharding``: ``setup()`` leaves a one-shard
    runtime bound, and a round on it is the plain-expression round."""
    d = 120
    rng = np.random.default_rng(7)
    strategy = make()
    strategy.setup(d, rng)
    assert strategy.sharding.spec.count == 1
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
    # takes may differ with the shard count (argpartition's contract), so
    # the wrapper rides a strategy whose aggregate selects nothing
    "quantized-fedavg": lambda: QuantizedStrategy(FedAvgStrategy(), bits=4),
    "private-gluefl": lambda: _private(
        GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=2)
    ),
}


@pytest.mark.parametrize("name", sorted(FOLDING_STRATEGIES))
@given(
    d=st.integers(30, 200),
    shard_count=st.sampled_from([1, 3, 7]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_fold_then_aggregate_is_the_plain_round(name, d, shard_count, dtype, seed):
    """Folding a round's payloads one at a time, then ``aggregate()``,
    gives the bits of the whole-list textbook round
    (``reference.strategy_round``) for every strategy and wrapper, dtype
    and shard count — over rounds that regenerate GlueFL's mask, carry
    STC's server residual and freeze APF coordinates."""
    rng = np.random.default_rng(seed)
    strategy = FOLDING_STRATEGIES[name]()
    strategy.setup(d, np.random.default_rng(seed), dtype=dtype)
    rt = ShardingRuntime(d, shard_count)
    strategy.bind_sharding(rt)
    try:
        for t in range(1, 5):
            strategy.begin_round(t)
            payloads = []
            for cid in range(3):
                weight = float(rng.uniform(0.5, 2.0))
                delta = rng.normal(size=d).astype(dtype)
                payload = strategy.client_compress(cid, delta, weight)
                payloads.append((cid, weight, payload))
            want_delta, want_idx = reference.strategy_round(strategy, payloads)
            agg = aggregate_payloads(strategy, payloads)
            assert agg.global_delta.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(agg.global_delta, want_delta)
            np.testing.assert_array_equal(agg.changed_idx, want_idx)
            strategy.end_round(agg, t)
    finally:
        rt.close()


# --------------------------------------------------- whole scheduler runs
@pytest.fixture(scope="module")
def prop_dataset():
    from repro.datasets import femnist_like

    return femnist_like(
        num_clients=30,
        num_classes=4,
        image_size=8,
        samples_per_client=16,
        min_samples=5,
        seed=11,
    )


@given(
    shard_count=st.sampled_from([2, 7, 16]),
    backend=st.sampled_from(["serial", "thread"]),
    scheduler=st.sampled_from(["sync", "async"]),
)
@settings(max_examples=6, deadline=None)
def test_scheduler_runs_bit_identical(
    prop_dataset, shard_count, backend, scheduler
):
    from repro.core import make_gluefl
    from repro.fl import FLServer, RunConfig

    def run(**overrides):
        strategy, sampler = make_gluefl(
            4, group_size=12, sticky_count=3, q=0.25, q_shr=0.15
        )
        params = dict(
            dataset=prop_dataset,
            model_name="mlp",
            model_kwargs={"hidden": (8,)},
            strategy=strategy,
            sampler=sampler,
            rounds=3,
            local_steps=1,
            batch_size=8,
            lr=0.05,
            eval_every=10,
            seed=5,
            always_available=True,
        )
        if scheduler == "async":
            params.update(scheduler="async", async_buffer_size=3)
        params.update(overrides)
        server = FLServer(RunConfig(**params))
        try:
            for _ in range(3):
                server.run_round()
            return server.global_params.copy()
        finally:
            server.close()

    base = run()
    got = run(shard_count=shard_count, shard_backend=backend)
    np.testing.assert_array_equal(base, got)
