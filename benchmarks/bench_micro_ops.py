"""Micro-benchmarks of the library's hot operations.

Not a paper artifact — these guard the performance of the primitives the
simulation spends its time in, at paper-scale dimensions (d = 5M):
top-k selection (dense and support-restricted), staleness bookkeeping,
sparse aggregation, the conv training step in both precisions, and round
dispatch through the execution backends.  Unlike the experiment benches
these use pytest-benchmark's normal repeated timing.

``benchmarks/run_micro_bench.py`` runs the same cases standalone and dumps
``BENCH_micro.json`` so the perf trajectory is tracked across PRs.
"""

import numpy as np
import pytest

from repro.compression.base import ClientPayload
from repro.compression.topk import top_k_indices
from repro.datasets import femnist_like
from repro.fl.staleness import StalenessTracker
from repro.nn import Conv2d, CrossEntropyLoss, Sequential
from repro.runtime import ClientTask, WorkerSpec, create_backend

D = 5_000_000


@pytest.fixture(scope="module")
def big_vector():
    return np.random.default_rng(0).normal(size=D)


def test_topk_5m(benchmark, big_vector):
    idx = benchmark(top_k_indices, big_vector, D // 10)
    assert len(idx) == D // 10


def test_mask_shift_sparse_support_5m(benchmark):
    """Alg. 3 line 26 on the shape an aggregate has: 80 % exact zeros plus
    its sorted support (q = 0.2, q_shr = 0.16).  Dropping ``support=``
    times the pathology this case is named for — introselect over 4M ties
    at zero, an order of magnitude slower than ``test_topk_5m``'s
    tie-free vector of the same length."""
    rng = np.random.default_rng(4)
    support = np.sort(rng.choice(D, size=D // 5, replace=False))
    delta = np.zeros(D)
    delta[support] = rng.normal(size=len(support))
    k_shr = D * 4 // 25
    idx = benchmark(top_k_indices, delta, k_shr, support=support)
    assert len(idx) == k_shr


def test_staleness_bookkeeping_5m(benchmark):
    tracker = StalenessTracker(d=D, num_clients=1000)
    tracker.mark_synced(np.arange(1000))
    changed = np.random.default_rng(1).choice(D, size=D // 10, replace=False)

    def round_bookkeeping():
        tracker.record_update(changed)
        return tracker.download_bytes_many(np.arange(0, 1000, 25))

    nbytes, _ = benchmark(round_bookkeeping)
    assert (nbytes >= 0).all()


def _sparse_payloads(k_clients=30, keep=D // 10):
    rng = np.random.default_rng(2)
    payloads = []
    for i in range(k_clients):
        idx = np.sort(rng.choice(D, size=keep, replace=False))
        payloads.append(
            (i, 1.0 / k_clients, ClientPayload(0, {"idx": idx, "vals": rng.normal(size=keep)}))
        )
    return payloads


def fold_round(payloads):
    """A round's Eq. 6 sum as a strategy builds it: a fresh ``np.zeros``,
    then one ``np.add.at`` scatter (sorted idx) per payload."""
    acc = np.zeros(D, dtype=np.float64)
    for _, weight, payload in payloads:
        np.add.at(acc, payload.data["idx"], weight * payload.data["vals"])
    return acc


def test_sparse_accumulate_scatter_5m(benchmark):
    """The shipped path: each payload folded into the open sum."""
    payloads = _sparse_payloads(k_clients=10)
    acc = benchmark(fold_round, payloads)
    assert np.isfinite(acc).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_conv_training_step(benchmark, dtype):
    rng = np.random.default_rng(3)
    model = Sequential(
        Conv2d(8, 16, 3, padding=1, rng=rng, dtype=dtype),
        Conv2d(16, 16, 3, padding=1, groups=16, rng=rng, dtype=dtype),  # depthwise
    )
    x = rng.normal(size=(16, 8, 14, 14)).astype(dtype)

    def step():
        out = model(x)
        model.backward(np.ones_like(out) / out.size)
        return out

    out = benchmark(step)
    assert out.shape == (16, 16, 14, 14)
    assert out.dtype == dtype


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_round_dispatch_k30(benchmark, backend):
    """One round's worth of client training (K=30) through each backend;
    the process ring has a slot per task, so every result is zero-copy."""
    tasks = [ClientTask(client_id=cid, lr=0.05, round_idx=1) for cid in range(30)]
    dataset = femnist_like(
        num_clients=60, num_classes=8, image_size=8,
        samples_per_client=24, seed=5,
    )
    spec = WorkerSpec(
        model_name="mlp",
        model_kwargs={"hidden": (32,)},
        in_channels=dataset.in_channels,
        num_classes=dataset.num_classes,
        image_size=dataset.image_size,
        local_steps=5,
        batch_size=16,
        momentum=0.9,
        weight_decay=0.0,
        seed=1,
        clients=dataset.clients,
        dtype="float32",
        max_in_flight=len(tasks),
    )
    model, _ = spec.build_trainer()
    from repro.nn.flat import snapshot

    params, buffers = snapshot(model)
    spec.d, spec.num_buffer = len(params), len(buffers)
    engine = create_backend(backend, spec)
    delivered = []
    try:
        benchmark(
            engine.run_clients, tasks, params, buffers,
            lambda result: delivered.append(result.client_id),
        )
    finally:
        engine.close()
    assert delivered[-30:] == list(range(30))
