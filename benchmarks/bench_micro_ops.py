"""Micro-benchmarks of the library's hot operations.

Not a paper artifact — these guard the performance of the primitives the
simulation spends its time in, at paper-scale dimensions (d = 5M):
top-k selection (dense and support-restricted), staleness bookkeeping,
sparse aggregation, the conv training step in both precisions, round
dispatch through the execution backends, and one async flush at a device
fleet's shape (its per-arrival path).  Unlike the experiment benches
these use pytest-benchmark's normal repeated timing.  End-to-end
performance across changes is tracked by ``benchmarks/ledger``.
"""

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.compression.base import ClientPayload
from repro.compression.topk import top_k_indices
from repro.datasets import femnist_like, lazy_synthetic_federation
from repro.fl import FLServer, RunConfig, UniformSampler
from repro.fl.client import LocalTrainer
from repro.fl.staleness import StalenessTracker
from repro.nn import Conv2d, CrossEntropyLoss, Sequential
from repro.nn.flat import snapshot
from repro.nn.models import build_model
from repro.population import DeviceStatePopulation, DutyCycleTrace
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
    the process ring has a slot per task, each result a view of its slot."""
    tasks = [ClientTask(client_id=cid, lr=0.05, round_idx=1) for cid in range(30)]
    dataset = femnist_like(
        num_clients=60, num_classes=8, image_size=8,
        samples_per_client=24, seed=5,
    )

    def make_trainer():
        model = build_model(
            "mlp",
            in_channels=dataset.in_channels,
            num_classes=dataset.num_classes,
            image_size=dataset.image_size,
            rng=np.random.default_rng(0),
            dtype=np.float32,
            hidden=(32,),
        )
        return LocalTrainer(model, local_steps=5, batch_size=16)

    params, buffers = snapshot(make_trainer().model)
    spec = WorkerSpec(
        make_trainer=make_trainer,
        clients=dataset.clients,
        seed=1,
        d=len(params),
        num_buffer=len(buffers),
        max_in_flight=len(tasks),
    )
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


def test_async_flush_fleet_shape(benchmark):
    """One async buffer flush on a duty-cycled fleet of 10⁵ lazily built
    clients (buffer 10, 40 in flight, a 36→8→4 model): ten arrivals' pops,
    survival draws, refills, shard builds and local steps — time that goes
    to the per-arrival interpreter and small-array path, not the model."""
    n = 100_000
    population = DeviceStatePopulation(
        n, np.random.default_rng(1),
        trace=DutyCycleTrace(
            n, np.random.default_rng(2), mean_on_fraction=0.8,
            min_period=100, max_period=400,
        ),
        dropout_prob=0.05,
    )
    server = FLServer(
        RunConfig(
            dataset=lazy_synthetic_federation(
                num_clients=n, num_classes=4, image_size=6,
                samples_per_client=8, cache_size=64, seed=0,
            ),
            model_name="mlp", model_kwargs={"hidden": (8,)},
            strategy=FedAvgStrategy(), sampler=UniformSampler(10),
            rounds=10**9, local_steps=1, batch_size=4, lr=0.05,
            eval_every=10**9, dtype="float32", scheduler="async",
            async_buffer_size=10, async_concurrency=40,
            population=population, population_scalable_sampling=True,
            residual_max_clients=256, skip_empty_rounds=True, seed=3,
        )
    )
    try:
        server.run_round()  # warm-up: the in-flight pool fills
        record = benchmark(server.run_round)
    finally:
        server.close()
    assert record.num_participants == 10
