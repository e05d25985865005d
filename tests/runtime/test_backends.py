"""Runtime-equivalence tests: every execution backend is bit-identical.

The per-client RNG streams (``client/{cid}/round/{t}``) are independent of
execution order and the server compresses/aggregates in task order, so for
the same seed a run must produce *exactly* the same :class:`RunResult` —
params, bytes, timings, losses — on every backend.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.core import make_gluefl
from repro.fl import RunConfig, UniformSampler
from repro.fl.client import LocalTrainer
from repro.fl.server import FLServer, run_training
from repro.nn.flat import snapshot
from repro.nn.models import build_model
from repro.runtime import (
    ClientTask,
    ProcessBackend,
    SerialBackend,
    WorkerLostError,
    WorkerSpec,
    create_backend,
)
from repro.runtime.backends import _run_one, usable_cpus
from repro.utils.rng import RngFactory

#: every wait in these tests gives up after this many seconds
TIMEOUT_S = 10.0


def _config(tiny_dataset, backend="serial", dtype="float64", **overrides):
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=3)
    base = dict(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        rounds=3,
        local_steps=2,
        batch_size=8,
        seed=11,
        eval_every=2,
        execution_backend=backend,
        dtype=dtype,
    )
    base.update(overrides)
    return RunConfig(**base)


def _fingerprint(result):
    return [
        (
            r.round_idx,
            r.down_bytes,
            r.up_bytes,
            r.round_seconds,
            r.train_loss,
            r.accuracy,
            r.num_participants,
        )
        for r in result.records
    ]


# one case, still parametrized: keeps the `[process]` test id it always had
@pytest.mark.parametrize("backend", ["process"])
def test_backend_bit_identical_to_serial(tiny_dataset, backend):
    strategy, sampler = make_gluefl(4, q=0.3, q_shr=0.15, regen_interval=3)
    serial = run_training(_config(tiny_dataset, "serial"))
    other = run_training(_config(tiny_dataset, backend))
    assert _fingerprint(serial) == _fingerprint(other)


def test_backend_final_params_identical(tiny_dataset):
    """Not just the metrics: the global model itself must match exactly."""
    servers = {}
    for backend in ("serial", "process"):
        server = FLServer(_config(tiny_dataset, backend))
        try:
            for _ in range(3):
                server.run_round()
            servers[backend] = (
                server.global_params.copy(),
                server.global_buffers.copy(),
            )
        finally:
            server.close()
    np.testing.assert_array_equal(
        servers["serial"][0], servers["process"][0]
    )
    np.testing.assert_array_equal(
        servers["serial"][1], servers["process"][1]
    )


def test_backend_bit_identical_with_cnn_buffers(tiny_dataset):
    """BatchNorm buffer deltas survive the process boundary unchanged."""
    kwargs = dict(
        model_name="cnn",
        model_kwargs={"widths": (4,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(3),
        rounds=2,
    )
    serial = run_training(_config(tiny_dataset, "serial", **kwargs))
    kwargs["strategy"] = FedAvgStrategy()
    kwargs["sampler"] = UniformSampler(3)
    proc = run_training(_config(tiny_dataset, "process", **kwargs))
    assert _fingerprint(serial) == _fingerprint(proc)


#: seven tasks in an order unrelated to client id, with two learning
#: rates interleaved, so in-order delivery cannot fall out of sorting
_ORDER_TASKS = [
    ClientTask(client_id=cid, lr=lr, round_idx=1)
    for cid, lr in [(7, 0.05), (3, 0.02), (9, 0.05), (1, 0.02), (4, 0.05),
                    (8, 0.05), (2, 0.05)]
]


def _bound_spec(tiny_dataset, slots=len(_ORDER_TASKS)):
    """A spec for an 8-unit MLP on ``tiny_dataset`` whose process ring has
    ``slots`` slots, plus that model's flat params and buffers."""

    def make_trainer():
        model = build_model(
            "mlp",
            in_channels=tiny_dataset.in_channels,
            num_classes=tiny_dataset.num_classes,
            image_size=tiny_dataset.image_size,
            rng=np.random.default_rng(0),
            hidden=(8,),
        )
        return LocalTrainer(model, local_steps=2, batch_size=8)

    params, buffers = snapshot(make_trainer().model)
    spec = WorkerSpec(
        make_trainer=make_trainer,
        clients=tiny_dataset.clients,
        seed=5,
        d=len(params),
        num_buffer=len(buffers),
        max_in_flight=slots,
    )
    return spec, params, buffers


# -- the delivery contract -------------------------------------------------------
# run_clients(tasks, params, buffers, deliver): one deliver(result) per task,
# in task order, on the calling thread, nothing returned.


def _assert_ring_view(backend, result):
    """A process-backend result is borrowed from the backend's ring, not
    a pickle or a copy."""
    assert np.shares_memory(result.delta, backend._res)
    if result.buffer_delta.size:
        assert np.shares_memory(result.buffer_delta, backend._res)


def _delivered(backend, tasks, params, buffers):
    """What ``deliver`` saw: copies (a ring view dies at the next
    dispatch) plus the thread each call ran on."""
    seen = []

    def deliver(result):
        if isinstance(backend, ProcessBackend):
            _assert_ring_view(backend, result)
        seen.append(
            (
                result.client_id,
                result.delta.copy(),
                result.buffer_delta.copy(),
                result.mean_loss,
                threading.get_ident(),
            )
        )

    assert backend.run_clients(tasks, params, buffers, deliver) is None
    return seen


def _assert_contract(seen, tasks):
    assert [cid for cid, *_ in seen] == [t.client_id for t in tasks]
    assert {ident for *_, ident in seen} == {threading.get_ident()}


def test_backends_preserve_task_order(tiny_dataset):
    """Serial and process: one ``deliver`` per task, in task order, on the
    caller's thread, with bit-equal results."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    with SerialBackend(spec) as serial, ProcessBackend(spec, workers=2) as proc:
        want = _delivered(serial, _ORDER_TASKS, params, buffers)
        seen = _delivered(proc, _ORDER_TASKS, params, buffers)
    _assert_contract(want, _ORDER_TASKS)
    _assert_contract(seen, _ORDER_TASKS)
    for (_, delta, buf, loss, _), (_, w_delta, w_buf, w_loss, _) in zip(seen, want):
        np.testing.assert_array_equal(delta, w_delta)
        np.testing.assert_array_equal(buf, w_buf)
        assert loss == w_loss


@pytest.mark.analysis
def test_process_delivery_hands_out_live_ring_views(tiny_dataset):
    """The process backend delivers views into its result ring: readable
    inside ``deliver`` and until the next dispatch (epoch-guarded under the
    sanitizer, which the REPRO_SANITIZE=1 CI job turns on here)."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    with SerialBackend(spec) as serial, ProcessBackend(spec, workers=2) as backend:
        want = _delivered(serial, _ORDER_TASKS, params, buffers)
        held = []
        inside = []

        def deliver(result):
            _assert_ring_view(backend, result)
            inside.append(float(np.abs(result.delta).sum()))
            held.append(result)

        backend.run_clients(_ORDER_TASKS, params, buffers, deliver)
        # after the call, before the next dispatch: still the same bytes
        for result, (cid, w_delta, w_buf, w_loss, _), total in zip(held, want, inside):
            assert result.client_id == cid and result.mean_loss == w_loss
            np.testing.assert_array_equal(np.asarray(result.delta), w_delta)
            np.testing.assert_array_equal(np.asarray(result.buffer_delta), w_buf)
            assert total == float(np.abs(w_delta).sum())
        seen = _delivered(backend, _ORDER_TASKS, params, buffers)
    _assert_contract(seen, _ORDER_TASKS)


# -- a failure mid-stream ---------------------------------------------------------


def _third_fails(tasks):
    """``tasks`` with the third one's training raising ``ValueError``
    (``LocalTrainer.run`` rejects a non-positive step override)."""
    return [
        dataclasses.replace(task, local_steps=0) if i == 2 else task
        for i, task in enumerate(tasks)
    ]


@pytest.mark.parametrize("backend_name", ["serial", "process"])
def test_training_failure_propagates_after_earlier_deliveries(
    tiny_dataset, backend_name
):
    spec, params, buffers = _bound_spec(tiny_dataset)
    with create_backend(backend_name, spec, workers=2) as backend:
        seen = []
        with pytest.raises(ValueError, match="local_steps override"):
            backend.run_clients(
                _third_fails(_ORDER_TASKS), params, buffers,
                lambda result: seen.append(result.client_id),
            )
        assert seen == [7, 3]  # everything before the failure, nothing after
        # pool, replicas and ring are all usable for the next dispatch
        _assert_contract(
            _delivered(backend, _ORDER_TASKS, params, buffers), _ORDER_TASKS
        )


@pytest.mark.parametrize("backend_name", ["serial", "process"])
def test_deliver_failure_propagates_and_leaves_backend_usable(
    tiny_dataset, backend_name
):
    spec, params, buffers = _bound_spec(tiny_dataset)

    class SinkFull(Exception):
        pass

    with create_backend(backend_name, spec, workers=2) as backend:
        seen = []

        def deliver(result):
            if len(seen) == 2:
                raise SinkFull(result.client_id)
            seen.append(result.client_id)

        with pytest.raises(SinkFull, match="9"):
            backend.run_clients(_ORDER_TASKS, params, buffers, deliver)
        assert seen == [7, 3]
        _assert_contract(
            _delivered(backend, _ORDER_TASKS, params, buffers), _ORDER_TASKS
        )


# -- process: fork-shared mappings, and a worker lost mid-task -------------------


def _shm_entries():
    """What ``/dev/shm`` holds — where a named POSIX segment would show."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return sorted(os.listdir("/dev/shm"))


def test_process_backend_names_no_shared_memory(tiny_dataset):
    """Both mappings are anonymous: ``/dev/shm`` is the same before the
    backend exists, after a dispatch, and after ``close()``."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    before = _shm_entries()
    backend = ProcessBackend(spec, workers=2)
    assert _shm_entries() == before
    _assert_contract(
        _delivered(backend, _ORDER_TASKS, params, buffers), _ORDER_TASKS
    )
    assert _shm_entries() == before
    backend.close()
    backend.close()  # idempotent
    assert _shm_entries() == before


class _KillOnFetch:
    """A ``clients`` sequence whose ``__getitem__`` SIGKILLs the calling
    process — only a forked worker, never the parent — when it fetches
    ``victim``, recording its pid and the kill time first."""

    def __init__(self, clients, victim):
        self.clients = clients
        self.victim = victim
        self.parent = os.getpid()
        fork = multiprocessing.get_context("fork")
        self.pid = fork.Value("q", 0, lock=False)
        self.killed_at = fork.Value("d", 0.0, lock=False)

    def __len__(self):
        return len(self.clients)

    def __getitem__(self, cid):
        if cid == self.victim and os.getpid() != self.parent:
            self.pid.value = os.getpid()
            self.killed_at.value = time.monotonic()
            os.kill(os.getpid(), signal.SIGKILL)
        return self.clients[cid]


def _assert_reaped(procs):
    """Every worker has exited and been waited for: not even a zombie."""
    for proc in procs:
        assert proc.exitcode is not None
        assert not os.path.exists(f"/proc/{proc.pid}")


def test_worker_killed_mid_task_raises_worker_lost(tiny_dataset):
    spec, params, buffers = _bound_spec(tiny_dataset)
    spec.clients = victim = _KillOnFetch(spec.clients, _ORDER_TASKS[2].client_id)
    before = _shm_entries()
    backend = ProcessBackend(spec, workers=2)
    procs = list(backend._procs)
    seen = []
    with pytest.raises(WorkerLostError) as lost:
        backend.run_clients(
            _ORDER_TASKS, params, buffers,
            lambda result: seen.append(result.client_id),
        )
    assert time.monotonic() - victim.killed_at.value < 1.0
    message = str(lost.value)
    assert f"worker {victim.pid.value} was killed by signal 9" in message
    assert seen == []  # results are delivered only once all are back
    _assert_reaped(procs)
    # no replacement was forked, and every later dispatch fails the same way
    assert backend._procs == procs
    with pytest.raises(WorkerLostError) as again:
        backend.run_clients(_ORDER_TASKS[:1], params, buffers, seen.append)
    assert str(again.value) == message
    backend.close()
    backend.close()
    assert _shm_entries() == before


def test_worker_killed_between_dispatches_fails_the_next(tiny_dataset):
    spec, params, buffers = _bound_spec(tiny_dataset)
    with ProcessBackend(spec, workers=2) as backend:
        _delivered(backend, _ORDER_TASKS, params, buffers)
        dead = backend._procs[1]
        os.kill(dead.pid, signal.SIGKILL)
        dead.join(TIMEOUT_S)
        with pytest.raises(WorkerLostError, match=f"worker {dead.pid} was killed"):
            backend.run_clients(_ORDER_TASKS, params, buffers, lambda r: None)
        _assert_reaped(backend._procs)


def test_process_stress_bit_equal_to_inline_loop(tiny_dataset, monkeypatch):
    """Four workers on however many cores, 40 tasks into a 40-slot ring
    with the sanitizer's guards on, dispatched twice: the same results, in
    task order, each a view of the ring, as training in turn on one
    replica."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    spec, params, buffers = _bound_spec(tiny_dataset, slots=40)
    n = len(spec.clients)
    tasks = [
        ClientTask(client_id=i % n, lr=0.05, round_idx=3 + i // n)
        for i in range(40)
    ]
    trainer = spec.make_trainer()
    rngs = RngFactory(spec.seed)
    want = [
        _run_one(trainer, rngs, spec.clients, task, params, buffers)
        for task in tasks
    ]
    with ProcessBackend(spec, workers=4) as backend:
        for _ in range(2):  # the second dispatch reclaims the first's ring
            seen = _delivered(backend, tasks, params, buffers)
            _assert_contract(seen, tasks)
            for (cid, delta, buf, loss, _), w in zip(seen, want):
                assert cid == w.client_id and loss == w.mean_loss
                np.testing.assert_array_equal(delta, w.delta)
                np.testing.assert_array_equal(buf, w.buffer_delta)


def test_process_refuses_a_dispatch_past_its_ring(tiny_dataset):
    """Task i writes slot i, so a dispatch one task longer than the ring is
    refused before any task is sent — nothing delivered, and the pool and
    ring serve the next dispatch as before."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    tasks = _ORDER_TASKS + [ClientTask(client_id=0, lr=0.05, round_idx=1)]
    with ProcessBackend(spec, workers=2) as backend:
        seen = []
        with pytest.raises(ValueError, match="8 tasks outgrows .* 7-slot"):
            backend.run_clients(tasks, params, buffers, seen.append)
        assert seen == []
        _assert_contract(
            _delivered(backend, _ORDER_TASKS, params, buffers), _ORDER_TASKS
        )


def test_reused_dynamic_sampler_restarts_at_k0(tiny_dataset):
    """A second server on an annealed ``DynamicScheduleSampler`` starts at
    K_0 again: its ring holds the first round's over-committed cohort, and
    its run reports K_0."""
    from repro.fl.extra_samplers import DynamicScheduleSampler

    sampler = DynamicScheduleSampler(UniformSampler(10), k_min=2, decay=0.5)
    kwargs = dict(strategy=FedAvgStrategy(), sampler=sampler, rounds=3)
    run_training(_config(tiny_dataset, **kwargs))
    assert sampler.k == 2  # annealed: round 3's budget
    kwargs.update(strategy=FedAvgStrategy(), rounds=1)
    server = FLServer(_config(tiny_dataset, "process", **kwargs))
    try:
        assert server.backend.spec.max_in_flight == 13  # ⌈1.3 · 10⌉
        assert server.run().meta["k"] == 10
    finally:
        server.close()


# -- serial: the next client trains while the last one is delivered ------------


class _WatchedTrainer:
    """A trainer proxy: the k-th ``run`` sets ``started[k]`` on entry and
    ``finished[k]`` once its delta exists, and keeps a weakref to that
    delta in ``deltas[k]``."""

    def __init__(self, trainer, n):
        self.trainer = trainer
        self.started = [threading.Event() for _ in range(n)]
        self.finished = [threading.Event() for _ in range(n)]
        self.deltas = []

    def run(self, *args, **kwargs):
        k = len(self.deltas)
        self.started[k].set()
        out = self.trainer.run(*args, **kwargs)
        self.deltas.append(weakref.ref(out.delta))
        self.finished[k].set()
        return out

    def alive(self):
        return sum(ref() is not None for ref in self.deltas)


def _watched_serial(tiny_dataset, n):
    spec, params, buffers = _bound_spec(tiny_dataset)
    backend = SerialBackend(spec)
    backend.trainer = _WatchedTrainer(backend.trainer, n)
    return backend, params, buffers


def test_serial_overlaps_training_with_delivery(tiny_dataset):
    """``deliver(result_i)`` returns only once task i+1's training has
    started, which can only happen on another thread while this one is
    still inside ``deliver``; delivery itself stays on the caller."""
    backend, params, buffers = _watched_serial(tiny_dataset, len(_ORDER_TASKS))
    watched = backend.trainer
    seen = []

    def deliver(result):
        i = len(seen)
        seen.append((result.client_id, threading.get_ident()))
        if i + 1 < len(_ORDER_TASKS):
            assert watched.started[i + 1].wait(TIMEOUT_S), (
                f"task {i + 1} did not start training during deliver {i}"
            )

    backend.run_clients(_ORDER_TASKS, params, buffers, deliver)
    assert [cid for cid, _ in seen] == [t.client_id for t in _ORDER_TASKS]
    assert {ident for _, ident in seen} == {threading.get_ident()}


def test_serial_holds_at_most_two_dense_deltas(tiny_dataset):
    """At every ``deliver`` exactly the delivered delta and the next one
    are alive — once the next has finished training, so a delta the
    backend kept past its own ``deliver`` would show up as a third."""
    backend, params, buffers = _watched_serial(tiny_dataset, len(_ORDER_TASKS))
    watched = backend.trainer
    alive = []

    def deliver(result):
        i = len(alive)
        if i + 1 < len(_ORDER_TASKS):
            assert watched.finished[i + 1].wait(TIMEOUT_S)
        alive.append(watched.alive())

    backend.run_clients(_ORDER_TASKS, params, buffers, deliver)
    assert alive == [2] * (len(_ORDER_TASKS) - 1) + [1]
    assert watched.alive() == 0


def test_serial_one_task_call_starts_no_thread(tiny_dataset, monkeypatch):
    """Every async dispatch is one task: it trains inline, and only a
    second task starts the (one) helper."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    with SerialBackend(spec) as backend:
        seen = _delivered(backend, _ORDER_TASKS[:1], params, buffers)
        assert started == []
        _delivered(backend, _ORDER_TASKS[:2], params, buffers)
    _assert_contract(seen, _ORDER_TASKS[:1])
    assert len(started) == 1 and started[0].startswith("repro-serial")


def test_serial_leaves_no_thread_behind(tiny_dataset):
    """The helper is joined before ``run_clients`` returns or raises: after
    a clean call, a training failure and a ``deliver`` failure."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    threads = threading.active_count()

    def failing_deliver(result):
        raise LookupError(result.client_id)

    with SerialBackend(spec) as backend:
        _delivered(backend, _ORDER_TASKS, params, buffers)
        assert threading.active_count() == threads
        with pytest.raises(ValueError, match="local_steps override"):
            backend.run_clients(
                _third_fails(_ORDER_TASKS), params, buffers, lambda r: None
            )
        assert threading.active_count() == threads
        with pytest.raises(LookupError):
            backend.run_clients(_ORDER_TASKS, params, buffers, failing_deliver)
        assert threading.active_count() == threads


def test_serial_stress_bit_equal_to_inline_loop(tiny_dataset):
    """40 tasks with the interpreter switching threads as often as it can:
    the same results, in the same order, as training and delivering in
    turn on one thread."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    n = len(spec.clients)
    tasks = [
        ClientTask(client_id=i % n, lr=0.05, round_idx=3 + i // n)
        for i in range(40)
    ]
    trainer = spec.make_trainer()
    rngs = RngFactory(spec.seed)
    want = []
    for task in tasks:  # the reference: train, deliver, next
        r = _run_one(trainer, rngs, spec.clients, task, params, buffers)
        want.append((r.client_id, r.delta, r.buffer_delta, r.mean_loss))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SerialBackend(spec) as backend:
            seen = _delivered(backend, tasks, params, buffers)
    finally:
        sys.setswitchinterval(interval)
    _assert_contract(seen, tasks)
    for (cid, delta, buf, loss, _), (w_cid, w_delta, w_buf, w_loss) in zip(seen, want):
        assert cid == w_cid and loss == w_loss
        np.testing.assert_array_equal(delta, w_delta)
        np.testing.assert_array_equal(buf, w_buf)


# -- default pool widths ----------------------------------------------------------


def test_default_pool_widths_follow_the_affinity_mask(tiny_dataset, monkeypatch):
    """Under ``taskset -c 0`` every default-width pool has one worker; a
    platform without an affinity call falls back to the CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1
    spec, _, _ = _bound_spec(tiny_dataset)
    with ProcessBackend(spec) as proc:
        assert proc.workers == 1
    server = FLServer(_config(tiny_dataset, "process"))
    try:
        assert server.backend.workers == 1
    finally:
        server.close()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3


def test_unknown_backend_rejected(tiny_dataset):
    spec, _, _ = _bound_spec(tiny_dataset)
    with pytest.raises(ValueError, match="unknown execution backend"):
        create_backend("gpu", spec)
    with pytest.raises(ValueError, match="execution_backend"):
        _config(tiny_dataset, backend="gpu").validate()
    with pytest.raises(ValueError, match=r"expected \('serial', 'process'\)"):
        _config(tiny_dataset, backend="thread").validate()
