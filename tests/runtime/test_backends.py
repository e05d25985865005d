"""Runtime-equivalence tests: every execution backend is bit-identical.

The per-client RNG streams (``client/{cid}/round/{t}``) are independent of
execution order and the server compresses/aggregates in task order, so for
the same seed a run must produce *exactly* the same :class:`RunResult` —
params, bytes, timings, losses — on every backend.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.core import make_gluefl
from repro.fl import RunConfig, UniformSampler
from repro.fl.server import FLServer, run_training
from repro.runtime import (
    ClientTask,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerSpec,
    create_backend,
)


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


@pytest.mark.parametrize("backend", ["thread", "process"])
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


def _spec(tiny_dataset, dtype="float64"):
    return WorkerSpec(
        model_name="mlp",
        model_kwargs={"hidden": (8,)},
        in_channels=tiny_dataset.in_channels,
        num_classes=tiny_dataset.num_classes,
        image_size=tiny_dataset.image_size,
        local_steps=2,
        batch_size=8,
        momentum=0.9,
        weight_decay=0.0,
        seed=5,
        clients=tiny_dataset.clients,
        dtype=dtype,
    )


# -- the delivery contract -------------------------------------------------------
# run_clients(tasks, params, buffers, deliver): one deliver(result) per task,
# in task order, on the calling thread, nothing returned.


def _bound_spec(tiny_dataset, **overrides):
    from repro.nn.flat import snapshot

    spec = _spec(tiny_dataset)
    for name, value in overrides.items():
        setattr(spec, name, value)
    model, _ = spec.build_trainer()
    params, buffers = snapshot(model)
    spec.d, spec.num_buffer = len(params), len(buffers)
    return spec, params, buffers


#: two interleaved (steps, lr) groups, so a batched chunk's results have
#: to wait for the other group's before they are next in task order
_ORDER_TASKS = [
    ClientTask(client_id=cid, lr=lr, round_idx=1)
    for cid, lr in [(7, 0.05), (3, 0.02), (9, 0.05), (1, 0.02), (4, 0.05),
                    (8, 0.05), (2, 0.05)]
]


def _delivered(backend, tasks, params, buffers):
    """What ``deliver`` saw: copies (a ring view dies at the next
    dispatch) plus the thread each call ran on."""
    seen = []

    def deliver(result):
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
    """Serial and thread: one ``deliver`` per task, in task order, on the
    caller's thread, with bit-equal results."""
    spec, params, buffers = _bound_spec(tiny_dataset)
    with SerialBackend(spec) as serial, ThreadBackend(spec, workers=2) as thread:
        want = _delivered(serial, _ORDER_TASKS, params, buffers)
        seen = _delivered(thread, _ORDER_TASKS, params, buffers)
    _assert_contract(want, _ORDER_TASKS)
    _assert_contract(seen, _ORDER_TASKS)
    for (_, delta, buf, loss, _), (_, w_delta, w_buf, w_loss, _) in zip(seen, want):
        np.testing.assert_array_equal(delta, w_delta)
        np.testing.assert_array_equal(buf, w_buf)
        assert loss == w_loss


def test_batched_delivery_is_ordered_across_interleaved_groups(tiny_dataset):
    """Chunks of up to three same-(steps, lr) tasks train together; their
    results still arrive one by one in task order.  The batched kernels
    reorder float sums, so arrays match serial to rounding, not bit for bit."""
    spec, params, buffers = _bound_spec(tiny_dataset, batch_replicas=3)
    with SerialBackend(spec) as serial, ThreadBackend(spec, workers=2) as backend:
        assert backend._batched is not None
        want = _delivered(serial, _ORDER_TASKS, params, buffers)
        seen = _delivered(backend, _ORDER_TASKS, params, buffers)
    _assert_contract(seen, _ORDER_TASKS)
    for (_, delta, *_), (_, w_delta, *_) in zip(seen, want):
        np.testing.assert_allclose(delta, w_delta, atol=1e-10)


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
            assert result.delta.base is not None  # borrowed, not copied
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


def _assert_thread_backend_idle(backend):
    assert backend._replicas.qsize() == backend.workers
    assert backend._pool._work_queue.qsize() == 0


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
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
        if backend_name == "thread":
            _assert_thread_backend_idle(backend)
        # pool, replicas and ring are all usable for the next dispatch
        _assert_contract(
            _delivered(backend, _ORDER_TASKS, params, buffers), _ORDER_TASKS
        )


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
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
        if backend_name == "thread":
            _assert_thread_backend_idle(backend)
        _assert_contract(
            _delivered(backend, _ORDER_TASKS, params, buffers), _ORDER_TASKS
        )


def test_unknown_backend_rejected(tiny_dataset):
    spec = _spec(tiny_dataset)
    with pytest.raises(ValueError, match="unknown execution backend"):
        create_backend("gpu", spec)
    with pytest.raises(ValueError, match="execution_backend"):
        _config(tiny_dataset, backend="gpu").validate()
