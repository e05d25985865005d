"""Pluggable client-execution backends for the round loop.

The FL round is embarrassingly parallel on the client side: every
participant trains from the *same frozen* global parameters with its own
named RNG stream, so client results do not depend on execution order.  A
backend receives the round's :class:`ClientTask` list, the frozen
``global_params``/``global_buffers`` and a ``deliver`` callable, and hands
``deliver`` one :class:`ClientResult` per task, **in task order, on the
calling thread** — the round compresses inside ``deliver`` and drops the
result, in that deterministic order, which is what makes every backend
bit-identical to serial execution.  When a result is delivered depends on
the backend: serial delivers each one as soon as it lands, so at most two
dense deltas are alive; process delivers a dispatch's results once the
whole dispatch returns, as views into a shared ring rather than heap
copies.

Backends
--------
``serial``
    One shared model instance in the calling process (the seed behavior),
    trained one client at a time; from the second task on, training runs
    on one per-call helper thread, one task ahead of the caller's
    ``deliver``, so a client's compress overlaps the next one's training.
``process``
    A pool of ``fork``-ed worker processes.  The frozen global state is
    written once per round into an anonymous shared mapping the workers
    inherited at the fork; they read it zero-copy, train on their own
    replica, and write their deltas into a second such mapping.  A worker
    that dies ends the dispatch with :class:`WorkerLostError`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.datasets.base import ClientDataset
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.runtime.dtype import cast_model_dtype, resolve_dtype
from repro.runtime import sanitize as _sanitize
from repro.utils.rng import RngFactory

# LocalTrainer is imported lazily inside build_trainer(): repro.fl pulls in
# this module through repro.fl.server, so a module-level import here would
# close an import cycle
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.client import LocalTrainer

__all__ = [
    "BACKENDS",
    "ClientTask",
    "ClientResult",
    "Deliver",
    "WorkerSpec",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "WorkerLostError",
    "create_backend",
    "require_fork",
    "usable_cpus",
]

BACKENDS = ("serial", "process")


def usable_cpus() -> int:
    """CPUs this process may run on — its affinity mask (``taskset``, a
    cgroup cpuset), or the machine's count where the platform has no
    affinity call.  Every default pool width in the repo is this."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def require_fork(feature: str) -> None:
    """Raise unless the platform offers the ``fork`` start method.

    The repo's one process pool, the client-training
    :class:`ProcessBackend`, relies on fork semantics (workers inherit
    read-only parent state by reference instead of pickling it).
    """
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        raise RuntimeError(
            f"{feature} requires the 'fork' start method (POSIX); "
            "use the 'serial' backend on this platform"
        )


@dataclass(frozen=True)
class ClientTask:
    """One participant's work order for the round."""

    client_id: int
    lr: float
    round_idx: int
    #: partial-work override: run this many local steps instead of the
    #: trainer's configured E (device populations with completeness < 1)
    local_steps: Optional[int] = None


@dataclass
class ClientResult:
    """One participant's training outcome, as delivered by a backend.

    The process backend delivers ``delta``/``buffer_delta`` as **views into
    a shared-memory result ring** that is reclaimed at the next
    ``run_clients`` call.  Consumers that hold a result across dispatches
    (the async arrival buffer, semi-async stragglers) must call
    :meth:`detach` first; same-round consumption needs no copy.
    """

    client_id: int
    delta: np.ndarray
    buffer_delta: np.ndarray
    num_samples: int
    mean_loss: float

    def detach(self) -> "ClientResult":
        """Copy any borrowed arrays so this result survives the next
        dispatch.  No-op (no copy) for results that already own their
        memory, so callers can detach unconditionally."""
        if self.delta.base is not None:
            self.delta = self.delta.copy()
        if self.buffer_delta.base is not None:
            self.buffer_delta = self.buffer_delta.copy()
        return self


#: the round's per-result sink (see :meth:`ExecutionBackend.run_clients`)
Deliver = Callable[[ClientResult], None]


@dataclass
class _SlotResult:
    """Wire format for a zero-copy worker return: everything but the
    arrays, which sit in the worker's claimed ring slot."""

    client_id: int
    slot: int
    num_samples: int
    mean_loss: float


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild the training context.

    The replica's initial weights are irrelevant — every task overwrites
    them from the shipped global state — so replicas are built with a fixed
    throwaway RNG.  Per-client randomness comes from
    ``RngFactory(seed)(f"client/{cid}/round/{t}")``, exactly the stream the
    serial path uses.
    """

    model_name: str
    model_kwargs: Dict[str, Any]
    in_channels: int
    num_classes: int
    image_size: int
    local_steps: int
    batch_size: int
    momentum: float
    weight_decay: float
    seed: int
    clients: List[ClientDataset]
    dtype: str = "float64"
    d: int = 0
    num_buffer: int = 0
    #: runtime ownership sanitizer (repro.runtime.sanitize): guard the
    #: process backend's result ring; False still honors the
    #: REPRO_SANITIZE environment gate there
    sanitize: bool = False
    #: results one process-backend dispatch can return zero-copy: the
    #: ring has max(max_in_flight, workers) slots, fixed before the fork,
    #: and every result beyond them comes back pickled
    max_in_flight: int = 0

    def build_trainer(self) -> Tuple[Module, "LocalTrainer"]:
        from repro.fl.client import LocalTrainer

        model = build_model(
            self.model_name,
            in_channels=self.in_channels,
            num_classes=self.num_classes,
            image_size=self.image_size,
            rng=np.random.default_rng(0),
            dtype=resolve_dtype(self.dtype),
            **self.model_kwargs,
        )
        cast_model_dtype(model, self.dtype)
        trainer = LocalTrainer(
            model,
            local_steps=self.local_steps,
            batch_size=self.batch_size,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        return model, trainer


def _run_one(
    trainer: LocalTrainer,
    rngs: RngFactory,
    clients: Sequence[ClientDataset],
    task: ClientTask,
    global_params: np.ndarray,
    global_buffers: np.ndarray,
) -> ClientResult:
    """Train one client — the shared inner step of every backend."""
    result = trainer.run(
        global_params,
        global_buffers,
        clients[task.client_id],
        task.lr,
        rngs(f"client/{task.client_id}/round/{task.round_idx}"),
        local_steps=task.local_steps,
    )
    return ClientResult(
        client_id=task.client_id,
        delta=result.delta,
        buffer_delta=result.buffer_delta,
        num_samples=result.num_samples,
        mean_loss=result.mean_loss,
    )


class ExecutionBackend:
    """Base class: lifecycle + the per-round dispatch hook."""

    name: str = "base"

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.rngs = RngFactory(spec.seed)

    def run_clients(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        global_buffers: np.ndarray,
        deliver: Deliver,
    ) -> None:
        """Train every task's client, handing each result to ``deliver``.

        ``deliver(result)`` is called once per task, in task order, on the
        calling thread — by serial as soon as each result lands, by
        process once the whole dispatch has returned; nothing is returned
        and the backend keeps no reference to a delivered result, so a
        dense delta lives only as long as its consumer holds it.  Training may run on any thread; ``deliver``
        may not.  An exception — from a task's training or from
        ``deliver`` — propagates as itself once no task of this call is
        still running; results after it are never delivered.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (worker processes)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Clients trained one after another on a single shared model.

    Training stays serial, but not on the caller's thread alone: task 0
    trains inline, and each later task trains on one per-call helper
    thread while the caller delivers the task before it.  ``deliver``
    (compress and fold: numpy, BLAS and the residual row file's I/O, which
    release the GIL) then runs on one core while SGD runs on another, and
    at most two dense deltas exist — the one being delivered and the next.
    Each client has its own RNG stream and trains from the frozen globals,
    and delivery stays in task order on the calling thread, so results are
    bit-identical to training and delivering in turn.  A one-task call
    starts no thread.
    """

    name = "serial"

    def __init__(
        self,
        spec: WorkerSpec,
        trainer: Optional[LocalTrainer] = None,
    ):
        super().__init__(spec)
        if trainer is None:
            _, trainer = spec.build_trainer()
        self.trainer = trainer

    def run_clients(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        global_buffers: np.ndarray,
        deliver: Deliver,
    ) -> None:
        def train(task: ClientTask) -> ClientResult:
            return _run_one(
                self.trainer, self.rngs, self.spec.clients, task,
                global_params, global_buffers,
            )

        if not tasks:
            return
        result = train(tasks[0])
        if len(tasks) > 1:
            # the executor starts its thread at the first submit, and the
            # with-exit joins it — after a failure too, so an exception
            # leaves here only once the helper's task has finished
            with ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serial"
            ) as helper:
                for task in tasks[1:]:
                    pending = helper.submit(train, task)
                    deliver(result)
                    del result  # the consumer owns a delivered result
                    result = pending.result()
        deliver(result)


# -- process backend ----------------------------------------------------------
class WorkerLostError(RuntimeError):
    """A process-backend worker died mid-dispatch (a signal, the OOM
    killer, an exit).  Every worker is then killed and reaped, none is
    replaced, and every later ``run_clients`` raises this error too."""


def _shared_array(n: int, dtype: np.dtype) -> np.ndarray:
    """``n`` elements on an anonymous ``MAP_SHARED`` mapping: a child
    forked after this call shares its pages, and nothing names it, so
    nothing outlives the processes that map it."""
    import mmap

    return np.ndarray(n, dtype, mmap.mmap(-1, max(1, n * dtype.itemsize)))


def _process_worker_main(
    conn, parent_ends, spec, flat, ring, capacity, cursor, slot_epochs, epoch
) -> None:
    """A worker's life.  Everything arrives by reference through the fork —
    the spec with its dataset shards, both shared mappings — never pickled.
    It closes the parent's pipe ends the fork copied in (so a dead parent
    reads as EOF), builds a replica, and answers one task per message
    until ``None``."""
    for end in parent_ends:
        end.close()
    _, trainer = spec.build_trainer()
    rngs = RngFactory(spec.seed)
    d, stride = spec.d, spec.d + spec.num_buffer

    def run(task: ClientTask):
        result = _run_one(trainer, rngs, spec.clients, task, flat[:d], flat[d:])
        with cursor.get_lock():
            slot = cursor.value
            if slot >= capacity:
                # a full ring (more outstanding results than max_in_flight
                # budgeted for) degrades to the pickled return path
                return result
            cursor.value = slot + 1
            if slot_epochs is not None:
                # sanitize mode: stamp the claim with the dispatch epoch
                # (still under the cursor lock, which serializes all
                # claims) so a broken cursor protocol — two workers on one
                # slot — raises here instead of silently aliasing deltas
                _sanitize.checked_slot_claim(slot_epochs, slot, epoch.value)
        base = slot * stride
        ring[base : base + d] = result.delta
        ring[base + d : base + stride] = result.buffer_delta
        return _SlotResult(
            result.client_id, slot, result.num_samples, result.mean_loss
        )

    try:
        for task in iter(conn.recv, None):
            try:
                reply = run(task)
            except Exception as exc:
                # returned, not raised: the worker lives on, and the caller
                # sees the error once every task of the dispatch is back —
                # never while a task still claims ring slots.  Unpickles as
                # ``exc`` itself with this traceback as its cause.
                from multiprocessing.pool import ExceptionWithTraceback

                reply = ExceptionWithTraceback(exc, exc.__traceback__)
            conn.send(reply)
    except (EOFError, BrokenPipeError):  # the parent is gone
        pass


class ProcessBackend(ExecutionBackend):
    """Fork-based worker processes with shared-memory shipping both ways.

    Per round the server writes ``global_params``/``global_buffers`` once
    into a shared mapping sized at setup; workers read it zero-copy.
    Results travel the same way: a second mapping holds a ring of
    ``max_in_flight`` slots of ``d + num_buffer`` elements each, workers
    claim slots through a shared cursor and write their deltas in place,
    and only a tiny slot descriptor crosses the worker's pipe.  The parent
    delivers :class:`ClientResult` objects whose arrays **view** the ring.
    Both mappings are anonymous and made before the workers fork: nothing
    is named or unlinked, and nothing outlives the processes.

    Each worker holds one task at a time, the next going to whichever
    answers first; results are delivered in task order once all are back.
    The parent waits on the workers' exit sentinels too, so a worker that
    dies ends the dispatch at once with :class:`WorkerLostError`.  None is
    replaced: a replacement would fork beside the caller's threads.

    Ownership handoff: each ``run_clients`` call bumps the ring epoch and
    resets the cursor, reclaiming every slot of the previous dispatch —
    callers that keep results across dispatches must ``detach()`` them
    first.  When a dispatch outgrows the ring, the overflow results fall
    back to the classic pickled return (correct, just slower).
    """

    name = "process"

    def __init__(self, spec: WorkerSpec, workers: Optional[int] = None):
        super().__init__(spec)
        import multiprocessing as mp

        require_fork("execution_backend='process'")
        self.workers = max(1, workers or usable_cpus())
        dt = resolve_dtype(spec.dtype)
        self._stride = stride = spec.d + spec.num_buffer
        #: the ring epoch — OwnershipTags on ring views check it
        self.sanitize_epoch = 0
        self._sanitize = spec.sanitize or _sanitize.enabled()
        self._conns: list = []
        self._procs: list = []
        self._owner: Dict[Any, Any] = {}  # pipe or exit sentinel -> worker
        self._lost: Optional[str] = None
        self._closed = False
        ctx = mp.get_context("fork")
        # the ring is sized by the scheduler's declared in-flight budget (at
        # least one slot per worker so small direct uses of the backend
        # still ride the zero-copy path)
        capacity = max(spec.max_in_flight, self.workers) if stride else 0
        self._flat = _shared_array(stride, dt)
        self._res = _shared_array(capacity * stride, dt)
        self._res_cursor = ctx.Value("q", 0)
        self._shared_epoch = self._slot_epochs = None
        if self._sanitize:
            # lock-free is safe: the parent writes the epoch only between
            # dispatches, and the per-slot claim stamps are serialized by
            # the cursor's lock in the workers
            self._shared_epoch = ctx.Value("q", 0, lock=False)
            self._slot_epochs = ctx.Array("q", capacity, lock=False)
        shared = (
            spec, self._flat, self._res, capacity, self._res_cursor,
            self._slot_epochs, self._shared_epoch,
        )
        try:
            for _ in range(self.workers):
                here, there = ctx.Pipe()
                self._conns.append(here)
                proc = ctx.Process(
                    target=_process_worker_main,
                    args=(there, self._conns, *shared),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
                self._owner[here] = self._owner[proc.sentinel] = proc
                there.close()
        except BaseException:
            self.close()
            raise

    def run_clients(
        self,
        tasks: Sequence[ClientTask],
        global_params: np.ndarray,
        global_buffers: np.ndarray,
        deliver: Deliver,
    ) -> None:
        if self._lost is not None:
            raise WorkerLostError(self._lost)
        spec = self.spec
        self._flat[: spec.d] = global_params
        if spec.num_buffer:
            self._flat[spec.d :] = global_buffers
        # new epoch: reclaim the previous dispatch's slots (no worker holds
        # a task between dispatches, so none races this reset)
        self.sanitize_epoch += 1
        self._res_cursor.value = 0
        if self._shared_epoch is not None:
            self._shared_epoch.value = self.sanitize_epoch
        try:
            raw = self._map(tasks)
        except BaseException as exc:
            if self._lost is None:
                # a worker may still hold a task of this call, whose reply
                # would read as the next call's: end the pool
                self._reap(grace=0.0)
                self._lost = f"the process pool was stopped by {exc!r}"
            raise
        # every delta already sits in the ring (not on this heap), so
        # delivering after the whole dispatch costs no dense copy
        d, stride = spec.d, self._stride
        for r in raw:
            if isinstance(r, Exception):
                raise r
            if isinstance(r, _SlotResult):
                base = r.slot * stride
                delta = self._res[base : base + d]
                buffer_delta = self._res[base + d : base + stride]
                if self._sanitize:
                    # epoch-scope the borrowed ring views: a result of this
                    # dispatch touched after the next run_clients reclaims
                    # the ring raises instead of reading the next round's
                    # deltas.  detach() copies drop the guard.
                    tag = _sanitize.OwnershipTag(
                        host=self,
                        epoch=self.sanitize_epoch,
                        label=f"result-ring slot {r.slot}",
                    )
                    delta = _sanitize.guard(delta, tag)
                    buffer_delta = _sanitize.guard(buffer_delta, tag)
                r = ClientResult(
                    client_id=r.client_id,
                    delta=delta,
                    buffer_delta=buffer_delta,
                    num_samples=r.num_samples,
                    mean_loss=r.mean_loss,
                )
            deliver(r)

    def _map(self, tasks: Sequence[ClientTask]) -> list:
        """Every task's reply, in task order — what ``Pool.map`` with
        ``chunksize=1`` returns — or :class:`WorkerLostError` the moment
        a worker ends."""
        from multiprocessing.connection import wait

        replies: list = [None] * len(tasks)
        jobs = iter(enumerate(tasks))
        holding: Dict[Any, int] = {}  # worker pipe -> index of its task
        sentinels = [proc.sentinel for proc in self._procs]

        def hand(conn) -> None:
            job = next(jobs, None)
            if job is not None:
                holding[conn] = job[0]
                try:
                    conn.send(job[1])
                except BrokenPipeError:  # its EOF is read below
                    pass

        for conn in self._conns:
            hand(conn)
        while holding:
            for ready in wait([*holding, *sentinels]):
                if ready not in holding:  # an exit sentinel
                    self._lose(self._owner[ready])
                try:
                    replies[holding.pop(ready)] = ready.recv()
                except EOFError:  # the pipe closed as its worker died
                    self._lose(self._owner[ready])
                hand(ready)
        return replies

    def _lose(self, proc) -> None:
        """``proc`` ended mid-dispatch: kill and reap every worker, then fail
        this dispatch and every later one with :class:`WorkerLostError`."""
        import signal

        proc.join(1.0)  # its pipe or sentinel closed as it exited
        self._reap(grace=0.0)
        code = proc.exitcode
        how = (
            f"was killed by signal {-code} ({signal.strsignal(-code)})"
            if code < 0 else f"exited with code {code}"
        )
        self._lost = f"process-backend worker {proc.pid} {how}; its pool is closed"
        raise WorkerLostError(self._lost)

    def _reap(self, grace: float) -> None:
        """Give each worker ``grace`` seconds to exit, then SIGKILL; reap all."""
        for proc in self._procs:
            proc.join(grace)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # that worker is gone already
                pass
        self._reap(grace=5.0)
        for conn in self._conns:
            conn.close()
        # dropping the last views unmaps both regions
        self._flat = self._res = None

    def __del__(self):  # pragma: no cover - belt and suspenders
        try:
            self.close()
        except Exception:
            pass


def create_backend(
    name: str,
    spec: WorkerSpec,
    *,
    trainer: Optional[LocalTrainer] = None,
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Build the execution backend selected by ``RunConfig.execution_backend``.

    ``trainer`` lets the serial backend reuse the server's existing shared
    model instance instead of building a replica.
    """
    if name == "serial":
        return SerialBackend(spec, trainer=trainer)
    if name == "process":
        return ProcessBackend(spec, workers=workers)
    raise ValueError(f"unknown execution backend {name!r}; expected {BACKENDS}")
