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
whole dispatch returns.  Either way a delivered result owns its arrays:
a consumer may keep it across any number of later dispatches.

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
    replica, and write their deltas into their own slot of a second such
    mapping, which the parent copies out on the reply.  A worker that dies
    ends the dispatch with :class:`WorkerLostError`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.datasets.base import ClientDataset
from repro.utils.rng import RngFactory

# typing only: repro.fl pulls in this module through repro.fl.server, so a
# runtime import of LocalTrainer here would close an import cycle
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

    ``delta`` and ``buffer_delta`` own their memory under every backend,
    so a consumer may hold a result across later dispatches (the async
    arrival buffer, semi-async stragglers) without copying it.
    """

    client_id: int
    delta: np.ndarray
    buffer_delta: np.ndarray
    num_samples: int
    mean_loss: float


#: the round's per-result sink (see :meth:`ExecutionBackend.run_clients`)
Deliver = Callable[[ClientResult], None]


@dataclass
class WorkerSpec:
    """Everything a backend needs besides the round's tasks and globals.

    ``make_trainer`` builds a client model and its
    :class:`~repro.fl.client.LocalTrainer` — the server's own trainer
    builder, bound to a throwaway RNG: a replica's initial weights are
    irrelevant, since every task overwrites them from the shipped global
    state.  Per-client randomness comes from
    ``RngFactory(seed)(f"client/{cid}/round/{t}")``, exactly the stream the
    serial path uses.
    """

    make_trainer: Callable[[], "LocalTrainer"]
    clients: Sequence[ClientDataset]
    seed: int
    d: int
    num_buffer: int


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
        self.trainer = spec.make_trainer() if trainer is None else trainer

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


def _process_worker_main(conn, parent_ends, trainer, spec, flat, slot) -> None:
    """A worker's life.  Everything arrives by reference through the fork —
    the replica trainer, the spec with its dataset shards, the shared
    globals and this worker's own result slot — never pickled.  It closes
    the parent's pipe ends the fork copied in (so a dead parent reads as
    EOF) and answers one task at a time until ``None``: it trains the task,
    writes the deltas into ``slot`` and replies with the rest."""
    for end in parent_ends:
        end.close()
    rngs = RngFactory(spec.seed)
    d = spec.d

    def run(task: ClientTask):
        result = _run_one(trainer, rngs, spec.clients, task, flat[:d], flat[d:])
        slot[:d] = result.delta
        slot[d:] = result.buffer_delta
        return result.num_samples, result.mean_loss

    try:
        for task in iter(conn.recv, None):
            try:
                reply = run(task)
            except Exception as exc:
                # returned, not raised: the worker lives on, and the caller
                # sees the error once every task of the dispatch is back.
                # Unpickles as ``exc`` itself with this traceback as its
                # cause.
                from multiprocessing.pool import ExceptionWithTraceback

                reply = ExceptionWithTraceback(exc, exc.__traceback__)
            conn.send(reply)
    except (EOFError, BrokenPipeError):  # the parent is gone
        pass


class ProcessBackend(ExecutionBackend):
    """Fork-based worker processes with shared-memory shipping both ways.

    Per round the server writes ``global_params``/``global_buffers`` once
    into a shared mapping sized at setup; workers read it zero-copy.
    Results travel the same way: a second mapping holds one slot of
    ``d + num_buffer`` elements per worker, and worker ``w`` always writes
    slot ``w``.  Only the task crosses the pipe one way, and only the
    sample count and loss the other.  Each worker holds one task at a
    time, so the parent copies its slot out to the heap as soon as the
    reply arrives, before handing that worker the next task: a dispatch
    may carry any number of tasks, and every delivered result owns its
    arrays.  Both mappings are anonymous and made before the workers
    fork: nothing is named or unlinked, and nothing outlives the
    processes.  The workers' replica trainer is built once, here, before
    the fork, and inherited.

    The next task goes to whichever worker answers first; results are
    delivered in task order once all are back.  The parent waits on the
    workers' exit sentinels too, so a worker that dies ends the dispatch
    at once with :class:`WorkerLostError`.  None is replaced: a
    replacement would fork beside the caller's threads.
    """

    name = "process"

    def __init__(self, spec: WorkerSpec, workers: Optional[int] = None):
        super().__init__(spec)
        import multiprocessing as mp

        require_fork("execution_backend='process'")
        self.workers = max(1, workers or usable_cpus())
        stride = spec.d + spec.num_buffer
        self._conns: list = []
        self._procs: list = []
        self._owner: Dict[Any, Any] = {}  # pipe or exit sentinel -> worker
        self._slot: Dict[Any, np.ndarray] = {}  # pipe -> its result slot
        self._lost: Optional[str] = None
        self._closed = False
        ctx = mp.get_context("fork")
        # one replica, built before the fork: each worker inherits its own
        # copy, in the run's dtype, which the mappings share
        trainer = spec.make_trainer()
        self._flat = _shared_array(stride, trainer.dtype)
        self._res = _shared_array(self.workers * stride, trainer.dtype)
        try:
            for w in range(self.workers):
                here, there = ctx.Pipe()
                self._conns.append(here)
                slot = self._res[w * stride : (w + 1) * stride]
                proc = ctx.Process(
                    target=_process_worker_main,
                    args=(there, self._conns, trainer, spec, self._flat, slot),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
                self._slot[here] = slot
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
        try:
            results = self._map(tasks)
        except BaseException as exc:
            if self._lost is None:
                # a worker may still hold a task of this call, whose reply
                # would read as the next call's: end the pool
                self._reap(grace=0.0)
                self._lost = f"the process pool was stopped by {exc!r}"
            raise
        for result in results:
            if isinstance(result, Exception):
                raise result
            deliver(result)

    def _map(
        self, tasks: Sequence[ClientTask]
    ) -> list[Union[ClientResult, Exception]]:
        """Every task's result (or the exception its training raised), in
        task order — what ``Pool.map`` with ``chunksize=1`` returns — or
        :class:`WorkerLostError` the moment a worker ends.  A reply's
        deltas are copied out of the worker's slot before that worker gets
        its next task, the one thing that overwrites the slot."""
        from multiprocessing.connection import wait

        d = self.spec.d
        results: list = [None] * len(tasks)
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
                i = holding.pop(ready)
                try:
                    reply = ready.recv()
                except EOFError:  # the pipe closed as its worker died
                    self._lose(self._owner[ready])
                if not isinstance(reply, Exception):
                    slot = self._slot[ready]
                    num_samples, mean_loss = reply
                    reply = ClientResult(
                        client_id=tasks[i].client_id,
                        delta=slot[:d].copy(),
                        buffer_delta=slot[d:].copy(),
                        num_samples=num_samples,
                        mean_loss=mean_loss,
                    )
                results[i] = reply
                hand(ready)
        return results

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
        self._slot.clear()

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
