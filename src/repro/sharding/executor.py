"""Shard-task dispatch across serial / thread / process backends.

The shard backends deliberately mirror the execution backends
(:mod:`repro.runtime.backends`): ``serial`` is a list comprehension,
``thread`` a shared :class:`~concurrent.futures.ThreadPoolExecutor`
(the kernels are numpy-bound, so the GIL is released for the heavy part),
and ``process`` a fork-based :class:`multiprocessing.pool.Pool` whose
tasks are module-level pure functions of picklable arguments (see
:mod:`repro.sharding.kernels`).

Determinism: a task's result depends only on its arguments and results
are returned in task order, so all three backends produce bit-identical
outputs — the per-shard outputs land in disjoint coordinate ranges, and
no kernel reads anything another shard writes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.runtime.backends import require_fork, usable_cpus

__all__ = ["SHARD_BACKENDS", "ShardExecutor"]

SHARD_BACKENDS = ("serial", "thread", "process")


class ShardExecutor:
    """Maps per-shard kernel calls over a backend, preserving task order.

    Pools are released by :meth:`close`, and a closed executor stays
    usable.  The process pool forks, so :meth:`open` starts it where the
    caller knows it is the only thread —
    :class:`~repro.sharding.ShardingRuntime` at construction, the server
    before each round — never inside a kernel call, which may run beside
    a client-training thread; a :meth:`map` on an unopened executor opens
    it first.  The thread pool needs no such care and starts lazily.
    """

    def __init__(self, backend: str = "serial", workers: Optional[int] = None):
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown shard backend {backend!r}; expected {SHARD_BACKENDS}"
            )
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if backend == "process":
            require_fork("shard_backend='process'")
        self.backend = backend
        self._workers = workers
        self._threads: Optional[ThreadPoolExecutor] = None
        self._procs = None

    def _worker_count(self) -> int:
        return max(1, self._workers or usable_cpus())

    def open(self) -> None:
        """Fork the process pool if this executor has one and it is not
        running; idempotent, and a no-op for the other backends."""
        if self.backend == "process" and self._procs is None:
            import multiprocessing as mp

            ctx = mp.get_context("fork")
            self._procs = ctx.Pool(processes=self._worker_count())

    def map(
        self, fn: Callable[..., Any], tasks: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """``[fn(*task) for task in tasks]`` over the backend, in order."""
        if self.backend == "serial" or len(tasks) <= 1:
            return [fn(*task) for task in tasks]
        if self.backend == "thread":
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self._worker_count(),
                    thread_name_prefix="shard",
                )
            futures = [self._threads.submit(fn, *task) for task in tasks]
            return [f.result() for f in futures]
        self.open()
        return self._procs.starmap(fn, tasks)

    def close(self) -> None:
        """Release pool resources; idempotent."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._procs is not None:
            self._procs.terminate()
            self._procs.join()
            self._procs = None
