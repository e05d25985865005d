"""One cohort round, five round shapes, one simulated clock.

:mod:`~repro.engine.steps` writes Algorithm 1's round once, as plain step
functions over the ``FLServer`` state-holder; :mod:`~repro.engine.schedulers`
turns them into runnable round shapes as policies: sync (Algorithm 1),
async/buffered (FedBuff-style), failure-injection, semi-async tiered
rounds (FLASH-style), and overlapped sync rounds.  All of them share the
simulated-time core (:class:`~repro.engine.clock.SimClock`), so every
round record carries comparable cumulative ``wall_clock_s``.
"""

from repro.engine.clock import SimClock
from repro.engine.schedulers import (
    SCHEDULERS,
    AsyncBufferedScheduler,
    FailureInjectionScheduler,
    OverlappedSyncScheduler,
    Scheduler,
    SemiAsyncScheduler,
    SyncScheduler,
    create_scheduler,
)
from repro.engine.steps import candidate_timings

__all__ = [
    "SimClock",
    "candidate_timings",
    "Scheduler",
    "SyncScheduler",
    "AsyncBufferedScheduler",
    "FailureInjectionScheduler",
    "SemiAsyncScheduler",
    "OverlappedSyncScheduler",
    "SCHEDULERS",
    "create_scheduler",
]
