"""One cohort round, three round shapes, one simulated clock.

:mod:`~repro.engine.steps` writes Algorithm 1's round once, as plain step
functions over the ``FLServer`` state-holder; :mod:`~repro.engine.schedulers`
turns them into runnable round shapes as policies: sync (Algorithm 1),
async/buffered (FedBuff-style) and semi-async tiered rounds
(FLASH-style).  All of them share the simulated-time core
(:class:`~repro.engine.clock.SimClock`), so every round record carries
comparable cumulative ``wall_clock_s``.
"""

from repro.engine.clock import SimClock
from repro.engine.schedulers import (
    SCHEDULERS,
    AsyncBufferedScheduler,
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
    "SemiAsyncScheduler",
    "SCHEDULERS",
    "create_scheduler",
]
