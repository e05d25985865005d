"""Pluggable round schedulers: sync, async/buffered, failure-injection,
tiered semi-async, and overlapped sync rounds.

Every scheduler runs on the shared simulated-time core
(:class:`~repro.engine.clock.SimClock`): the clock owns cumulative
simulated time and the completion-event queue, and every
:class:`~repro.fl.metrics.RoundRecord` carries the clock's reading as
``wall_clock_s`` — monotone under every round shape, so time-to-accuracy
is comparable across schedulers.

A scheduler decides what one call to ``FLServer.run_round`` means:

``sync``
    One Algorithm 1 round: the steps of :mod:`repro.engine.steps`, in
    order — bit-identical to the original monolithic loop (pinned by the
    engine golden test).  The round's duration is replayed through the
    clock once its record exists.

``async``
    FedBuff-style buffered asynchrony (Nguyen et al., 2022).  Clients train
    on their own clocks: the server keeps ``async_concurrency`` clients in
    flight, each training from the global state *at its dispatch time*.
    Finish events (download + compute + upload, via the existing
    :class:`~repro.fl.simulator.CandidateTimings` latency model) are popped
    from the clock's event queue; every ``async_buffer_size`` arrivals the
    server aggregates the buffer with staleness-discounted weights
    ``(1 + τ)^(−async_staleness_alpha)`` (normalized), where τ counts global
    updates applied since the client's dispatch.  One ``run_round`` call ==
    one buffer flush == one :class:`~repro.fl.metrics.RoundRecord`, whose
    ``mean_update_staleness`` reports the buffer's mean τ and whose
    ``wall_clock_s`` reports the event queue's current time.  Sticky-group
    rebalancing and inverse-propensity weighting are sync-only concepts and
    are not applied here; replacement dispatch goes through the sampler's
    own ``sample_replacements`` policy (uniform over the online pool by
    default; norm-proportional for
    :class:`~repro.fl.extra_samplers.OptimalClientSampler`).  Arrivals
    tied at the same finish time from the same dispatch snapshot drain as
    *one* backend batch, so the process backend parallelizes them.
    The record stream is pinned by ``tests/engine/golden_async.json``.

``failure``
    The sync round over a fault-injecting device population: the server
    auto-attaches a ``"storm"`` population preset
    (:class:`~repro.population.traces.ChurnStormTrace`, parameterized by
    the ``failure_*`` knobs; wrapped around any other
    ``population_preset``), so every ``failure_burst_every``-th round
    (1-based — first burst at round ``failure_burst_every``) a dropout
    burst collapses the population's connectivity column by
    ``failure_burst_dropout`` and a straggler storm multiplies
    ``failure_straggler_fraction`` of devices' responsiveness by
    ``failure_straggler_slowdown``× — plain trace-driven state
    transitions read by the unchanged selection step.  Burst rounds are
    flagged in ``RoundRecord.injected_failure``; pair with
    ``RunConfig.skip_empty_rounds`` so a burst that wipes out every
    candidate records a zero-participant round instead of aborting.  The
    record stream is pinned by ``tests/engine/golden_failure.json``.

``semiasync``
    FLASH-style tiered rounds.  The round *is* the ``sync`` round — the
    same steps, so with nobody left behind (``overcommit=1.0``) the two
    are bit-identical; the **fast tier** (the first-K-per-bucket
    selection) aggregates synchronously at the round's deadline with the
    sampler's own unbiasedness weights.  The over-committed stragglers —
    candidates whose uploads would land *after* the deadline and are
    simply discarded under ``sync`` — keep training: their finish events
    go onto the clock, and when a later round's deadline passes an event,
    that stale update folds into that round's aggregation with the
    discounted weight ``(1 + τ)^(−async_staleness_alpha) / K`` (τ = rounds
    since dispatch; the ``1/K`` unit matches one fast-tier share).
    Arrivals staler than ``semiasync_max_lag`` rounds are discarded.
    Clients with an in-flight straggler task are *busy* — excluded from
    the sampler pool until their arrival folds in, so no round ever
    aggregates two updates from one client.  Straggler upload bytes land
    in the record of their *arrival* round, and stale deltas are
    compressed under the strategy state of the arrival round —
    under GlueFL's shifting shared mask this is exactly the mask-drift
    regime ``benchmarks/bench_sticky_staleness.py`` studies.

``overlapped``
    Pipelined sync rounds: identical learning dynamics to ``sync`` (same
    RNG streams, same updates, bit-identical records apart from the clock
    fields) under an overlapped communication model — round *t+1*'s
    downloads start when round *t*'s uploads start, so the downlink leg
    hides behind the previous uplink leg.  The pipeline runs on the
    *critical participant's* legs (``ParticipantSelection.critical_*_s``,
    which sum exactly to the sync round time): with aggregation of round
    *t−1* done at ``A``, round *t* finishes at
    ``max(A, dl_start + D) + C + U`` where ``dl_start`` is round *t−1*'s
    upload start.  Per-round advance is never larger than the sync round
    time (savings up to ``min(D_t, U_{t−1})``); ``round_seconds`` reports
    the advance so cumulative time matches ``wall_clock_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Optional

import numpy as np

from repro.engine import steps
from repro.engine.clock import SimClock
from repro.fl.aggregation import staleness_discounted_weights
from repro.fl.metrics import RoundRecord

__all__ = [
    "SCHEDULERS",
    "Scheduler",
    "SyncScheduler",
    "AsyncBufferedScheduler",
    "FailureInjectionScheduler",
    "SemiAsyncScheduler",
    "OverlappedSyncScheduler",
    "create_scheduler",
]

SCHEDULERS = ("sync", "async", "failure", "semiasync", "overlapped")


class Scheduler:
    """Base interface: one ``run_round`` call advances the run by one record.

    Every scheduler owns a :class:`~repro.engine.clock.SimClock`; *how* it
    advances is the scheduler's clock model, but ``clock.now`` is always
    the run's cumulative simulated time.
    """

    name: str = "base"

    def __init__(self) -> None:
        self.clock = SimClock()

    def setup(self, server) -> None:
        """Bind scheduler state to a server (called once from ``FLServer``)."""

    def run_round(self, server) -> RoundRecord:
        raise NotImplementedError


class SyncScheduler(Scheduler):
    """The default: one synchronous cohort round, the steps in order.

    :meth:`run_round` is the round every cohort scheduler runs; the policy
    points below it are all that ``overlapped`` and ``semiasync`` override.
    """

    name = "sync"
    #: clients the draw must skip — a sync round leaves nobody busy
    busy: Collection[int] = ()
    #: tiered rounds keep the deadline's stragglers training
    tiered = False

    def run_round(self, server) -> RoundRecord:
        server.round_idx += 1
        t = server.round_idx
        start = self.clock.now
        with steps.strategy_round(server, t) as rnd:
            cohort = steps.contact_wave(server, t, busy=self.busy)
            steps.select_wave(server, cohort)
            if server.config.quorum_fraction is not None:
                steps.enforce_quorum(server, t, cohort)
            batch, late = steps.train_cohort(server, t, cohort, self.tiered)
            self.at_deadline(server, t, cohort, batch, late)
            steps.close_round(server, rnd, batch, cohort.selection)
        selection = cohort.selection
        record = steps.make_record(
            server, rnd, batch,
            down_bytes=cohort.down_bytes,
            round_seconds=selection.round_seconds + cohort.redraw_wait_s,
            download_seconds=selection.download_seconds,
            compute_seconds=selection.compute_seconds,
            upload_seconds=selection.upload_seconds,
            num_candidates=cohort.num_candidates,
            mean_stale_fraction=cohort.mean_stale_fraction,
            sync_details=cohort.sync_details,
            quorum_redraws=cohort.quorum_redraws,
            quorum_failed=cohort.quorum_failed,
        )
        self.advance_clock(start, selection, record)
        record.wall_clock_s = self.clock.now
        return record

    # -- policy points -----------------------------------------------------------
    def at_deadline(self, server, t: int, cohort, batch, late) -> None:
        """The deadline passed: release the round's devices and settle
        what ``batch`` aggregates.  A sync round closes the population's
        state machine — workers return to idle, mid-round failures enter
        DROPPED for the configured cooldown."""
        if server.population is not None:
            server.population.finish_round(t, cohort.lost)

    def advance_clock(self, start: float, selection, record: RoundRecord) -> None:
        """Replay the round's duration through the clock, from the round's
        ``start``, so every record carries comparable cumulative time."""
        self.clock.advance_to(start + record.round_seconds)


class FailureInjectionScheduler(SyncScheduler):
    """Sync rounds over a fault-injecting population (module docstring).

    The faults are trace-driven state transitions the unchanged selection
    step reads; this scheduler only *flags* burst rounds by asking the
    trace's ``is_burst`` (``FLServer`` rejects an explicit ``population=``
    whose trace has none).  Round indices are 1-based, so the first burst
    lands at round ``failure_burst_every``, not round 0 (pinned by
    ``tests/engine/test_schedulers.py``).
    """

    name = "failure"

    def run_round(self, server) -> RoundRecord:
        record = super().run_round(server)
        # the population columns already carry the burst; flag the record
        record.injected_failure = server.population.trace.is_burst(record.round_idx)
        return record


class OverlappedSyncScheduler(SyncScheduler):
    """Sync learning dynamics under a pipelined communication clock: the
    identical round, but the clock advances by the overlapped-round
    recurrence of the module docstring, which overwrites the record's
    ``round_seconds`` before ``wall_clock_s`` is stamped."""

    name = "overlapped"
    _prev_upload_start: Optional[float] = None

    def advance_clock(self, start: float, selection, record: RoundRecord) -> None:
        agg_ready = start  # previous round's aggregation time
        dl_start = (
            self._prev_upload_start
            if self._prev_upload_start is not None
            else agg_ready
        )
        dl_done = dl_start + selection.critical_download_s
        # compute needs both the prefetched payload and the fresh update
        compute_start = max(dl_done, agg_ready)
        upload_start = compute_start + selection.critical_compute_s
        done = upload_start + selection.critical_upload_s
        self._prev_upload_start = upload_start
        record.round_seconds = done - agg_ready
        self.clock.advance_to(done)


@dataclass
class _StaleArrival:
    """A straggler's finished update, waiting on the clock to fold in."""

    client_id: int
    dispatch_round: int
    #: ClientResult trained from the dispatch-round snapshot, detached
    #: from the backend's memory (it is held across rounds)
    result: object
    work: float  # the fraction it trained with scales its 1/K share


class SemiAsyncScheduler(SyncScheduler):
    """FLASH-style tiered rounds: sync fast tier + async straggler fold-in.

    The sync round with three insertions — busy stragglers stay out of the
    draw, the deadline's stragglers train in the fast tier's backend batch
    and go onto the clock, and due arrivals join the aggregation (module
    docstring).  Pinned by ``tests/engine/golden_semiasync.json``.
    """

    name = "semiasync"
    tiered = True

    def setup(self, server) -> None:
        cfg = server.config
        self.alpha = cfg.async_staleness_alpha
        self.max_lag = cfg.semiasync_max_lag
        # clients with a scheduled, not-yet-folded straggler arrival are
        # still computing, so the sampler must not re-draw them (a client
        # contributing twice to one aggregation is a state no real device
        # can be in; mirrors the async dispatcher's exclude)
        self.busy = set()

    def at_deadline(self, server, t: int, cohort, batch, late) -> None:
        clock = self.clock
        for cid, finish_s, (result, work) in zip(
            cohort.straggler_ids.tolist(), cohort.straggler_finish_s.tolist(), late
        ):
            clock.schedule(clock.now + finish_s, _StaleArrival(cid, t, result, work))
            self.busy.add(cid)

        # the fast tier's deadline collects due straggler arrivals (the
        # clock itself reaches the deadline in ``advance_clock``)
        deadline = clock.now + cohort.selection.round_seconds
        due = [arrival for _, arrival in clock.pop_until(deadline)]
        due_ids = np.array([a.client_id for a in due], dtype=np.int64)
        self.busy.difference_update(due_ids.tolist())
        if server.population is not None:
            # stragglers stay WORKING, so devices return one by one, not
            # through ``finish_round``: mid-round failures drop, the fast
            # tier returns at the deadline, then the due stragglers (even
            # over-lag ones whose update is discarded — the device itself
            # came back).  The idle index's insertion order feeds
            # ``IdlePool.sample``, so this order is pinned by the golden
            server.population.drop_work(cohort.lost, t)
            server.population.complete_work(cohort.selection.participant_ids)
            server.population.complete_work(due_ids)

        # stale arrivals join after the fast tier (already folded, as it
        # trained), each with a discounted 1/K share (one fast-tier unit)
        # scaled by the work it trained with
        kept = [a for a in due if t - a.dispatch_round <= self.max_lag]
        batch.taus = np.array([t - a.dispatch_round for a in kept], dtype=np.int64)
        work = np.array([a.work for a in kept])
        shares = (1.0 + batch.taus) ** (-self.alpha) / server.sampler.k * work
        batch.pending += [a.result for a in kept]
        batch.weights = np.concatenate([batch.weights, shares])
        batch.work = np.concatenate([batch.work, work])


@dataclass
class _InFlightJob:
    """One dispatched client: where it started and how long it will take."""

    client_id: int
    lr: float
    start_version: int
    #: dispatch-time global state (references, not copies: the server
    #: replaces — never mutates — its global arrays on update)
    params: np.ndarray
    buffers: np.ndarray
    download_s: float
    compute_s: float
    upload_s: float


class AsyncBufferedScheduler(Scheduler):
    """FedBuff-style buffered-asynchronous aggregation (see module docs).

    Dispatch and the event drain are its own; a flush goes through the
    cohort rounds' lifecycle guard, task builder, close and record.
    """

    name = "async"

    def __init__(self) -> None:
        super().__init__()
        self._in_flight: Dict[int, _InFlightJob] = {}
        self._last_flush = 0.0
        # accounting accumulated between flushes
        self._pending_down = 0
        self._pending_candidates = 0
        self._pending_stale_fracs: List[float] = []

    def setup(self, server) -> None:
        cfg = server.config
        self.buffer_size = cfg.async_buffer_size
        self.concurrency = cfg.async_concurrency or server.sampler.k
        self.alpha = cfg.async_staleness_alpha

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, server, round_idx: int) -> None:
        """Top the in-flight pool back up to the concurrency target.

        With a device population bound, every dispatched client
        transitions to WORKING (``begin_work``) and every drained arrival
        returns through ``complete_work``/``drop_work`` — the continuous
        analogue of the sync round's begin/finish bracketing, so the
        population's state machine (and its O(active) event advance)
        tracks in-flight clients under asynchrony too.
        """
        want = self.concurrency - len(self._in_flight)
        if want <= 0:
            return
        population = server.population
        exclude = np.fromiter(
            self._in_flight.keys(), dtype=np.int64, count=len(self._in_flight)
        )
        if population is not None and population.scalable_sampling:
            # O(idle) path: in-flight clients are WORKING, so the pool
            # already excludes them; ``exclude`` guards the window where
            # a completed client re-idles before its next dispatch
            pool = population.idle_pool(round_idx)
            new = server.sampler.sample_replacements_pool(pool, exclude, want)
        else:
            available = server.availability.online(round_idx)
            new = server.sampler.sample_replacements(available, exclude, want)
        if len(new) == 0:
            return
        if population is not None:
            population.begin_work(new)

        _, down, stale = steps.downstream_sync_bytes(server, new)
        self._pending_down += int(down.sum())
        self._pending_candidates += len(new)
        self._pending_stale_fracs.extend((stale / server.staleness.d).tolist())
        server.staleness.mark_synced(new)

        timings = steps.candidate_timings(
            server, new, down, steps.nominal_upstream_bytes(server)
        )
        lr = server.lr_schedule.at_round(round_idx - 1)
        for i, cid in enumerate(new):
            cid = int(cid)
            self._in_flight[cid] = _InFlightJob(
                client_id=cid,
                lr=lr,
                start_version=server.staleness.version,
                params=server.global_params,
                buffers=server.global_buffers,
                download_s=float(timings.download_s[i]),
                compute_s=float(timings.compute_s[i]),
                upload_s=float(timings.upload_s[i]),
            )
        self.clock.schedule_timings(timings)  # finish events, payload = cid

    # -- event-queue draining ----------------------------------------------------
    def _pop_batch(self, server, limit: int) -> List[_InFlightJob]:
        """Pop every surviving job tied at the earliest finish time.

        Events with *equal* finish times and the same dispatch snapshot
        version trained from identical global state, so they form one
        batch for ``run_clients`` — this is what lets the process
        backend parallelize simultaneous arrivals instead of receiving
        one task per call.  Mid-round dropouts are drawn per client in pop
        order (same RNG stream as draining one by one).
        """
        jobs: List[_InFlightJob] = []
        population = server.population
        first_finish: Optional[float] = None
        version: Optional[int] = None
        while len(self.clock) and len(jobs) < limit:
            finish, cid = self.clock.peek()
            job = self._in_flight[cid]
            if first_finish is None:
                first_finish, version = finish, job.start_version
            elif finish != first_finish or job.start_version != version:
                break
            self.clock.pop()
            del self._in_flight[cid]
            one = np.array([cid], dtype=np.int64)
            if server.availability.survives_round(one)[0]:
                jobs.append(job)
                if population is not None:
                    population.complete_work(one)
            elif population is not None:
                # lost mid-flight: sit out the dropped cooldown
                population.drop_work(one, server.round_idx)
        return jobs

    # -- one buffer flush --------------------------------------------------------
    def run_round(self, server) -> RoundRecord:
        """One flush: drain arrivals until the buffer is full, then
        aggregate it with staleness-discounted weights."""
        server.round_idx += 1
        t = server.round_idx
        with steps.strategy_round(server, t) as rnd:
            self._dispatch(server, t)
            jobs: List[_InFlightJob] = []
            results: list = []
            work: List[float] = []

            def deliver(result) -> None:
                # the buffer stays dense until the flush: its weights
                # normalise over the complete buffer, and it outlives
                # later run_clients calls in this flush, so a result
                # borrowed from the process backend's ring is copied out
                # before the next dispatch reclaims its slot
                results.append(result.detach())

            while len(jobs) < self.buffer_size and len(self.clock):
                arrived = self._pop_batch(server, self.buffer_size - len(jobs))
                if arrived:
                    tasks, planned_work = steps.plan_tasks(
                        server, t,
                        [job.client_id for job in arrived],
                        [job.lr for job in arrived],
                    )
                    # same snapshot version ⇒ same dispatch-time global arrays
                    server.backend.run_clients(
                        tasks, arrived[0].params, arrived[0].buffers, deliver
                    )
                    jobs += arrived
                    work += planned_work
                # refill — also after a batch lost mid-round came up empty
                self._dispatch(server, t)

            taus = np.array(
                [server.staleness.version - job.start_version for job in jobs]
            )
            work = np.array(work)
            weights = staleness_discounted_weights(taus, self.alpha)
            weights = steps.scale_by_work(weights, work)
            batch = steps.Batch(weights, work, taus, pending=results)
            steps.close_round(
                server, rnd, batch,
                why_empty="no clients available to fill the buffer",
            )

        now = self.clock.now
        stale_fracs = self._pending_stale_fracs
        record = steps.make_record(
            server, rnd, batch,
            down_bytes=self._pending_down,
            round_seconds=now - self._last_flush,
            download_seconds=max((job.download_s for job in jobs), default=0.0),
            compute_seconds=max((job.compute_s for job in jobs), default=0.0),
            upload_seconds=max((job.upload_s for job in jobs), default=0.0),
            num_candidates=self._pending_candidates,
            mean_stale_fraction=float(np.mean(stale_fracs)) if stale_fracs else 0.0,
            wall_clock_s=now,
        )
        self._pending_down = 0
        self._pending_candidates = 0
        self._pending_stale_fracs = []
        self._last_flush = now
        return record


_SCHEDULER_TYPES = {
    "sync": SyncScheduler,
    "async": AsyncBufferedScheduler,
    "failure": FailureInjectionScheduler,
    "semiasync": SemiAsyncScheduler,
    "overlapped": OverlappedSyncScheduler,
}
assert tuple(_SCHEDULER_TYPES) == SCHEDULERS


def create_scheduler(name: str) -> Scheduler:
    """Build the scheduler selected by ``RunConfig.scheduler``."""
    scheduler_type = _SCHEDULER_TYPES.get(name)
    if scheduler_type is None:
        raise ValueError(
            f"unknown scheduler {name!r}; expected {SCHEDULERS}"
        )
    return scheduler_type()
