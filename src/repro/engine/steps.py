"""The steps of one cohort round — Algorithm 1's round, written once.

A round contacts an over-committed cohort, charges its downstream sync,
keeps the first K per bucket (§5.6), trains, compresses and folds each
update into the strategy's open sums as it lands, and aggregates.  Each
of those is one plain function over the
:class:`~repro.fl.server.FLServer` state-holder; the schedulers in
:mod:`repro.engine.schedulers` are *policies* that call them in order and
differ only where their round shape does.  Nothing per-round lives on the
server: a round's state is the :class:`Cohort` and :class:`Batch` the
steps hand to each other, and the strategy's open sums.

RNG consumers run in the order of the original monolithic loop — sampler
draw → sticky ``survives_round`` → non-sticky ``survives_round``
(per-client training streams are order-independent by construction) — so
every cohort scheduler reproduces its committed golden bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Collection, List, Optional

import numpy as np

from repro.fl.aggregation import fold_buffer_delta, mean_buffer_delta
from repro.fl.metrics import RoundRecord
from repro.fl.samplers import SampleDraw
from repro.fl.simulator import (
    CandidateTimings,
    ParticipantSelection,
    select_participants,
)
from repro.network.encoding import dense_bytes
from repro.runtime.backends import ClientTask

__all__ = [
    "Batch",
    "Cohort",
    "apply_aggregate",
    "candidate_timings",
    "close_round",
    "compress_result",
    "contact_wave",
    "downstream_sync_bytes",
    "enforce_quorum",
    "make_record",
    "nominal_upstream_bytes",
    "plan_tasks",
    "scale_by_work",
    "select_wave",
    "strategy_round",
    "train_cohort",
]

_NOBODY = np.empty(0, dtype=np.int64)


class _OpenRound:
    """What :func:`strategy_round` yields; :func:`close_round` flips
    ``closed`` once it has ended the round."""

    def __init__(self, round_idx: int) -> None:
        self.round_idx = round_idx
        self.closed = False


@dataclass
class Cohort:
    """One round's contacted candidates: the downstream ledger over every
    wave (:func:`contact_wave`), who made the deadline
    (:func:`select_wave`), and the quorum re-draws that merged into it."""

    #: the latest wave's draw, the online mask the first wave drew from
    #: (``None`` on the O(idle) path — its only consumer, the quorum
    #: re-draw, is rejected by ``RunConfig.validate`` under scalable
    #: sampling) and the per-candidate downstream bytes that price its legs
    draw: SampleDraw
    available: Optional[np.ndarray]
    down_per_client: np.ndarray
    down_bytes: int
    mean_stale_fraction: float
    sync_details: Optional[List[tuple]]
    num_candidates: int
    selection: Optional[ParticipantSelection] = None
    #: candidates whose upload was lost mid-round — they enter the
    #: population's DROPPED state for the configured cooldown
    lost: np.ndarray = field(default_factory=lambda: _NOBODY)
    #: surviving candidates the deadline leaves behind (sticky bucket
    #: first) and their finish offsets from the round start
    straggler_ids: Optional[np.ndarray] = None
    straggler_finish_s: Optional[np.ndarray] = None
    #: simulated seconds of failed quorum waves plus back-off: they ran
    #: before the final selection, so they are part of the round
    redraw_wait_s: float = 0.0
    quorum_redraws: int = 0
    quorum_failed: bool = False


@dataclass
class Batch:
    """What a round aggregates, in aggregation order: one weight and
    realized work fraction per update, and the staleness τ of the stale
    ones (async buffer, semi-async fold-ins; ``None`` for a sync cohort).

    An update is compressed and folded into the strategy's open sums as
    soon as :func:`compress_result` has seen it — a cohort's fast tier is,
    by the time its training returns — and only its count, loss, bytes and
    batch-norm buffer sum stay here.  ``pending`` are the updates still
    dense (stale arrivals, the async buffer: their weights are only known
    once the batch is complete); they own the tail of ``weights`` and
    :func:`close_round` folds them before it aggregates, so ``weights[i]``
    is always the weight of the ``i``-th fold.
    """

    weights: np.ndarray
    work: np.ndarray
    taus: Optional[np.ndarray] = None
    pending: list = field(default_factory=list)
    #: updates folded into the strategy's open sums so far
    folded: int = 0
    #: running sum of the folded updates' batch-norm buffer deltas
    #: (``None`` before the first, and for a model without buffers)
    buffer_sum: Optional[np.ndarray] = None
    losses: List[float] = field(default_factory=list)
    #: the folded payloads' upstream bytes; :func:`close_round` adds the
    #: dense batch-norm buffer shipment per update (``count_buffer_sync``)
    up_bytes: int = 0


# -- shared round slices -----------------------------------------------------------
# The byte-accounting, latency and model-update rules, each in one place.


def downstream_sync_bytes(server, client_ids: np.ndarray):
    """``(value_sync_bytes, per_client_total, stale_counts)`` for
    contacting ``client_ids``.

    The total adds the strategy's per-client mask overhead and, when
    ``count_buffer_sync`` is on, the dense BN-buffer shipment;
    ``stale_counts`` are the coordinates the value sync was priced from.
    """
    sync_bytes, stale_counts = server.staleness.download_bytes_many(client_ids)
    extra = server.strategy.downstream_extra_bytes()
    if server.config.count_buffer_sync and server.view.num_buffer:
        extra += dense_bytes(server.view.num_buffer)
    return sync_bytes, sync_bytes + extra, stale_counts


def nominal_upstream_bytes(server) -> int:
    """A-priori per-client upload size (for round-time scheduling)."""
    up = server.strategy.nominal_upstream_bytes()
    if server.config.count_buffer_sync and server.view.num_buffer:
        up += dense_bytes(server.view.num_buffer)
    return up


def candidate_timings(
    server, client_ids: np.ndarray, down_bytes: np.ndarray, up_nominal: int
) -> CandidateTimings:
    """Per-candidate download/compute/upload legs from the substrate models.

    The one place the latency model is assembled — the cohort selection
    and the async dispatcher both price candidates through this helper
    (every client uploads the a-priori ``up_nominal`` bytes; actual
    payload sizes are only known after compression).  When the server
    runs a device population, each candidate's compute leg is scaled by
    its responsiveness column — so straggler storms and slow device
    classes reach every scheduler through this single seam.
    """
    compute_s = server.compute.round_seconds_many(
        client_ids, server.config.local_steps, server.model_scale
    )
    if server.population is not None:
        compute_s = compute_s * server.population.responsiveness_of(client_ids)
    return CandidateTimings(
        client_ids=client_ids,
        download_s=server.links.download_seconds_many(client_ids, down_bytes),
        compute_s=compute_s,
        upload_s=server.links.upload_seconds_many(
            client_ids, np.full(len(client_ids), up_nominal)
        ),
    )


def compress_result(server, batch: Batch, result) -> None:
    """The round's per-result sink: compress one training result, under
    the weight at ``batch``'s next position, fold the payload into the
    strategy's open sums, and let go of both payload and dense delta.

    Compression and the fold stay in the server process, in task order, so
    every execution backend is bit-identical to serial execution; called
    from inside the backend's ``deliver`` hand-off, it is also what bounds
    a dense Δ_i's life to "from its training to its compress" and a
    payload's to its fold.

    Norm feedback rides here: samplers that opt in via
    ``wants_update_norms`` (e.g. Optimal Client Sampling) receive
    ``observe_update(client_id, norm)`` for every result that reaches
    aggregation.  The norm comes from the *strategy's*
    :meth:`~repro.compression.base.CompressionStrategy.feedback_norm` —
    the raw ``‖Δ‖₂`` by default, but a privacy wrapper substitutes the
    privatized (noisy) norm it recorded while compressing, so the hook
    fires *after* this result's own ``client_compress``.  Sitting on the
    one seam every scheduler's results pass through, the feedback flows
    identically under all of them; samplers that don't opt in cost nothing.
    """
    cid, strategy = result.client_id, server.strategy
    weight = batch.weights.item(batch.folded)
    payload = strategy.client_compress(cid, result.delta, weight)
    strategy.fold(weight, payload)
    batch.folded += 1
    if server.sampler.wants_update_norms:
        server.sampler.observe_update(cid, strategy.feedback_norm(cid, result.delta))
    if server.view.num_buffer:
        batch.buffer_sum = fold_buffer_delta(batch.buffer_sum, result.buffer_delta)
    batch.losses.append(result.mean_loss)
    batch.up_bytes += payload.upstream_bytes


def apply_aggregate(server, batch: Batch):
    """Finish the strategy's open sums into the global state + staleness
    ledger, and apply the mean of the batch's buffer deltas.

    The globals are *replaced*, never mutated — in-flight async jobs hold
    references to the pre-update arrays as their dispatch-time snapshots —
    and the new arrays are marked read-only to enforce that invariant.
    """
    agg = server.strategy.aggregate()
    params = server.global_params + agg.global_delta
    params.flags.writeable = False
    server.global_params = params
    if batch.buffer_sum is not None:
        buffers = server.global_buffers + mean_buffer_delta(
            batch.buffer_sum, batch.folded
        )
        buffers.flags.writeable = False
        server.global_buffers = buffers
    server.staleness.record_update(agg.changed_idx)
    return agg


def scale_by_work(weights: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Aggregation weights under partial work, mass preserved.

    Devices whose completeness column is below 1 ran ``ceil(c · E)``
    steps: each weight is scaled by its realized work fraction and the
    vector renormalized to its original total — a partial update counts
    honestly for less, without shrinking the aggregate step size.  A no-op
    when every fraction is 1.
    """
    if not np.any(work != 1.0):
        return weights
    scaled = weights * work
    scaled_total = float(scaled.sum())
    if scaled_total > 0.0:
        scaled *= float(weights.sum()) / scaled_total
    return scaled


# -- the steps ---------------------------------------------------------------------


@contextmanager
def strategy_round(server, round_idx: int):
    """Open the strategy round; close it exactly once on every exit.

    The single lifecycle guard: leaving the block before :func:`close_round`
    ended the round — an empty cohort, a draw the sampler raises on, a
    crashing backend — aborts it, so a caller that catches the error and
    keeps training holds balanced strategy state: whatever was already
    folded into the strategy's open sums is dropped (clients compressed
    before the failure keep their recorded residuals).  Work that can fail
    *after* the close (evaluation, the record) belongs outside the block.
    """
    server.strategy.begin_round(round_idx)
    rnd = _OpenRound(round_idx)
    try:
        yield rnd
    finally:
        if not rnd.closed:
            server.strategy.abort_round(round_idx)


def contact_wave(
    server,
    round_idx: int,
    busy: Collection[int] = (),
    draw: Optional[SampleDraw] = None,
) -> Cohort:
    """Draw an over-committed candidate wave and charge its downstream sync.

    With a device population bound, ``availability.online`` is the
    population's *idle* mask (the sampler-seam of the state machine:
    working/offline/dropped clients are never drawn) and every contacted
    candidate transitions to WORKING until the scheduler releases it;
    under scalable sampling the draw samples the maintained idle index
    instead of materializing the N-wide mask (``busy`` clients are
    WORKING, so that pool already excludes them).  A quorum re-draw passes
    the ``draw`` it made from its own narrowed pool for the same ledger.
    """
    cfg = server.config
    population = server.population
    available = None
    if draw is None:
        if population is not None and population.scalable_sampling:
            pool = population.idle_pool(round_idx)
            if len(pool) or not cfg.skip_empty_rounds:
                draw = server.sampler.draw_pool(round_idx, pool, cfg.overcommit)
        else:
            available = server.availability.online(round_idx)
            if busy:
                available = available.copy()
                available[np.fromiter(busy, np.int64, count=len(busy))] = False
            if available.any() or not cfg.skip_empty_rounds:
                draw = server.sampler.draw(round_idx, available, cfg.overcommit)
        if draw is None:
            # a churn storm (or a DROPPED-cooldown pileup, or everyone
            # busy) can empty the pool outright; degrade to an empty round
            # instead of letting the sampler raise on it
            draw = SampleDraw(
                sticky=_NOBODY, nonsticky=_NOBODY,
                quota_sticky=0, quota_nonsticky=0,
            )
    candidates = draw.candidates
    if population is not None:
        population.begin_work(candidates)
    sync_bytes, down_per_client, stale = downstream_sync_bytes(
        server, candidates
    )
    mean_stale = (
        float(stale.mean() / server.staleness.d) if len(candidates) else 0.0
    )
    sync_details = None
    if cfg.collect_sync_details:
        # (client_id, gap_rounds, sync_bytes) rows, gap −1 = first contact;
        # one model update is applied per round, so version == round gap
        gaps = server.staleness.sync_gaps(candidates)
        sync_details = list(
            zip(candidates.tolist(), gaps.tolist(), sync_bytes.tolist())
        )
    server.staleness.mark_synced(candidates)
    return Cohort(
        draw=draw,
        available=available,
        down_per_client=down_per_client,
        down_bytes=int(down_per_client.sum()),
        mean_stale_fraction=mean_stale,
        sync_details=sync_details,
        num_candidates=len(candidates),
    )


def select_wave(server, cohort: Cohort) -> None:
    """Price the cohort's latest wave and keep its first K per bucket.

    Faults arrive through the availability model alone: a population's
    responsiveness column scales compute time inside
    :func:`candidate_timings` and its connectivity column drives
    ``survives_round`` (sticky bucket first — the pinned RNG order).
    Sets ``selection`` and the stragglers; appends the losses to ``lost``.
    """
    draw = cohort.draw
    up_nominal = nominal_upstream_bytes(server)
    n_sticky = len(draw.sticky)
    sticky_t = candidate_timings(
        server, draw.sticky, cohort.down_per_client[:n_sticky], up_nominal
    )
    nonsticky_t = candidate_timings(
        server, draw.nonsticky, cohort.down_per_client[n_sticky:], up_nominal
    )
    sticky_survives = server.availability.survives_round(draw.sticky)
    nonsticky_survives = server.availability.survives_round(draw.nonsticky)
    cohort.selection = select_participants(
        sticky_t,
        nonsticky_t,
        draw.quota_sticky,
        draw.quota_nonsticky,
        sticky_survives,
        nonsticky_survives,
    )
    candidates = draw.candidates
    survives = np.concatenate([sticky_survives, nonsticky_survives])
    cohort.lost = np.concatenate([cohort.lost, candidates[~survives]])
    late = survives & ~np.isin(candidates, cohort.selection.participant_ids)
    cohort.straggler_ids = candidates[late]
    cohort.straggler_finish_s = np.concatenate(
        [sticky_t.finish_s, nonsticky_t.finish_s]
    )[late]


def enforce_quorum(server, round_idx: int, cohort: Cohort) -> None:
    """Graceful degradation: re-draw fresh candidates (bounded, each
    wave charged to the clock) while the surviving cohort stays below
    ``quorum_fraction · K``; below quorum after the last attempt the
    round degrades to ``skip_empty_rounds`` semantics — a zero-participant
    record, or the run stops."""
    cfg = server.config
    need = max(1, math.ceil(cfg.quorum_fraction * server.sampler.k))
    if cohort.selection.count >= need:
        return
    pool = cohort.available.copy()
    while (
        cohort.selection.count < need
        and cohort.quorum_redraws < cfg.redraw_max_attempts
    ):
        pool[cohort.draw.candidates] = False  # waves never overlap
        if not pool.any():
            break
        try:
            draw = server.sampler.draw(round_idx, pool, cfg.overcommit)
        except RuntimeError:  # sampler found nobody to contact
            break
        if len(draw.candidates) == 0:
            break
        cohort.quorum_redraws += 1
        # the superseded wave still ran to its deadline; pay for it (plus
        # the configured backoff) before the fresh wave starts.  waves
        # that never launch (exhausted pool, empty draw) charge nothing
        # here — the terminal failed wave is paid below
        cohort.redraw_wait_s += cohort.selection.round_seconds + cfg.redraw_backoff_s
        wave = contact_wave(server, round_idx, draw=draw)
        contacted = cohort.num_candidates + wave.num_candidates
        cohort.mean_stale_fraction = (
            cohort.num_candidates * cohort.mean_stale_fraction
            + wave.num_candidates * wave.mean_stale_fraction
        ) / contacted
        cohort.num_candidates = contacted
        cohort.down_bytes += wave.down_bytes
        if wave.sync_details is not None:
            cohort.sync_details = cohort.sync_details + wave.sync_details
        cohort.draw, cohort.down_per_client = draw, wave.down_per_client
        select_wave(server, cohort)
    if cohort.selection.count < need:
        if not cfg.skip_empty_rounds:
            raise RuntimeError(
                f"round {round_idx}: cohort below quorum after "
                f"{cohort.quorum_redraws} re-draw(s)"
            )
        # the last wave also ran (and failed); its time is still paid
        cohort.quorum_failed = True
        cohort.redraw_wait_s += cohort.selection.round_seconds
        cohort.selection = ParticipantSelection(
            sticky_ids=_NOBODY,
            nonsticky_ids=_NOBODY,
            round_seconds=0.0,
            download_seconds=0.0,
            compute_seconds=0.0,
            upload_seconds=0.0,
        )


def plan_tasks(server, round_idx: int, client_ids, lrs):
    """Work orders for local SGD on ``client_ids`` at learning rates
    ``lrs`` — the only place a
    :class:`~repro.runtime.backends.ClientTask` is built.

    Returns ``(tasks, work)``, ``work`` the realized work fraction per
    client: under a device population every client runs its realized
    steps, whatever the round shape.  Planned before anything trains so a
    round can settle its aggregation weights first and compress each
    result the moment the backend delivers it.  All simulation substrates
    stop at ``server.backend.run_clients(tasks, params, buffers,
    deliver)``: frozen global state (the current globals, or an async
    job's dispatch-time snapshot) plus these task orders go to whatever
    :class:`~repro.runtime.backends.ExecutionBackend` the config selected,
    and per-client deltas come back one ``deliver(result)`` at a time, in
    task order.  Plain lists, not arrays: an async flush plans once per
    arrival, usually for one client.
    """
    steps = [None] * len(client_ids)  # full work: the trainer's default
    work = [1.0] * len(client_ids)
    if server.population is not None:
        full_steps = server.config.local_steps
        realized = server.population.local_steps_for(client_ids, full_steps).tolist()
        if realized != [full_steps] * len(realized):
            steps = realized
            work = [done / full_steps for done in realized]
    tasks = [
        ClientTask(client_id=int(cid), lr=lr, round_idx=round_idx, local_steps=n)
        for cid, lr, n in zip(client_ids, lrs, steps)
    ]
    return tasks, work


def train_cohort(server, round_idx: int, cohort: Cohort, with_stragglers: bool):
    """Train the selected cohort from the current globals, weighted by the
    sampler's unbiasedness correction; returns ``(batch, late)``.

    Each fast-tier result is compressed and folded as the backend
    delivers it (:func:`compress_result`), so the round never holds more
    than the one dense delta and its payload in hand.
    ``with_stragglers`` also trains the cohort's stragglers, in the same
    backend batch (per-client RNG streams are order-independent by
    construction); ``late`` is their ``(result, work)`` pairs, for a tiered
    scheduler to fold in when they arrive — held across rounds, so
    detached from any backend-owned memory.
    """
    selection = cohort.selection
    ids = selection.participant_ids
    if with_stragglers:
        ids = np.concatenate([ids, cohort.straggler_ids])
    nu_s, nu_r = server._weights_for(selection.sticky_ids, selection.nonsticky_ids)
    lr = server.lr_schedule.at_round(round_idx - 1)
    tasks, work = plan_tasks(server, round_idx, ids, [lr] * len(ids))
    n = selection.count
    fast_work = np.array(work[:n])
    batch = Batch(
        weights=scale_by_work(np.concatenate([nu_s, nu_r]), fast_work),
        work=fast_work,
    )
    late: list = []

    def deliver(result) -> None:
        # task order: the fast tier, then the stragglers
        if batch.folded < n:
            compress_result(server, batch, result)
        else:
            late.append((result.detach(), work[n + len(late)]))

    server.backend.run_clients(
        tasks, server.global_params, server.global_buffers, deliver
    )
    return batch, late


def close_round(
    server,
    rnd: _OpenRound,
    batch: Batch,
    selection: Optional[ParticipantSelection] = None,
    why_empty: str = "no participants survived",
):
    """Fold what is still dense, aggregate, update the model and end the
    strategy round.

    ``batch.pending`` — updates whose weight was only known once the batch
    was complete — are compressed and folded here, in order, each let go
    as soon as it is folded.  An empty batch aggregates nothing: the round
    is left for :func:`strategy_round` to abort, and unless
    ``skip_empty_rounds`` asks for a zero-participant record the run stops
    with ``why_empty``.  ``selection`` is the cohort the sampler's
    sticky-group bookkeeping rotates on (``None`` under async: rebalancing
    is a cohort concept).
    """
    while batch.pending:
        compress_result(server, batch, batch.pending.pop(0))
    if server.config.count_buffer_sync and server.view.num_buffer:
        batch.up_bytes += dense_bytes(server.view.num_buffer) * batch.folded
    if not batch.folded:
        if not server.config.skip_empty_rounds:
            raise RuntimeError(f"round {rnd.round_idx}: {why_empty}")
        return
    agg = apply_aggregate(server, batch)
    if selection is not None:
        server.sampler.complete_round(selection.sticky_ids, selection.nonsticky_ids)
    server.strategy.end_round(agg, rnd.round_idx)
    rnd.closed = True


def make_record(
    server, rnd: _OpenRound, batch: Batch, *, down_bytes: int, **ledger
) -> RoundRecord:
    """Evaluate when the eval schedule says so, and build the
    round's :class:`~repro.fl.metrics.RoundRecord` — the only place one is
    built; ``ledger`` carries the caller's clock and candidate fields."""
    cfg = server.config
    round_idx, losses = rnd.round_idx, batch.losses
    accuracy = None
    if round_idx % cfg.eval_every == 0 or round_idx == cfg.rounds:
        accuracy = server.evaluate()
    return RoundRecord(
        round_idx=round_idx,
        down_bytes=down_bytes,
        up_bytes=batch.up_bytes,
        num_participants=len(losses),
        train_loss=float(np.mean(losses)) if losses else 0.0,
        accuracy=accuracy,
        # None, not NaN, for an empty batch (or no population to ask)
        mean_completeness=(
            float(batch.work.mean())
            if server.population is not None and len(batch.work)
            else None
        ),
        mean_update_staleness=(
            float(batch.taus.mean())
            if batch.taus is not None and len(batch.taus)
            else None
        ),
        privacy_epsilon_spent=server.strategy.privacy_epsilon_spent(),
        **ledger,
    )
