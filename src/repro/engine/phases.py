"""The seven phases of a synchronous GlueFL round.

Each phase owns one slice of what used to be the monolithic
``FLServer.run_round`` and communicates only through the
:class:`~repro.engine.context.RoundContext`.  The extraction is a faithful
transplant: RNG consumers run in the exact order of the original loop
(sampler draw → sticky survives → non-sticky survives; per-client training
streams are order-independent by construction), so the default phase list
is bit-identical to the pre-refactor monolith — pinned by
``tests/engine/test_round_engine.py`` against a committed golden.

Phases receive ``(server, ctx)``: the :class:`~repro.fl.server.FLServer`
is the state-holder (model, strategy, sampler, substrate models), the
context is the round's scratchpad.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import List, Tuple

import numpy as np

from repro.engine.context import RoundContext
from repro.fl.aggregation import aggregate_buffer_deltas, apply_update
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
    "Phase",
    "SamplingPhase",
    "SyncAccountingPhase",
    "TimingSelectionPhase",
    "ExecutionPhase",
    "CompressionPhase",
    "AggregationPhase",
    "MeasurementPhase",
    "default_phases",
    "candidate_timings",
    "downstream_sync_bytes",
    "nominal_upstream_bytes",
    "sync_detail_rows",
    "feed_update_norms",
    "compress_results",
    "apply_aggregate",
    "scheduled_accuracy",
]


# -- shared round slices -----------------------------------------------------------
# Helpers used by both the sync phases and the async scheduler, so the
# byte-accounting and model-update rules live in exactly one place.


def downstream_sync_bytes(server, client_ids: np.ndarray):
    """``(value_sync_bytes, per_client_total)`` for contacting ``client_ids``.

    The total adds the strategy's per-client mask overhead and, when
    ``count_buffer_sync`` is on, the dense BN-buffer shipment.
    """
    sync_bytes = server.staleness.download_bytes_many(client_ids)
    extra = server.strategy.downstream_extra_bytes()
    if server.config.count_buffer_sync and server.view.num_buffer:
        extra += dense_bytes(server.view.num_buffer)
    return sync_bytes, sync_bytes + extra


def nominal_upstream_bytes(server) -> int:
    """A-priori per-client upload size (for round-time scheduling)."""
    up = server.strategy.nominal_upstream_bytes()
    if server.config.count_buffer_sync and server.view.num_buffer:
        up += dense_bytes(server.view.num_buffer)
    return up


def sync_detail_rows(server, candidates: np.ndarray, sync_bytes: np.ndarray):
    """The ``RoundRecord.sync_details`` rows: ``(client_id, gap_rounds,
    sync_bytes)`` per candidate (gap −1 = first contact).  Shared by the
    sync accounting phase and the tiered scheduler so the tuple format
    cannot drift between them."""
    gaps = server.staleness.sync_gaps(candidates)
    return list(
        zip(candidates.tolist(), gaps.tolist(), sync_bytes.tolist())
    )


def candidate_timings(
    server, client_ids: np.ndarray, down_bytes: np.ndarray, up_nominal: int
) -> CandidateTimings:
    """Per-candidate download/compute/upload legs from the substrate models.

    The one place the latency model is assembled — the timing phase, the
    async dispatcher, and the tiered schedulers all price candidates
    through this helper (every client uploads the a-priori ``up_nominal``
    bytes; actual payload sizes are only known after compression).  When
    the server runs a device population, each candidate's compute leg is
    scaled by its responsiveness column — so straggler storms and slow
    device classes reach every scheduler through this single seam.
    """
    compute_s = server.compute.round_seconds_many(
        client_ids, server.config.local_steps, server.model_scale
    )
    population = getattr(server, "population", None)
    if population is not None:
        compute_s = compute_s * population.responsiveness_of(client_ids)
    return CandidateTimings(
        client_ids=client_ids,
        download_s=server.links.download_seconds_many(client_ids, down_bytes),
        compute_s=compute_s,
        upload_s=server.links.upload_seconds_many(
            client_ids, np.full(len(client_ids), up_nominal)
        ),
    )


def feed_update_norms(server, results) -> None:
    """Norm-feedback hook: report each participant's update magnitude.

    Samplers that opt in via ``wants_update_norms`` (e.g. Optimal Client
    Sampling) receive ``observe_update(client_id, norm)`` for every result
    that reaches aggregation.  The norm comes from the *strategy's*
    :meth:`~repro.compression.base.CompressionStrategy.feedback_norm` —
    the raw ``‖Δ‖₂`` by default, but a privacy wrapper substitutes the
    privatized (noisy) norm, so runs fire this hook *after* compression.
    Sitting on the shared compression seam, the feedback flows identically
    under the sync, async, and failure schedulers; samplers that don't opt
    in cost nothing.
    """
    if not server.sampler.wants_update_norms:
        return
    for result in results:
        server.sampler.observe_update(
            result.client_id,
            server.strategy.feedback_norm(result.client_id, result.delta),
        )


def compress_results(server, results, weights):
    """Compress training results in order; returns
    ``(payloads, buffer_deltas, losses, up_bytes_total)``.

    Also fires the sampler's update-norm feedback (see
    :func:`feed_update_norms`) — compression is the one seam every
    scheduler's results pass through, and it runs first so privacy
    wrappers have recorded their noisy norms before any sampler observes
    them.
    """
    payloads: List[Tuple[int, float, object]] = []
    buffer_deltas: List[np.ndarray] = []
    losses: List[float] = []
    up_bytes_total = 0
    # server-side scratch: per-client top-k magnitude buffers are recycled
    # across the loop (payload arrays themselves are always fresh)
    scope = getattr(server, "scratch_scope", nullcontext)
    with scope():
        for result, weight in zip(results, weights):
            payload = server.strategy.client_compress(
                result.client_id, result.delta, float(weight)
            )
            payloads.append((result.client_id, float(weight), payload))
            buffer_deltas.append(result.buffer_delta)
            up_bytes_total += payload.upstream_bytes
            losses.append(result.mean_loss)
    if server.config.count_buffer_sync and server.view.num_buffer:
        up_bytes_total += dense_bytes(server.view.num_buffer) * len(payloads)
    feed_update_norms(server, results)
    return payloads, buffer_deltas, losses, up_bytes_total


def apply_aggregate(server, payloads, buffer_deltas):
    """Aggregate payloads into the global state + staleness ledger.

    The globals are *replaced*, never mutated — in-flight async jobs hold
    references to the pre-update arrays as their dispatch-time snapshots —
    and the new arrays are marked read-only to enforce that invariant.
    """
    scope = getattr(server, "scratch_scope", nullcontext)
    with scope():
        # the strategy's dense accumulators draw from the server arena;
        # agg's own arrays (global_delta, changed_idx) are fresh and
        # outlive the scope
        agg = server.strategy.aggregate(payloads)
    sharding = getattr(server, "sharding", None)
    params = apply_update(server.global_params, agg.global_delta, sharding)
    if params.dtype != server.global_params.dtype:
        # half-precision run: the delta was accumulated in float32 —
        # round back to the run dtype once, after the add
        params = params.astype(server.global_params.dtype)
    params.flags.writeable = False
    server.global_params = params
    if server.view.num_buffer and buffer_deltas:
        buffers = server.global_buffers + aggregate_buffer_deltas(buffer_deltas)
        buffers.flags.writeable = False
        server.global_buffers = buffers
    server.staleness.record_update(agg.changed_idx)
    if sharding is not None:
        sharding.observe_release(agg.changed_idx)
    return agg


def scheduled_accuracy(server, round_idx: int, down_bytes_total: int):
    """Evaluate + log when the eval schedule says so; else ``None``."""
    cfg = server.config
    if round_idx % cfg.eval_every == 0 or round_idx == cfg.rounds:
        accuracy = server.evaluate()
        server.logger.log(
            "eval", round=round_idx, accuracy=round(accuracy, 4),
            down_gb=round(down_bytes_total / 1e9, 4),
        )
        return accuracy
    return None


class Phase:
    """One slice of the round.  Subclasses override :meth:`run`."""

    name: str = "base"

    def run(self, server, ctx: RoundContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SamplingPhase(Phase):
    """Strategy round-open + availability + over-committed candidate draw.

    With a device population bound, ``availability.online`` is the
    population's *idle* mask (the sampler-seam of the state machine:
    working/offline/dropped clients are never drawn), and every contacted
    candidate transitions to WORKING until the measurement phase closes
    the round.
    """

    name = "sampling"

    def run(self, server, ctx: RoundContext) -> None:
        server.strategy.begin_round(ctx.round_idx)
        ctx.round_opened = True  # the engine aborts us if a phase raises
        population = getattr(server, "population", None)
        if population is not None and getattr(
            population, "scalable_sampling", False
        ):
            self._run_scalable(server, ctx, population)
            return
        ctx.available = server.availability.online(ctx.round_idx)
        if not ctx.available.any() and server.config.skip_empty_rounds:
            # a churn storm (or a DROPPED-cooldown pileup) can empty the
            # pool outright; degrade to an empty round instead of letting
            # the sampler raise on a pool it cannot draw from
            empty = np.empty(0, dtype=np.int64)
            ctx.draw = SampleDraw(
                sticky=empty, nonsticky=empty,
                quota_sticky=0, quota_nonsticky=0,
            )
            return
        ctx.draw = server.sampler.draw(
            ctx.round_idx, ctx.available, server.config.overcommit
        )
        population = getattr(server, "population", None)
        if population is not None:
            population.begin_work(ctx.draw.candidates)

    @staticmethod
    def _run_scalable(server, ctx: RoundContext, population) -> None:
        """O(idle) draw path: sample from the population's maintained idle
        index instead of materializing the N-wide availability mask.
        ``ctx.available`` stays ``None`` — the only downstream consumer
        (quorum re-draws) is rejected by ``RunConfig.validate`` under
        scalable sampling."""
        pool = population.idle_pool(ctx.round_idx)
        if len(pool) == 0 and server.config.skip_empty_rounds:
            empty = np.empty(0, dtype=np.int64)
            ctx.draw = SampleDraw(
                sticky=empty, nonsticky=empty,
                quota_sticky=0, quota_nonsticky=0,
            )
            return
        ctx.draw = server.sampler.draw_pool(
            ctx.round_idx, pool, server.config.overcommit
        )
        population.begin_work(ctx.draw.candidates)


class SyncAccountingPhase(Phase):
    """Downstream ledger: stale-coordinate sync + strategy mask overhead."""

    name = "sync"

    def run(self, server, ctx: RoundContext) -> None:
        cfg = server.config
        candidates = ctx.draw.candidates
        sync_bytes, ctx.down_per_client = downstream_sync_bytes(
            server, candidates
        )
        ctx.down_bytes_total = int(ctx.down_per_client.sum())
        ctx.mean_stale_fraction = server.staleness.mean_staleness_fraction(
            candidates
        )
        if cfg.collect_sync_details:
            # one model update is applied per round, so version == round gap
            ctx.sync_details = sync_detail_rows(server, candidates, sync_bytes)
        server.staleness.mark_synced(candidates)


class TimingSelectionPhase(Phase):
    """Per-candidate latency estimates + first-K-per-bucket selection.

    Faults arrive through the availability model alone: a population's
    responsiveness column scales compute time inside
    ``candidate_timings`` and its connectivity column drives
    ``survives_round``.
    """

    name = "timing"

    def run(self, server, ctx: RoundContext) -> None:
        ctx.up_nominal = nominal_upstream_bytes(server)
        ctx.selection = self._select_wave(server, ctx, ctx.draw, ctx.down_per_client)
        if server.config.quorum_fraction is not None:
            self._enforce_quorum(server, ctx)

    @staticmethod
    def _select_wave(
        server, ctx: RoundContext, draw, down_per_client: np.ndarray
    ) -> ParticipantSelection:
        """Price one candidate wave and select its first-K-per-bucket
        cohort — the original timing-phase body, reusable per quorum
        re-draw wave."""
        n_sticky = len(draw.sticky)
        sticky_t = candidate_timings(
            server, draw.sticky, down_per_client[:n_sticky], ctx.up_nominal
        )
        nonsticky_t = candidate_timings(
            server, draw.nonsticky, down_per_client[n_sticky:], ctx.up_nominal
        )
        sticky_survives = server.availability.survives_round(draw.sticky)
        nonsticky_survives = server.availability.survives_round(draw.nonsticky)
        if getattr(server, "population", None) is not None:
            lost = np.concatenate(
                [draw.sticky[~sticky_survives], draw.nonsticky[~nonsticky_survives]]
            )
            ctx.dropped_ids = (
                lost
                if ctx.dropped_ids is None
                else np.concatenate([ctx.dropped_ids, lost])
            )
        return select_participants(
            sticky_t,
            nonsticky_t,
            draw.quota_sticky,
            draw.quota_nonsticky,
            sticky_survives,
            nonsticky_survives,
        )

    def _enforce_quorum(self, server, ctx: RoundContext) -> None:
        """Graceful degradation: re-draw fresh candidates (bounded, each
        wave charged to the clock) while the surviving cohort stays below
        ``quorum_fraction · K``; below quorum after the last attempt the
        round degrades to ``skip_empty_rounds`` semantics."""
        cfg = server.config
        population = getattr(server, "population", None)
        need = max(1, math.ceil(cfg.quorum_fraction * server.sampler.k))
        if ctx.selection.count >= need:
            return
        tried = set(np.asarray(ctx.draw.candidates).tolist())
        attempts = 0
        while ctx.selection.count < need and attempts < cfg.redraw_max_attempts:
            pool = ctx.available.copy()
            if tried:
                pool[np.fromiter(tried, dtype=np.int64, count=len(tried))] = False
            if not pool.any():
                break
            try:
                draw = server.sampler.draw(ctx.round_idx, pool, cfg.overcommit)
            except RuntimeError:  # sampler found nobody to contact
                break
            candidates = draw.candidates
            if len(candidates) == 0:
                break
            attempts += 1
            # the superseded wave still ran to its deadline; pay for it
            # (plus the configured backoff) before the fresh wave starts.
            # waves that never launch (exhausted pool, empty draw) charge
            # nothing here — the terminal failed wave is paid below
            ctx.redraw_wait_s += ctx.selection.round_seconds + cfg.redraw_backoff_s
            # the fresh wave's downstream accounting mirrors the sync phase
            n_prev = len(tried)
            sync_bytes, down = downstream_sync_bytes(server, candidates)
            fresh_stale = server.staleness.mean_staleness_fraction(candidates)
            ctx.down_bytes_total += int(down.sum())
            if cfg.collect_sync_details:
                ctx.sync_details = (ctx.sync_details or []) + sync_detail_rows(
                    server, candidates, sync_bytes
                )
            server.staleness.mark_synced(candidates)
            ctx.mean_stale_fraction = (
                n_prev * ctx.mean_stale_fraction + len(candidates) * fresh_stale
            ) / (n_prev + len(candidates))
            if population is not None:
                population.begin_work(candidates)
            tried.update(np.asarray(candidates).tolist())
            ctx.draw = draw
            ctx.selection = self._select_wave(server, ctx, draw, down)
        ctx.quorum_redraws = attempts
        if attempts:
            ctx.num_candidates = len(tried)
        if ctx.selection.count < need:
            # the last wave also ran (and failed); its time is still paid
            ctx.quorum_failed = True
            ctx.redraw_wait_s += ctx.selection.round_seconds
            empty = np.empty(0, dtype=np.int64)
            ctx.selection = ParticipantSelection(
                sticky_ids=empty,
                nonsticky_ids=empty,
                round_seconds=0.0,
                download_seconds=0.0,
                compute_seconds=0.0,
                upload_seconds=0.0,
            )


class ExecutionPhase(Phase):
    """Local SGD for every participant — the execution-backend seam.

    All simulation substrates stop here: the phase hands frozen global
    state plus :class:`~repro.runtime.backends.ClientTask` orders to
    whatever :class:`~repro.runtime.backends.ExecutionBackend` the config
    selected, and gets per-client deltas back in task order.
    """

    name = "execution"

    def run(self, server, ctx: RoundContext) -> None:
        selection = ctx.selection
        nu_s, nu_r = server._weights_for(
            selection.sticky_ids, selection.nonsticky_ids
        )
        ctx.lr = server.lr_schedule.at_round(ctx.round_idx - 1)
        ctx.all_weights = np.concatenate([nu_s, nu_r])
        steps = self._partial_work(server, ctx, selection)
        ctx.tasks = [
            ClientTask(
                client_id=int(cid),
                lr=ctx.lr,
                round_idx=ctx.round_idx,
                local_steps=None if steps is None else int(steps[i]),
            )
            for i, cid in enumerate(selection.participant_ids)
        ]
        ctx.results = server.backend.run_clients(
            ctx.tasks, server.global_params, server.global_buffers
        )

    @staticmethod
    def _partial_work(server, ctx: RoundContext, selection):
        """Per-participant realized local steps under partial completeness.

        Devices whose completeness column is below 1 run
        ``ceil(completeness · E)`` steps; their aggregation weights are
        scaled by the realized work fraction and renormalized so the
        cohort's total weight mass is preserved — a partial update counts
        honestly for less, without shrinking the aggregate step size.
        Returns ``None`` (full work for everyone) unless a population with
        partial completeness is bound.
        """
        population = getattr(server, "population", None)
        if population is None or not selection.count:
            return None
        full_steps = server.config.local_steps
        steps = population.local_steps_for(selection.participant_ids, full_steps)
        frac = steps / float(full_steps)
        ctx.mean_completeness = float(frac.mean())
        if not np.any(steps != full_steps):
            return None
        scaled = ctx.all_weights * frac
        total = float(ctx.all_weights.sum())
        scaled_total = float(scaled.sum())
        if scaled_total > 0.0:
            scaled *= total / scaled_total
        ctx.all_weights = scaled
        return steps


class CompressionPhase(Phase):
    """Client-side compression + upstream ledger, in task order.

    Compression stays in the server process, in task order, so every
    execution backend is bit-identical to serial execution.
    """

    name = "compression"

    def run(self, server, ctx: RoundContext) -> None:
        (
            ctx.payloads,
            ctx.buffer_deltas,
            ctx.losses,
            ctx.up_bytes_total,
        ) = compress_results(server, ctx.results, ctx.all_weights)
        if not ctx.payloads:
            if server.config.skip_empty_rounds:
                ctx.empty_round = True
            elif ctx.quorum_failed:
                raise RuntimeError(
                    f"round {ctx.round_idx}: cohort below quorum after "
                    f"{ctx.quorum_redraws} re-draw(s)"
                )
            else:
                # the engine pairs the opened round via abort_round
                raise RuntimeError(
                    f"round {ctx.round_idx}: no participants survived"
                )


class AggregationPhase(Phase):
    """Weighted aggregation, model update, staleness ledger, round-close."""

    name = "aggregation"

    def run(self, server, ctx: RoundContext) -> None:
        if ctx.empty_round:
            # pair the SamplingPhase's begin_round: nothing aggregated
            server.strategy.abort_round(ctx.round_idx)
            ctx.round_closed = True
            return
        agg = apply_aggregate(server, ctx.payloads, ctx.buffer_deltas)
        server.sampler.complete_round(
            ctx.selection.sticky_ids, ctx.selection.nonsticky_ids
        )
        server.strategy.end_round(agg, ctx.round_idx)
        ctx.round_closed = True
        ctx.agg = agg


class MeasurementPhase(Phase):
    """Scheduled evaluation + the round's :class:`RoundRecord`."""

    name = "measurement"

    def run(self, server, ctx: RoundContext) -> None:
        t = ctx.round_idx
        ctx.accuracy = scheduled_accuracy(server, t, ctx.down_bytes_total)
        selection = ctx.selection
        round_seconds = selection.round_seconds
        if ctx.redraw_wait_s:
            # failed quorum waves ran before this selection; their wall
            # time (plus backoff) is part of the round
            round_seconds = round_seconds + ctx.redraw_wait_s
        ctx.record = RoundRecord(
            round_idx=t,
            down_bytes=ctx.down_bytes_total,
            up_bytes=ctx.up_bytes_total,
            round_seconds=round_seconds,
            download_seconds=selection.download_seconds,
            compute_seconds=selection.compute_seconds,
            upload_seconds=selection.upload_seconds,
            num_candidates=(
                ctx.num_candidates
                if ctx.num_candidates is not None
                else len(ctx.draw.candidates)
            ),
            num_participants=0 if ctx.empty_round else selection.count,
            mean_stale_fraction=ctx.mean_stale_fraction,
            train_loss=float(np.mean(ctx.losses)) if ctx.losses else 0.0,
            accuracy=ctx.accuracy,
            sync_details=ctx.sync_details,
            injected_failure=ctx.injected_failure,
            quorum_redraws=ctx.quorum_redraws,
            quorum_failed=ctx.quorum_failed,
            mean_completeness=ctx.mean_completeness,
            privacy_epsilon_spent=server.strategy.privacy_epsilon_spent(),
        )
        population = getattr(server, "population", None)
        if population is not None:
            # close the state machine: workers return to idle, mid-round
            # failures enter DROPPED for the configured cooldown
            population.finish_round(t, ctx.dropped_ids)
        if ctx.clock is not None:
            # replay the round's duration through the scheduler's clock so
            # every record carries comparable cumulative simulated time
            ctx.clock.advance_by(ctx.record.round_seconds)
            ctx.record.wall_clock_s = ctx.clock.now


def default_phases() -> List[Phase]:
    """The synchronous Algorithm 1 round shape, in order."""
    return [
        SamplingPhase(),
        SyncAccountingPhase(),
        TimingSelectionPhase(),
        ExecutionPhase(),
        CompressionPhase(),
        AggregationPhase(),
        MeasurementPhase(),
    ]
