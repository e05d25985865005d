"""Naive reference population for the differential suite.

:class:`SweepOraclePopulation` answers the same questions as
:class:`repro.population.DeviceStatePopulation` by recomputing everything
from scratch each queried round: every built-in trace's columns are
rewritten whole (:func:`rewrite_columns`), expired drops revive by an
O(N) scan, and all N devices re-settle.  No event queue, no idle index,
no counters — nothing here can share a bug with the event-driven code in
``src/``.  It carries exactly the surface the engine drives, so it can be
handed to a server as ``RunConfig(population=…)``.

The oracle has no idle index, so it cannot say in which *order* ids
became idle — and pool-sampled cohorts depend on that order.
:class:`PrescheduledDiffTrace` is the reference for it: the queue's
ordering contract (periodic flips of a round before that round's
one-shots) realised without the flip wheel.

:func:`lexsort_compile` is the reference for the wheel's *compile*: the
all-int64 ``searchsorted`` + ``lexsort`` lines the lookup-table / two-pass
compile in ``src/`` replaced.
"""

from __future__ import annotations

import numpy as np

from repro.population import (
    DROPPED,
    IDLE,
    OFFLINE,
    WORKING,
    ChurnStormTrace,
    DeviceClassTrace,
    DeviceTrace,
    ExternalAvailabilityTrace,
    PopulationEventQueue,
    StaticTrace,
)


def rewrite_columns(trace, pop, round_idx: int, classic=None) -> None:
    """Write what ``trace`` says about ``round_idx`` as full columns;
    ``classic`` answers ``online`` in place of the object an
    :class:`ExternalAvailabilityTrace` wraps."""
    if isinstance(trace, ChurnStormTrace):
        connectivity = pop.writable("connectivity")
        responsiveness = pop.writable("responsiveness")
        connectivity[:] = pop.base_connectivity
        responsiveness[:] = pop.base_responsiveness
        if trace.base is not None:
            rewrite_columns(trace.base, pop, round_idx, classic)
        if not trace.is_burst(round_idx):
            return
        connectivity *= 1.0 - trace.burst_dropout
        if trace.straggler_fraction >= 1.0:
            hit = np.ones(pop.num_clients, dtype=bool)
        elif trace.straggler_fraction > 0.0:
            hit = trace._rng.random(pop.num_clients) < trace.straggler_fraction
        else:
            return
        responsiveness[hit] *= trace.straggler_slowdown
    elif isinstance(trace, DeviceClassTrace):
        pop.available[:] = trace._rng.random(pop.num_clients) < trace._online_p
    elif isinstance(trace, ExternalAvailabilityTrace):
        # covers DutyCycleTrace / DiurnalTrace: ask the classic trace
        wrapped = classic if classic is not None else trace.trace
        pop.available[:] = wrapped.online(round_idx)
    elif type(trace) not in (DeviceTrace, StaticTrace):
        raise TypeError(f"oracle has no column model for {type(trace).__name__}")


class PrescheduledDiffTrace(DeviceTrace):
    """Drive a real population from a classic ``online(t)`` trace by brute
    force: one one-shot event per round ``1 … horizon``, all armed at
    construction (so each precedes, in scheduling order, every revival
    later armed for its round), each diffing two full ``online`` masks."""

    def __init__(self, classic, horizon: int) -> None:
        self.classic = classic
        self.horizon = horizon

    def schedule(self, population, queue) -> None:
        population.available[:] = self.classic.online(0)
        for round_idx in range(1, self.horizon + 1):
            queue.schedule(round_idx, self._flip)

    def _flip(self, population, fire_round: int) -> None:
        prev = self.classic.online(fire_round - 1)
        cur = self.classic.online(fire_round)
        population.set_available(np.flatnonzero(cur & ~prev), True)
        population.set_available(np.flatnonzero(prev & ~cur), False)


class SweepOraclePopulation:
    scalable_sampling = False

    def __init__(
        self,
        num_clients,
        rng,
        trace=None,
        *,
        dropout_prob=0.0,
        dropped_cooldown=1,
        classic=None,
    ):
        n = num_clients
        self.num_clients = n
        self.dropped_cooldown = dropped_cooldown
        self._rng = rng
        self.trace = trace if trace is not None else StaticTrace()
        self.classic = classic
        self.available = np.ones(n, dtype=bool)
        self.connectivity = np.full(n, 1.0 - dropout_prob)
        self.completeness = np.ones(n)
        self.responsiveness = np.ones(n)
        self.state = np.zeros(n, dtype=np.int8)
        self._drop_until = np.full(n, -1, dtype=np.int64)
        self._round = -1
        self.trace.bind(self)
        self.base_connectivity = self.connectivity.copy()
        self.base_responsiveness = self.responsiveness.copy()

    @classmethod
    def mirroring(cls, population, classic=None):
        """An oracle over a *fresh* population's trace, RNG and knobs.
        The two share RNG streams, so the donor must never be advanced.
        A ``DutyCycleTrace`` hands its draws to the donor's flip wheels at
        construction, so the oracle answers availability from
        ``classic``: the base availability redrawn from the donor's seed,
        an object no population reads."""
        return cls(
            population.num_clients,
            population._rng,
            population.trace,
            dropout_prob=population.dropout_prob,
            dropped_cooldown=population.dropped_cooldown,
            classic=classic,
        )

    def writable(self, name: str) -> np.ndarray:
        """The trace-facing write protocol; every oracle column is a plain
        eager array, so there is nothing to materialize."""
        return getattr(self, name)

    def advance(self, round_idx: int) -> None:
        if round_idx == self._round:
            return
        self._round = round_idx
        revive = (self.state == DROPPED) & (round_idx > self._drop_until)
        self.state[revive] = IDLE
        rewrite_columns(self.trace, self, round_idx, self.classic)
        settled = (self.state != WORKING) & (self.state != DROPPED)
        self.state[settled] = np.where(self.available[settled], IDLE, OFFLINE)

    def online(self, round_idx: int) -> np.ndarray:
        self.advance(round_idx)
        return self.state == IDLE

    def begin_work(self, client_ids) -> None:
        self.state[np.asarray(client_ids, dtype=np.int64)] = WORKING

    def complete_work(self, client_ids) -> None:
        ids = np.asarray(client_ids, dtype=np.int64)
        self.state[ids[self.state[ids] == WORKING]] = IDLE

    def drop_work(self, client_ids, round_idx: int) -> None:
        ids = np.asarray(client_ids, dtype=np.int64)
        self.state[ids] = DROPPED
        self._drop_until[ids] = round_idx + self.dropped_cooldown

    def finish_round(self, round_idx: int, dropped_ids=None) -> None:
        self.state[self.state == WORKING] = IDLE
        if dropped_ids is not None:
            self.drop_work(dropped_ids, round_idx)

    def survives_round(self, client_ids) -> np.ndarray:
        conn = self.connectivity[np.asarray(client_ids, dtype=np.int64)]
        if np.all(conn >= 1.0):
            return np.ones(len(conn), dtype=bool)
        return self._rng.random(len(conn)) < conn

    def responsiveness_of(self, client_ids) -> np.ndarray:
        return self.responsiveness[np.asarray(client_ids, dtype=np.int64)]

    def local_steps_for(self, client_ids, local_steps: int) -> np.ndarray:
        frac = self.completeness[np.asarray(client_ids, dtype=np.int64)]
        return np.maximum(1, np.ceil(frac * local_steps)).astype(np.int64)

    def state_counts(self) -> dict:
        counts = np.bincount(self.state, minlength=4)
        return {
            "idle": int(counts[IDLE]),
            "working": int(counts[WORKING]),
            "offline": int(counts[OFFLINE]),
            "dropped": int(counts[DROPPED]),
        }


def lexsort_compile(ids, period, residue):
    """``(ids, row_ptr, periods, row_start)`` as ``_FlipWheel.__init__``
    built them before the lookup-table / two-pass rewrite: everything
    int64, period → row block by ``searchsorted``, order by ``lexsort``."""
    ids = np.asarray(ids, dtype=np.int64)
    period = np.broadcast_to(np.asarray(period, dtype=np.int64), ids.shape)
    residue = np.broadcast_to(np.asarray(residue, dtype=np.int64), ids.shape)
    periods = np.unique(period)
    spans = np.cumsum(periods, dtype=np.int64)
    row_start = spans - periods
    row = row_start[np.searchsorted(periods, period)]
    row = row + residue % period
    counts = np.bincount(row, minlength=int(spans[-1]))
    row_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return ids[np.lexsort((ids, row))], row_ptr, periods, row_start


def assert_wheel_equals(wheel, want):
    """``wheel``'s four arrays equal ``want`` (a :func:`lexsort_compile`)
    by value; ids may be stored int32, the CSR tables are int64."""
    got = (wheel.ids, wheel.row_ptr, wheel.periods, wheel.row_start)
    for name, g, w in zip(("ids", "row_ptr", "periods", "row_start"), got, want):
        allowed = (np.int32, np.int64) if name == "ids" else (np.int64,)
        assert g.dtype in allowed, (name, g.dtype)
        np.testing.assert_array_equal(g, w, err_msg=name)


def assert_compiles_like_lexsort(ids, period, residue):
    q = PopulationEventQueue()
    q.schedule_periodic(ids, period, residue, True)
    (wheel,) = q._wheels
    assert_wheel_equals(wheel, lexsort_compile(ids, period, residue))
