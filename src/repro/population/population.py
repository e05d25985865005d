"""Vectorized device-state population: every client is a row, not an object.

FLGo-style system simulators give every client a Python object with an
idle/working/offline/dropped state machine.  That design caps the
federation size at whatever fits in object overhead; this module keeps the
same state machine but stores the whole population as parallel numpy
columns, so 10⁵–10⁶ clients cost a few flat arrays — and a column costs
bytes only once somebody writes it:

``state``
    int8 state machine: ``IDLE`` (0, selectable), ``WORKING`` (1, training
    this round), ``OFFLINE`` (2, unavailable per the device trace), and
    ``DROPPED`` (3, failed mid-round; sits out ``dropped_cooldown`` rounds).
``available``
    The device trace's online mask (duty cycle, diurnal window, …).
``connectivity``
    Per-client probability that an upload survives the round — the
    vectorized generalization of the availability trace's scalar
    ``dropout_prob`` (survive probability = connectivity).
``completeness``
    Fraction of the configured local steps the device can actually run;
    partial completeness yields partial-work updates whose aggregation
    weights are scaled down honestly (see the execution phase).
``responsiveness``
    Compute-time multiplier (1.0 = nominal; a straggler storm sets it > 1).

The three float columns start as ``np.broadcast_to(scalar, (N,))`` — a
zero-stride, read-only view of one value, zero bytes per client — and
every read (indexing, comparisons, arithmetic) works on that view as on
any array.  A writer asks for ``population.writable(name)``, which turns
the column into a real N-wide array the first time and hands back the same
array ever after; assigning into an unmaterialized column directly raises
numpy's read-only ``ValueError`` rather than silently doing nothing.
``base_connectivity`` / ``base_responsiveness`` are the post-``bind``
snapshots a storm restores on calm rounds: the live view itself while the
column is still one scalar, a private copy when ``bind`` wrote it.

The population *is* the server's availability model: it duck-types the
:class:`~repro.traces.availability.AvailabilityTrace` protocol (``online``,
``survives_round``) so every scheduler consumes it unchanged, and adds the
state-machine API the engine's round steps drive (``begin_work`` →
``finish_round``).  State advances once per round, on the first
``online(round_idx)`` call.

Advancing is event-driven.  At construction the bound
:class:`~repro.population.traces.DeviceTrace` converts its dynamics into
transition events on a
:class:`~repro.population.events.PopulationEventQueue`; ``advance`` drains
the due events and settles *only the touched ids*, drop-cooldown revivals
are one-shot events, and a maintained idle index (``idle_pool``) lets
samplers draw from O(idle) without N-wide masks.  ``state_counts`` reads
O(1) counters maintained at transition time.  Mutate ``state`` only
through the API (``begin_work`` / ``complete_work`` / ``drop_work`` /
``finish_round``) and ``available`` only through ``set_available`` /
``note_available_changed`` — direct pokes desync the counters and the idle
index.  ``tests/population/oracle.py`` is the naive full-recompute
reference the differential suite
(``tests/properties/test_props_population_events.py``) holds this module
to.

>>> import numpy as np
>>> pop = DeviceStatePopulation(4, np.random.default_rng(0))
>>> pop.online(1).tolist()
[True, True, True, True]
>>> pop.begin_work(np.array([0, 1]))
>>> pop.online(1).tolist()          # working devices are not selectable
[False, False, True, True]
>>> pop.finish_round(1, dropped_ids=np.array([1]))
>>> pop.online(2).tolist()          # 0 is idle again; 1 sits out a round
[True, False, True, True]
>>> pop.online(3).tolist()          # the drop cooldown expired
[True, True, True, True]
>>> pop.state_counts() == {"idle": 4, "working": 0, "offline": 0,
...                        "dropped": 0}
True
>>> pool = pop.idle_pool(3)         # O(idle) sampling view
>>> sorted(pool.ids.tolist()), len(pool)
([0, 1, 2, 3], 4)
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.population.events import PopulationEventQueue
from repro.utils.arrays import CHUNK_IDS, in_sorted, sorted_unique

__all__ = [
    "IDLE",
    "WORKING",
    "OFFLINE",
    "DROPPED",
    "IdlePool",
    "DeviceStatePopulation",
]

IDLE = 0
WORKING = 1
OFFLINE = 2
DROPPED = 3

_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: the columns that start as one broadcast scalar (see ``writable``)
_FLOAT_COLUMNS = ("connectivity", "completeness", "responsiveness")


def _as_ids(client_ids) -> np.ndarray:
    return np.asarray(client_ids, dtype=np.int64)


def _unique_ids(client_ids) -> np.ndarray:
    """Sorted distinct ``client_ids`` as int64, in a fresh array (the
    in-place sort never reaches the caller's)."""
    return sorted_unique(np.array(client_ids, dtype=np.int64))


def _snapshot(column: np.ndarray) -> np.ndarray:
    """A copy of ``column`` that later writes to it cannot reach — the
    column itself while it is still the read-only one-scalar view."""
    return column.copy() if column.flags.writeable else column


def _reject_apply_only(trace) -> None:
    """Refuse a trace whose dynamics live in an ``apply(population,
    round_idx)`` override: nothing calls ``apply``, so the trace would
    silently run as an always-on population."""
    mro = type(trace).__mro__
    apply_at = next((i for i, k in enumerate(mro) if "apply" in vars(k)), None)
    if apply_at is None:
        return
    schedule_at = next(
        (i for i, k in enumerate(mro) if "schedule" in vars(k)), len(mro)
    )
    if apply_at < schedule_at:
        raise TypeError(
            f"{type(trace).__name__} defines apply() but not schedule(); "
            "the population only runs scheduled events. Port it: rename "
            "apply to _step and add `def schedule(self, population, queue): "
            "queue.add_recurring(self._step)`, writing availability through "
            "population.set_available(ids, value)"
        )


class _ReviveEvent:
    """Scheduled drop-cooldown expiry: settle the ids back in by their
    current availability."""

    __slots__ = ("ids",)

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids

    def __call__(self, population, fire_round: int) -> None:
        population._revive(self.ids)


class IdlePool:
    """O(idle) view over the population's maintained idle index.

    Handed to samplers via :meth:`DeviceStatePopulation.idle_pool` so
    draws never materialize an N-wide boolean mask.  ``sample`` uses
    batched rejection sampling over the dense id array — O(k) for k
    requested ids — and is a *different RNG stream* than the mask-based
    ``draw`` path (scalable sampling is opt-in for exactly that reason).
    """

    __slots__ = ("_pop",)

    def __init__(self, population: "DeviceStatePopulation") -> None:
        self._pop = population

    def __len__(self) -> int:
        return int(self._pop._idle_len)

    @property
    def ids(self) -> np.ndarray:
        """Dense array of the currently idle client ids (unordered)."""
        return self._pop._idle_ids[: self._pop._idle_len]

    def contains(self, client_ids) -> np.ndarray:
        """Boolean mask: which of ``client_ids`` are idle right now."""
        return self._pop.state[_as_ids(client_ids)] == IDLE

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        exclude: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Draw up to ``size`` distinct idle ids uniformly, skipping
        ``exclude``; returns fewer when the eligible pool is smaller."""
        n = len(self)
        seen = set(np.asarray(exclude).tolist()) if exclude is not None else set()
        if n == 0 or size <= 0:
            return _EMPTY_IDS.copy()
        eligible = n
        if len(seen) > n - size:
            # only then can the excluded ids leave fewer than ``size``
            # eligible: count the ones that are idle
            exc = np.fromiter(seen, dtype=np.int64, count=len(seen))
            in_range = exc[(exc >= 0) & (exc < self._pop.num_clients)]
            eligible = n - int(np.count_nonzero(self.contains(in_range)))
        size = min(int(size), eligible)
        ids = self.ids
        chosen: list = []
        while len(chosen) < size:
            need = size - len(chosen)
            draw = rng.integers(0, n, size=max(2 * need, 16))
            for idx in draw:
                cid = int(ids[idx])
                if cid in seen:
                    continue
                seen.add(cid)
                chosen.append(cid)
                if len(chosen) == size:
                    break
        return np.asarray(chosen, dtype=np.int64)


class DeviceStatePopulation:
    """All clients as numpy state columns with an idle/working/offline/
    dropped state machine (see the module docstring for the columns).

    Parameters
    ----------
    num_clients:
        Federation size N.
    rng:
        Source of the mid-round survival draws (the same role the
        availability trace's RNG plays).
    trace:
        A :class:`~repro.population.traces.DeviceTrace` that drives the
        columns each round; ``None`` keeps the constructor baselines
        (always available, uniform connectivity).
    dropout_prob:
        Baseline mid-round dropout: initial connectivity is
        ``1 − dropout_prob`` for every client.
    dropped_cooldown:
        How many rounds a mid-round-dropped client sits out before
        returning to the idle pool (0 = back next round).
    scalable_sampling:
        Advisory flag the engine reads to route sampling through
        :meth:`idle_pool` instead of N-wide ``online`` masks.
    """

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        trace=None,
        *,
        dropout_prob: float = 0.0,
        dropped_cooldown: int = 1,
        scalable_sampling: bool = False,
    ):
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if not 0.0 <= dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if dropped_cooldown < 0:
            raise ValueError("dropped_cooldown must be >= 0")
        self.num_clients = num_clients
        self.dropout_prob = float(dropout_prob)
        self.dropped_cooldown = int(dropped_cooldown)
        self._rng = rng

        n = num_clients
        self.available = np.ones(n, dtype=bool)
        # one scalar each until somebody asks for ``writable(name)``
        self.connectivity = np.broadcast_to(np.float64(1.0 - dropout_prob), n)
        self.completeness = np.broadcast_to(np.float64(1.0), n)
        self.responsiveness = np.broadcast_to(np.float64(1.0), n)
        self.state = np.zeros(n, dtype=np.int8)
        self._round = -1

        if trace is None:
            from repro.population.traces import StaticTrace

            trace = StaticTrace()
        _reject_apply_only(trace)
        self.trace = trace
        trace.bind(self)
        # post-bind snapshots: the columns a trace restores on calm rounds
        self.base_connectivity = _snapshot(self.connectivity)
        self.base_responsiveness = _snapshot(self.responsiveness)

        # -- transition bookkeeping, kept live at every state write
        self.events = PopulationEventQueue()
        self._working_set: set = set()
        self._pending_settle: list = []
        self._touch_buf: Optional[list] = None
        self._counts = np.zeros(4, dtype=np.int64)
        self.scalable_sampling = bool(scalable_sampling)

        trace.schedule(self, self.events)
        # the idle index comes after schedule(), so the trace's set-up
        # temporaries and its 16 B per client never coexist
        self._idle_ids = np.empty(n, dtype=np.int64)
        self._idle_pos = np.full(n, -1, dtype=np.int64)
        self._idle_len = 0
        # settle everyone once against the trace's round-0 availability
        # and seed the idle index in id order — the only O(N) settle ever
        # paid
        np.copyto(self.state, OFFLINE, where=~self.available)
        for lo in range(0, n, CHUNK_IDS):
            idle = np.flatnonzero(self.available[lo : lo + CHUNK_IDS])
            self._idle_add(idle + lo)
        self._counts[IDLE] = self._idle_len
        self._counts[OFFLINE] = n - self._idle_len

    # -- idle-index maintenance ----------------------------------------------------
    def _idle_add(self, ids: np.ndarray) -> None:
        k = len(ids)
        if not k:
            return
        end = self._idle_len + k
        self._idle_ids[self._idle_len : end] = ids
        self._idle_pos[ids] = np.arange(self._idle_len, end, dtype=np.int64)
        self._idle_len = end

    def _idle_remove(self, ids: np.ndarray) -> None:
        k = len(ids)
        if not k:
            return
        pos = self._idle_pos[ids]
        new_len = self._idle_len - k
        holes = pos[pos < new_len]
        self._idle_pos[ids] = -1
        tail = self._idle_ids[new_len : self._idle_len]
        movers = tail[self._idle_pos[tail] >= 0]
        self._idle_ids[holes] = movers
        self._idle_pos[movers] = holes
        self._idle_len = new_len

    def _transition(self, ids: np.ndarray, new_state: int) -> None:
        """State write for unique ``ids`` with live counters and
        idle-index upkeep."""
        if not len(ids):
            return
        old = self.state[ids]
        self.state[ids] = new_state
        self._counts -= np.bincount(old, minlength=4)
        self._counts[new_state] += len(ids)
        if new_state == IDLE:
            self._idle_add(ids[old != IDLE])
        else:
            self._idle_remove(ids[old == IDLE])

    def _settle_ids(self, ids: np.ndarray) -> None:
        """Settle the touched ids idle/offline per ``available``; working
        and dropped devices keep their state."""
        st = self.state[ids]
        ids = ids[(st != WORKING) & (st != DROPPED)]
        if not len(ids):
            return
        old = self.state[ids]
        new = np.where(self.available[ids], IDLE, OFFLINE).astype(np.int8)
        changed = old != new
        if not changed.any():
            return
        cids = ids[changed]
        cnew = new[changed]
        cold = old[changed]
        self.state[cids] = cnew
        self._counts -= np.bincount(cold, minlength=4)
        self._counts += np.bincount(cnew, minlength=4)
        self._idle_remove(cids[cold == IDLE])
        self._idle_add(cids[cnew == IDLE])

    def _revive(self, ids: np.ndarray) -> None:
        """Drop-cooldown expiry: settle straight from ``DROPPED`` into
        idle/offline by current availability."""
        ids = ids[self.state[ids] == DROPPED]
        if not len(ids):
            return
        new = np.where(self.available[ids], IDLE, OFFLINE).astype(np.int8)
        self.state[ids] = new
        self._counts[DROPPED] -= len(ids)
        self._counts += np.bincount(new, minlength=4)
        self._idle_add(ids[new == IDLE])

    # -- trace-facing column writes ------------------------------------------------
    def writable(self, name: str) -> np.ndarray:
        """The float column ``name`` (``"connectivity"``, ``"completeness"``
        or ``"responsiveness"``) as an array that owns its buffer: the
        first call replaces the one-scalar view with a real N-wide array,
        later calls return that same array.  Reads need nothing."""
        if name not in _FLOAT_COLUMNS:
            raise ValueError(
                f"no float column {name!r}; expected one of {_FLOAT_COLUMNS}"
            )
        column = getattr(self, name)
        if not column.flags.writeable:
            column = column.copy()
            setattr(self, name, column)
        return column

    def set_available(self, ids: np.ndarray, value: bool) -> None:
        """Event-action helper: flip ``available`` for ``ids`` and queue
        them for settling at the end of the current ``advance``."""
        self.available[ids] = value
        self.note_available_changed(ids)

    def note_available_changed(self, ids) -> None:
        """Record ids whose ``available`` bit an event action rewrote in
        place, so ``advance`` re-settles exactly those."""
        if self._touch_buf is not None and len(ids):
            self._touch_buf.append(_as_ids(ids))

    # -- round state machine -----------------------------------------------------
    def advance(self, round_idx: int) -> None:
        """Advance the state columns to ``round_idx`` (idempotent per round).

        Drains every periodic flip and one-shot event due at or before
        ``round_idx`` (round by round, a round's flips before its
        one-shots), fires the recurring actions once for ``round_idx``
        itself, then settles only the touched ids — O(transitions), not
        O(N).
        """
        if round_idx == self._round:
            return
        self._round = round_idx
        touched: list = list(self._pending_settle)
        self._pending_settle = []
        self._touch_buf = touched
        try:
            for fire_round, action in self.events.pop_due(round_idx):
                action(self, fire_round)
            for action in self.events.recurring:
                action(self, round_idx)
        finally:
            self._touch_buf = None
        if touched:
            self._settle_ids(
                sorted_unique(np.concatenate(touched, dtype=np.int64))
            )

    def online(self, round_idx: int) -> np.ndarray:
        """Boolean mask of *selectable* clients: idle at ``round_idx``.

        Materializes an N-wide mask — scalable callers should prefer
        :meth:`idle_pool`."""
        self.advance(round_idx)
        return self.state == IDLE

    def online_clients(self, round_idx: int) -> np.ndarray:
        """Ids of selectable clients at ``round_idx``."""
        return np.flatnonzero(self.online(round_idx))

    def idle_pool(self, round_idx: int) -> IdlePool:
        """Advance to ``round_idx`` and return the O(idle) sampling view
        over the index maintained at transition time."""
        self.advance(round_idx)
        return IdlePool(self)

    def begin_work(self, client_ids: np.ndarray) -> None:
        """Mark contacted candidates as working — out of the idle pool."""
        if not len(client_ids):
            return
        ids = _unique_ids(client_ids)
        self._transition(ids, WORKING)
        self._working_set.update(ids.tolist())

    def complete_work(self, client_ids: np.ndarray) -> None:
        """Per-client round completion (continuous schedulers): working
        devices return to idle without waiting for ``finish_round``."""
        if not len(client_ids):
            return
        ids = _unique_ids(client_ids)
        self._working_set.difference_update(ids.tolist())
        ids = ids[self.state[ids] == WORKING]
        self._transition(ids, IDLE)
        if len(ids):
            self._pending_settle.append(ids)

    def drop_work(self, client_ids: np.ndarray, round_idx: int) -> None:
        """Per-client mid-round failure (continuous schedulers): enter
        ``DROPPED`` until ``round_idx + dropped_cooldown`` has passed."""
        if not len(client_ids):
            return
        ids = _unique_ids(client_ids)
        self._working_set.difference_update(ids.tolist())
        self._drop(ids, round_idx)

    def _drop(self, ids: np.ndarray, round_idx: int) -> None:
        """Enter ``DROPPED`` and arm the cooldown-expiry revival."""
        self._transition(ids, DROPPED)
        self.events.schedule(
            round_idx + self.dropped_cooldown + 1, _ReviveEvent(ids)
        )

    def finish_round(
        self, round_idx: int, dropped_ids: Optional[np.ndarray] = None
    ) -> None:
        """Close the round: working devices return to idle, mid-round
        failures enter ``DROPPED`` until ``round_idx + dropped_cooldown``
        has passed."""
        dropped = (
            _unique_ids(dropped_ids)
            if dropped_ids is not None and len(dropped_ids)
            else None
        )
        working = np.fromiter(
            self._working_set, dtype=np.int64, count=len(self._working_set)
        )
        working.sort()
        self._working_set.clear()
        returned = (
            working[~in_sorted(working, dropped)] if dropped is not None else working
        )
        self._transition(returned, IDLE)
        if len(returned):
            self._pending_settle.append(returned)
        if dropped is not None:
            self._drop(dropped, round_idx)

    # -- AvailabilityTrace protocol ----------------------------------------------
    def survives_round(self, client_ids: np.ndarray) -> np.ndarray:
        """Mid-round survival draw from the per-client connectivity column."""
        ids = _as_ids(client_ids)
        conn = self.connectivity[ids]
        if (conn >= 1.0).all():
            return np.ones(len(ids), dtype=bool)
        return self._rng.random(len(ids)) < conn

    # -- column reads -------------------------------------------------------------
    def responsiveness_of(self, client_ids: np.ndarray) -> np.ndarray:
        """Compute-time multipliers for ``client_ids``."""
        return self.responsiveness[_as_ids(client_ids)]

    def completeness_of(self, client_ids: np.ndarray) -> np.ndarray:
        """Work-fraction column for ``client_ids``."""
        return self.completeness[_as_ids(client_ids)]

    def local_steps_for(
        self, client_ids: np.ndarray, local_steps: int
    ) -> np.ndarray:
        """Realized local steps: ``ceil(completeness · E)``, at least 1."""
        frac = self.completeness_of(client_ids)
        steps = np.ceil(frac * local_steps)
        return np.maximum(1, steps).astype(np.int64)

    def state_counts(self) -> Dict[str, int]:
        """``{"idle": …, "working": …, "offline": …, "dropped": …}`` from
        the O(1) counters maintained at transition time."""
        return {
            "idle": int(self._counts[IDLE]),
            "working": int(self._counts[WORKING]),
            "offline": int(self._counts[OFFLINE]),
            "dropped": int(self._counts[DROPPED]),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceStatePopulation(n={self.num_clients}, "
            f"trace={type(self.trace).__name__}, "
            f"{self.state_counts()})"
        )
