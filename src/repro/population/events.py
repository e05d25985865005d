"""Round-indexed transition-event queue behind the population's advance.

At construction the bound trace converts its dynamics into *transition
events* on this queue, and ``advance`` only touches the clients those
events name — O(transitions) per round instead of a rewrite and re-settle
of all N devices.  Three registration kinds cover every trace in the repo:

periodic flips (``schedule_periodic``)
    Deterministic availability flips that repeat forever — duty-cycle
    window edges, jitter-free diurnal day/night edges.  One vector call
    registers per-id ``(period, residue)`` pairs; the queue compiles them
    into a *flip wheel* (a CSR table with one row per ``(period,
    residue)``), and each drained round gathers the ids whose
    ``round % period == residue`` and flips them with a single
    ``set_available`` — no per-chain Python objects, no heap traffic.

one-shot events (``schedule``)
    A callable pinned to one round — drop-cooldown revivals, a trace's
    one-off outages, anything that writes a float column.  These live on
    a min-heap and are the only thing ``len(queue)`` counts.

recurring actions (``add_recurring``)
    Per-round behavior that consumes RNG or otherwise depends on the
    queried round — device-class Bernoulli redraws, diurnal jitter,
    churn-storm bursts, external ``online(round_idx)`` objects.  These
    fire exactly once per ``advance``, at the target round only — once per
    *queried* round, never for skipped rounds — in registration order.

**Ordering contract.**  When ``advance`` jumps several rounds at once,
*every* round up to the target drains, in round order, so the population
lands in the state advancing round by round would have produced.  Within
one drained round ``r`` — skipped rounds of a jump included — the wheel's
flips of ``r`` apply *before* any one-shot event scheduled for ``r``, and
same-round one-shots fire in the order they were scheduled.  A revival
therefore always settles against the availability of its own round,
however long ago it was armed; the order in which ids enter the
population's idle index (and so every pool-sampled cohort) depends on it.

Actions are callables ``action(population, fire_round)`` where
``fire_round`` is the round the event was scheduled for (one-shot events
and wheel flips) or the advance target (recurring actions).

>>> import numpy as np
>>> q = PopulationEventQueue()
>>> fired = []
>>> q.schedule(3, lambda pop, r: fired.append(("b", r)))
>>> q.schedule(1, lambda pop, r: fired.append(("a", r)))
>>> q.add_recurring(lambda pop, r: fired.append(("tick", r)))
>>> # clients 0 and 1 go dark on even rounds; client 1 returns on odd ones
>>> q.schedule_periodic(np.array([0, 1]), 2, 0, False)
>>> q.schedule_periodic(np.array([1]), 2, 1, True)
>>> class Recorder:
...     def set_available(self, ids, value):
...         fired.append((ids.tolist(), value))
>>> pop = Recorder()
>>> for fire_round, action in q.pop_due(3):
...     action(pop, fire_round)
>>> for action in q.recurring:
...     action(pop, 3)
>>> fired[:3]                   # round 1: the wheel first, then the one-shot
[([1], True), ('a', 1), ([0, 1], False)]
>>> fired[3:]
[([1], True), ('b', 3), ('tick', 3)]
>>> len(q), q.periodic_ids.tolist(), q.drained_events, q.flipped_ids
(0, [0, 1], 2, 4)
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Tuple

import numpy as np

from repro.utils.arrays import CHUNK_IDS, sorted_unique

__all__ = ["PopulationEventQueue"]

#: an event action: ``action(population, fire_round)``
Action = Callable[[object, int], None]

_INT32 = np.iinfo(np.int32)


def _as_integers(values) -> np.ndarray:
    """``values`` as an integer array, left as narrow as it arrives."""
    values = np.asarray(values)
    return values if values.dtype.kind in "iu" else values.astype(np.int64)


class _FlipWheel:
    """One direction's periodic flips, compiled to a CSR table.

    ``ids`` is ordered by ``(period, residue, id)``; row ``row_start[j] +
    r % periods[j]`` of ``row_ptr`` brackets the ids of distinct period
    ``periods[j]`` that flip to ``value`` at round ``r``.  Memory is
    O(ids + Σ distinct periods); a round's lookup is one gather over the
    distinct periods' rows, independent of how many ids hold still.

    Compiling is the population's construction-time memory peak at 10⁶
    ids, so besides ``ids`` itself the only N-wide array is a residue per
    id, as narrow as a residue is.  A stable counting sort does it in two
    levels, each over keys as narrow as their values (16-bit keys take
    numpy's radix sort): the ids go to their period's group one
    :data:`~repro.utils.arrays.CHUNK_IDS` piece at a time, each piece
    sorted by period and copied to its groups' running cursors, then each
    group is sorted by residue in place — a few thousand ids per period
    on the fleet shape (a one-period wheel sorts all its ids at once).
    Pieces go in id order, so a row keeps its ids ascending.  ``ids`` is
    stored int32 whenever the ids fit (int64 otherwise) and
    :meth:`ids_at` widens a round's gather back to int64, the index type
    numpy indexes with.  ``tests/population/oracle.py`` keeps an
    all-int64 ``searchsorted`` + ``lexsort`` compile as the reference;
    the four arrays equal it.
    """

    __slots__ = ("value", "ids", "periods", "row_start", "row_ptr")

    def __init__(
        self,
        ids: np.ndarray,
        period: np.ndarray,
        residue: np.ndarray,
        value: bool,
    ) -> None:
        self.value = value
        if np.any(ids[1:] < ids[:-1]):
            # the sorts below break ties by position: make that by id
            by_id = np.argsort(ids, kind="stable")
            ids, period, residue = ids[by_id], period[by_id], residue[by_id]
        pieces = range(0, len(ids), CHUNK_IDS)
        # distinct periods, their group sizes and period -> slot by table
        top = int(period.max())
        per_period = np.zeros(top + 1, dtype=np.int64)
        for lo in pieces:
            p = period[lo : lo + CHUNK_IDS]
            per_period += np.bincount(p, minlength=top + 1)
        self.periods = np.flatnonzero(per_period)
        spans = np.cumsum(self.periods, dtype=np.int64)
        self.row_start = spans - self.periods
        slot_of = np.zeros(top + 1, dtype=np.min_scalar_type(len(self.periods)))
        slot_of[self.periods] = np.arange(len(self.periods))
        group = np.zeros(len(self.periods) + 1, dtype=np.int64)
        np.cumsum(per_period[self.periods], out=group[1:])
        # level 1: each piece's ids go to their period group, in order
        wide = ids[0] < _INT32.min or ids[-1] > _INT32.max
        self.ids = np.empty(len(ids), dtype=np.int64 if wide else np.int32)
        residues = np.empty(len(ids), dtype=np.min_scalar_type(top))
        cursor = group[:-1].copy()
        for lo in pieces:
            p = period[lo : lo + CHUNK_IDS]
            slot = slot_of[p]
            order = np.argsort(slot, kind="stable")
            slot = slot[order]
            # slot k's i-th id of the piece goes to cursor[k] + i
            here = np.bincount(slot, minlength=len(cursor))
            shift = cursor - np.cumsum(here)
            shift += here
            cursor += here
            dest = shift[slot]
            dest += np.arange(len(slot))
            self.ids[dest] = ids[lo : lo + CHUNK_IDS][order]
            residues[dest] = (residue[lo : lo + CHUNK_IDS] % p)[order]
        # level 2: each group by residue, which also counts its rows
        self.row_ptr = np.zeros(int(spans[-1]) + 1, dtype=np.int64)
        for j, (a, b) in enumerate(zip(group[:-1], group[1:])):
            res = residues[a:b]
            self.ids[a:b] = self.ids[a:b][np.argsort(res, kind="stable")]
            rows = self.row_ptr[self.row_start[j] + 1 : spans[j] + 1]
            np.cumsum(np.bincount(res, minlength=self.periods[j]), out=rows)
            rows += a

    def ids_at(self, round_idx: int) -> np.ndarray:
        """The ids flipping at ``round_idx``: those registered with
        ``round_idx % period == residue``."""
        rows = self.row_start + round_idx % self.periods
        first = self.row_ptr[rows]
        count = self.row_ptr[rows + 1] - first
        # output slot i of the segment copied from row k reads
        # ids[first[k] + (i - out_start[k])]
        shift = first - (np.cumsum(count, dtype=np.int64) - count)
        take = np.arange(int(count.sum()), dtype=np.int64)
        take += np.repeat(shift, count)
        return self.ids[take].astype(np.int64, copy=False)


class _WheelFlip:
    """The action a drained wheel round yields: one ``set_available``."""

    __slots__ = ("ids", "value")

    def __init__(self, ids: np.ndarray, value: bool) -> None:
        self.ids = ids
        self.value = value

    def __call__(self, population, fire_round: int) -> None:
        population.set_available(self.ids, self.value)


class PopulationEventQueue:
    """Flip wheel + min-heap of ``(round, seq, action)`` one-shots + a
    recurring-action list (see the module docstring for the three kinds
    and the order they drain in).

    ``seq`` is a monotone tie-break so same-round one-shots fire in the
    order they were scheduled — the same FIFO discipline as
    :class:`~repro.engine.clock.SimClock`.  ``len(queue)`` is the number
    of pending one-shot events only; the wheel's size is
    ``len(queue.periodic_ids)``.

    ``drained_events`` (one-shot events fired) and ``flipped_ids`` (ids
    the wheel has flipped) are monotone counters updated by the drain.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Action]] = []
        self._seq = 0
        self._recurring: List[Action] = []
        self._wheels: List[_FlipWheel] = []
        self._drained_round = 0
        self.drained_events = 0
        self.flipped_ids = 0

    def schedule(self, round_idx: int, action: Action) -> None:
        """Arm ``action`` to fire once, when ``advance`` reaches
        ``round_idx``."""
        heapq.heappush(self._heap, (int(round_idx), self._seq, action))
        self._seq += 1

    def schedule_periodic(self, ids, period, residue, value) -> None:
        """Flip ``available[ids[i]]`` to ``value[i]`` at every round ``r``
        with ``r % period[i] == residue[i] % period[i]``, forever.

        ``ids`` are integers of any width; ``period`` (≥ 1), ``residue``
        and ``value`` are per-id arrays or scalars that broadcast against
        ``ids``.  Each call compiles its
        own wheel per direction, so register a trace's flips in as few
        calls as it has directions, not one call per client group.  Flips
        start with the first round not yet drained: rounds are 1-based,
        round 0 being the state the trace seeded, and a call made after
        rounds have drained joins from the next one.
        """
        ids = _as_integers(ids)
        if ids.ndim != 1:
            raise ValueError("ids must be one-dimensional")
        period = np.broadcast_to(_as_integers(period), ids.shape)
        residue = np.broadcast_to(_as_integers(residue), ids.shape)
        if len(ids) and period.min() < 1:
            raise ValueError("period must be >= 1")
        value = np.asarray(value, dtype=bool)
        if value.ndim == 0:
            directions = [(bool(value), slice(None))]
        else:
            value = np.broadcast_to(value, ids.shape)
            directions = [(True, value), (False, ~value)]
        for direction, pick in directions:
            chosen = ids[pick]
            if len(chosen):
                self._wheels.append(
                    _FlipWheel(chosen, period[pick], residue[pick], direction)
                )

    def add_recurring(self, action: Action) -> None:
        """Register a per-round action (fires once per ``advance``)."""
        self._recurring.append(action)

    @property
    def recurring(self) -> Tuple[Action, ...]:
        """The registered per-round actions, in registration order."""
        return tuple(self._recurring)

    @property
    def periodic_ids(self) -> np.ndarray:
        """Sorted distinct ids the wheel holds (a fresh array)."""
        held = [np.empty(0, dtype=np.int64)]
        held += [wheel.ids for wheel in self._wheels]
        return sorted_unique(np.concatenate(held, dtype=np.int64))

    def _pop_one_shots(self, round_idx: int) -> Iterator[Tuple[int, Action]]:
        heap = self._heap
        while heap and heap[0][0] <= round_idx:
            fire_round, _, action = heapq.heappop(heap)
            self.drained_events += 1
            yield fire_round, action

    def pop_due(self, round_idx: int) -> Iterator[Tuple[int, Action]]:
        """Drain ``(fire_round, action)`` pairs due at or before
        ``round_idx``: round by round, the wheel's flips of a round
        first, then that round's one-shots in scheduling order.

        Actions may ``schedule`` follow-up events while draining;
        follow-ups due within the same drain fire in the same pass.
        """
        if self._wheels:
            for r in range(self._drained_round + 1, round_idx + 1):
                yield from self._pop_one_shots(r - 1)
                self._drained_round = r
                for wheel in self._wheels:
                    ids = wheel.ids_at(r)
                    if len(ids):
                        self.flipped_ids += len(ids)
                        yield r, _WheelFlip(ids, wheel.value)
        yield from self._pop_one_shots(round_idx)
        self._drained_round = max(self._drained_round, round_idx)

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self._heap[0][0] if self._heap else None
        return (
            f"PopulationEventQueue(pending={len(self._heap)}, "
            f"periodic_flips={sum(len(w.ids) for w in self._wheels)}, "
            f"recurring={len(self._recurring)}, next_round={nxt}, "
            f"drained_events={self.drained_events}, "
            f"flipped_ids={self.flipped_ids})"
        )
