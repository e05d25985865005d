"""The simulated-time core: one event clock shared by every scheduler.

Simulated wall-clock used to be smeared across the schedulers — the sync
path kept time implicitly as a per-round ``round_seconds`` sum, the async
scheduler ran a private ``(finish, seq, cid)`` heap.  :class:`SimClock`
hoists that into one place: a monotone *now* plus an event queue keyed on
completion times, with deterministic FIFO ordering for ties.  Schedulers
advance the clock (``advance_by`` / ``advance_to``) or push future
completion events (``schedule`` / ``schedule_timings``) and drain them
(``pop`` / ``pop_until``); the cumulative simulated time lands in every
:class:`~repro.fl.metrics.RoundRecord` as ``wall_clock_s``, so
time-to-accuracy is comparable across round shapes.

Events are ordered by ``(time, seq)`` where ``seq`` is the global push
counter — two events at the exact same instant pop in push order, never by
payload comparison, so determinism is independent of payload types.

>>> clock = SimClock()
>>> clock.schedule(2.0, "late"); clock.schedule(1.0, "early")
0
1
>>> clock.pop()
(1.0, 'early')
>>> clock.now
1.0
>>> clock.advance_by(0.5)
1.5
>>> [p for _, p in clock.pop_until(10.0)]
['late']
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["SimClock"]


class SimClock:
    """Monotone simulated time + a deterministic completion-event queue.

    The clock never runs backwards: ``advance_to`` rejects targets in the
    past, and events cannot be scheduled before *now* (a completion time
    earlier than the present is a modelling bug, not a feature).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0

    # -- time -----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, time_s: float) -> float:
        """Move *now* forward to ``time_s``; returns the new *now*."""
        if time_s < self._now:
            raise ValueError(
                f"cannot advance clock backwards: now={self._now}, "
                f"target={time_s}"
            )
        self._now = float(time_s)
        return self._now

    def advance_by(self, seconds: float) -> float:
        """Move *now* forward by ``seconds``; returns the new *now*."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} < 0 s")
        self._now += float(seconds)
        return self._now

    # -- events ---------------------------------------------------------------
    def schedule(self, time_s: float, payload: Any = None) -> int:
        """Queue ``payload`` to complete at absolute time ``time_s``.

        Returns the event's sequence number (the deterministic tie-break:
        events at equal times pop in schedule order).
        """
        time_s = float(time_s)
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule event in the past: now={self._now}, "
                f"event at {time_s}"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (time_s, seq, payload))
        return seq

    def schedule_timings(
        self,
        timings,
        payloads: Optional[Sequence[Any]] = None,
        start: Optional[float] = None,
    ) -> List[int]:
        """Queue one finish event per client of a ``CandidateTimings``.

        Each client's event lands at ``start + download + compute +
        upload`` (``start`` defaults to *now*) — the same completion model
        :func:`~repro.fl.simulator.select_participants` uses, expressed as
        clock events.  ``payloads`` defaults to the client ids.
        """
        base = self._now if start is None else float(start)
        finish = base + timings.finish_s
        if payloads is None:
            payloads = [int(cid) for cid in timings.client_ids]
        return [
            self.schedule(float(finish[i]), payload)
            for i, payload in enumerate(payloads)
        ]

    def peek(self) -> Optional[Tuple[float, Any]]:
        """The next ``(time, payload)`` without popping, or ``None``."""
        if not self._heap:
            return None
        time_s, _, payload = self._heap[0]
        return time_s, payload

    def pop(self) -> Tuple[float, Any]:
        """Pop the earliest event and advance *now* to its time."""
        if not self._heap:
            raise IndexError("pop from an empty SimClock")
        time_s, _, payload = heapq.heappop(self._heap)
        self._now = max(self._now, time_s)
        return time_s, payload

    def pop_until(self, deadline_s: float) -> List[Tuple[float, Any]]:
        """Pop every event with ``time <= deadline_s``, in clock order.

        *now* advances with the popped events but never past the last one;
        callers that want the full interval consumed follow up with
        ``advance_to(deadline_s)``.
        """
        out: List[Tuple[float, Any]] = []
        while self._heap and self._heap[0][0] <= deadline_s:
            out.append(self.pop())
        return out

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:  # an exhausted clock is still a clock
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimClock now={self._now:.3f}s pending={len(self._heap)}>"
