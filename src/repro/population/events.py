"""Round-indexed transition-event queue behind the population's advance.

At construction the bound trace converts its dynamics into *transition
events* on this queue, and ``advance`` only touches the clients those
events name — O(transitions) per round instead of a rewrite and re-settle
of all N devices.  Two event classes cover every trace in the repo:

scheduled events (``schedule``)
    Absolute state transitions pinned to a round — duty-cycle window
    flips, diurnal window edges, drop-cooldown revivals.  When ``advance``
    jumps several rounds at once, *all* events up to the target round
    drain in ``(round, seq)`` order, so the population lands in the same
    state advancing round by round would have produced.

recurring actions (``add_recurring``)
    Per-round behavior that consumes RNG or otherwise depends on the
    queried round — device-class Bernoulli redraws, diurnal jitter,
    churn-storm bursts, external ``online(round_idx)`` objects.  These
    fire exactly once per ``advance``, at the target round only — once per
    *queried* round, never for skipped rounds — in registration order.

Actions are callables ``action(population, fire_round)`` where
``fire_round`` is the round the event was scheduled for (scheduled
events) or the advance target (recurring actions).  Self-rescheduling
actions re-arm relative to ``fire_round``, which keeps periodic chains
aligned across round jumps.

>>> q = PopulationEventQueue()
>>> fired = []
>>> q.schedule(3, lambda pop, r: fired.append(("b", r)))
>>> q.schedule(1, lambda pop, r: fired.append(("a", r)))
>>> q.add_recurring(lambda pop, r: fired.append(("tick", r)))
>>> for fire_round, action in q.pop_due(4):
...     action(None, fire_round)
>>> for action in q.recurring:
...     action(None, 4)
>>> fired
[('a', 1), ('b', 3), ('tick', 4)]
>>> len(q)
0
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Tuple

__all__ = ["PopulationEventQueue"]

#: an event action: ``action(population, fire_round)``
Action = Callable[[object, int], None]


class PopulationEventQueue:
    """Min-heap of ``(round, seq, action)`` plus a recurring-action list.

    ``seq`` is a monotone tie-break so same-round events fire in the
    order they were scheduled — the same FIFO discipline as
    :class:`~repro.engine.clock.SimClock`.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Action]] = []
        self._seq = 0
        self._recurring: List[Action] = []

    def schedule(self, round_idx: int, action: Action) -> None:
        """Arm ``action`` to fire when ``advance`` reaches ``round_idx``."""
        heapq.heappush(self._heap, (int(round_idx), self._seq, action))
        self._seq += 1

    def add_recurring(self, action: Action) -> None:
        """Register a per-round action (fires once per ``advance``)."""
        self._recurring.append(action)

    @property
    def recurring(self) -> Tuple[Action, ...]:
        """The registered per-round actions, in registration order."""
        return tuple(self._recurring)

    def pop_due(self, round_idx: int) -> Iterator[Tuple[int, Action]]:
        """Drain ``(fire_round, action)`` pairs due at or before
        ``round_idx``, in ``(round, seq)`` order.

        Actions may ``schedule`` follow-up events while draining (the
        periodic-chain pattern); follow-ups due within the same drain
        fire in the same pass.
        """
        while self._heap and self._heap[0][0] <= round_idx:
            fire_round, _, action = heapq.heappop(self._heap)
            yield fire_round, action

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self._heap[0][0] if self._heap else None
        return (
            f"PopulationEventQueue(pending={len(self._heap)}, "
            f"recurring={len(self._recurring)}, next_round={nxt})"
        )
