"""Unit tests for the simulated-time core (`repro.engine.clock.SimClock`)."""

import numpy as np
import pytest

from repro.engine import SimClock
from repro.fl.simulator import CandidateTimings


def test_clock_starts_at_zero_and_advances():
    clock = SimClock()
    assert clock.now == 0.0
    assert clock.advance_by(1.5) == 1.5
    assert clock.advance_to(4.0) == 4.0
    assert clock.now == 4.0


def test_clock_rejects_backward_motion():
    clock = SimClock(start=10.0)
    with pytest.raises(ValueError, match="backwards"):
        clock.advance_to(9.0)
    with pytest.raises(ValueError, match="< 0"):
        clock.advance_by(-1.0)
    with pytest.raises(ValueError, match="past"):
        clock.schedule(5.0, "too-late")
    assert clock.now == 10.0


def test_pop_orders_by_time_and_advances_now():
    clock = SimClock()
    clock.schedule(3.0, "c")
    clock.schedule(1.0, "a")
    clock.schedule(2.0, "b")
    assert len(clock) == 3
    assert clock.peek() == (1.0, "a")
    assert [clock.pop() for _ in range(3)] == [
        (1.0, "a"), (2.0, "b"), (3.0, "c")
    ]
    assert clock.now == 3.0
    assert len(clock) == 0
    with pytest.raises(IndexError):
        clock.pop()


def test_tied_events_pop_in_schedule_order():
    """Determinism under ties: equal times drain FIFO by sequence number,
    never by payload comparison — pinned under a seeded shuffled insert."""
    rng = np.random.default_rng(42)
    payloads = [f"event-{i}" for i in range(50)]
    # interleave three tied timestamps in seeded random order
    times = rng.choice([1.0, 2.0, 3.0], size=len(payloads))
    clock = SimClock()
    for t, p in zip(times, payloads):
        clock.schedule(float(t), p)
    drained = [clock.pop() for _ in range(len(payloads))]
    # within each tied timestamp, schedule (insertion) order is preserved
    for tied_at in (1.0, 2.0, 3.0):
        got = [p for t, p in drained if t == tied_at]
        want = [p for t, p in zip(times, payloads) if t == tied_at]
        assert got == want
    # and the whole drain is sorted by time
    assert [t for t, _ in drained] == sorted(float(t) for t in times)


def test_tied_events_never_compare_payloads():
    """Unorderable payloads (dicts) at the same instant must not raise."""
    clock = SimClock()
    clock.schedule(1.0, {"unorderable": 1})
    clock.schedule(1.0, {"unorderable": 2})
    assert clock.pop() == (1.0, {"unorderable": 1})
    assert clock.pop() == (1.0, {"unorderable": 2})


def test_pop_until_stops_at_deadline():
    clock = SimClock()
    for t in (0.5, 1.5, 2.5, 3.5):
        clock.schedule(t, t)
    due = clock.pop_until(2.5)  # inclusive deadline
    assert [t for t, _ in due] == [0.5, 1.5, 2.5]
    assert clock.now == 2.5
    assert len(clock) == 1
    clock.advance_to(10.0)
    assert clock.pop_until(3.0) == []  # remaining event is past the deadline


def test_schedule_timings_pushes_finish_events():
    timings = CandidateTimings(
        client_ids=np.array([7, 3]),
        download_s=np.array([1.0, 2.0]),
        compute_s=np.array([0.5, 0.5]),
        upload_s=np.array([0.25, 0.25]),
    )
    clock = SimClock(start=1.0)
    clock.schedule_timings(timings)
    assert clock.pop() == (1.0 + 1.75, 7)
    assert clock.pop() == (1.0 + 2.75, 3)
    # custom payloads + explicit start
    clock.schedule_timings(timings, payloads=["a", "b"], start=10.0)
    assert clock.pop() == (11.75, "a")


def test_clock_truthiness_is_not_emptiness():
    """An exhausted clock is still a clock (``if clock`` must not mean
    ``if pending events`` — use ``len``)."""
    clock = SimClock()
    assert bool(clock)
    assert len(clock) == 0
