"""The compiled flip wheel behind ``PopulationEventQueue.schedule_periodic``:
its lookup against brute force, its compile against the ``lexsort``
compile it replaced, the drain-order contract, what it keeps off the heap,
and the queue's introspection counters.

Bit-identity of wheel-driven populations against the sweep oracle lives in
``tests/properties/test_props_flip_wheel.py``.
"""

import numpy as np
import pytest

from repro.population import (
    DeviceStatePopulation,
    DeviceTrace,
    DutyCycleTrace,
    PopulationEventQueue,
)
from repro.traces.availability import AvailabilityTrace
from repro.utils.arrays import CHUNK_IDS
from tests.population.oracle import (
    assert_compiles_like_lexsort,
    assert_wheel_equals,
    lexsort_compile,
)

pytestmark = pytest.mark.population


class Recorder:
    """Stands in for the population: logs every ``set_available``."""

    def __init__(self):
        self.log = []

    def set_available(self, ids, value):
        self.log.append((sorted(ids.tolist()), value))


def drain(queue, round_idx):
    pop = Recorder()
    for fire_round, action in queue.pop_due(round_idx):
        action(pop, fire_round)
    return pop


def flips_by_round(queue, last_round):
    """``{round: {value: sorted ids}}`` for rounds ``1 … last_round``."""
    out = {}
    for fire_round, action in queue.pop_due(last_round):
        ids = out.setdefault(fire_round, {}).setdefault(action.value, [])
        ids.extend(action.ids.tolist())
    return {
        r: {value: sorted(ids) for value, ids in by_value.items()}
        for r, by_value in out.items()
    }


# -- lookup ≡ brute force ----------------------------------------------------------


def test_wheel_rounds_match_brute_force_congruence():
    """Periods sharing residues, a period most of whose rows are empty,
    residues given un-reduced and negative, and ids registered across
    several calls (one of them with a per-id ``value``)."""
    rng = np.random.default_rng(3)
    ids = np.arange(60, dtype=np.int64)
    period = rng.choice([2, 3, 4, 6, 12], size=60)
    residue = rng.integers(-20, 40, size=60)
    value = rng.random(60) < 0.5
    lonely = (np.array([60, 61]), 17, np.array([5, 5]), True)  # 15 empty rows

    q = PopulationEventQueue()
    q.schedule_periodic(ids[:25], period[:25], residue[:25], value[:25])
    q.schedule_periodic(*lonely)
    q.schedule_periodic(ids[25:], period[25:], residue[25:], value[25:])

    all_ids = np.concatenate([ids, lonely[0]])
    all_period = np.concatenate([period, [17, 17]])
    all_residue = np.concatenate([residue, lonely[2]])
    all_value = np.concatenate([value, [True, True]])
    last = 3 * 17
    got = flips_by_round(q, last)
    for r in range(1, last + 1):
        due = (r - all_residue) % all_period == 0
        for direction in (True, False):
            want = all_ids[due & (all_value == direction)].tolist()
            assert got.get(r, {}).get(direction, []) == want, (r, direction)
    np.testing.assert_array_equal(q.periodic_ids, all_ids)


def test_scalar_period_residue_and_value_broadcast():
    q = PopulationEventQueue()
    q.schedule_periodic(np.array([4, 2, 9]), 3, 1, False)
    assert flips_by_round(q, 7) == {
        1: {False: [2, 4, 9]},
        4: {False: [2, 4, 9]},
        7: {False: [2, 4, 9]},
    }


def test_wheel_stores_int32_ids_and_drains_int64():
    """Ids that fit are stored int32 — narrow ids arrive as they are — and
    a drained round hands them out int64, the type numpy indexes with."""
    q = PopulationEventQueue()
    q.schedule_periodic(np.array([4, 2, 9], dtype=np.int8), 3, 1, True)
    (wheel,) = q._wheels
    assert wheel.ids.dtype == np.int32
    ((_, flip),) = q.pop_due(1)
    assert flip.ids.dtype == np.int64 and flip.ids.tolist() == [2, 4, 9]


def test_schedule_periodic_rejects_bad_input():
    q = PopulationEventQueue()
    with pytest.raises(ValueError, match="period"):
        q.schedule_periodic(np.array([0, 1]), np.array([2, 0]), 0, True)
    with pytest.raises(ValueError, match="one-dimensional"):
        q.schedule_periodic(np.zeros((2, 2), dtype=np.int64), 2, 0, True)
    q.schedule_periodic(np.empty(0, dtype=np.int64), 5, 0, True)  # a no-op
    assert len(q.periodic_ids) == 0
    assert flips_by_round(q, 10) == {}


# -- compile ≡ the lexsort compile -------------------------------------------------


def _wheel_case(name):
    rng = np.random.default_rng(11)
    n = 500
    ids = np.arange(n, dtype=np.int64) * 3
    if name == "unsorted ids":
        return rng.permutation(ids), rng.integers(2, 9, n), rng.integers(-9, 30, n)
    if name == "repeated ids":
        return rng.integers(0, 40, n), rng.integers(2, 5, n), rng.integers(0, 5, n)
    if name == "duplicate periods":
        return ids, rng.choice([4, 4, 6, 12], n), rng.integers(0, 12, n)
    if name == "single period":
        return ids, np.full(n, 7), rng.integers(-7, 14, n)
    if name == "scalar period and residue":
        return ids, 5, 3
    if name == "period 1":
        return ids, rng.choice([1, 2], n), rng.integers(0, 4, n)
    if name == "only period 1":
        return ids, 1, rng.integers(-3, 3, n)
    if name == "period beyond 16 bits":  # keys fall off the radix path
        return ids, rng.choice([3, 65_536, 70_001], n), rng.integers(0, 70_001, n)
    if name == "uint8 keys":
        period = rng.integers(100, 201, n).astype(np.uint8)
        return ids, period, (rng.integers(0, 200, n) % period).astype(np.uint8)
    if name == "uint16 keys":
        period = rng.integers(100, 401, n).astype(np.uint16)
        return ids, period, (rng.integers(0, 400, n) % period).astype(np.uint16)
    if name == "negative residues on unsigned periods":
        return ids, rng.integers(2, 200, n).astype(np.uint8), rng.integers(-500, 0, n)
    if name == "ids beyond 32 bits":  # stored int64, not int32
        return ids + 2**31, rng.integers(2, 9, n), rng.integers(0, 9, n)
    big = 2 * CHUNK_IDS + 123  # the compile works in CHUNK_IDS pieces
    if name == "several pieces":
        return (
            np.arange(big, dtype=np.int64),
            rng.choice([3, 7, 300], big).astype(np.uint16),
            rng.integers(0, 300, big),
        )
    if name == "one period over several pieces":
        return rng.permutation(big), 48, rng.integers(0, 48, big)
    raise AssertionError(name)


@pytest.mark.parametrize(
    "case",
    (
        "unsorted ids",
        "repeated ids",
        "duplicate periods",
        "single period",
        "scalar period and residue",
        "period 1",
        "only period 1",
        "period beyond 16 bits",
        "uint8 keys",
        "uint16 keys",
        "negative residues on unsigned periods",
        "ids beyond 32 bits",
        "several pieces",
        "one period over several pieces",
    ),
)
def test_compiled_arrays_equal_the_lexsort_compile(case):
    assert_compiles_like_lexsort(*_wheel_case(case))


def int64_duty_cycles(seed, n, mean_on_fraction, min_period, max_period):
    """``(period, phase, on_fraction)`` exactly as ``AvailabilityTrace``
    draws them, left int64."""
    rng = np.random.default_rng(seed)
    period = rng.integers(min_period, max_period + 1, size=n)
    phase = rng.integers(0, period)
    a, b = 4.0 * mean_on_fraction, 4.0 * (1.0 - mean_on_fraction) + 1e-9
    assert period.dtype == phase.dtype == np.int64
    return period, phase, rng.beta(a, b, size=n)


@pytest.mark.parametrize("max_period", (200, 255, 256, 400, 70_000))
def test_duty_cycle_wheels_equal_the_int64_schedule(max_period):
    """``DutyCycleTrace.schedule`` works in the narrow storage type, where
    neither ``-phase`` nor ``length - phase`` exists; its two wheels must
    be the ones the int64 arithmetic (those two residues, un-reduced)
    compiled — 200 and 255 put ``2·period`` past uint8 — and it seeds
    round 0 as the wrapped trace's ``online(0)`` would have, over several
    :data:`~repro.utils.arrays.CHUNK_IDS` pieces."""
    n, seed = 2 * CHUNK_IDS + 400, 5
    min_period = max_period - 60
    trace = DutyCycleTrace(
        n, np.random.default_rng(seed), 0.6, min_period, max_period
    )
    pop = DeviceStatePopulation(n, np.random.default_rng(0), trace=trace)
    period, phase, on_fraction = int64_duty_cycles(
        seed, n, 0.6, min_period, max_period
    )
    np.testing.assert_array_equal(
        pop.available, phase % period < on_fraction * period
    )
    length = np.clip(np.ceil(on_fraction * period).astype(np.int64), 0, period)
    flips = np.flatnonzero((length > 0) & (length < period))
    period, phase, length = period[flips], phase[flips], length[flips]
    opens, closes = pop.events._wheels
    assert (opens.value, closes.value) == (True, False)
    for wheel, residue in ((opens, -phase), (closes, length - phase)):
        assert_wheel_equals(wheel, lexsort_compile(flips, period, residue))


@pytest.mark.parametrize("max_period", (200, 255, 256, 400, 65_535, 70_000))
def test_narrow_duty_cycles_answer_online_like_int64(max_period):
    """``_period`` / ``_phase`` are stored as narrow as ``max_period``
    allows — cast after the draws, so the RNG stream is the int64 one —
    and ``online`` upcasts: no wrap-around, even at rounds near 2³¹."""
    n, seed = 300, 9
    min_period = max(2, max_period - 150)
    trace = AvailabilityTrace(
        n, np.random.default_rng(seed), 0.7, min_period, max_period
    )
    assert trace._period.dtype == trace._phase.dtype
    assert trace._period.dtype == np.min_scalar_type(max_period)
    period, phase, on_fraction = int64_duty_cycles(
        seed, n, 0.7, min_period, max_period
    )
    np.testing.assert_array_equal(trace._period, period)
    np.testing.assert_array_equal(trace._phase, phase)
    for r in [*range(51), *range(2**31 - 3, 2**31 + 4), 2**40 + 17]:
        want = (r + phase) % period < on_fraction * period
        np.testing.assert_array_equal(trace.online(r), want, err_msg=str(r))


# -- the ordering contract ---------------------------------------------------------


def test_wheel_flips_precede_same_round_one_shots_on_every_drained_round():
    q = PopulationEventQueue()
    order = []
    # armed *before* the periodic registration, for rounds the wheel flips on
    for r in (2, 4, 5):
        q.schedule(r, lambda pop, fired_at: order.append(("one-shot", fired_at)))
    q.schedule_periodic(np.array([0]), 2, 0, True)

    class Pop:
        def set_available(self, ids, value):
            order.append("flip")

    for fire_round, action in q.pop_due(5):  # one jump over five rounds
        action(Pop(), fire_round)
    assert order == [
        "flip",
        ("one-shot", 2),
        "flip",
        ("one-shot", 4),
        ("one-shot", 5),
    ]


def test_revival_settles_against_its_own_rounds_flip():
    """A client dropped long before its window reopens revives straight
    into the idle index — ahead of the ids that round's settle adds —
    because the round's flip lands before the revival armed rounds ago."""

    class Window(DeviceTrace):
        # clients 0 and 1 are dark on rounds ≡ 1 (mod 3), back on ≡ 2
        def schedule(self, population, queue):
            queue.schedule_periodic(np.array([0, 1]), 3, 1, False)
            queue.schedule_periodic(np.array([0, 1]), 3, 2, True)

    pop = DeviceStatePopulation(
        4, np.random.default_rng(0), trace=Window(), dropped_cooldown=4
    )
    _ = pop.online(3)
    pop.begin_work(np.array([1]))
    pop.finish_round(3, dropped_ids=np.array([1]))  # revives at round 8
    _ = pop.online(7)  # 0 and 1 dark again
    pool = pop.idle_pool(8)  # both reopen; 1 also revives
    assert pool.ids.tolist() == [2, 3, 1, 0]  # revival first, then the settle
    assert pop.state_counts()["idle"] == 4


# -- what stays off the heap -------------------------------------------------------


def test_periodic_flips_never_sit_on_the_heap():
    """The ``fleet_async_1m`` population shape at N = 10⁵: no heap entry
    after construction, and through 50 worked rounds the heap holds only
    the drop revivals still cooling down."""
    n = 100_000
    pop = DeviceStatePopulation(
        n,
        np.random.default_rng(1),
        trace=DutyCycleTrace(
            n,
            np.random.default_rng(2),
            mean_on_fraction=0.8,
            min_period=100,
            max_period=400,
        ),
        dropout_prob=0.05,
    )
    assert len(pop.events) == 0
    assert len(pop.events.periodic_ids) > 0.9 * n
    rng = np.random.default_rng(3)
    for t in range(1, 51):
        cohort = pop.idle_pool(t).sample(rng, 40)
        pop.begin_work(cohort)
        pop.drop_work(cohort[:2], t)
        pop.complete_work(cohort[2:])
        assert len(pop.events) <= 1 + pop.dropped_cooldown
    assert pop.events.flipped_ids > 0
    assert pop.events.drained_events == 50 - (1 + pop.dropped_cooldown)


# -- late registration -------------------------------------------------------------


def test_schedule_periodic_after_a_drain_joins_from_the_next_round():
    q = PopulationEventQueue()
    q.schedule_periodic(np.array([0]), 2, 0, True)
    assert drain(q, 4).log == [([0], True), ([0], True)]  # rounds 2, 4
    q.schedule_periodic(np.array([7]), 1, 0, False)  # every round, from 5 on
    assert drain(q, 6).log == [([7], False), ([0], True), ([7], False)]
    # … and on a queue that drained before it ever held a wheel
    bare = PopulationEventQueue()
    drain(bare, 10)
    bare.schedule_periodic(np.array([3]), 4, 0, True)
    assert flips_by_round(bare, 16) == {12: {True: [3]}, 16: {True: [3]}}


# -- introspection -----------------------------------------------------------------


def test_len_counts_one_shots_and_counters_are_monotone():
    q = PopulationEventQueue()
    q.schedule_periodic(np.array([5, 6, 5]), np.array([2, 3, 2]), 0, True)
    q.schedule_periodic(np.array([6]), 3, 1, False)
    q.schedule(2, lambda pop, r: None)
    q.schedule(9, lambda pop, r: None)
    assert len(q) == 2  # the wheel is not "pending events"
    assert q.periodic_ids.tolist() == [5, 6]
    assert (q.drained_events, q.flipped_ids) == (0, 0)
    drain(q, 3)  # r1: 6 off | r2: 5, 5 on + one-shot | r3: 6 on
    assert (q.drained_events, q.flipped_ids) == (1, 4)
    drain(q, 3)  # same round again: nothing new
    assert (q.drained_events, q.flipped_ids) == (1, 4)
    assert len(q) == 1
    assert "flipped_ids=4" in repr(q) and "drained_events=1" in repr(q)
