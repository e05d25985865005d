"""Event-driven population mechanics: the queue, the O(1) counters, the
maintained idle index, and the per-client work transitions.

Bit-identity against the naive sweep oracle lives in the differential
suite (``tests/properties/test_props_population_events.py``); this module
pins the machinery itself.
"""

import numpy as np
import pytest

from repro.population import (
    DROPPED,
    IDLE,
    OFFLINE,
    WORKING,
    DeviceStatePopulation,
    DeviceTrace,
    DiurnalTrace,
    PopulationEventQueue,
)

pytestmark = pytest.mark.population


def make_pop(n=10, seed=0, **kwargs):
    return DeviceStatePopulation(n, np.random.default_rng(seed), **kwargs)


def counts_truth(pop):
    """The recomputed ground truth the O(1) counters must always match."""
    counts = np.bincount(pop.state, minlength=4)
    return {
        "idle": int(counts[IDLE]),
        "working": int(counts[WORKING]),
        "offline": int(counts[OFFLINE]),
        "dropped": int(counts[DROPPED]),
    }


def idle_truth(pop):
    return set(np.flatnonzero(pop.state == IDLE).tolist())


# -- queue mechanics ---------------------------------------------------------------


def test_queue_drains_in_round_then_fifo_order():
    q = PopulationEventQueue()
    fired = []
    q.schedule(5, lambda pop, r: fired.append(("late", r)))
    q.schedule(2, lambda pop, r: fired.append(("a", r)))
    q.schedule(2, lambda pop, r: fired.append(("b", r)))
    for fire_round, action in q.pop_due(4):
        action(None, fire_round)
    assert fired == [("a", 2), ("b", 2)]
    assert len(q) == 1  # round-5 event still pending


def test_queue_followups_within_drain_fire_in_same_pass():
    q = PopulationEventQueue()
    fired = []

    def chain(pop, fire_round):
        fired.append(fire_round)
        if fire_round < 3:
            q.schedule(fire_round + 1, chain)

    q.schedule(1, chain)
    for fire_round, action in q.pop_due(10):
        action(None, fire_round)
    assert fired == [1, 2, 3]


def test_recurring_actions_are_separate_from_scheduled():
    q = PopulationEventQueue()
    q.add_recurring(lambda pop, r: None)
    assert len(q) == 0  # recurring actions don't live on the heap
    assert len(q.recurring) == 1


# -- O(1) state counters (pinned against the recomputed truth) ---------------------


def test_state_counts_match_truth_through_transition_sequence():
    """Satellite: the transition-time counters must track a recomputed
    ``bincount`` of the state column through every transition kind."""
    pop = make_pop(
        12,
        trace=DiurnalTrace(12, np.random.default_rng(4), rounds_per_day=6),
    )
    rng = np.random.default_rng(11)
    for t in range(1, 9):
        idle = pop.online_clients(t)
        assert pop.state_counts() == counts_truth(pop)
        if len(idle):
            cohort = rng.choice(idle, size=min(4, len(idle)), replace=False)
            pop.begin_work(cohort)
            assert pop.state_counts() == counts_truth(pop)
            half = cohort[: len(cohort) // 2]
            pop.complete_work(half)
            assert pop.state_counts() == counts_truth(pop)
            pop.drop_work(cohort[len(cohort) // 2 :], t)
            assert pop.state_counts() == counts_truth(pop)
        pop.finish_round(t, dropped_ids=None)
        assert pop.state_counts() == counts_truth(pop)
    total = sum(pop.state_counts().values())
    assert total == 12


def test_state_counts_is_o1_in_event_mode():
    """``state_counts`` must not rescan the state column per query."""
    pop = make_pop(6)
    pop.state[0] = OFFLINE  # illegal direct poke: counters don't see it
    assert pop.state_counts()["idle"] == 6  # counters, not a rescan
    assert counts_truth(pop)["idle"] == 5


# -- maintained idle index ---------------------------------------------------------


def test_idle_index_tracks_transitions():
    pop = make_pop(8)
    pool = pop.idle_pool(1)
    assert set(pool.ids.tolist()) == idle_truth(pop) == set(range(8))
    pop.begin_work(np.array([2, 5]))
    assert set(pool.ids.tolist()) == idle_truth(pop)
    pop.drop_work(np.array([5]), 1)
    pop.complete_work(np.array([2]))
    assert set(pool.ids.tolist()) == idle_truth(pop) == set(range(8)) - {5}
    assert pool.contains(np.array([2, 5])).tolist() == [True, False]


def test_idle_pool_sample_is_distinct_and_respects_exclude():
    pop = make_pop(20)
    pool = pop.idle_pool(1)
    rng = np.random.default_rng(0)
    drawn = pool.sample(rng, 10, exclude=range(10))
    assert len(drawn) == 10
    assert len(set(drawn.tolist())) == 10
    assert all(cid >= 10 for cid in drawn)


def test_idle_pool_sample_caps_at_eligible_count():
    pop = make_pop(5)
    pool = pop.idle_pool(1)
    rng = np.random.default_rng(0)
    assert len(pool.sample(rng, 50)) == 5
    assert len(pool.sample(rng, 50, exclude=[0, 1])) == 3
    pop.begin_work(np.arange(5))
    assert len(pool.sample(rng, 3)) == 0


# -- per-client work transitions ---------------------------------------------------


def test_drop_work_schedules_revival():
    pop = make_pop(4, dropped_cooldown=1)
    _ = pop.online(1)
    pop.begin_work(np.array([0]))
    pop.drop_work(np.array([0]), 1)
    assert pop.state[0] == DROPPED
    assert pop.online(2).tolist() == [False, True, True, True]
    assert pop.online(3).tolist() == [True, True, True, True]
    assert pop.state_counts() == counts_truth(pop)


def test_revival_settles_by_current_availability():
    """A revived client whose availability went dark lands OFFLINE."""

    class DarkAfterRoundTwo(DeviceTrace):
        def schedule(self, population, queue):
            queue.schedule(
                2, lambda pop, r: pop.set_available(np.array([0]), False)
            )

    pop = make_pop(3, trace=DarkAfterRoundTwo(), dropped_cooldown=1)
    _ = pop.online(1)
    pop.begin_work(np.array([0]))
    pop.finish_round(1, dropped_ids=np.array([0]))
    _ = pop.online(3)  # cooldown expired, but round-2 event turned 0 dark
    assert pop.state[0] == OFFLINE
    assert pop.state_counts() == counts_truth(pop)


def test_complete_work_ignores_non_working_ids():
    pop = make_pop(4)
    pop.begin_work(np.array([0]))
    pop.complete_work(np.array([0, 1, 3]))  # 1 and 3 were never working
    assert pop.state_counts() == counts_truth(pop)
    assert pop.state_counts()["idle"] == 4


def test_working_devices_ride_through_event_rewrites():
    class AllDarkRoundTwo(DeviceTrace):
        def schedule(self, population, queue):
            queue.schedule(
                2,
                lambda pop, r: pop.set_available(
                    np.arange(pop.num_clients), False
                ),
            )

    pop = make_pop(3, trace=AllDarkRoundTwo())
    _ = pop.online(1)
    pop.begin_work(np.array([0]))
    _ = pop.online(2)
    assert pop.state[0] == WORKING  # already training: the event can't pull it
    assert pop.state[1] == OFFLINE
    pop.finish_round(2)
    _ = pop.online(3)
    assert pop.state[0] == OFFLINE  # returned into the dark window
    assert pop.state_counts() == counts_truth(pop)


# -- round jumps -------------------------------------------------------------------


def test_round_jump_lands_in_sweep_state():
    """Scheduled events for skipped rounds drain on a jump, so a jump
    lands exactly where round-by-round advancing would have."""
    def trace(seed):
        return DiurnalTrace(
            24, np.random.default_rng(seed), rounds_per_day=6, jitter_prob=0.0
        )

    stepped = make_pop(24, trace=trace(5))
    jumped = make_pop(24, trace=trace(5))
    for t in range(1, 13):
        _ = stepped.online(t)
    np.testing.assert_array_equal(stepped.online(12), jumped.online(12))
    np.testing.assert_array_equal(stepped.state, jumped.state)
