"""Unit tests for the vectorized device-state population."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.population import (
    DROPPED,
    IDLE,
    OFFLINE,
    WORKING,
    ChurnStormTrace,
    DeviceClassTrace,
    DeviceStatePopulation,
    DeviceTrace,
    DutyCycleTrace,
    ExternalAvailabilityTrace,
    StaticTrace,
)

FLOAT_COLUMNS = ("connectivity", "completeness", "responsiveness")


def make_pop(n=10, seed=0, **kwargs):
    return DeviceStatePopulation(n, np.random.default_rng(seed), **kwargs)


class EveryRound(DeviceTrace):
    """Runs ``step(population, round_idx)`` once per queried round."""

    def __init__(self, step):
        self._step = step

    def schedule(self, population, queue):
        queue.add_recurring(self._step)


# -- construction ------------------------------------------------------------------


def test_constructor_validates():
    with pytest.raises(ValueError, match="num_clients"):
        make_pop(0)
    with pytest.raises(ValueError, match="dropout_prob"):
        make_pop(4, dropout_prob=1.0)
    with pytest.raises(ValueError, match="dropped_cooldown"):
        make_pop(4, dropped_cooldown=-1)


def test_default_population_is_all_idle():
    pop = make_pop(5)
    assert isinstance(pop.trace, StaticTrace)
    assert pop.online(1).all()
    assert pop.state_counts() == {
        "idle": 5, "working": 0, "offline": 0, "dropped": 0,
    }
    np.testing.assert_array_equal(np.flatnonzero(pop.online(1)), np.arange(5))


def test_dropout_prob_sets_baseline_connectivity():
    pop = make_pop(5, dropout_prob=0.3)
    np.testing.assert_allclose(pop.connectivity, 0.7)
    np.testing.assert_allclose(pop.base_connectivity, 0.7)


# -- columns cost what varies ------------------------------------------------------


@pytest.mark.population
def test_float_columns_own_no_buffer_until_writable():
    pop = make_pop(1000, dropout_prob=0.25)
    for name in FLOAT_COLUMNS:
        column = getattr(pop, name)
        assert column.shape == (1000,) and column.dtype == np.float64
        assert column.strides == (0,) and not column.flags.writeable
    assert pop.connectivity[0] == 0.75 and pop.completeness[999] == 1.0
    for name in FLOAT_COLUMNS:
        before = getattr(pop, name)
        column = pop.writable(name)
        assert column is getattr(pop, name)
        assert column is pop.writable(name)  # idempotent: the same array
        assert column.strides == (8,) and column.flags.writeable
        np.testing.assert_array_equal(column, before)
    with pytest.raises(ValueError, match="no float column"):
        pop.writable("available")


@pytest.mark.population
def test_direct_write_to_an_unmaterialized_column_raises():
    pop = make_pop(8)
    with pytest.raises(ValueError, match="read-only"):
        pop.connectivity[:] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        pop.responsiveness[np.array([1, 2])] *= 4.0
    assert pop.survives_round(np.arange(8)).all()  # nothing was written
    pop.writable("connectivity")
    pop.connectivity[:] = 0.0  # a materialized column is an ordinary array
    assert not pop.survives_round(np.arange(8)).any()


@pytest.mark.population
def test_base_columns_share_the_view_until_the_live_one_is_written():
    pop = make_pop(6, dropout_prob=0.2)
    assert pop.base_connectivity is pop.connectivity
    assert pop.base_responsiveness is pop.responsiveness
    pop.writable("connectivity")[:] = 0.0
    pop.writable("responsiveness")[2] = 9.0
    assert pop.base_connectivity is not pop.connectivity
    np.testing.assert_array_equal(pop.base_connectivity, np.full(6, 0.8))
    np.testing.assert_array_equal(pop.base_responsiveness, np.ones(6))
    # a trace that writes in bind() gets a private snapshot, as it always did
    classes = make_pop(50, trace=DeviceClassTrace(50, np.random.default_rng(3)))
    assert classes.connectivity.flags.writeable
    assert not np.shares_memory(classes.base_connectivity, classes.connectivity)
    np.testing.assert_array_equal(classes.base_connectivity, classes.connectivity)
    before = classes.base_connectivity.copy()
    classes.writable("connectivity")[:] = 0.0
    np.testing.assert_array_equal(classes.base_connectivity, before)


@pytest.mark.population
@pytest.mark.parametrize("materialized", (False, True))
def test_reads_agree_on_a_view_and_on_a_real_column(materialized):
    """``survives_round`` / ``local_steps_for`` / ``*_of`` return what an
    eager ``np.full`` column returns — same values, same RNG draws."""
    n, ids = 12, np.array([7, 0, 7, 11])
    pop = make_pop(n, seed=4, dropout_prob=0.4)
    if materialized:
        for name in FLOAT_COLUMNS:
            pop.writable(name)
    ref_rng = np.random.default_rng(4)
    for _ in range(3):
        np.testing.assert_array_equal(
            pop.survives_round(ids), ref_rng.random(len(ids)) < np.full(4, 0.6)
        )
    assert pop.local_steps_for(ids, 7).tolist() == [7, 7, 7, 7]
    assert pop.local_steps_for(ids, 7).dtype == np.int64
    np.testing.assert_array_equal(pop.responsiveness_of(ids), np.ones(4))
    np.testing.assert_array_equal(pop.completeness_of(ids), np.ones(4))
    # connectivity 1.0 keeps the no-draw fast path on either kind of column
    sure = make_pop(n, seed=5)
    if materialized:
        sure.writable("connectivity")
    assert sure.survives_round(ids).all()
    assert sure._rng.random() == np.random.default_rng(5).random()


def fleet_shape(n):
    """The ``fleet_async_1m`` population shape at ``n`` clients."""
    return DeviceStatePopulation(
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


@pytest.mark.population
def test_fleet_shape_footprint_per_client():
    """The fleet shape at N = 10⁵: what stays live is the state that
    varies (reads 37.9 B per client: the idle index 16, the two wheels
    ≈ 7.7 and their row tables ≈ 12, ``state`` and ``available``; one
    eager float64 column adds 8), the build peaks within 1.25× of it
    (reads 40.0), and nothing else survives ``schedule()`` — the
    duty-cycle draws are gone."""
    n = 100_000
    fleet_shape(1_000)  # lazy imports inside the first build are not state
    tracemalloc.start()
    try:
        pop = fleet_shape(n)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live <= 45 * n, f"{live / n:.1f} B live per client"
    assert peak <= 48 * n, f"{peak / n:.1f} B peak per client"
    assert peak <= 1.25 * live, f"peak {peak / live:.2f} x live"
    assert all(getattr(pop, name).strides == (0,) for name in FLOAT_COLUMNS)
    columns = (pop.available, pop.state, pop._idle_ids, pop._idle_pos)
    wheels = [
        (w.ids, w.row_ptr, w.periods, w.row_start) for w in pop.events._wheels
    ]
    held = sum(a.nbytes for a in columns + sum(wheels, ()))
    assert live - held <= 64 * 1024, f"{live - held} B beyond the columns"
    assert pop.trace.trace is None
    assert [w.ids.dtype for w in pop.events._wheels] == [np.int32] * 2


def test_a_duty_cycle_trace_schedules_one_population():
    trace = DutyCycleTrace(20, np.random.default_rng(0))
    make_pop(20, trace=trace)
    with pytest.raises(RuntimeError, match="already scheduled"):
        make_pop(20, trace=trace)


def test_transitions_never_import_numpy_ma():
    """``begin_work`` / ``complete_work`` / ``drop_work`` / ``finish_round``
    dedupe with ``sorted_unique`` and subtract with ``in_sorted``:
    ``np.unique`` / ``np.setdiff1d`` would import ``numpy.ma`` (≈ 26 ms)
    inside the first dispatch of a run."""
    code = """
import sys
import numpy as np
from repro.population import DeviceStatePopulation
pop = DeviceStatePopulation(10_000, np.random.default_rng(0))
rng = np.random.default_rng(1)
for t in range(1, 6):
    cohort = pop.idle_pool(t).sample(rng, 40)
    pop.begin_work(np.concatenate([cohort, cohort[:3]]))
    pop.complete_work(cohort[5:])
    pop.drop_work(cohort[:5], t)
assert pop.state_counts()["working"] == 0, pop.state_counts()
for t in range(6, 9):
    cohort = pop.idle_pool(t).sample(rng, 40)
    pop.begin_work(cohort)
    pop.finish_round(t, np.concatenate([cohort[:4], cohort[:2]]))
counts = pop.state_counts()
assert counts["working"] == 0 and counts["dropped"] > 0, counts
print("numpy.ma" in sys.modules)
"""
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.split() == ["False"], out.stderr


# -- state machine -----------------------------------------------------------------


def test_working_clients_leave_the_idle_pool():
    pop = make_pop(4)
    pop.begin_work(np.array([0, 2]))
    assert pop.online(1).tolist() == [False, True, False, True]
    assert pop.state_counts()["working"] == 2


def test_finish_round_returns_workers_and_drops_failures():
    pop = make_pop(4, dropped_cooldown=1)
    _ = pop.online(1)
    pop.begin_work(np.array([0, 1]))
    pop.finish_round(1, dropped_ids=np.array([1]))
    assert pop.state[0] == IDLE
    assert pop.state[1] == DROPPED
    # dropped client sits out round 2, revives at round 3
    assert pop.online(2).tolist() == [True, False, True, True]
    assert pop.online(3).tolist() == [True, True, True, True]


def test_zero_cooldown_revives_next_round():
    pop = make_pop(3, dropped_cooldown=0)
    _ = pop.online(1)
    pop.begin_work(np.array([0]))
    pop.finish_round(1, dropped_ids=np.array([0]))
    assert pop.online(2).tolist() == [True, True, True]


def test_advance_is_idempotent_per_round():
    """Repeated online() calls at one round must not re-draw trace RNG."""
    fired = []
    pop = make_pop(4, trace=EveryRound(lambda pop, t: fired.append(t)))
    _ = pop.online(1)
    _ = pop.online(1)
    _ = pop.online(1)
    assert fired == [1]
    _ = pop.online(2)
    assert fired == [1, 2]


def test_apply_only_trace_is_rejected_with_the_port_recipe():
    """A pre-event-queue trace must fail loudly, not run as always-on."""

    class LegacyTrace(StaticTrace):
        def apply(self, population, round_idx):
            population.available[:] = False

    with pytest.raises(TypeError, match=r"add_recurring\(self\._step\)"):
        make_pop(4, trace=LegacyTrace())

    class Ported(LegacyTrace):  # a schedule at or below apply is accepted
        def schedule(self, population, queue):
            queue.add_recurring(
                lambda pop, t: pop.set_available(np.arange(4), False)
            )

    assert not make_pop(4, trace=Ported()).online(1).any()


def test_offline_settling_follows_available_column():
    odd_offline = EveryRound(
        lambda pop, t: pop.set_available(np.arange(1, 6, 2), False)
    )
    pop = make_pop(6, trace=odd_offline)
    assert pop.online(1).tolist() == [True, False] * 3
    assert pop.state_counts() == {
        "idle": 3, "working": 0, "offline": 3, "dropped": 0,
    }


def test_working_state_survives_trace_rewrites():
    """A working device stays WORKING even if its trace marks it offline
    mid-round — it is already training."""

    all_offline = EveryRound(
        lambda pop, t: pop.set_available(np.arange(3), False)
    )
    pop = make_pop(3, trace=all_offline)
    pop.begin_work(np.array([0]))
    _ = pop.online(1)
    assert pop.state[0] == WORKING
    assert pop.state[1] == OFFLINE


# -- availability-trace protocol ----------------------------------------------------


def test_survives_round_fast_path_and_draws():
    pop = make_pop(6)
    ids = np.arange(6)
    assert pop.survives_round(ids).all()  # connectivity 1.0: no RNG draw
    pop.writable("connectivity")[:] = 0.0
    assert not pop.survives_round(ids).any()
    pop.writable("connectivity")[:] = 0.5
    draws = np.array([pop.survives_round(ids).mean() for _ in range(200)])
    assert 0.3 < draws.mean() < 0.7


# -- column reads ------------------------------------------------------------------


def test_local_steps_for_partial_completeness():
    pop = make_pop(4)
    pop.writable("completeness")[:] = [1.0, 0.5, 0.24, 0.01]
    steps = pop.local_steps_for(np.arange(4), 10)
    assert steps.tolist() == [10, 5, 3, 1]  # ceil, floored at 1


def test_responsiveness_of_indexes_column():
    pop = make_pop(4)
    pop.writable("responsiveness")[:] = [1.0, 2.0, 4.0, 8.0]
    np.testing.assert_allclose(
        pop.responsiveness_of(np.array([3, 1])), [8.0, 2.0]
    )


# -- trace composition -------------------------------------------------------------


def test_churn_storm_restores_baselines_on_calm_rounds():
    storm = ChurnStormTrace(
        burst_every=3,
        burst_dropout=0.9,
        straggler_fraction=1.0,
        straggler_slowdown=10.0,
        rng=np.random.default_rng(0),
    )
    pop = make_pop(4, trace=storm, dropout_prob=0.2)
    _ = pop.online(3)  # burst
    np.testing.assert_allclose(pop.connectivity, 0.8 * 0.1)
    np.testing.assert_allclose(pop.responsiveness, 10.0)
    _ = pop.online(4)  # calm: baselines restored
    np.testing.assert_allclose(pop.connectivity, 0.8)
    np.testing.assert_allclose(pop.responsiveness, 1.0)


def test_churn_storm_first_burst_is_round_burst_every():
    storm = ChurnStormTrace(burst_every=5)
    assert not storm.is_burst(1)
    assert not storm.is_burst(4)
    assert storm.is_burst(5)
    assert storm.is_burst(10)
    assert not ChurnStormTrace(burst_every=0).is_burst(1)


def test_external_availability_trace_drives_available_column():
    class Alternating:
        def online(self, round_idx):
            mask = np.zeros(4, dtype=bool)
            mask[round_idx % 2 :: 2] = True
            return mask

    pop = make_pop(4, trace=ExternalAvailabilityTrace(Alternating()))
    assert pop.online(1).tolist() == [False, True, False, True]
    assert pop.online(2).tolist() == [True, False, True, False]
