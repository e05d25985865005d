"""Differential properties of the compiled flip wheel.

Duty-cycle and jitter-free diurnal availability reach the population
through ``PopulationEventQueue.schedule_periodic``.  Over Hypothesis-drawn
trace parameters, work/drop op sequences and round jumps, a wheel-driven
population must agree

* with :class:`tests.population.oracle.SweepOraclePopulation` on
  ``available``, ``state`` and ``state_counts()``, and
* with a population driven by
  :class:`tests.population.oracle.PrescheduledDiffTrace` on the *order* of
  ``idle_pool(r).ids`` — the queue's ordering contract (a round's periodic
  flips before that round's one-shots), which decides whether a revived
  client enters the idle index at its revival or at the round's settle.

Cooldowns reach past the longest period on purpose: there a revival is
armed before the flip chain of its round would have re-armed itself, the
case where per-chain heap events fire in the other order.

The wheel's *compile* — lookup table, then two stable passes over keys as
narrow as their values — is held, array for array, to the ``lexsort``
compile it replaced (kept in ``tests/population/oracle.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.topk import union_sorted
from repro.population import (
    DeviceStatePopulation,
    DiurnalTrace,
    DutyCycleTrace,
)
from repro.utils.arrays import in_sorted, sorted_unique
from tests.population.oracle import (
    PrescheduledDiffTrace,
    SweepOraclePopulation,
    assert_compiles_like_lexsort,
)

pytestmark = pytest.mark.population


@st.composite
def periodic_traces(draw):
    """``(n, make_trace)``: a factory, because every population needs its
    own trace instance over an identical RNG stream."""
    n = draw(st.integers(6, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        min_period = draw(st.integers(2, 6))
        max_period = min_period + draw(st.integers(0, 6))
        mean_on = draw(st.floats(0.15, 0.95))
        return n, lambda: DutyCycleTrace(
            n,
            np.random.default_rng(seed),
            mean_on_fraction=mean_on,
            min_period=min_period,
            max_period=max_period,
        )
    rounds_per_day = draw(st.integers(2, 9))
    window_hours = draw(st.floats(2.0, 22.0))
    return n, lambda: DiurnalTrace(
        n,
        np.random.default_rng(seed),
        rounds_per_day=rounds_per_day,
        window_hours=window_hours,
        jitter_prob=0.0,
    )


OPS = st.lists(
    st.tuples(
        st.integers(1, 4),  # round step (jumps included)
        st.floats(0.0, 1.0),  # fraction of the idle pool contacted
        st.floats(0.0, 1.0),  # of those, fraction dropping mid-round
        st.booleans(),  # drop through drop_work (else finish_round)
    ),
    min_size=1,
    max_size=10,
)


@given(
    trace=periodic_traces(),
    cooldown=st.integers(0, 12),
    seed=st.integers(0, 2**31 - 1),
    ops=OPS,
)
@settings(max_examples=60, deadline=None)
def test_wheel_population_matches_sweep_and_contract_order(
    trace, cooldown, seed, ops
):
    n, make_trace = trace
    horizon = sum(op[0] for op in ops)
    wheel = DeviceStatePopulation(
        n,
        np.random.default_rng(seed),
        trace=make_trace(),
        dropped_cooldown=cooldown,
    )
    assert len(wheel.events) == 0  # nothing periodic sits on the heap
    ordered = DeviceStatePopulation(
        n,
        np.random.default_rng(seed),
        trace=PrescheduledDiffTrace(make_trace().trace, horizon),
        dropped_cooldown=cooldown,
    )
    sweep = SweepOraclePopulation(
        n,
        np.random.default_rng(seed),
        trace=make_trace(),
        dropped_cooldown=cooldown,
    )
    pops = (wheel, ordered, sweep)

    def check(context):
        np.testing.assert_array_equal(
            wheel.available, sweep.available, err_msg=context
        )
        np.testing.assert_array_equal(wheel.state, sweep.state, err_msg=context)
        assert wheel.state_counts() == sweep.state_counts(), context
        np.testing.assert_array_equal(
            wheel.idle_pool(wheel._round).ids,
            ordered.idle_pool(ordered._round).ids,
            err_msg=f"idle index order diverged {context}",
        )

    op_rng = np.random.default_rng(seed ^ 0x5EED)
    t = 0
    for step, contact_frac, drop_frac, per_client in ops:
        t += step
        for pop in pops:
            pop.advance(t)
        check(f"at round {t}")
        idle = np.flatnonzero(wheel.online(t))
        cohort = op_rng.choice(
            idle, size=int(round(contact_frac * len(idle))), replace=False
        )
        lost = cohort[: int(round(drop_frac * len(cohort)))]
        for pop in pops:
            pop.begin_work(cohort)
            if per_client:
                pop.drop_work(lost, t)
                pop.finish_round(t)
            else:
                pop.finish_round(t, dropped_ids=lost)
        check(f"after round {t}")


@st.composite
def periodic_registrations(draw):
    """``(ids, period, residue)`` as a trace might hand them over: ids in
    any order with repeats, few distinct periods (some past 16 bits),
    residues un-reduced and negative, each in any integer width that
    holds it."""
    n = draw(st.integers(1, 80))
    ids = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n))
    if draw(st.booleans()):
        ids = sorted(ids)
    top = draw(st.sampled_from((1, 6, 200, 255, 256, 400, 65_535, 65_536, 70_000)))
    palette = draw(st.lists(st.integers(1, top), min_size=1, max_size=5))
    period = np.array(draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)))
    lowest = draw(st.sampled_from((0, -2 * top)))
    residue = np.array(
        draw(st.lists(st.integers(lowest, 2 * top), min_size=n, max_size=n))
    )
    if draw(st.booleans()):
        period = period.astype(np.min_scalar_type(int(period.max())))
    if draw(st.booleans()) and lowest == 0:
        residue = residue.astype(np.min_scalar_type(int(residue.max())))
    return np.array(ids, dtype=np.int64), period, residue


@given(registration=periodic_registrations())
@settings(max_examples=200, deadline=None)
def test_wheel_compile_equals_the_lexsort_compile(registration):
    assert_compiles_like_lexsort(*registration)


@given(
    values=st.one_of(
        st.lists(st.integers(-(2**62), 2**62), max_size=60),
        st.lists(st.integers(0, 6), max_size=60),  # duplicate-heavy
    ),
    kind=st.sampled_from((None, "stable")),
)
def test_sorted_unique_equals_np_unique(values, kind):
    arr = np.array(values, dtype=np.int64)
    got = sorted_unique(arr.copy(), kind=kind)
    want = np.unique(arr)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "values", ([], [7], [3, 3, 3, 3], [2, 1], [-1, 5, -1, 5, 0])
)
def test_sorted_unique_edge_cases(values):
    arr = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(sorted_unique(arr.copy()), np.unique(arr))


def test_union_sorted_leaves_its_inputs_untouched():
    a = np.array([1, 4, 4, 9], dtype=np.int64)
    b = np.array([0, 4, 10], dtype=np.int64)
    np.testing.assert_array_equal(union_sorted(a, b), np.union1d(a, b))
    # the shared helper sorts in place: it must only ever see the merged copy
    np.testing.assert_array_equal(a, [1, 4, 4, 9])
    np.testing.assert_array_equal(b, [0, 4, 10])


@given(
    values=st.lists(st.integers(-50, 50), max_size=60),
    table=st.lists(st.integers(-50, 50), max_size=60),
)
def test_in_sorted_equals_np_isin(values, table):
    arr = np.array(values, dtype=np.int64)
    tab = np.sort(np.array(table, dtype=np.int64))
    np.testing.assert_array_equal(in_sorted(arr, tab), np.isin(arr, tab))
