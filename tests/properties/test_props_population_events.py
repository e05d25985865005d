"""Differential properties: the event-driven population advance is
bit-identical to a naive O(N) sweep.

The sweep is :class:`tests.population.oracle.SweepOraclePopulation` — a
from-scratch full recompute per round that shares no code with
``repro.population``'s queue, idle index, or counters.  Two layers of
evidence, both over Hypothesis-drawn inputs:

* population-level — a ``DeviceStatePopulation`` and an oracle over twin
  traces, driven through random trace compositions and random work/drop
  op sequences, must agree on every online mask, every state column,
  every survival draw, the O(1) ``state_counts`` counters, and the
  maintained idle index;
* engine-level — full ``run_training`` runs on a preset population vs
  the oracle handed in as ``population=`` must produce equal
  ``RoundRecord`` streams under all five schedulers and every population
  preset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import FedAvgStrategy
from repro.datasets import femnist_like
from repro.fl import RunConfig, UniformSampler, run_training
from repro.population import (
    IDLE,
    ChurnStormTrace,
    DeviceClassTrace,
    DeviceStatePopulation,
    DiurnalTrace,
    DutyCycleTrace,
    ExternalAvailabilityTrace,
    StaticTrace,
    build_population,
)
from repro.traces.availability import AvailabilityTrace
from repro.traces.diurnal import DiurnalAvailabilityTrace
from repro.utils.rng import RngFactory
from tests.population.oracle import SweepOraclePopulation

pytestmark = pytest.mark.population

SCHEDULERS = ("sync", "async", "failure", "semiasync", "overlapped")

DATASET = femnist_like(
    num_clients=12,
    num_classes=3,
    image_size=6,
    samples_per_client=10,
    min_samples=2,
    seed=1,
)


def tiny_config(**overrides):
    params = dict(
        dataset=DATASET,
        model_name="mlp",
        model_kwargs={"hidden": (8,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(3),
        rounds=3,
        local_steps=1,
        batch_size=4,
        lr=0.05,
        eval_every=10,
        skip_empty_rounds=True,
    )
    params.update(overrides)
    return RunConfig(**params)


class CounterSeededOnline:
    """An opaque availability object: all it offers is ``online(t)``, a
    fresh Bernoulli mask seeded by ``(seed, t)``."""

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self.seed = seed

    def online(self, round_idx: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, round_idx])
        return rng.random(self.n) < 0.6


def make_trace(kind: str, n: int, seed: int, composed: bool):
    """One trace instance per call — twins need two independent copies
    with identical RNG streams."""
    rng = np.random.default_rng(seed)
    if kind == "storm-over-external":
        kind, composed = "external", True
    if kind == "external":
        base = ExternalAvailabilityTrace(CounterSeededOnline(n, seed))
    elif kind == "static":
        base = StaticTrace()
    elif kind == "duty":
        base = DutyCycleTrace(n, rng, min_period=3, max_period=9)
    elif kind == "diurnal-flat":
        base = DiurnalTrace(n, rng, rounds_per_day=5, jitter_prob=0.0)
    elif kind == "diurnal-jitter":
        base = DiurnalTrace(n, rng, rounds_per_day=5, jitter_prob=0.3)
    elif kind == "classes":
        base = DeviceClassTrace(n, rng)
    else:  # pragma: no cover - strategy space is closed
        raise ValueError(kind)
    if composed:
        return ChurnStormTrace(
            base=base,
            burst_every=3,
            burst_dropout=0.8,
            straggler_fraction=0.5,
            rng=np.random.default_rng(seed + 1),
        )
    return base


def classic_base(preset, seed, config):
    """The classic availability ``build_population`` wraps for
    ``preset``, drawn again from the server's named stream: the same
    draws as the donor population's base, in an object of the oracle's
    own (``None`` where the base is not a classic trace)."""
    rng = RngFactory(seed)("population")
    n = DATASET.num_clients
    if preset == "diurnal":
        return DiurnalAvailabilityTrace(n, rng, dropout_prob=0.0)
    if preset == "device-classes":
        return None
    return AvailabilityTrace(
        n, rng, mean_on_fraction=config.mean_on_fraction, dropout_prob=0.0
    )


def twin_pops(kind, n, seed, composed):
    event = DeviceStatePopulation(
        n,
        np.random.default_rng(seed),
        trace=make_trace(kind, n, seed, composed),
        dropped_cooldown=1,
    )
    sweep = SweepOraclePopulation(
        n,
        np.random.default_rng(seed),
        trace=make_trace(kind, n, seed, composed),
        dropped_cooldown=1,
    )
    return event, sweep


def assert_same_state(event, sweep, context):
    np.testing.assert_array_equal(
        event.state, sweep.state, err_msg=f"state diverged {context}"
    )
    np.testing.assert_array_equal(
        event.available,
        sweep.available,
        err_msg=f"available diverged {context}",
    )
    np.testing.assert_allclose(
        event.connectivity,
        sweep.connectivity,
        err_msg=f"connectivity diverged {context}",
    )
    np.testing.assert_allclose(
        event.responsiveness,
        sweep.responsiveness,
        err_msg=f"responsiveness diverged {context}",
    )
    assert event.state_counts() == sweep.state_counts(), context
    assert set(event.idle_pool(event._round).ids.tolist()) == set(
        np.flatnonzero(sweep.state == IDLE).tolist()
    ), context


# ------------------------------------------------ population-level differential
@given(
    kind=st.sampled_from(
        (
            "static",
            "duty",
            "diurnal-flat",
            "diurnal-jitter",
            "classes",
            "external",
        )
    ),
    composed=st.booleans(),
    n=st.integers(8, 40),
    seed=st.integers(0, 2**31 - 1),
    ops=st.lists(
        st.tuples(
            st.integers(1, 3),  # round step (jumps included)
            st.integers(0, 6),  # cohort size to contact
            st.floats(0.0, 1.0),  # fraction completing early
            st.floats(0.0, 0.5),  # fraction dropping mid-round
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=25, deadline=None)
def test_event_advance_matches_sweep_through_random_ops(
    kind, composed, n, seed, ops
):
    event, sweep = twin_pops(kind, n, seed, composed)
    op_rng = np.random.default_rng(seed ^ 0x5EED)
    t = 0
    for step, want, complete_frac, drop_frac in ops:
        t += step
        mask_e = event.online(t)
        mask_s = sweep.online(t)
        np.testing.assert_array_equal(
            mask_e, mask_s, err_msg=f"online({t}) diverged"
        )
        idle = np.flatnonzero(mask_e)
        cohort = op_rng.choice(
            idle, size=min(want, len(idle)), replace=False
        )
        np.testing.assert_array_equal(
            event.survives_round(cohort),
            sweep.survives_round(cohort),
            err_msg=f"survival draw diverged at round {t}",
        )
        for pop in (event, sweep):
            pop.begin_work(cohort)
        n_done = int(round(complete_frac * len(cohort)))
        n_drop = int(round(drop_frac * (len(cohort) - n_done)))
        done = cohort[:n_done]
        lost = cohort[n_done : n_done + n_drop]
        for pop in (event, sweep):
            pop.complete_work(done)
            pop.drop_work(lost, t)
            pop.finish_round(t, dropped_ids=None)
        assert_same_state(event, sweep, f"after round {t}")


@given(
    kind=st.sampled_from(
        ("duty", "diurnal-flat", "classes", "external", "storm-over-external")
    ),
    n=st.integers(10, 30),
    seed=st.integers(0, 2**31 - 1),
    jump=st.integers(2, 15),
)
@settings(max_examples=15, deadline=None)
def test_event_round_jumps_match_sweep(kind, n, seed, jump):
    """Advancing straight to round ``jump`` equals the sweep's landing
    state at ``jump`` — scheduled events for skipped rounds drain, while
    per-round RNG actions fire only for the queried round (the sweep
    never applies skipped rounds either)."""
    event, sweep = twin_pops(kind, n, seed, composed=False)
    np.testing.assert_array_equal(event.online(jump), sweep.online(jump))
    assert_same_state(event, sweep, f"after jump to {jump}")


# ------------------------------------------------ engine-level differential
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    preset=st.sampled_from(("none", "diurnal", "device-classes", "storm")),
    dropout=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=10, deadline=None)
def test_round_records_identical_event_vs_sweep(
    scheduler, preset, dropout, seed
):
    knobs = dict(
        scheduler=scheduler,
        dropout_prob=dropout,
        always_available=False,
        seed=seed,
    )
    event_cfg = tiny_config(population_preset=preset, **knobs)
    # the server's own construction recipe: same preset, same named stream
    donor = build_population(
        preset,
        DATASET.num_clients,
        RngFactory(seed)("population"),
        config=event_cfg,
    )
    sweep_cfg = tiny_config(
        population=SweepOraclePopulation.mirroring(
            donor, classic_base(preset, seed, event_cfg)
        ),
        **knobs,
    )
    assert (
        run_training(event_cfg).records == run_training(sweep_cfg).records
    )
