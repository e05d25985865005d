"""Preset registry + build_population wiring, and population-backed runs."""

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, UniformSampler, run_training
from repro.population import (
    POPULATION_PRESETS,
    ChurnStormTrace,
    DeviceClassTrace,
    DeviceStatePopulation,
    DiurnalTrace,
    build_population,
)


@pytest.fixture(scope="module")
def dataset():
    return femnist_like(
        num_clients=40,
        num_classes=4,
        image_size=8,
        samples_per_client=24,
        min_samples=5,
        seed=7,
    )


def make_config(dataset, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(5),
        rounds=6,
        local_steps=2,
        batch_size=8,
        lr=0.05,
        eval_every=4,
        seed=3,
    )
    params.update(overrides)
    return RunConfig(**params)


# -- build_population --------------------------------------------------------------


def test_build_population_rejects_unknown_preset(dataset):
    cfg = make_config(dataset)
    with pytest.raises(ValueError, match="unknown population preset"):
        build_population("volcano", 40, np.random.default_rng(0), config=cfg)


@pytest.mark.parametrize("preset", POPULATION_PRESETS)
def test_build_population_presets(dataset, preset):
    cfg = make_config(dataset)
    pop = build_population(preset, 40, np.random.default_rng(0), config=cfg)
    assert isinstance(pop, DeviceStatePopulation)
    assert pop.num_clients == 40
    mask = pop.online(1)
    assert mask.dtype == bool and len(mask) == 40


def test_storm_preset_inherits_failure_knobs(dataset):
    cfg = make_config(
        dataset, failure_burst_every=7, failure_burst_dropout=0.4
    )
    pop = build_population("storm", 40, np.random.default_rng(0), config=cfg)
    assert isinstance(pop.trace, ChurnStormTrace)
    assert pop.trace.burst_every == 7
    assert pop.trace.burst_dropout == 0.4


def test_device_classes_assign_heterogeneous_columns(dataset):
    cfg = make_config(dataset)
    pop = build_population(
        "device-classes", 200, np.random.default_rng(0), config=cfg
    )
    assert isinstance(pop.trace, DeviceClassTrace)
    # phones/tablets/silos differ in every column
    assert len(np.unique(pop.connectivity)) >= 2
    assert len(np.unique(pop.completeness)) >= 2
    assert len(np.unique(pop.responsiveness)) >= 2
    # config floors/caps hold
    assert (pop.completeness >= cfg.population_min_completeness).all()
    assert (pop.responsiveness <= cfg.population_max_responsiveness).all()


def test_diurnal_preset_has_day_night_cycle(dataset):
    cfg = make_config(dataset)
    pop = build_population(
        "diurnal", 100, np.random.default_rng(0), config=cfg
    )
    assert isinstance(pop.trace, DiurnalTrace)
    day = np.stack([pop.online(t) for t in range(1, 49)])  # (rounds, clients)
    per_client = day.mean(axis=0)
    # each client is on for ~8h/24h (plus 5% jitter), never always-on
    assert 0.15 < per_client.mean() < 0.55
    assert per_client.max() < 0.9
    # the pool rotates: different rounds see different cohorts
    assert not (day[0] == day[24]).all()


# -- server wiring -----------------------------------------------------------------


def test_server_binds_population_as_availability(dataset):
    server = FLServer(make_config(dataset, population_preset="none"))
    assert server.population is not None
    assert server.availability is server.population
    server.close()


def test_server_without_preset_has_no_population(dataset):
    server = FLServer(make_config(dataset))
    assert server.population is None
    server.close()


def test_failure_scheduler_autobuilds_storm_population(dataset):
    server = FLServer(make_config(dataset, scheduler="failure"))
    assert server.population is not None
    assert isinstance(server.population.trace, ChurnStormTrace)
    server.close()


def test_failure_scheduler_storms_over_any_preset(dataset):
    for preset, base in (
        ("diurnal", DiurnalTrace),
        ("device-classes", DeviceClassTrace),
    ):
        server = FLServer(
            make_config(dataset, scheduler="failure", population_preset=preset)
        )
        storm = server.population.trace
        assert isinstance(storm, ChurnStormTrace)
        assert isinstance(storm.base, base)
        server.close()


def test_failure_scheduler_rejects_population_without_bursts(dataset):
    pop = DeviceStatePopulation(dataset.num_clients, np.random.default_rng(9))
    with pytest.raises(ValueError, match="is_burst"):
        FLServer(make_config(dataset, scheduler="failure", population=pop))


def test_explicit_population_object_wins(dataset):
    pop = DeviceStatePopulation(dataset.num_clients, np.random.default_rng(9))
    server = FLServer(make_config(dataset, population=pop))
    assert server.population is pop
    server.close()


def test_population_size_mismatch_rejected(dataset):
    pop = DeviceStatePopulation(13, np.random.default_rng(9))
    with pytest.raises(ValueError, match="13"):
        FLServer(make_config(dataset, population=pop))


# -- end-to-end behavior -----------------------------------------------------------


@pytest.mark.parametrize("preset", POPULATION_PRESETS)
def test_population_presets_train_end_to_end(dataset, preset):
    cfg = make_config(
        dataset, population_preset=preset, skip_empty_rounds=True
    )
    result = run_training(cfg)
    assert result.num_rounds == 6
    assert (result.series("down_bytes") >= 0).all()
    wall = result.series("wall_clock_s")
    assert (np.diff(wall) >= 0).all()


class _TaskSpyBackend:
    """Wraps an ExecutionBackend, records every ClientTask it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.tasks = []

    def run_clients(self, tasks, global_params, global_buffers, deliver):
        self.tasks.extend(tasks)
        self.inner.run_clients(tasks, global_params, global_buffers, deliver)

    def close(self):
        self.inner.close()


def test_device_classes_partial_work_scales_weights(dataset):
    """Phones (completeness 0.6) run fewer steps; the record reports the
    participants' mean realized work fraction — under every round shape
    (semiasync and async used to train every device for the full E)."""
    for scheduler in ("sync", "overlapped", "failure", "semiasync", "async"):
        cfg = make_config(
            dataset,
            scheduler=scheduler,
            population_preset="device-classes",
            local_steps=10,
            rounds=4,
            skip_empty_rounds=True,
        )
        server = FLServer(cfg)
        spy = server._backend = _TaskSpyBackend(server.backend)
        records = [server.run_round() for _ in range(cfg.rounds)]
        server.close()
        fracs = [
            r.mean_completeness
            for r in records
            if r.mean_completeness is not None
        ]
        assert fracs, f"{scheduler}: never reported completeness"
        assert all(0.0 < f <= 1.0 for f in fracs), scheduler
        assert min(fracs) < 1.0, scheduler  # somebody did partial work
        # ... and actually ran ceil(completeness · E) steps, not E
        partial = [t for t in spy.tasks if t.local_steps is not None]
        assert any(t.local_steps < cfg.local_steps for t in partial), scheduler
        for task in partial:
            realized = server.population.local_steps_for(
                np.array([task.client_id]), cfg.local_steps
            )
            assert task.local_steps == realized[0], scheduler


def test_population_runs_are_reproducible(dataset):
    ra = run_training(
        make_config(dataset, population_preset="storm", skip_empty_rounds=True)
    )
    rb = run_training(
        make_config(dataset, population_preset="storm", skip_empty_rounds=True)
    )
    np.testing.assert_array_equal(
        ra.series("num_participants"), rb.series("num_participants")
    )
    np.testing.assert_array_equal(
        ra.series("round_seconds"), rb.series("round_seconds")
    )


def test_dropped_clients_sit_out_next_round(dataset):
    """A client whose upload is lost mid-round is DROPPED and cannot be
    re-drawn before its cooldown expires."""
    cfg = make_config(
        dataset,
        population_preset="none",
        dropout_prob=0.9,
        always_available=False,
        skip_empty_rounds=True,
        population_dropped_cooldown=2,
        rounds=1,
    )
    server = FLServer(cfg)
    server.run_round()
    pop = server.population
    dropped = np.flatnonzero(pop.state == 3)
    if len(dropped):  # with dropout 0.9, virtually certain
        online_next = pop.online(2)
        assert not online_next[dropped].any()
    server.close()
