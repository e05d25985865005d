"""Preset registry + build_population wiring, and population-backed runs."""

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.datasets import femnist_like
from repro.engine import SCHEDULERS
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
    # the trace's floors/caps hold
    assert (pop.completeness >= pop.trace.min_completeness).all()
    assert (pop.responsiveness <= pop.trace.max_responsiveness).all()


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


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("base", [DiurnalTrace, DeviceClassTrace])
def test_every_scheduler_flags_the_bursts_of_a_storm_over_any_base(
    dataset, scheduler, base
):
    """A storm is a population: wrapped around any other trace it injects
    its bursts under every round shape, and every record's
    ``injected_failure`` is the trace's ``is_burst``."""
    rng = np.random.default_rng(9)
    storm = ChurnStormTrace(
        base(dataset.num_clients, rng), burst_every=2, rng=rng
    )
    pop = DeviceStatePopulation(dataset.num_clients, rng, storm)
    result = run_training(
        make_config(
            dataset, scheduler=scheduler, population=pop, rounds=4,
            skip_empty_rounds=True,
        )
    )
    flagged = [r.round_idx for r in result.records if r.injected_failure]
    assert flagged == [2, 4]


@pytest.mark.parametrize("preset", [None, "none", "diurnal", "device-classes"])
def test_runs_without_a_storm_flag_no_burst(dataset, preset):
    result = run_training(
        make_config(dataset, population_preset=preset, skip_empty_rounds=True)
    )
    assert not any(r.injected_failure for r in result.records)


def test_explicit_population_object_wins(dataset):
    pop = DeviceStatePopulation(dataset.num_clients, np.random.default_rng(9))
    server = FLServer(make_config(dataset, population=pop))
    assert server.population is pop
    server.close()


class NobodyOnline:
    """Classic availability trace with every client offline, every round:
    a run that consumes it has no participants."""

    def __init__(self, n):
        self.n = n

    def online(self, round_idx):
        return np.zeros(self.n, dtype=bool)

    def survives_round(self, client_ids):
        return np.ones(len(client_ids), dtype=bool)


def _pop(dataset):
    return DeviceStatePopulation(dataset.num_clients, np.random.default_rng(9))


def test_population_rejects_population_preset(dataset):
    cfg = make_config(dataset, population=_pop(dataset), population_preset="none")
    with pytest.raises(ValueError, match="^population_preset would be ignored"):
        FLServer(cfg)


def test_population_rejects_availability_trace(dataset):
    cfg = make_config(
        dataset,
        population=_pop(dataset),
        availability_trace=NobodyOnline(dataset.num_clients),
    )
    with pytest.raises(ValueError, match="^availability_trace would be ignored"):
        FLServer(cfg)


def test_population_rejects_always_available(dataset):
    cfg = make_config(dataset, population=_pop(dataset), always_available=True)
    with pytest.raises(ValueError, match="^always_available would be ignored"):
        FLServer(cfg)


@pytest.mark.parametrize("scheduler", ["sync", "async"])
def test_diurnal_preset_rejects_availability_trace(dataset, scheduler):
    cfg = make_config(
        dataset,
        scheduler=scheduler,
        population_preset="diurnal",
        availability_trace=NobodyOnline(dataset.num_clients),
    )
    with pytest.raises(ValueError, match="^availability_trace would be ignored"):
        FLServer(cfg)


@pytest.mark.parametrize("scheduler", ["sync", "async"])
def test_device_classes_preset_rejects_availability_trace(dataset, scheduler):
    cfg = make_config(
        dataset,
        scheduler=scheduler,
        population_preset="device-classes",
        availability_trace=NobodyOnline(dataset.num_clients),
    )
    with pytest.raises(ValueError, match="^availability_trace would be ignored"):
        FLServer(cfg)


@pytest.mark.parametrize("preset", [None, "none", "storm"])
def test_availability_trace_drives_base_presets(dataset, preset):
    """The presets that run over the classic knobs consume the trace:
    nobody online means nobody participates."""
    result = run_training(
        make_config(
            dataset,
            rounds=2,
            population_preset=preset,
            availability_trace=NobodyOnline(dataset.num_clients),
            skip_empty_rounds=True,
        )
    )
    assert [r.num_participants for r in result.records] == [0, 0]


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
    for scheduler in SCHEDULERS:
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
    pop = DeviceStatePopulation(
        dataset.num_clients,
        np.random.default_rng(9),
        dropout_prob=0.9,
        dropped_cooldown=2,
    )
    cfg = make_config(
        dataset, population=pop, skip_empty_rounds=True, rounds=1
    )
    server = FLServer(cfg)
    server.run_round()
    pop = server.population
    dropped = np.flatnonzero(pop.state == 3)
    if len(dropped):  # with dropout 0.9, virtually certain
        online_next = pop.online(2)
        assert not online_next[dropped].any()
    server.close()
