"""Behavioral tests for the async/buffered and failure-injection schedulers,
plus empty-round survival and the strategy round-lifecycle pairing."""

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, STCStrategy
from repro.core import make_gluefl
from repro.engine import create_scheduler
from repro.fl import (
    FLServer,
    RunConfig,
    UniformSampler,
    run_training,
    staleness_discounted_weights,
)
from repro.traces.availability import AvailabilityTrace


def make_config(dataset, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(5),
        rounds=10,
        local_steps=2,
        batch_size=8,
        lr=0.05,
        eval_every=4,
        seed=3,
    )
    params.update(overrides)
    return RunConfig(**params)


# -- async/buffered ---------------------------------------------------------------


def test_async_buffered_aggregation_cadence(tiny_dataset):
    """Every flush aggregates exactly ``async_buffer_size`` arrivals."""
    cfg = make_config(
        tiny_dataset,
        scheduler="async",
        async_buffer_size=4,
        async_concurrency=8,
        always_available=True,
        dropout_prob=0.0,
    )
    result = run_training(cfg)
    assert result.num_rounds == 10
    assert (result.series("num_participants") == 4).all()
    assert (result.series("up_bytes") > 0).all()
    assert result.meta["scheduler"] == "async"


def test_async_records_staleness(tiny_dataset):
    """Overlapped rounds produce genuinely stale updates — the thing the
    monolithic sync loop could not express."""
    cfg = make_config(
        tiny_dataset,
        scheduler="async",
        async_buffer_size=3,
        async_concurrency=10,
        always_available=True,
    )
    result = run_training(cfg)
    staleness = [r.mean_update_staleness for r in result.records]
    assert all(s is not None for s in staleness)
    assert max(s for s in staleness) > 0.0  # some update arrived late
    # sync runs never set the field
    sync = run_training(make_config(tiny_dataset, rounds=3))
    assert all(r.mean_update_staleness is None for r in sync.records)


def test_async_trains_and_accounts(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        scheduler="async",
        async_buffer_size=4,
        rounds=12,
        always_available=True,
    )
    result = run_training(cfg)
    assert (result.series("down_bytes") > 0).all()
    assert result.final_accuracy() > 1.0 / tiny_dataset.num_classes
    assert (result.series("round_seconds") > 0).all()


def test_async_with_gluefl_strategy(tiny_dataset):
    """The mask strategies plug into the async path unchanged."""
    strategy, sampler = make_gluefl(
        5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
    )
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        sampler=sampler,
        scheduler="async",
        async_buffer_size=3,
        rounds=6,
    )
    result = run_training(cfg)
    assert result.num_rounds == 6
    assert (result.series("num_participants") == 3).all()


def test_async_reproducible(tiny_dataset):
    ra = run_training(
        make_config(tiny_dataset, scheduler="async", async_buffer_size=3, rounds=5)
    )
    rb = run_training(
        make_config(tiny_dataset, scheduler="async", async_buffer_size=3, rounds=5)
    )
    np.testing.assert_array_equal(
        ra.series("down_bytes"), rb.series("down_bytes")
    )
    np.testing.assert_array_equal(
        ra.series("round_seconds"), rb.series("round_seconds")
    )


def test_staleness_discounted_weights():
    w = staleness_discounted_weights(np.array([0, 1, 3]), alpha=1.0)
    np.testing.assert_allclose(w, np.array([1.0, 0.5, 0.25]) / 1.75)
    assert w.sum() == pytest.approx(1.0)
    # alpha 0: unweighted mean
    np.testing.assert_allclose(
        staleness_discounted_weights(np.array([0, 5]), 0.0), [0.5, 0.5]
    )
    assert len(staleness_discounted_weights(np.array([]), 1.0)) == 0
    with pytest.raises(ValueError):
        staleness_discounted_weights(np.array([1]), -0.5)


# -- failure injection -------------------------------------------------------------


def test_failure_scheduler_records_dropout_rounds(tiny_dataset):
    """Total-dropout bursts every 3rd round: flagged, zero participants,
    run survives via skip_empty_rounds."""
    cfg = make_config(
        tiny_dataset,
        scheduler="failure",
        failure_burst_every=3,
        failure_burst_dropout=1.0,
        failure_straggler_fraction=0.0,
        skip_empty_rounds=True,
        rounds=9,
        always_available=True,
        dropout_prob=0.0,
    )
    result = run_training(cfg)
    assert result.num_rounds == 9
    burst = [r for r in result.records if r.injected_failure]
    calm = [r for r in result.records if not r.injected_failure]
    assert [r.round_idx for r in burst] == [3, 6, 9]
    assert all(r.num_participants == 0 for r in burst)
    assert all(r.up_bytes == 0 for r in burst)
    assert all(r.down_bytes > 0 for r in burst)  # candidates were contacted
    assert all(r.num_participants == 5 for r in calm)


def test_failure_first_burst_lands_at_burst_every(tiny_dataset):
    """Regression (1-based rounds): the first burst fires at round
    ``failure_burst_every`` exactly — never at round 1, and there is no
    phantom "round 0" burst."""
    cfg = make_config(
        tiny_dataset,
        scheduler="failure",
        failure_burst_every=5,
        failure_burst_dropout=1.0,
        failure_straggler_fraction=0.0,
        skip_empty_rounds=True,
        rounds=5,
        always_available=True,
        dropout_prob=0.0,
    )
    result = run_training(cfg)
    flagged = [r.round_idx for r in result.records if r.injected_failure]
    assert flagged == [5]
    # every pre-burst round ran at full strength
    assert all(
        r.num_participants == 5 for r in result.records if r.round_idx < 5
    )


def test_failure_scheduler_straggler_storm(tiny_dataset):
    """A 100% straggler storm inflates burst-round compute time ~slowdown×."""
    cfg = make_config(
        tiny_dataset,
        scheduler="failure",
        failure_burst_every=4,
        failure_burst_dropout=0.0,
        failure_straggler_fraction=1.0,
        failure_straggler_slowdown=50.0,
        rounds=8,
        always_available=True,
        dropout_prob=0.0,
    )
    result = run_training(cfg)
    burst = [r.compute_seconds for r in result.records if r.injected_failure]
    calm = [r.compute_seconds for r in result.records if not r.injected_failure]
    assert burst and calm
    assert min(burst) > 10 * max(calm)


# -- empty-round survival ----------------------------------------------------------


class TotalDropoutTrace(AvailabilityTrace):
    """Everyone online, but no upload ever arrives."""

    def __init__(self, n):
        super().__init__(
            n, np.random.default_rng(0), mean_on_fraction=1.0, dropout_prob=0.0
        )
        self._on_fraction = np.ones(n)

    def survives_round(self, client_ids):
        return np.zeros(len(client_ids), dtype=bool)


def test_skip_empty_rounds_records_and_continues(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        availability_trace=TotalDropoutTrace(tiny_dataset.num_clients),
        skip_empty_rounds=True,
        rounds=4,
    )
    result = run_training(cfg)
    assert result.num_rounds == 4
    assert (result.series("num_participants") == 0).all()
    assert (result.series("up_bytes") == 0).all()
    assert (result.series("down_bytes") > 0).all()
    assert (result.series("train_loss") == 0.0).all()


def test_empty_round_still_raises_by_default(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        availability_trace=TotalDropoutTrace(tiny_dataset.num_clients),
    )
    with pytest.raises(RuntimeError, match="no participants survived"):
        run_training(cfg)


# -- config plumbing ---------------------------------------------------------------


def test_create_scheduler_rejects_unknown():
    with pytest.raises(ValueError, match="unknown scheduler"):
        create_scheduler("bogus")


def test_config_validates_scheduler_knobs(tiny_dataset):
    cfg = make_config(tiny_dataset, scheduler="async", async_buffer_size=0)
    with pytest.raises(ValueError, match="async_buffer_size"):
        cfg.validate()
    cfg = make_config(tiny_dataset, scheduler="warp")
    with pytest.raises(ValueError, match="unknown scheduler"):
        cfg.validate()
    cfg = make_config(tiny_dataset, failure_burst_dropout=1.5)
    with pytest.raises(ValueError, match="failure_burst_dropout"):
        cfg.validate()
    cfg = make_config(tiny_dataset, failure_straggler_slowdown=0.5)
    with pytest.raises(ValueError, match="failure_straggler_slowdown"):
        cfg.validate()
    cfg = make_config(tiny_dataset, failure_burst_every=-1)
    with pytest.raises(ValueError, match="failure_burst_every"):
        cfg.validate()


def test_config_validates_population_knobs(tiny_dataset):
    cfg = make_config(tiny_dataset, population_preset="volcano")
    with pytest.raises(ValueError, match="population_preset"):
        cfg.validate()
    cfg = make_config(tiny_dataset, population_min_completeness=0.0)
    with pytest.raises(ValueError, match="population_min_completeness"):
        cfg.validate()
    cfg = make_config(tiny_dataset, population_max_responsiveness=0.5)
    with pytest.raises(ValueError, match="population_max_responsiveness"):
        cfg.validate()
    cfg = make_config(tiny_dataset, population_dropped_cooldown=-1)
    with pytest.raises(ValueError, match="population_dropped_cooldown"):
        cfg.validate()
    # valid presets pass
    make_config(tiny_dataset, population_preset="device-classes").validate()


def test_config_validates_quorum_knobs(tiny_dataset):
    for bad in (0.0, -0.2, 1.2):
        cfg = make_config(tiny_dataset, quorum_fraction=bad)
        with pytest.raises(ValueError, match="quorum_fraction"):
            cfg.validate()
    cfg = make_config(tiny_dataset, redraw_max_attempts=-1)
    with pytest.raises(ValueError, match="redraw_max_attempts"):
        cfg.validate()
    cfg = make_config(tiny_dataset, redraw_backoff_s=-1.0)
    with pytest.raises(ValueError, match="redraw_backoff_s"):
        cfg.validate()
    # quorum is a synchronous-cohort concept
    for sched in ("async", "semiasync"):
        cfg = make_config(tiny_dataset, scheduler=sched, quorum_fraction=0.5)
        with pytest.raises(ValueError, match="quorum_fraction"):
            cfg.validate()
    make_config(tiny_dataset, quorum_fraction=1.0).validate()


# -- strategy round-state pairing --------------------------------------------------


class PairingSpyStrategy(FedAvgStrategy):
    """Counts round-lifecycle calls to assert begin/end/abort pairing."""

    def __init__(self):
        super().__init__()
        self.begins = 0
        self.ends = 0
        self.aborts = 0

    def begin_round(self, round_idx):
        self.begins += 1
        super().begin_round(round_idx)

    def end_round(self, agg, round_idx):
        self.ends += 1
        super().end_round(agg, round_idx)

    def abort_round(self, round_idx):
        self.aborts += 1
        super().abort_round(round_idx)


class NobodyOnlineTrace(AvailabilityTrace):
    """An availability trace where every client is offline forever."""

    def __init__(self, n):
        super().__init__(
            n, np.random.default_rng(0), mean_on_fraction=1.0, dropout_prob=0.0
        )

    def online(self, round_idx):
        return np.zeros(self.num_clients, dtype=bool)


def test_async_empty_flush_keeps_round_state_balanced(tiny_dataset):
    """Regression: an empty async flush must close the strategy round it
    opened (previously begin_round leaked on the skip_empty path)."""
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        scheduler="async",
        availability_trace=NobodyOnlineTrace(tiny_dataset.num_clients),
        skip_empty_rounds=True,
        rounds=4,
    )
    result = run_training(cfg)
    assert result.num_rounds == 4
    assert (result.series("num_participants") == 0).all()
    assert strategy.begins == 4
    assert strategy.aborts == 4
    assert strategy.ends == 0
    assert strategy.begins == strategy.ends + strategy.aborts


def test_async_no_clients_raise_still_pairs_round_state(tiny_dataset):
    """The fatal no-clients path also closes the opened round before
    raising, so a caller that catches the error holds balanced state."""
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        scheduler="async",
        availability_trace=NobodyOnlineTrace(tiny_dataset.num_clients),
        rounds=4,
    )
    with pytest.raises(RuntimeError, match="no clients available"):
        run_training(cfg)
    assert strategy.begins == strategy.ends + strategy.aborts


def test_sync_empty_round_pairs_round_state(tiny_dataset):
    """The sync pipeline's skip_empty path pairs begin_round too."""
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        availability_trace=TotalDropoutTrace(tiny_dataset.num_clients),
        skip_empty_rounds=True,
        rounds=3,
    )
    run_training(cfg)
    assert strategy.begins == 3
    assert strategy.begins == strategy.ends + strategy.aborts


def test_gluefl_mask_regen_survives_aborted_round():
    """A regen round that aggregates nothing re-arms regeneration instead
    of silently skipping a whole regen_interval (sticky-mask drift fix)."""
    from repro.compression.gluefl_mask import GlueFLMaskStrategy

    strategy = GlueFLMaskStrategy(q=0.2, q_shr=0.1, regen_interval=10)
    strategy.setup(100, np.random.default_rng(0))
    agg_delta = np.random.default_rng(1).normal(size=100)

    def run_full_round(t):
        strategy.begin_round(t)
        from repro.compression.base import AggregateResult

        strategy.end_round(
            AggregateResult(
                global_delta=agg_delta, changed_idx=np.arange(100)
            ),
            t,
        )

    run_full_round(1)  # first round regenerates by definition
    for t in range(2, 10):
        run_full_round(t)
        assert not strategy.is_regen_round
    # round 10 is a scheduled regen round, but nobody shows up
    strategy.begin_round(10)
    assert strategy.is_regen_round
    strategy.abort_round(10)
    # the *next* aggregating round must run as the missed regen round
    strategy.begin_round(11)
    assert strategy.is_regen_round
    run_full_round(11)
    strategy.begin_round(12)
    assert not strategy.is_regen_round


# -- async arrival batching --------------------------------------------------------


class RecordingBackend:
    """Wraps an ExecutionBackend, records each call's batch size."""

    def __init__(self, inner):
        self.inner = inner
        self.batch_sizes = []

    def run_clients(self, tasks, global_params, global_buffers, deliver):
        self.batch_sizes.append(len(tasks))
        self.inner.run_clients(tasks, global_params, global_buffers, deliver)

    def close(self):
        self.inner.close()


def test_async_batches_simultaneous_arrivals(tiny_dataset):
    """Arrivals tied at the same finish time (same dispatch snapshot) go to
    the backend as ONE run_clients call, so the process backend can
    actually parallelize under scheduler="async"."""
    cfg = make_config(
        tiny_dataset,
        scheduler="async",
        async_buffer_size=4,
        async_concurrency=6,
        always_available=True,
        dropout_prob=0.0,
        execution_backend="process",
        backend_workers=2,
    )
    server = FLServer(cfg)
    # constant link/compute times => every in-flight client finishes at
    # exactly the same instant, from the same global snapshot
    server.links.download_seconds_many = lambda ids, b: np.full(len(ids), 0.5)
    server.links.upload_seconds_many = lambda ids, b: np.full(len(ids), 0.25)
    server.compute.round_seconds_many = lambda ids, steps, scale: np.full(
        len(ids), 1.0
    )
    recorder = RecordingBackend(server.backend)
    server._backend = recorder
    try:
        record = server.run_round()
    finally:
        server.close()
    assert record.num_participants == 4
    # the whole buffer arrived simultaneously: one batched call, not 4×[1]
    assert max(recorder.batch_sizes) == 4


def test_async_batching_preserves_serial_results(tiny_dataset):
    """Tie-batched execution aggregates the same clients as the pre-batch
    one-at-a-time drain (order within a tie follows heap pop order)."""
    def run(backend):
        cfg = make_config(
            tiny_dataset,
            scheduler="async",
            async_buffer_size=3,
            rounds=5,
            always_available=True,
            execution_backend=backend,
        )
        return run_training(cfg)

    serial = run("serial")
    forked = run("process")
    np.testing.assert_array_equal(
        serial.series("train_loss"), forked.series("train_loss")
    )
    np.testing.assert_array_equal(
        serial.series("up_bytes"), forked.series("up_bytes")
    )


# -- config validation (canonical tuples + trace ranges) ---------------------------


def test_config_validates_availability_ranges(tiny_dataset):
    cfg = make_config(tiny_dataset, mean_on_fraction=0.0)
    with pytest.raises(ValueError, match="mean_on_fraction"):
        cfg.validate()
    cfg = make_config(tiny_dataset, mean_on_fraction=1.5)
    with pytest.raises(ValueError, match="mean_on_fraction"):
        cfg.validate()
    cfg = make_config(tiny_dataset, dropout_prob=1.0)
    with pytest.raises(ValueError, match="dropout_prob"):
        cfg.validate()
    cfg = make_config(tiny_dataset, dropout_prob=-0.1)
    with pytest.raises(ValueError, match="dropout_prob"):
        cfg.validate()


def test_config_error_messages_track_canonical_tuples(tiny_dataset):
    """validate() quotes the canonical name lists, so a newly registered
    scheduler/backend can never drift out of the config check."""
    from repro.engine.schedulers import SCHEDULERS
    from repro.runtime.backends import BACKENDS

    cfg = make_config(tiny_dataset, scheduler="warp")
    with pytest.raises(ValueError, match=str(SCHEDULERS[-1])):
        cfg.validate()
    cfg = make_config(tiny_dataset, execution_backend="quantum")
    with pytest.raises(ValueError, match=str(BACKENDS[-1])):
        cfg.validate()


def test_quantized_wrapper_forwards_abort_round():
    """The quantization wrapper must not swallow the empty-round signal."""
    from repro.compression import QuantizedStrategy
    from repro.compression.gluefl_mask import GlueFLMaskStrategy

    inner = GlueFLMaskStrategy(q=0.2, q_shr=0.1, regen_interval=10)
    strategy = QuantizedStrategy(inner, bits=8)
    strategy.setup(100, np.random.default_rng(0))
    inner.mask_idx = np.arange(10)  # pretend a mask exists
    strategy.begin_round(10)  # scheduled regen round
    assert inner.is_regen_round
    strategy.abort_round(10)
    strategy.begin_round(11)
    assert inner.is_regen_round  # pending regen survived the wrapper


def test_sync_raise_paths_pair_round_state(tiny_dataset):
    """Both fatal sync paths (empty draw, no survivors) abort the opened
    round before raising, mirroring the async raise path."""
    # no survivors: close_round raises after begin_round
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        availability_trace=TotalDropoutTrace(tiny_dataset.num_clients),
    )
    with pytest.raises(RuntimeError, match="no participants survived"):
        run_training(cfg)
    assert strategy.begins == strategy.ends + strategy.aborts

    # empty draw: the sampler raises inside contact_wave
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        availability_trace=NobodyOnlineTrace(tiny_dataset.num_clients),
    )
    with pytest.raises(RuntimeError, match="no clients available"):
        run_training(cfg)
    assert strategy.begins == strategy.ends + strategy.aborts


def test_config_rejects_draw_only_samplers_under_async(tiny_dataset):
    """DynamicScheduleSampler anneals through draw(), which async never
    calls — the config refuses the silently-inert combination."""
    from repro.fl.extra_samplers import DynamicScheduleSampler

    sampler = DynamicScheduleSampler(UniformSampler(5), k_min=2)
    cfg = make_config(tiny_dataset, sampler=sampler, scheduler="async")
    with pytest.raises(ValueError, match="async scheduler never"):
        cfg.validate()
    # sync stays allowed
    make_config(tiny_dataset, sampler=sampler).validate()


class ExplodingBackend:
    """A backend whose dispatch always fails (simulated worker crash)."""

    def run_clients(self, tasks, global_params, global_buffers, deliver):
        raise OSError("worker pool died")

    def close(self):
        pass


@pytest.mark.parametrize("scheduler", ["sync", "async"])
def test_backend_crash_still_pairs_round_state(tiny_dataset, scheduler):
    """The lifecycle contract is enforced centrally: *any* failure between
    begin_round and end_round aborts the opened round — not just the
    hand-picked empty-round raise sites."""
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        scheduler=scheduler,
        always_available=True,
        dropout_prob=0.0,
    )
    server = FLServer(cfg)
    server._backend = ExplodingBackend()
    with pytest.raises(OSError, match="worker pool died"):
        server.run_round()
    assert strategy.begins == 1
    assert strategy.ends == 0
    assert strategy.aborts == 1
