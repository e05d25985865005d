"""Behavioral tests for the simulated-clock scheduler core: wall-clock
threading across every scheduler, the tiered (semiasync) fold-in, the
overlapped pipeline, and the async record fixes."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.core import make_gluefl
from repro.engine import (
    OverlappedSyncScheduler,
    SemiAsyncScheduler,
    create_scheduler,
)
from repro.fl import FLServer, RunConfig, UniformSampler, run_training
from repro.traces.availability import AvailabilityTrace

ALL_SCHEDULERS = ("sync", "async", "failure", "semiasync", "overlapped")


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


class TotalDropoutTrace(AvailabilityTrace):
    """Everyone online, but no upload ever arrives."""

    def __init__(self, n):
        super().__init__(
            n, np.random.default_rng(0), mean_on_fraction=1.0, dropout_prob=0.0
        )
        self._on_fraction = np.ones(n)

    def survives_round(self, client_ids):
        return np.zeros(len(client_ids), dtype=bool)


class NobodyOnlineTrace(AvailabilityTrace):
    """An availability trace where every client is offline forever."""

    def __init__(self, n):
        super().__init__(
            n, np.random.default_rng(0), mean_on_fraction=1.0, dropout_prob=0.0
        )

    def online(self, round_idx):
        return np.zeros(self.num_clients, dtype=bool)


# -- wall-clock threading (tentpole invariant) -------------------------------------


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_every_scheduler_reports_monotone_wall_clock(tiny_dataset, scheduler):
    """Acceptance: every RoundRecord carries monotone ``wall_clock_s``."""
    result = run_training(
        make_config(tiny_dataset, scheduler=scheduler, skip_empty_rounds=True)
    )
    stamps = [r.wall_clock_s for r in result.records]
    assert all(s is not None and not math.isnan(s) for s in stamps)
    assert all(b >= a for a, b in zip(stamps, stamps[1:]))
    assert stamps[-1] > 0.0
    assert result.meta["sim_time_s"] == stamps[-1]


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_round_seconds_sum_to_wall_clock(tiny_dataset, scheduler):
    """``round_seconds`` is the per-record clock advance under every
    scheduler, so its cumsum tracks the clock itself."""
    result = run_training(
        make_config(tiny_dataset, scheduler=scheduler, skip_empty_rounds=True)
    )
    np.testing.assert_allclose(
        result.cumulative_seconds(), result.wall_clock_series(), rtol=1e-12
    )


def test_time_to_target_uses_the_clock(tiny_dataset):
    result = run_training(make_config(tiny_dataset, rounds=8))
    # an always-reached target cuts at the first evaluated round
    t = result.time_to_target_s(target=0.0, window=1)
    assert t is not None and t > 0.0
    assert t <= result.wall_clock_series()[-1]
    assert result.time_to_target_s(target=2.0) is None


# -- overlapped rounds -------------------------------------------------------------


def test_overlapped_keeps_sync_dynamics_but_runs_faster(tiny_dataset):
    """Identical learning dynamics to sync (same RNG draws, same updates);
    only the clock model differs — and it is never slower."""
    sync = run_training(make_config(tiny_dataset, scheduler="sync"))
    over = run_training(make_config(tiny_dataset, scheduler="overlapped"))
    for field in ("train_loss", "up_bytes", "down_bytes", "num_participants"):
        np.testing.assert_array_equal(
            sync.series(field), over.series(field), err_msg=field
        )
    # per-leg metrics (DT inputs) are untouched by the pipeline model
    np.testing.assert_array_equal(
        sync.series("download_seconds"), over.series("download_seconds")
    )
    # the pipeline hides download legs behind the previous uploads
    assert over.wall_clock_series()[-1] < sync.wall_clock_series()[-1]
    # ... but each round can never beat its compute+upload critical legs
    assert (over.series("round_seconds") > 0.0).all()
    # first round has nothing to overlap with: identical to sync
    assert over.records[0].round_seconds == sync.records[0].round_seconds


# -- semiasync tiered rounds -------------------------------------------------------


def test_semiasync_folds_straggler_arrivals(tiny_dataset):
    """Over-committed stragglers (discarded under sync) fold into later
    rounds with recorded staleness."""
    cfg = make_config(
        tiny_dataset,
        scheduler="semiasync",
        overcommit=2.0,
        always_available=True,
        dropout_prob=0.0,
    )
    result = run_training(cfg)
    parts = result.series("num_participants")
    stale = [r.mean_update_staleness for r in result.records]
    # the fast tier always fills its quota; arrivals come on top
    assert (parts >= 5).all()
    assert parts.max() > 5
    folded = [s for s in stale if s is not None]
    assert folded and max(folded) >= 1.0
    # records without arrivals report None, never NaN
    assert all(s is None or not math.isnan(s) for s in stale)


class CompressSpyStrategy(FedAvgStrategy):
    """Records which client ids each round's aggregation compresses."""

    def __init__(self):
        super().__init__()
        self.per_round = {}

    def client_compress(self, client_id, delta, weight):
        self.per_round.setdefault(self._round, []).append(client_id)
        return super().client_compress(client_id, delta, weight)

    def begin_round(self, round_idx):
        self._round = round_idx
        super().begin_round(round_idx)


def test_semiasync_never_aggregates_a_client_twice_per_round(tiny_dataset):
    """A client with an in-flight straggler task is busy: the sampler must
    not re-draw it, so no round folds two updates from one client."""
    strategy = CompressSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        scheduler="semiasync",
        overcommit=2.0,
        always_available=True,
        dropout_prob=0.0,
        rounds=12,
    )
    result = run_training(cfg)
    # staleness still flows (busy-exclusion must not kill the fold-in)
    assert any(
        r.mean_update_staleness not in (None, 0.0) for r in result.records
    )
    for round_idx, cids in strategy.per_round.items():
        assert len(cids) == len(set(cids)), (
            f"round {round_idx} aggregated a client twice: {sorted(cids)}"
        )


def test_semiasync_accounting_shape_matches_sync(tiny_dataset):
    """Tiered rounds price candidates through the sync accounting rules:
    same per-round draw size and positive downstream on every round (the
    *identity* of candidates legitimately differs once in-flight
    stragglers are excluded from the pool)."""
    sync = run_training(make_config(tiny_dataset, always_available=True))
    semi = run_training(
        make_config(tiny_dataset, scheduler="semiasync", always_available=True)
    )
    np.testing.assert_array_equal(
        sync.series("num_candidates"), semi.series("num_candidates")
    )
    assert (semi.series("down_bytes") > 0).all()
    # the first round has no in-flight stragglers yet: identical draw
    assert semi.records[0].down_bytes == sync.records[0].down_bytes
    assert semi.series("up_bytes").sum() >= sync.series("up_bytes").sum()

    # policy, not copy: with no candidate left behind (overcommit 1.0 —
    # no straggler exists) the tiered round IS the sync round, bit for
    # bit, under GlueFL's sticky sampling with a mask regeneration inside
    # the horizon
    def run(scheduler):
        strategy, sampler = make_gluefl(
            5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16, regen_interval=4
        )
        server = FLServer(
            make_config(
                tiny_dataset,
                strategy=strategy,
                sampler=sampler,
                scheduler=scheduler,
                overcommit=1.0,
                collect_sync_details=True,
            )
        )
        records = [
            dataclasses.asdict(server.run_round())
            for _ in range(server.config.rounds)
        ]
        server.close()
        return records, hashlib.sha256(server.global_params.tobytes()).hexdigest()

    sync_records, sync_digest = run("sync")
    semi_records, semi_digest = run("semiasync")
    assert semi_records == sync_records
    assert semi_digest == sync_digest


def test_semiasync_collects_sync_details(tiny_dataset):
    """RunConfig.collect_sync_details works under the tiered scheduler."""
    result = run_training(
        make_config(
            tiny_dataset, scheduler="semiasync", collect_sync_details=True
        )
    )
    for r in result.records:
        assert r.sync_details is not None
        assert len(r.sync_details) == r.num_candidates


def test_semiasync_max_lag_zero_keeps_same_round_arrivals_only(tiny_dataset):
    cfg = make_config(
        tiny_dataset,
        scheduler="semiasync",
        semiasync_max_lag=0,
        overcommit=2.0,
        always_available=True,
        dropout_prob=0.0,
    )
    result = run_training(cfg)
    stale = [r.mean_update_staleness for r in result.records]
    assert all(s is None or s == 0.0 for s in stale)


def test_semiasync_trains_with_gluefl(tiny_dataset):
    """The shifting shared mask composes with stale fold-ins (the mask
    drift regime the sticky-staleness bench studies)."""
    strategy, sampler = make_gluefl(
        5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
    )
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        sampler=sampler,
        scheduler="semiasync",
        rounds=8,
    )
    result = run_training(cfg)
    assert result.num_rounds == 8
    assert result.final_accuracy() > 1.0 / tiny_dataset.num_classes


def test_semiasync_reproducible_and_backend_invariant(tiny_dataset):
    def run(backend):
        return run_training(
            make_config(
                tiny_dataset,
                scheduler="semiasync",
                overcommit=2.0,
                rounds=6,
                execution_backend=backend,
            )
        )

    serial, forked = run("serial"), run("process")
    np.testing.assert_array_equal(
        serial.series("train_loss"), forked.series("train_loss")
    )
    np.testing.assert_array_equal(
        serial.series("up_bytes"), forked.series("up_bytes")
    )


# -- lifecycle pairing -------------------------------------------------------------


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


def test_semiasync_empty_round_pairs_round_state(tiny_dataset):
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        scheduler="semiasync",
        availability_trace=TotalDropoutTrace(tiny_dataset.num_clients),
        skip_empty_rounds=True,
        rounds=4,
    )
    result = run_training(cfg)
    assert result.num_rounds == 4
    assert (result.series("num_participants") == 0).all()
    assert strategy.begins == 4
    assert strategy.aborts == 4
    assert strategy.ends == 0


def test_semiasync_raise_paths_pair_round_state(tiny_dataset):
    # no survivors: the fatal empty-round path aborts before raising
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        scheduler="semiasync",
        availability_trace=TotalDropoutTrace(tiny_dataset.num_clients),
    )
    with pytest.raises(RuntimeError, match="no participants survived"):
        run_training(cfg)
    assert strategy.begins == strategy.ends + strategy.aborts

    # empty draw: the sampler raises inside the sampling slice
    strategy = PairingSpyStrategy()
    cfg = make_config(
        tiny_dataset,
        strategy=strategy,
        scheduler="semiasync",
        availability_trace=NobodyOnlineTrace(tiny_dataset.num_clients),
    )
    with pytest.raises(RuntimeError):
        run_training(cfg)
    assert strategy.begins == strategy.ends + strategy.aborts


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_raise_after_close_does_not_abort_again(tiny_dataset, scheduler):
    """The lifecycle guard closes a round exactly once: a failure *after*
    ``end_round`` (here: evaluation) must not abort the round it ended."""
    strategy = PairingSpyStrategy()
    server = FLServer(
        make_config(
            tiny_dataset,
            strategy=strategy,
            scheduler=scheduler,
            always_available=True,
            dropout_prob=0.0,
            eval_every=1,
        )
    )

    def broken_evaluate():
        raise OSError("test set unreadable")

    server.evaluate = broken_evaluate
    with pytest.raises(OSError, match="test set unreadable"):
        server.run_round()
    server.close()
    assert (strategy.begins, strategy.ends, strategy.aborts) == (1, 1, 0)


# -- async record fixes (satellite) ------------------------------------------------


def test_async_empty_flush_record_is_nan_safe_and_clock_stamped(tiny_dataset):
    """An empty flush must expose the event queue's time and report None
    (not NaN) staleness — previously the simulated clock was dropped."""
    cfg = make_config(
        tiny_dataset,
        scheduler="async",
        availability_trace=NobodyOnlineTrace(tiny_dataset.num_clients),
        skip_empty_rounds=True,
        rounds=3,
    )
    result = run_training(cfg)
    for r in result.records:
        assert r.wall_clock_s is not None and not math.isnan(r.wall_clock_s)
        assert r.mean_update_staleness is None
        assert not math.isnan(r.train_loss)
        assert not math.isnan(r.mean_stale_fraction)


def test_async_wall_clock_matches_event_queue(tiny_dataset):
    result = run_training(
        make_config(tiny_dataset, scheduler="async", rounds=6)
    )
    stamps = result.wall_clock_series()
    assert (np.diff(stamps) >= 0).all()
    np.testing.assert_allclose(
        stamps, result.cumulative_seconds(), rtol=1e-12
    )


# -- config plumbing ---------------------------------------------------------------


def test_create_scheduler_builds_new_names():
    assert isinstance(create_scheduler("semiasync"), SemiAsyncScheduler)
    assert isinstance(create_scheduler("overlapped"), OverlappedSyncScheduler)


def test_config_validates_semiasync_knobs(tiny_dataset):
    cfg = make_config(tiny_dataset, scheduler="semiasync", semiasync_max_lag=-1)
    with pytest.raises(ValueError, match="semiasync_max_lag"):
        cfg.validate()
    make_config(tiny_dataset, scheduler="semiasync").validate()
    make_config(tiny_dataset, scheduler="overlapped").validate()


def test_config_rejects_sync_only_samplers_under_semiasync(tiny_dataset):
    """A sync-only sampler's per-round budget semantics cannot account
    for stale cross-round fold-ins (e.g. an annealed budget would distort
    the arrival 1/K share) — the config refuses the combination."""
    from repro.fl.extra_samplers import DynamicScheduleSampler

    sampler = DynamicScheduleSampler(UniformSampler(5), k_min=2)
    cfg = make_config(tiny_dataset, sampler=sampler, scheduler="semiasync")
    with pytest.raises(ValueError, match="sync-only"):
        cfg.validate()
    # the sync-shaped schedulers stay allowed
    make_config(tiny_dataset, sampler=sampler).validate()
    make_config(
        tiny_dataset, sampler=sampler, scheduler="overlapped"
    ).validate()
