"""FLServer integration: N shards are bit-identical to the default one
shard (which the goldens pin), the runtime is bound/closed through the
server lifecycle, and the config validates the shard knobs."""

import os
import threading

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, GlueFLMaskStrategy, STCStrategy
from repro.core import make_gluefl
from repro.fl import FLServer, RunConfig, UniformSampler
from repro.sharding import ShardingRuntime

pytestmark = pytest.mark.sharding


def make_config(dataset, strategy=None, sampler=None, **overrides):
    if strategy is None:
        strategy, sampler = make_gluefl(
            5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
        )
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        rounds=6,
        local_steps=2,
        batch_size=8,
        lr=0.05,
        eval_every=4,
        seed=3,
    )
    params.update(overrides)
    return RunConfig(**params)


def run_params(cfg, rounds=6):
    server = FLServer(cfg)
    try:
        for _ in range(rounds):
            server.run_round()
        return server.global_params.copy()
    finally:
        server.close()


@pytest.mark.parametrize("count", [2, 7, 16])
def test_gluefl_sharded_run_bit_identical(tiny_dataset, count):
    base = run_params(make_config(tiny_dataset))
    got = run_params(make_config(tiny_dataset, shard_count=count))
    np.testing.assert_array_equal(base, got)


def test_thread_backend_bit_identical(tiny_dataset):
    """At one shard ``thread`` still means something — it runs its single
    task inline — and changes nothing, exactly as at four."""
    base = run_params(make_config(tiny_dataset))
    for count in (1, 4):
        threaded = run_params(
            make_config(tiny_dataset, shard_count=count, shard_backend="thread")
        )
        np.testing.assert_array_equal(base, threaded)


@pytest.mark.slow
def test_process_backend_bit_identical(tiny_dataset):
    base = run_params(make_config(tiny_dataset), rounds=4)
    got = run_params(
        make_config(
            tiny_dataset,
            shard_count=4,
            shard_backend="process",
            backend_workers=2,
        ),
        rounds=4,
    )
    np.testing.assert_array_equal(base, got)


@pytest.mark.parametrize("execution_backend", ["serial", "thread"])
def test_shard_pool_forks_from_a_single_thread(
    tiny_dataset, execution_backend, forks
):
    """The shard pool forks where no other thread runs — at server
    construction and when a closed server runs its next round — never
    from the client top-k inside ``deliver``, beside a training thread."""
    server = FLServer(
        make_config(
            tiny_dataset, shard_count=4, shard_backend="process",
            backend_workers=2, execution_backend=execution_backend,
        )
    )
    try:
        assert forks == [1, 1]
        for _ in range(2):
            server.run_round()
        server.close()
        server.run_round()
    finally:
        server.close()
    assert forks == [1, 1, 1, 1]


def test_runtime_opens_its_pool_at_construction():
    many = ShardingRuntime(64, 4, backend="process", workers=2)
    one = ShardingRuntime(64, 1, backend="process", workers=2)
    try:
        assert many.executor._procs is not None
        assert one.executor._procs is None  # one shard runs inline
    finally:
        many.close()
        one.close()
    assert many.executor._procs is None
    many.open()
    try:
        assert many.executor._procs is not None
    finally:
        many.close()


@pytest.mark.parametrize(
    "make_strategy",
    [
        lambda: (STCStrategy(q=0.2), UniformSampler(5)),
        lambda: (FedAvgStrategy(), UniformSampler(5)),
    ],
    ids=["stc", "fedavg"],
)
def test_other_strategies_sharded_bit_identical(tiny_dataset, make_strategy):
    s, smp = make_strategy()
    base = run_params(make_config(tiny_dataset, strategy=s, sampler=smp))
    s, smp = make_strategy()
    got = run_params(
        make_config(tiny_dataset, strategy=s, sampler=smp, shard_count=3)
    )
    np.testing.assert_array_equal(base, got)


def test_server_binds_and_closes_runtime(tiny_dataset):
    server = FLServer(make_config(tiny_dataset, shard_count=3))
    assert server.sharding is not None
    assert server.strategy.sharding is server.sharding
    assert server.sharding.spec.count == 3
    server.run_round()
    # every aggregation charges its released coordinates to the ledger
    assert server.sharding.ledger.rounds == 1
    assert server.sharding.ledger.counts.sum() > 0
    server.close()


def test_default_server_binds_a_one_shard_runtime(tiny_dataset, monkeypatch, tmp_path):
    """The default *is* one shard: same runtime class, its ledger charged
    every round, and ``close()`` leaves no file or pool behind."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr("tempfile.tempdir", None)
    threads = threading.active_count()
    server = FLServer(make_config(tiny_dataset))
    try:
        assert server.config.shard_count == 1
        assert server.sharding.spec.count == 1
        assert server.strategy.sharding is server.sharding
        for t in (1, 2, 3):
            server.run_round()
            assert server.sharding.ledger.rounds == t
        assert server.sharding.ledger.counts.sum() > 0
        assert 0.0 < server.sharding.ledger.released_fraction()[0] <= 1.0
    finally:
        server.close()
    assert os.listdir(tmp_path) == []
    assert threading.active_count() == threads
    assert server.sharding.executor._threads is None
    assert server.sharding.executor._procs is None


# -- config plumbing ---------------------------------------------------------


def test_config_validates_shard_count(tiny_dataset):
    for bad in (0, -2, None, 2.0, True):
        cfg = make_config(tiny_dataset, shard_count=bad)
        with pytest.raises(ValueError, match="shard_count"):
            cfg.validate()
    make_config(tiny_dataset, shard_count=4).validate()
    assert make_config(tiny_dataset).shard_count == 1


def test_config_validates_shard_backend(tiny_dataset):
    cfg = make_config(tiny_dataset, shard_count=2, shard_backend="quantum")
    with pytest.raises(ValueError, match="shard_backend"):
        cfg.validate()
    for backend in ("serial", "thread", "process"):
        make_config(tiny_dataset, shard_count=2, shard_backend=backend).validate()
