"""Lazy client materialization: LRU discipline + 100k-client smoke test."""

import resource

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.datasets import (
    ClientDataset,
    LazyClientList,
    lazy_synthetic_federation,
)
from repro.fl import FLServer, RunConfig, UniformSampler


def counting_factory(calls):
    def factory(cid):
        calls.append(cid)
        return ClientDataset(
            x=np.full((2, 4), float(cid)),
            y=np.zeros(2, dtype=np.int64),
            client_id=cid,
        )

    return factory


# -- LazyClientList unit behavior --------------------------------------------------


def test_constructor_validates():
    factory = counting_factory([])
    with pytest.raises(ValueError, match="num_clients"):
        LazyClientList(0, factory)
    with pytest.raises(ValueError, match="cache_size"):
        LazyClientList(4, factory, cache_size=0)


def test_len_and_index_bounds():
    shards = LazyClientList(5, counting_factory([]), cache_size=2)
    assert len(shards) == 5
    assert shards[-1].client_id == 4  # negative indexing
    with pytest.raises(IndexError):
        shards[5]
    with pytest.raises(IndexError):
        shards[-6]


def test_cache_hit_does_not_rebuild():
    calls = []
    shards = LazyClientList(6, counting_factory(calls), cache_size=3)
    a = shards[2]
    b = shards[2]
    assert a is b
    assert calls == [2]


def test_lru_evicts_least_recently_used():
    calls = []
    shards = LazyClientList(6, counting_factory(calls), cache_size=2)
    _ = shards[0]
    _ = shards[1]
    _ = shards[0]  # touch 0: now 1 is LRU
    _ = shards[2]  # evicts 1
    assert sorted(shards.cached_ids) == [0, 2]
    assert calls == [0, 1, 2]
    _ = shards[1]  # re-materialized after eviction
    assert calls == [0, 1, 2, 1]


def test_cache_never_exceeds_cache_size():
    shards = LazyClientList(50, counting_factory([]), cache_size=4)
    for i in range(50):
        _ = shards[i]
        assert len(shards.cached_ids) <= 4


def test_slice_materializes_each_member():
    shards = LazyClientList(10, counting_factory([]), cache_size=10)
    got = shards[2:5]
    assert [s.client_id for s in got] == [2, 3, 4]


def test_rematerialization_is_deterministic():
    """Eviction must be invisible: rebuilt shards are bit-identical."""
    dataset = lazy_synthetic_federation(
        num_clients=20, image_size=6, samples_per_client=4, cache_size=2,
        seed=3,
    )
    first_x = dataset.clients[7].x.copy()
    first_y = dataset.clients[7].y.copy()
    for i in range(5):  # churn the cache until 7 is evicted
        _ = dataset.clients[i]
    assert 7 not in dataset.clients.cached_ids
    np.testing.assert_array_equal(dataset.clients[7].x, first_x)
    np.testing.assert_array_equal(dataset.clients[7].y, first_y)


def test_weights_are_preset_without_materialization():
    dataset = lazy_synthetic_federation(
        num_clients=1000, image_size=6, samples_per_client=4
    )
    w = dataset.weights()
    np.testing.assert_allclose(w.sum(), 1.0)
    np.testing.assert_allclose(w, 1.0 / 1000)
    assert not dataset.clients.cached_ids  # nothing was ever built


# -- the 100k-client smoke test ----------------------------------------------------


def test_100k_clients_20_rounds_materializes_only_cohorts():
    """A 100 000-client federation trains 20 rounds while touching only
    the sampled cohorts — peak memory stays bounded by the LRU cache, not
    the federation size."""
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    dataset = lazy_synthetic_federation(
        num_clients=100_000,
        num_classes=4,
        image_size=6,
        samples_per_client=8,
        cache_size=64,
        seed=5,
    )
    config = RunConfig(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (8,)},
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(4),
        rounds=20,
        local_steps=1,
        batch_size=4,
        lr=0.05,
        eval_every=50,
        always_available=True,
        seed=2,
    )
    shards = dataset.clients
    built = set()
    factory = shards.factory

    def recording_factory(cid):
        built.add(cid)
        return factory(cid)

    shards.factory = recording_factory
    server = FLServer(config)
    result = server.run()
    server.close()
    assert result.num_rounds == 20

    # only drawn cohorts ever materialized: ≤ rounds × (K + overcommit
    # extras), a vanishing fraction of the federation
    assert 0 < len(built) <= 20 * 8
    assert len(shards.cached_ids) <= 64
    # resident shard payload is cache-bounded (~64 tiny shards)
    resident = sum(
        shards[cid].x.nbytes + shards[cid].y.nbytes
        for cid in list(shards.cached_ids)
    )
    assert resident < 4 * 1024 * 1024
    # coarse RSS backstop: the whole run must not have allocated an
    # eager-federation's worth of shards (100k × 8 samples ≈ 230 MB);
    # charge well under half of that to this test
    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert rss_after_kb - rss_before_kb < 100 * 1024
