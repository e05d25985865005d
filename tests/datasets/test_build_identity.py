"""The chunked, client-ordered build is bit-identical to the whole-array one.

``sample_from_prototypes`` fills its output in row chunks, and
``synthetic_federation`` reorders that block in place so every shard is a
contiguous view of it.  Both are only sound if a ``Generator.normal``
stream drawn in pieces equals one whole draw and the reorder keeps each
shard's sample order; these tests pin both against the whole-array build
in ``tests/datasets/reference.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    femnist,
    femnist_like,
    lazy_synthetic_federation,
    openimage,
    openimage_like,
    speech,
    speech_like,
    synthetic,
)
from repro.datasets.synthetic import (
    image_prototypes,
    permute_rows,
    sample_from_prototypes,
)
from tests.datasets import reference


def assert_same_federation(ds, oracle):
    assert ds.num_clients == oracle.num_clients
    for got, want in zip(ds.clients, oracle.clients):
        assert got.client_id == want.client_id
        assert got.x.dtype == want.x.dtype
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.y, want.y)
    np.testing.assert_array_equal(ds.test_x, oracle.test_x)
    np.testing.assert_array_equal(ds.test_y, oracle.test_y)
    np.testing.assert_array_equal(ds.weights(), oracle.weights())


@pytest.mark.parametrize(
    "n, chunk", [(100, 1), (100, 7), (100, 33), (100, 100), (5, 64)]
)
def test_chunked_normal_draws_equal_one_draw(n, chunk):
    whole = np.random.default_rng(3).normal(size=(n, 2, 3))
    rng = np.random.default_rng(3)
    pieces = [
        rng.normal(size=(min(chunk, n - s), 2, 3)) for s in range(0, n, chunk)
    ]
    np.testing.assert_array_equal(np.concatenate(pieces), whole)


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 512 + 8, 1 << 20])
def test_sampler_matches_whole_array_build(monkeypatch, chunk_bytes):
    """1, 3 and all 101 rows (of 512 B) per chunk: 3 does not divide 101."""
    monkeypatch.setattr(synthetic, "CHUNK_BYTES", chunk_bytes)
    protos = image_prototypes(5, 1, 8, np.random.default_rng(0))
    labels = np.random.default_rng(1).integers(0, 5, size=101)
    got = sample_from_prototypes(
        protos, labels, np.random.default_rng(2), noise=1.5
    )
    want = reference.sample_from_prototypes(
        protos, labels, np.random.default_rng(2), noise=1.5
    )
    assert got.dtype == want.dtype and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "build, module",
    [(femnist_like, femnist), (openimage_like, openimage), (speech_like, speech)],
)
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("min_samples", [None, 12])
def test_federations_match_whole_array_build(
    monkeypatch, build, module, seed, min_samples
):
    kwargs = dict(
        num_clients=30, image_size=8, samples_per_client=14, alpha=0.3,
        min_samples=min_samples, seed=seed,
    )
    ds = build(**kwargs)
    monkeypatch.setattr(
        module, "synthetic_federation", reference.synthetic_federation
    )
    oracle = build(**kwargs)
    if min_samples is not None:
        assert oracle.num_clients < 30  # the filter really dropped clients
    assert_same_federation(ds, oracle)


def test_shards_are_views_of_one_client_ordered_block():
    ds = femnist_like(
        num_clients=25, image_size=8, samples_per_client=12, min_samples=None
    )
    block = ds.clients[0].x.base
    assert block is not None and block.flags.c_contiguous
    offset = 0
    for c in ds.clients:
        assert c.x.base is block and c.x.flags.c_contiguous
        np.testing.assert_array_equal(c.x, block[offset : offset + len(c)])
        offset += len(c)
    assert offset == len(block)


@pytest.mark.parametrize("seed", [0, 4])
def test_lazy_shards_match_whole_array_build(seed):
    kwargs = dict(
        num_clients=20, num_classes=5, image_size=6, samples_per_client=9,
        seed=seed,
    )
    ds = lazy_synthetic_federation(**kwargs)
    test_x, test_y, shards = reference.lazy_shards(**kwargs)
    np.testing.assert_array_equal(ds.test_x, test_x)
    np.testing.assert_array_equal(ds.test_y, test_y)
    for cid, (x, y) in enumerate(shards):
        np.testing.assert_array_equal(ds.clients[cid].x, x)
        np.testing.assert_array_equal(ds.clients[cid].y, y)


ORDERS = {
    "identity": np.arange(9),
    "one-cycle": np.roll(np.arange(9), 1),
    "swaps-and-fixed-point": np.array([1, 0, 3, 2, 4]),
    "one-row": np.arange(1),
    "empty": np.arange(0),
    **{
        f"random-{n}": np.random.default_rng(n).permutation(n)
        for n in (2, 17, 64)
    },
}


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_permute_rows_matches_fancy_index(order):
    x = np.random.default_rng(1).normal(size=(len(order), 2, 3))
    want = x[order]
    permute_rows(x, order)
    np.testing.assert_array_equal(x, want)
