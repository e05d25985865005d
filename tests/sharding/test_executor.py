"""Dispatch semantics of the shard executor (order, lifecycle, backends)."""

import numpy as np
import pytest

from repro.sharding import SHARD_BACKENDS, ShardExecutor
from repro.sharding.kernels import shard_elementwise_add

pytestmark = pytest.mark.sharding


def _square(x):
    return x * x


def test_backends_tuple_is_canonical():
    assert SHARD_BACKENDS == ("serial", "thread", "process")


@pytest.mark.parametrize("backend", SHARD_BACKENDS)
def test_map_preserves_task_order(backend):
    ex = ShardExecutor(backend, workers=2)
    try:
        assert ex.map(_square, [(i,) for i in range(10)]) == [
            i * i for i in range(10)
        ]
    finally:
        ex.close()


@pytest.mark.parametrize("backend", SHARD_BACKENDS)
def test_map_ships_arrays(backend):
    ex = ShardExecutor(backend, workers=2)
    a = np.arange(4, dtype=np.float32)
    outs = [np.empty_like(a), np.empty_like(a)]
    try:
        got = ex.map(
            shard_elementwise_add, [(outs[0], a, a), (outs[1], a, 2 * a)]
        )
        np.testing.assert_array_equal(got[0], 2 * a)
        np.testing.assert_array_equal(got[1], 3 * a)
        # the slice-writing rule: in-process backends hand back the very
        # output they were given; a fork worker wrote into its own copy
        assert (got[0] is outs[0]) == (backend != "process")
    finally:
        ex.close()


def test_single_task_short_circuits_to_serial():
    """One task never pays pool startup — no pool is even created."""
    ex = ShardExecutor("process", workers=2)
    try:
        assert ex.map(_square, [(3,)]) == [9]
        assert ex._procs is None
    finally:
        ex.close()


def test_close_is_idempotent_and_executor_stays_usable():
    ex = ShardExecutor("thread", workers=2)
    assert ex.map(_square, [(1,), (2,)]) == [1, 4]
    ex.close()
    ex.close()
    # next map rebuilds the pool on demand
    assert ex.map(_square, [(2,), (3,)]) == [4, 9]
    ex.close()


def test_rejects_unknown_backend_and_bad_workers():
    with pytest.raises(ValueError, match="unknown shard backend"):
        ShardExecutor("quantum")
    with pytest.raises(ValueError, match="workers must be positive"):
        ShardExecutor("thread", workers=0)
