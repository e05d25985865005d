"""The server kernels, partitioned by coordinate range.

Every run's server hot path — the weighted-sum folds, top-k selection,
the params apply, release ledgers — runs through this package, selection
and apply over contiguous coordinate-range shards; the default
``RunConfig.shard_count = 1`` is simply one shard:

* :class:`ShardSpec` — the partition (``np.array_split`` convention);
* :class:`ShardExecutor` — per-shard kernel dispatch over
  ``serial``/``thread``/``process`` backends;
* :class:`ShardingRuntime` — the kernels every strategy folds and
  selects through (bound by ``CompressionStrategy.setup``, re-bound by
  the server), plus the release ledger.

Bit-identity across shard counts is the subsystem's contract, proven
against the plain numpy expressions (``tests/sharding/reference.py``) by
the differential suite in ``tests/properties/test_props_sharding.py``:
contiguous shards preserve per-coordinate operation order, and the
per-shard top-k candidates are a superset of the answer (see
:mod:`repro.sharding.kernels` for the argument).
"""

from repro.sharding.executor import SHARD_BACKENDS, ShardExecutor
from repro.sharding.kernels import (
    shard_elementwise_add,
    shard_top_k,
    shard_top_k_in_support,
)
from repro.sharding.partition import ShardSpec
from repro.sharding.runtime import ShardingRuntime, ShardReleaseLedger

__all__ = [
    "SHARD_BACKENDS",
    "ShardSpec",
    "ShardExecutor",
    "ShardingRuntime",
    "ShardReleaseLedger",
    "shard_elementwise_add",
    "shard_top_k",
    "shard_top_k_in_support",
]
