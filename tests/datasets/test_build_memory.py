"""What a federation costs: its stored bytes, once, in the run dtype.

Two memory gates.  The build fills one block in ~1 MB row chunks and
reorders it in place, so its traced peak stays near what it keeps (the
whole-array build peaked at ≈ 2× that).  And a float32 ``FLServer`` holds
its shards only in float32: once the caller drops its config, no float64
feature array is reachable from the server's dataset or its backend spec,
and the caller's float64 block is freed.
"""

from __future__ import annotations

import gc
import tracemalloc
import types
import weakref

import numpy as np

from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import RunConfig
from repro.fl.server import FLServer

#: ``wide_mlp_sync``'s federation: 200 clients of 28×28 images
WIDE = dict(
    num_clients=200, num_classes=62, image_size=28, samples_per_client=16,
    noise=2.0, seed=0,
)

_OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType)


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through containers, instance
    attributes (``gc.get_referents``) and array ``.base`` chains."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


def test_build_peak_is_near_its_stored_bytes():
    femnist_like(num_clients=4, image_size=8)  # warm imports and caches
    tracemalloc.start()
    try:
        ds = femnist_like(**WIDE)
        stored, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * stored, (peak / stored, stored)
    assert ds.clients[0].x.base.nbytes > 0.8 * stored  # the block is the cost


def test_float32_server_holds_no_float64_features():
    ds = femnist_like(**WIDE)
    block = weakref.ref(ds.clients[0].x.base)
    strategy, sampler = make_gluefl(20, q=0.2, q_shr=0.16, regen_interval=10)
    server = FLServer(
        RunConfig(
            dataset=ds, model_name="mlp", model_kwargs={"hidden": (16,)},
            strategy=strategy, sampler=sampler, rounds=1, batch_size=8,
            dtype="float32", seed=0,
        )
    )
    del ds, strategy, sampler
    gc.collect()
    assert block() is None  # the caller's float64 block is gone
    for root in (server.config.dataset, server.backend.spec):
        features = [a for a in reachable_arrays(root) if a.ndim >= 2]
        assert features and all(a.dtype == np.float32 for a in features)
    server.close()
