"""Bit-identity regression: the step-function sync round vs the monolith.

``golden_sync.json`` was captured from the pre-refactor monolithic
``FLServer.run_round`` (PR 1 state) on a fixed seed, for FedAvg / STC /
GlueFL plus a float32 GlueFL variant.  Every float is stored as
``float.hex()`` and the final global state as a SHA-256 digest, so the
comparison is bit-exact: if the refactored engine reorders a single RNG
draw or numpy reduction, these tests fail.

Regenerate (only legitimate when the simulation semantics intentionally
change) with::

    PYTHONPATH=src python tests/engine/test_round_engine.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, STCStrategy
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, UniformSampler

GOLDEN_PATH = Path(__file__).parent / "golden_sync.json"

#: RoundRecord fields pinned by the golden (everything the monolith set).
RECORD_FIELDS = (
    "round_idx",
    "down_bytes",
    "up_bytes",
    "round_seconds",
    "download_seconds",
    "compute_seconds",
    "upload_seconds",
    "num_candidates",
    "num_participants",
    "mean_stale_fraction",
    "train_loss",
    "accuracy",
)


def _dataset():
    return femnist_like(
        num_clients=40,
        num_classes=4,
        image_size=8,
        samples_per_client=24,
        min_samples=5,
        seed=7,
    )


def _base(dataset, strategy, sampler, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        rounds=8,
        local_steps=2,
        batch_size=8,
        lr=0.05,
        eval_every=3,
        seed=11,
    )
    params.update(overrides)
    return RunConfig(**params)


def golden_configs():
    """The pinned workloads.  Rebuilt per call: strategies are stateful."""
    dataset = _dataset()
    return {
        "fedavg": _base(
            dataset, FedAvgStrategy(), UniformSampler(5),
            collect_sync_details=True,
        ),
        "stc": _base(dataset, STCStrategy(q=0.2), UniformSampler(5)),
        "gluefl": _base(
            dataset,
            *make_gluefl(5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16),
        ),
        "gluefl_f32": _base(
            dataset,
            *make_gluefl(5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16),
            dtype="float32",
        ),
    }


def _enc(value):
    if isinstance(value, float):
        return value.hex()
    return value


def capture(config) -> dict:
    """Run a config and snapshot everything the golden pins."""
    server = FLServer(config)
    result = server.run()
    records = []
    for r in result.records:
        row = {f: _enc(getattr(r, f)) for f in RECORD_FIELDS}
        if r.sync_details is not None:
            row["sync_details"] = [list(t) for t in r.sync_details]
        records.append(row)
    return {
        "records": records,
        "params_sha256": hashlib.sha256(
            np.ascontiguousarray(server.global_params).tobytes()
        ).hexdigest(),
        "buffers_sha256": hashlib.sha256(
            np.ascontiguousarray(server.global_buffers).tobytes()
        ).hexdigest(),
        "params_sum": _enc(float(server.global_params.sum())),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", ["fedavg", "stc", "gluefl", "gluefl_f32"])
def test_sync_engine_bit_identical_to_monolith(name, golden):
    got = capture(golden_configs()[name])
    want = golden[name]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"{name}: round {i + 1} diverged: {g} != {w}"
    assert got["params_sha256"] == want["params_sha256"], (
        f"{name}: final global params diverged"
    )
    assert got["buffers_sha256"] == want["buffers_sha256"]
    assert got["params_sum"] == want["params_sum"]


def test_weights_dtype_follows_run_policy():
    """Empty weight buckets honor the run dtype (satellite fix).

    Only the *empty* returns are dtype-threaded: non-empty weights stay
    float64 on purpose — they are consumed one scalar at a time, and
    casting them would break bit-identity with the pre-refactor loop.
    """
    cfgs = golden_configs()
    for name, expected in (("gluefl_f32", np.float32), ("fedavg", np.float64)):
        server = FLServer(cfgs[name])
        no_ids = np.empty(0, dtype=np.int64)
        # uniform/empty-sticky branch: the sticky bucket comes back empty
        nu_s, _ = server._weights_for(no_ids, np.array([1, 2]))
        assert len(nu_s) == 0 and nu_s.dtype == np.dtype(expected)
        # both buckets empty: every return is the dtype-threaded empty
        nu_s, nu_r = server._weights_for(no_ids, no_ids)
        assert nu_s.dtype == np.dtype(expected)
        assert nu_r.dtype == np.dtype(expected)
        server.close()


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to overwrite the golden fixture")
    blob = {name: capture(cfg) for name, cfg in golden_configs().items()}
    GOLDEN_PATH.write_text(json.dumps(blob, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
