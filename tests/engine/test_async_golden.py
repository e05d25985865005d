"""Golden regression: the async/buffered scheduler's RoundRecord stream.

``golden_async.json`` pins the FedBuff-style scheduler the way
``golden_sync.json`` pins the sync engine: per-flush records (including
``mean_update_staleness``) plus the final global state as a SHA-256
digest, every float stored as ``float.hex()`` so the comparison is
bit-exact.  Captured after the arrival-batching fix (equal-finish events
drained as one backend call) so that fix — and any future edit to the
event queue, dispatch RNG order, or staleness discounting — is pinned.

Regenerate (only when the async semantics intentionally change) with::

    PYTHONPATH=src python tests/engine/test_async_golden.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, STCStrategy
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, UniformSampler

GOLDEN_PATH = Path(__file__).parent / "golden_async.json"

#: RoundRecord fields pinned per flush (the sync set + async staleness).
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
    "mean_update_staleness",
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
        scheduler="async",
        async_buffer_size=3,
        async_concurrency=8,
    )
    params.update(overrides)
    return RunConfig(**params)


def golden_configs():
    """The pinned async workloads.  Rebuilt per call: strategies are stateful."""
    dataset = _dataset()
    return {
        "fedavg": _base(dataset, FedAvgStrategy(), UniformSampler(5)),
        "stc": _base(dataset, STCStrategy(q=0.2), UniformSampler(5)),
        "gluefl": _base(
            dataset,
            *make_gluefl(5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16),
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
    records = [
        {f: _enc(getattr(r, f)) for f in RECORD_FIELDS} for r in result.records
    ]
    return {
        "records": records,
        "params_sha256": hashlib.sha256(
            np.ascontiguousarray(server.global_params).tobytes()
        ).hexdigest(),
        "params_sum": _enc(float(server.global_params.sum())),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", ["fedavg", "stc", "gluefl"])
def test_async_scheduler_matches_golden(name, golden):
    got = capture(golden_configs()[name])
    want = golden[name]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"{name}: flush {i + 1} diverged: {g} != {w}"
    assert got["params_sha256"] == want["params_sha256"], (
        f"{name}: final global params diverged"
    )
    assert got["params_sum"] == want["params_sum"]


@pytest.mark.parametrize("name", ["fedavg", "gluefl"])
def test_async_process_backend_matches_golden(name, golden):
    """A flush trains its arrivals after its last refill; the process
    backend's records and final model still equal the serial golden."""
    config = dataclasses.replace(
        golden_configs()[name], execution_backend="process", backend_workers=2
    )
    got = capture(config)
    assert got == golden[name]


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
