"""Golden regression: the tiered (semiasync) scheduler.

``golden_semiasync.json`` pins the FLASH-style tiered scheduler's record
stream the way ``golden_sync.json`` pins the sync engine: per-round
records plus the final global state as a SHA-256 digest, every float
stored as ``float.hex()`` so the comparison is bit-exact.  It pins
``wall_clock_s`` — the simulated-clock field — so any change to the clock
model or the straggler fold-in weights shows up here.

Regenerate (only when the scheduler semantics intentionally change) with::

    PYTHONPATH=src python tests/engine/test_semiasync_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, UniformSampler

GOLDENS = {
    "semiasync": Path(__file__).parent / "golden_semiasync.json",
}

#: RoundRecord fields pinned per round (the sync set + the clock fields).
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
    "wall_clock_s",
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


def _base(dataset, strategy, sampler, scheduler, **overrides):
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
        scheduler=scheduler,
    )
    params.update(overrides)
    return RunConfig(**params)


def golden_configs(scheduler):
    """The pinned workloads.  Rebuilt per call: strategies are stateful."""
    dataset = _dataset()
    return {
        "fedavg": _base(
            dataset, FedAvgStrategy(), UniformSampler(5), scheduler
        ),
        "gluefl": _base(
            dataset,
            *make_gluefl(5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16),
            scheduler,
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


@pytest.mark.parametrize("scheduler", list(GOLDENS))
@pytest.mark.parametrize("name", ["fedavg", "gluefl"])
def test_scheduler_matches_golden(scheduler, name):
    golden = json.loads(GOLDENS[scheduler].read_text())
    got = capture(golden_configs(scheduler)[name])
    want = golden[name]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"{scheduler}/{name}: round {i + 1} diverged: {g} != {w}"
    assert got["params_sha256"] == want["params_sha256"], (
        f"{scheduler}/{name}: final global params diverged"
    )
    assert got["params_sum"] == want["params_sum"]


@pytest.mark.parametrize("scheduler", list(GOLDENS))
def test_golden_wall_clock_is_monotone(scheduler):
    """The pinned streams themselves satisfy the acceptance invariant:
    every record carries a monotone nondecreasing ``wall_clock_s``."""
    golden = json.loads(GOLDENS[scheduler].read_text())
    for name, blob in golden.items():
        stamps = [
            float.fromhex(r["wall_clock_s"]) for r in blob["records"]
        ]
        assert all(not math.isnan(s) for s in stamps), name
        assert stamps == sorted(stamps), f"{scheduler}/{name} not monotone"
        assert stamps[0] > 0.0


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to overwrite the golden fixtures")
    for scheduler, path in GOLDENS.items():
        blob = {
            name: capture(cfg)
            for name, cfg in golden_configs(scheduler).items()
        }
        path.write_text(json.dumps(blob, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
