"""Privatized runs pinned bit for bit: ``privacy_runs.json``.

The fixture holds the full :class:`~repro.fl.metrics.RoundRecord` stream
(every field, floats as ``float.hex()``) and the final global-params
SHA-256 of three privatized runs.  It was recorded when privacy was still
a set of ``RunConfig.privacy_*`` fields that the server turned into a
wrapper; the runs below build the same wrappers by hand, so matching it
proves that moving privacy into ``PrivateStrategy`` changed no result —
the noise multiplier is calibrated from the same (ε, δ, rounds, rate) and
the RNG hand-off is the same.  Together the three runs cover ε
calibration at an amplified rate below 1 (``PoissonSampler``), a gaussian
GlueFL run under ``values_only``, ``random_defense``, the quantized stack
``Quantized(Private(inner))``, and the semiasync and async schedulers.

Regenerate (only when privatized-run semantics intentionally change)::

    PYTHONPATH=src python tests/privacy/test_privacy_runs.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, QuantizedStrategy, STCStrategy
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import FLServer, PoissonSampler, RunConfig, UniformSampler
from repro.fl.metrics import RoundRecord
from repro.privacy import PrivateStrategy

FIXTURE = Path(__file__).parent / "privacy_runs.json"


def _base(dataset, strategy, sampler, **overrides):
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
        eval_every=3,
        seed=11,
    )
    params.update(overrides)
    return RunConfig(**params)


def pinned_configs():
    """The pinned runs.  Rebuilt per call: strategies are stateful."""
    dataset = femnist_like(
        num_clients=40, num_classes=4, image_size=8,
        samples_per_client=24, min_samples=5, seed=7,
    )
    gluefl, sticky = make_gluefl(
        5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
    )
    with warnings.catch_warnings():
        # the values-only waiver warns by design
        warnings.simplefilter("ignore", UserWarning)
        private_gluefl = PrivateStrategy(
            gluefl, epsilon=6.0, clip_norm=1.0, values_only=True
        )
    return {
        "poisson_fedavg_sync": _base(
            dataset,
            PrivateStrategy(FedAvgStrategy(), epsilon=6.0, clip_norm=1.0),
            PoissonSampler(5),
            skip_empty_rounds=True,
        ),
        "quantized_gluefl_semiasync": _base(
            dataset,
            QuantizedStrategy(private_gluefl, bits=8),
            sticky,
            scheduler="semiasync",
        ),
        "stc_random_defense_async": _base(
            dataset,
            PrivateStrategy(
                STCStrategy(q=0.2), mode="random_defense",
                defense_fraction=0.3, clip_norm=2.0,
            ),
            UniformSampler(5),
            scheduler="async",
            async_buffer_size=3,
        ),
    }


def _enc(value):
    return value.hex() if isinstance(value, float) else value


def capture(config) -> dict:
    server = FLServer(config)
    result = server.run()
    fields = [f.name for f in dataclasses.fields(RoundRecord)]
    return {
        "strategy": result.meta["strategy"],
        "records": [
            {f: _enc(getattr(r, f)) for f in fields} for r in result.records
        ],
        "params_sha256": hashlib.sha256(
            np.ascontiguousarray(server.global_params).tobytes()
        ).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(json.loads(FIXTURE.read_text())))
def test_privatized_run_matches_fixture(name):
    want = json.loads(FIXTURE.read_text())[name]
    got = capture(pinned_configs()[name])
    assert got["strategy"] == want["strategy"]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"{name}: round {i + 1} diverged: {g} != {w}"
    assert got["params_sha256"] == want["params_sha256"], (
        f"{name}: final global params diverged"
    )


def test_fixture_covers_the_privacy_paths():
    """The pinned streams exercise what they claim: an ε ledger that stays
    within budget where noise runs, and none under random_defense."""
    fixture = json.loads(FIXTURE.read_text())
    assert set(fixture) == set(pinned_configs())
    for name, blob in fixture.items():
        spend = [r["privacy_epsilon_spent"] for r in blob["records"]]
        if name.startswith("stc_random_defense"):
            assert spend == [None] * len(spend)
        else:
            assert 0.0 < float.fromhex(spend[-1]) <= 6.0


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to overwrite the fixture")
    blob = {name: capture(cfg) for name, cfg in pinned_configs().items()}
    FIXTURE.write_text(json.dumps(blob, indent=1) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
