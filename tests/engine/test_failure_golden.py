"""Golden regression for fault injection: sync rounds over storms.

Fault injection is a device population, not a round shape: dropout
bursts and straggler storms are trace-driven transitions in a
:class:`~repro.population.ChurnStormTrace` population's
connectivity/responsiveness columns, and every scheduler flags the burst
rounds in ``RoundRecord.injected_failure``.  The three configs run sync
rounds over explicit storm populations (``tests/population/storms.py``,
on the ``RngFactory(seed)("population")`` stream the ``"storm"`` preset
draws from).  ``golden_storm.json`` pins the full record stream (floats
as ``float.hex()``, final global state as SHA-256) so any change to the
population's RNG consumption, the burst schedule (1-based: first burst at
round ``burst_every``), or the state machine's revive timing breaks this
test rather than silently shifting the simulated workload.

Regenerate (only when the population semantics intentionally change)
with::

    PYTHONPATH=src python tests/engine/test_failure_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression import FedAvgStrategy
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, UniformSampler

from tests.population.storms import storm_population

GOLDEN_PATH = Path(__file__).parent / "golden_storm.json"

#: RoundRecord fields the golden pins (sync fields + the failure/population
#: extras a storm population sets).
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
    "injected_failure",
    "quorum_redraws",
    "quorum_failed",
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


SEED = 11


def _base(dataset, strategy, sampler, storm, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=strategy,
        sampler=sampler,
        population=storm_population(dataset.num_clients, SEED, **storm),
        skip_empty_rounds=True,
        rounds=9,
        local_steps=2,
        batch_size=8,
        lr=0.05,
        eval_every=3,
        seed=SEED,
    )
    params.update(overrides)
    return RunConfig(**params)


def golden_configs():
    """The pinned workloads.  Rebuilt per call: strategies are stateful."""
    dataset = _dataset()
    return {
        # total-dropout bursts every 3rd round over a duty-cycle base
        "fedavg_bursts": _base(
            dataset,
            FedAvgStrategy(),
            UniformSampler(5),
            dict(burst_every=3, burst_dropout=1.0, straggler_fraction=0.0),
        ),
        # partial storms (dropout + stragglers) under the paper's strategy
        "gluefl_storm": _base(
            dataset,
            *make_gluefl(5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16),
            dict(
                burst_every=4,
                burst_dropout=0.5,
                straggler_fraction=0.5,
                straggler_slowdown=8.0,
            ),
        ),
        # quorum degradation: bounded re-draws charged to the clock
        "fedavg_quorum": _base(
            dataset,
            FedAvgStrategy(),
            UniformSampler(5),
            dict(burst_every=3, burst_dropout=1.0, straggler_fraction=0.0),
            quorum_fraction=0.6,
            redraw_max_attempts=2,
            redraw_backoff_s=5.0,
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


@pytest.mark.parametrize(
    "name", ["fedavg_bursts", "gluefl_storm", "fedavg_quorum"]
)
def test_failure_scheduler_record_stream_pinned(name, golden):
    got = capture(golden_configs()[name])
    want = golden[name]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"{name}: round {i + 1} diverged: {g} != {w}"
    assert got["params_sha256"] == want["params_sha256"], (
        f"{name}: final global params diverged"
    )
    assert got["params_sum"] == want["params_sum"]


def test_burst_schedule_is_one_based(golden):
    """The first burst lands at round ``burst_every`` — never at the
    first round — and the golden agrees."""
    want = golden["fedavg_bursts"]["records"]
    flagged = [r["round_idx"] for r in want if r["injected_failure"]]
    assert flagged == [3, 6, 9]


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
