"""Privacy/utility/bandwidth trade-off: ε × strategy sweep.

The privacy layer (:mod:`repro.privacy`) privatizes whatever the wrapped
compression strategy uploads — noise rides inside the transmitted values,
so the wire cost of a private run is *exactly* the non-private strategy's.
This sweep quantifies what that costs in accuracy:

* columns: the GlueFL shared mask, STC, and GlueFL under the
  ``random_defense`` mode (Kim & Park 2024 random masking — no ε);
* rows: privacy off, ε = 8, ε = 2 (total budget over the run at
  δ = 1e-5, noise calibrated by the RDP accountant).

Both swept strategies transmit client-chosen top-k indices, so every
gaussian cell wraps them with ``values_only=True``: the reported ε
covers the released *values* only — the index sets are a data-dependent
release the mechanism does not analyze (dense FedAvg would need no such
waiver, but is not a bandwidth-relevant column).

Printed per cell: final accuracy, cumulative up/down volume, and the
accountant's final ε.  Asserted: upstream volume is byte-identical with
privacy on vs off (the bandwidth-exactness claim), ε spend is monotone
per round and lands within the target budget, and the mild-noise runs
still train above the chance floor.

Run with the rest of the paper benches (``pytest -m bench``) or solo::

    PYTHONPATH=src python -m pytest -m bench -q -s benchmarks/bench_privacy_tradeoff.py
"""

from benchmarks.conftest import run_once
from repro.experiments.runner import build_config, make_strategy
from repro.experiments.scenarios import get_scenario
from repro.fl import run_training
from repro.privacy import PrivateStrategy

EPSILONS = (None, 8.0, 2.0)  # None == privacy off
STRATEGIES = ("gluefl", "stc")
CHANCE_FLOOR = 1.0 / 8  # femnist-private has 8 classes


def _run_cell(scenario, strategy_name, epsilon, mode="gaussian", seed=0):
    strategy, sampler = make_strategy(strategy_name, scenario)
    if mode == "random_defense":
        strategy = PrivateStrategy(
            strategy, mode="random_defense", defense_fraction=0.5
        )
    elif epsilon is not None:
        strategy = PrivateStrategy(
            strategy,
            epsilon=epsilon,
            clip_norm=2.0,
            # GlueFL/STC upload client-chosen indices: epsilon is a
            # values-only claim (see the module docstring)
            values_only=True,
        )
    return run_training(build_config(scenario, strategy, sampler, seed=seed))


def _sweep():
    scenario = get_scenario("femnist-private")
    cells = {}
    for name in STRATEGIES:
        for eps in EPSILONS:
            cells[(name, eps)] = _run_cell(scenario, name, eps)
    cells[("gluefl+rdmask", None)] = _run_cell(
        scenario, "gluefl", None, mode="random_defense"
    )
    return scenario, cells


def test_privacy_tradeoff(benchmark):
    scenario, cells = run_once(benchmark, _sweep)

    print(f"\nPrivacy trade-off [{scenario.name}, {scenario.rounds} rounds]")
    for (name, eps), result in cells.items():
        label = "off" if eps is None else f"eps={eps:g}"
        if name.endswith("rdmask"):
            label = "rdmask"
        spent = result.records[-1].privacy_epsilon_spent
        print(
            f"  {name:14s} {label:>7s}: acc={result.final_accuracy():.3f} "
            f"up={result.cumulative_up_bytes()[-1] / 1e6:6.1f} MB "
            f"down={result.cumulative_down_bytes()[-1] / 1e6:6.1f} MB "
            f"eps_spent={'-' if spent is None else f'{spent:.2f}'}"
        )

    for name in STRATEGIES:
        baseline = cells[(name, None)]
        for eps in EPSILONS[1:]:
            private = cells[(name, eps)]
            # bandwidth exactness: noise rides inside the same payloads
            assert [r.up_bytes for r in private.records] == [
                r.up_bytes for r in baseline.records
            ], f"{name} eps={eps}: upstream bytes diverged from non-private"
            # the accountant's spend is monotone and lands within budget
            spend = [r.privacy_epsilon_spent for r in private.records]
            assert all(b >= a for a, b in zip(spend, spend[1:]))
            assert 0.0 < spend[-1] <= eps + 1e-6
        # non-private and mild-noise runs clear the chance floor
        assert baseline.final_accuracy() > 2 * CHANCE_FLOOR
        assert cells[(name, 8.0)].final_accuracy() > CHANCE_FLOOR

    # the random-mask defense trains without any accountant running
    rdmask = cells[("gluefl+rdmask", None)]
    assert rdmask.final_accuracy() > 2 * CHANCE_FLOOR
    assert all(r.privacy_epsilon_spent is None for r in rdmask.records)
