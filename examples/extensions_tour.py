"""Tour of the library's extensions beyond the paper's core.

Run:
    python examples/extensions_tour.py

Six extensions, each motivated by the paper's related-work or footnotes:

1. **Diurnal availability** — day/night client churn (FedScale-style)
   interacting with sticky sampling;
2. **Oort-like utility sampling** — guided participant selection (§6);
3. **Quantization composed with GlueFL** — footnote 1;
4. **Multi-seed summaries** — seed-averaged A/B comparison with dispersion;
5. **Sampling-policy layer** — norm-aware Optimal Client Sampling
   (unbiased via Horvitz–Thompson weights the sampler owns) and a
   budget-annealing Dynamic Sampling wrapper;
6. **Privacy-aware compression** — GlueFL under differential privacy:
   clipping + Gaussian noise on the transmitted coordinates only, with
   the RDP accountant's per-round ε landing in each ``RoundRecord``.

The privacy demo's knobs come straight from :mod:`repro.privacy`; the
noise calibration is doctested here so the example can't rot:

>>> from repro.privacy import RdpAccountant, calibrate_noise_multiplier
>>> z = calibrate_noise_multiplier(8.0, 1e-5, rounds=30, sample_rate=8 / 120)
>>> acct = RdpAccountant(z, sample_rate=8 / 120); acct.step(30)
>>> acct.epsilon() <= 8.0
True
"""

import numpy as np

from repro.compression import QuantizedStrategy, STCStrategy
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.experiments import get_scenario, run_strategy_seeds
from repro.fl import RunConfig, UniformSampler, run_training
from repro.fl.extra_samplers import OortLikeSampler
from repro.privacy import PrivateStrategy
from repro.traces import DiurnalAvailabilityTrace

K = 8
ROUNDS = 40


def dataset():
    return femnist_like(
        num_clients=120, num_classes=10, samples_per_client=36, noise=2.0, seed=4
    )


def demo_diurnal() -> None:
    print("1) diurnal availability — GlueFL under day/night churn")
    ds = dataset()
    trace = DiurnalAvailabilityTrace(
        ds.num_clients,
        np.random.default_rng(0),
        rounds_per_day=20,
        window_hours=10.0,
    )
    frac = trace.online_fraction_over_day()
    print(
        f"   online fraction over a simulated day: "
        f"min {frac.min():.2f} / mean {frac.mean():.2f} / max {frac.max():.2f}"
    )
    strategy, sampler = make_gluefl(K, q=0.2, q_shr=0.16)
    cfg = RunConfig(
        dataset=ds,
        model_name="mlp",
        model_kwargs={"hidden": (32,)},
        strategy=strategy,
        sampler=sampler,
        rounds=ROUNDS,
        local_steps=3,
        availability_trace=trace,
        seed=1,
    )
    result = run_training(cfg)
    print(
        f"   trained through the churn: accuracy {result.final_accuracy():.3f}, "
        f"mean participants/round "
        f"{result.series('num_participants').mean():.1f}\n"
    )


def demo_oort() -> None:
    print("2) Oort-like sampler — utility-guided selection (biased, 1/K weights)")
    ds = dataset()
    sampler = OortLikeSampler(K, exploration=0.3)
    cfg = RunConfig(
        dataset=ds,
        model_name="mlp",
        model_kwargs={"hidden": (32,)},
        strategy=STCStrategy(q=0.2),
        sampler=sampler,
        rounds=ROUNDS,
        local_steps=3,
        weight_mode="equal",
        seed=2,
    )
    result = run_training(cfg)
    print(f"   accuracy {result.final_accuracy():.3f} with guided selection\n")


def demo_quantization() -> None:
    print("3) quantization × GlueFL (footnote 1)")
    ds = dataset()
    for bits in (None, 8):
        strategy, sampler = make_gluefl(K, q=0.2, q_shr=0.16)
        if bits is not None:
            strategy = QuantizedStrategy(strategy, bits=bits)
        cfg = RunConfig(
            dataset=ds,
            model_name="mlp",
            model_kwargs={"hidden": (32,)},
            strategy=strategy,
            sampler=sampler,
            rounds=ROUNDS,
            local_steps=3,
            seed=3,
        )
        result = run_training(cfg)
        label = "float32" if bits is None else f"{bits}-bit"
        print(
            f"   {label:>8}: up {result.cumulative_up_bytes()[-1] / 1e6:6.1f} MB, "
            f"accuracy {result.final_accuracy():.3f}"
        )
    print()


def demo_multiseed() -> None:
    print("4) multi-seed summary — GlueFL vs FedAvg with dispersion")
    scenario = get_scenario("femnist-tiny").with_(rounds=ROUNDS, eval_every=4)
    for name in ("fedavg", "gluefl"):
        summary = run_strategy_seeds(scenario, name, seeds=(0, 1, 2))
        print("   " + summary.as_row())


def demo_sampling_policies() -> None:
    print("5) sampling-policy layer — norm-aware and annealed budgets")
    from repro.compression import FedAvgStrategy
    from repro.fl.extra_samplers import (
        DynamicScheduleSampler,
        OptimalClientSampler,
    )

    ds = dataset()
    samplers = {
        "uniform": UniformSampler(K),
        # inclusion ∝ estimated update norms; weights ν = p/π stay unbiased
        "ocs": OptimalClientSampler(K),
        # anneal the budget K → K/2 as the model stabilizes
        "dynamic": DynamicScheduleSampler(
            UniformSampler(K), k_min=K // 2, decay=0.95
        ),
    }
    for name, sampler in samplers.items():
        cfg = RunConfig(
            dataset=ds,
            model_name="mlp",
            model_kwargs={"hidden": (32,)},
            strategy=FedAvgStrategy(),
            sampler=sampler,
            rounds=ROUNDS,
            local_steps=3,
            seed=5,
        )
        result = run_training(cfg)
        print(
            f"   {name:>8}: accuracy {result.final_accuracy():.3f}, "
            f"up {result.cumulative_up_bytes()[-1] / 1e6:6.1f} MB, "
            f"participants/round "
            f"{result.series('num_participants').mean():.1f}"
        )
    print()


def demo_privacy() -> None:
    print("6) privacy-aware compression — private GlueFL with epsilon per round")
    ds = dataset()
    # sticky sampling gives clients persistent, history-correlated
    # inclusion, so the accountant claims no subsampling amplification
    # (rate 1.0) — at this toy scale that means a loose budget is needed
    # for the model to still learn; production-scale N buys much more.
    strategy, sampler = make_gluefl(K, q=0.2, q_shr=0.16)
    private = PrivateStrategy(
        strategy,
        epsilon=60.0,     # total budget for the whole run
        clip_norm=2.0,    # per-client L2 sensitivity bound
        # GlueFL clients pick their own unique-top-k indices — a
        # data-dependent release value noise cannot cover, so epsilon is
        # a values-only claim and the wrapper demands this explicit waiver
        values_only=True,
    )
    cfg = RunConfig(
        dataset=ds,
        model_name="mlp",
        model_kwargs={"hidden": (32,)},
        strategy=private,
        sampler=sampler,
        rounds=ROUNDS,
        local_steps=3,
        seed=6,
    )
    result = run_training(cfg)
    for record in result.records[::6]:
        print(
            f"   round {record.round_idx:2d}: "
            f"eps spent {record.privacy_epsilon_spent:6.2f}"
        )
    print(
        f"   gaussian: accuracy {result.final_accuracy():.3f} at total "
        f"eps {result.records[-1].privacy_epsilon_spent:.2f} "
        f"(values-only: the mask indices are an unaccounted release; "
        f"same wire bytes as the non-private run)"
    )
    # contrast: the noise-free random-mask defense (Kim & Park 2024)
    # blunts gradient inversion at almost no accuracy cost — but carries
    # no (eps, delta) guarantee, so no epsilon ledger is reported
    strategy, sampler = make_gluefl(K, q=0.2, q_shr=0.16)
    defended = run_training(RunConfig(
        dataset=ds, model_name="mlp", model_kwargs={"hidden": (32,)},
        strategy=PrivateStrategy(
            strategy, mode="random_defense", defense_fraction=0.5
        ),
        sampler=sampler, rounds=ROUNDS, local_steps=3, seed=6,
    ))
    print(
        f"   rdmask  : accuracy {defended.final_accuracy():.3f}, "
        f"eps spent {defended.records[-1].privacy_epsilon_spent} "
        f"(heuristic defense, no DP guarantee)\n"
    )


def main() -> None:
    demo_diurnal()
    demo_oort()
    demo_quantization()
    demo_multiseed()
    demo_sampling_policies()
    demo_privacy()


if __name__ == "__main__":
    main()
