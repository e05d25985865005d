import numpy as np
import pytest

from repro.compression import (
    FedAvgStrategy,
    GlueFLMaskStrategy,
    QuantizedStrategy,
    STCStrategy,
)
from tests.compression.rounds import aggregate_payloads


def setup(strategy, d=200, seed=0):
    strategy.setup(d, np.random.default_rng(seed))
    return strategy


def test_quantized_fedavg_cuts_upstream(rng):
    plain = setup(FedAvgStrategy())
    quant = setup(QuantizedStrategy(FedAvgStrategy(), bits=8))
    delta = rng.normal(size=200)
    p_plain = plain.client_compress(0, delta, 1.0)
    p_quant = quant.client_compress(0, delta, 1.0)
    assert p_quant.upstream_bytes < p_plain.upstream_bytes
    # 8-bit values: roughly a 4x value-payload saving
    assert p_quant.upstream_bytes < 0.5 * p_plain.upstream_bytes


def test_quantized_values_close_to_original(rng):
    quant = setup(QuantizedStrategy(STCStrategy(q=0.2), bits=8))
    quant.begin_round(1)
    delta = rng.normal(size=200)
    payload = quant.client_compress(0, delta, 1.0)
    original = delta[payload.data["idx"]]
    scale = np.abs(original).max()
    assert np.abs(payload.data["vals"] - original).max() <= scale / 60


def test_quantized_gluefl_roundtrip(rng):
    quant = setup(QuantizedStrategy(GlueFLMaskStrategy(q=0.3, q_shr=0.1), bits=6))
    for t in (1, 2, 3):
        quant.begin_round(t)
        payloads = [
            (i, 0.5, quant.client_compress(i, rng.normal(size=200), 0.5))
            for i in range(2)
        ]
        agg = aggregate_payloads(quant, payloads)
        quant.end_round(agg, t)
        assert np.isfinite(agg.global_delta).all()
    # the wrapped strategy's mask machinery still ran
    assert len(quant.inner.mask_idx) > 0


def test_quantized_name_and_delegation(rng):
    quant = setup(QuantizedStrategy(STCStrategy(q=0.2), bits=4))
    assert quant.name == "stc+q4"
    assert quant.downstream_extra_bytes() == quant.inner.downstream_extra_bytes()
    assert quant.nominal_upstream_bytes() == quant.inner.nominal_upstream_bytes()


def test_quantized_stochastic_is_unbiased(rng):
    """Averaged over many draws, quantized uploads match the raw delta."""
    d = 50
    delta = rng.normal(size=d)
    total = np.zeros(d)
    trials = 600
    for s in range(trials):
        quant = QuantizedStrategy(FedAvgStrategy(), bits=3)
        quant.setup(d, np.random.default_rng(s))
        total += quant.client_compress(0, delta, 1.0).data["dense"]
    scale = np.abs(delta).max()
    np.testing.assert_allclose(total / trials, delta, atol=scale * 0.05)


def test_quantized_validation():
    with pytest.raises(ValueError):
        QuantizedStrategy(FedAvgStrategy(), bits=0)
    with pytest.raises(ValueError):
        QuantizedStrategy(FedAvgStrategy(), bits=32)


def test_quantized_in_training_loop(tiny_dataset):
    from repro.fl import RunConfig, UniformSampler, run_training

    cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=QuantizedStrategy(STCStrategy(q=0.3), bits=8),
        sampler=UniformSampler(5),
        rounds=8,
        local_steps=2,
        seed=1,
    )
    result = run_training(cfg)
    assert result.num_rounds == 8
    plain_cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        strategy=STCStrategy(q=0.3),
        sampler=UniformSampler(5),
        rounds=8,
        local_steps=2,
        seed=1,
    )
    plain = run_training(plain_cfg)
    assert (
        result.cumulative_up_bytes()[-1] < plain.cumulative_up_bytes()[-1]
    )
