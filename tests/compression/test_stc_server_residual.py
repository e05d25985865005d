import numpy as np
import pytest

from repro.compression import STCStrategy
from tests.compression.rounds import aggregate_payloads


def setup(strategy, d=100, seed=0):
    strategy.setup(d, np.random.default_rng(seed))
    return strategy


def test_server_residual_conserves_aggregate_mass(rng):
    """acc + carried residual == applied update + new residual."""
    s = setup(STCStrategy(q=0.1, server_residual=True))
    delta = rng.normal(size=100)
    payload = s.client_compress(0, delta, 1.0)
    carried = s._server_h.copy()
    agg = aggregate_payloads(s, [(0, 1.0, payload)])
    acc = np.zeros(100)
    acc[payload.data["idx"]] = payload.data["vals"]
    np.testing.assert_allclose(
        acc + carried, agg.global_delta + s._server_h, atol=1e-12
    )


def test_server_residual_recovers_dropped_mass_later(rng):
    """Two clients with disjoint supports: the server's top-q drops one
    client's mass into the residual, which resurfaces the next round."""
    s = setup(STCStrategy(q=0.1, server_residual=True))
    strong = np.zeros(100)
    strong[:10] = 10.0  # wins the server top-10
    weak = np.zeros(100)
    weak[90:] = 1.0  # masked out by the server this round
    agg1 = aggregate_payloads(
        s,
        [
            (0, 1.0, s.client_compress(0, strong, 1.0)),
            (1, 1.0, s.client_compress(1, weak, 1.0)),
        ]
    )
    assert set(agg1.changed_idx) == set(range(10))
    assert np.all(s._server_h[90:] != 0.0)
    # round 2: only quiet traffic; the carried residual now wins the top-10
    quiet = np.full(100, 1e-6)
    agg2 = aggregate_payloads(s, [(2, 1.0, s.client_compress(2, quiet, 1.0))])
    assert set(agg2.changed_idx) == set(range(90, 100))


def test_server_residual_off_by_default(rng):
    s = setup(STCStrategy(q=0.2))
    assert s.server_residual is False
    payload = s.client_compress(0, rng.normal(size=100), 1.0)
    aggregate_payloads(s, [(0, 1.0, payload)])
    np.testing.assert_array_equal(s._server_h, 0.0)


def test_server_residual_in_training_loop(tiny_dataset):
    from repro.fl import RunConfig, UniformSampler, run_training

    cfg = RunConfig(
        dataset=tiny_dataset,
        model_name="mlp",
        model_kwargs={"hidden": (8,)},
        strategy=STCStrategy(q=0.2, server_residual=True),
        sampler=UniformSampler(4),
        rounds=6,
        local_steps=2,
        seed=0,
    )
    result = run_training(cfg)
    assert result.num_rounds == 6
