"""The server round's sums: fresh per round, the plain loop's bits, and
residual compensation costs one vector."""

import tracemalloc

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, GlueFLMaskStrategy
from repro.compression.base import ClientPayload
from tests.compression import server_reference as reference
from tests.compression.rounds import aggregate_payloads

pytestmark = pytest.mark.server_kernels


def dense_payloads(rng, length, key, n=4, dtype=np.float32):
    return [
        (
            cid,
            float(rng.uniform(0.5, 2.0)),
            ClientPayload(0, data={key: rng.normal(size=length).astype(dtype)}),
        )
        for cid in range(n)
    ]


def test_dense_weighted_sum_is_fresh_and_exact():
    """The FedAvg sum escapes as the global delta, so each round's is a
    fresh allocation, and the plain loop's bits."""
    rng = np.random.default_rng(11)
    d = 97
    payloads = dense_payloads(rng, d, "dense", n=3, dtype=np.float64)
    ref = reference.slice_weighted_sum(payloads, "dense", d, np.float64)
    fedavg = FedAvgStrategy()
    fedavg.setup(d, rng)
    got1 = aggregate_payloads(fedavg, payloads).global_delta
    got2 = aggregate_payloads(fedavg, payloads).global_delta
    np.testing.assert_array_equal(ref, got1)
    assert got1 is not got2  # fresh allocation per round


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compensate_allocates_one_vector():
    """Residuals are flat client-side state: ``compensate`` returns one
    d-sized vector and allocates no second one beside it."""
    rng = np.random.default_rng(29)
    d = 100_000
    s = GlueFLMaskStrategy(q=0.2, q_shr=0.1)
    s.setup(d, rng, dtype=np.float32)
    s.begin_round(1)
    s.client_compress(0, rng.normal(size=d).astype(np.float32), 0.5)
    delta = rng.normal(size=d).astype(np.float32)
    stored, weight = s.residuals.peek(0)
    assert stored.shape == (d,)
    out = s.residuals.compensate(0, delta, 0.25)
    np.testing.assert_array_equal(
        out, reference.residual_round_trip(stored, delta, weight / 0.25)
    )
    peak = traced_peak(lambda: s.residuals.compensate(0, delta, 0.25))
    assert peak < 1.1 * delta.nbytes
