"""The delta-lifetime rule: a dense Δ_i lives from the end of its training
to the end of its ``client_compress``.

Backends deliver each result to the round as it lands and the round
compresses it on the spot, so what a sync round holds per extra participant
is one ``q·d`` payload — never one more dense ``d``-vector.  The one reader
that used to need all K deltas after the batch was compressed, the
sampler's norm feedback, now rides the same hand-off; its observable
sequence is pinned against the old "after the whole batch" timing.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.compression import GlueFLMaskStrategy
from repro.fl import FLServer, RunConfig, UniformSampler
from repro.fl.extra_samplers import OptimalClientSampler
from repro.privacy import PrivateStrategy


def _gluefl():
    return GlueFLMaskStrategy(q=0.1, q_shr=0.08, regen_interval=10)


def _server(dataset, k, scheduler, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        model_kwargs={"hidden": (1500,)},  # d = 103 504
        strategy=_gluefl(),
        sampler=UniformSampler(k),
        scheduler=scheduler,
        overcommit=1.0,
        always_available=True,
        dropout_prob=0.0,
        rounds=50,
        local_steps=1,
        batch_size=8,
        lr=0.05,
        eval_every=50,
        dtype="float32",
        seed=5,
    )
    params.update(overrides)
    return FLServer(RunConfig(**params))


def _warm_round_peak(dataset, k, scheduler):
    """``(tracemalloc peak above the round's starting level, largest
    payload's array bytes, bytes of one dense delta)`` of one round of a
    server that has already run three."""
    server = _server(dataset, k, scheduler)
    payload_bytes = []
    compress = server.strategy.client_compress

    def spy(client_id, delta, weight):
        payload = compress(client_id, delta, weight)
        payload_bytes.append(
            sum(v.nbytes for v in payload.data.values() if isinstance(v, np.ndarray))
        )
        return payload

    server.strategy.client_compress = spy
    try:
        for _ in range(3):
            server.run_round()
        del payload_bytes[:]
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            record = server.run_round()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        server.close()
    assert record.num_participants == k == len(payload_bytes)
    dense = server.view.num_trainable * server.global_params.itemsize
    return peak - before, max(payload_bytes), dense


@pytest.mark.parametrize("scheduler", ["sync", "semiasync"])
def test_extra_participants_cost_payloads_not_dense_deltas(tiny_dataset, scheduler):
    """Twelve more participants raise a round's peak by twelve payloads
    (plus slack for K-sized aggregation temporaries), not by twelve dense
    deltas — which alone would be ``12 × 4d``."""
    peak_4, _, _ = _warm_round_peak(tiny_dataset, 4, scheduler)
    peak_16, payload, dense = _warm_round_peak(tiny_dataset, 16, scheduler)
    assert dense > 400_000 and payload < dense / 4
    assert peak_16 - peak_4 <= 12 * payload + 2 * dense


# -- norm feedback moved to the hand-off ------------------------------------------


class _RecordingOCS(OptimalClientSampler):
    def __init__(self, k):
        super().__init__(k)
        self.observed = []

    def observe_update(self, client_id, norm):
        self.observed.append((int(client_id), float(norm)))
        super().observe_update(client_id, norm)


def _batch_end_oracle(strategy):
    """Replay the old hook on ``strategy``: once the whole batch is
    compressed (``aggregate`` is the first call after that), ask
    ``feedback_norm`` for every result in order.  Returns the list the
    ``(cid, norm)`` pairs accumulate in."""
    expected, in_round = [], []
    compress, aggregate = strategy.client_compress, strategy.aggregate

    def client_compress(client_id, delta, weight):
        payload = compress(client_id, delta, weight)
        in_round.append((int(client_id), np.array(delta, copy=True)))
        return payload

    def aggregate_after_feedback(payloads):
        expected.extend(
            (cid, float(strategy.feedback_norm(cid, delta))) for cid, delta in in_round
        )
        del in_round[:]
        return aggregate(payloads)

    strategy.client_compress = client_compress
    strategy.aggregate = aggregate_after_feedback
    return expected


@pytest.mark.parametrize(
    "make_strategy",
    [
        pytest.param(_gluefl, id="gluefl"),
        pytest.param(
            lambda: PrivateStrategy(
                _gluefl(), clip_norm=0.5, noise_multiplier=1.0, values_only=True
            ),
            id="private-gluefl",
        ),
    ],
)
@pytest.mark.parametrize("scheduler", ["sync", "semiasync", "async"])
def test_norm_feedback_sequence_is_the_batch_end_hooks(
    tiny_dataset, make_strategy, scheduler
):
    """Per result, right after its own compress, the sampler observes the
    same ``(cid, norm)`` sequence the batch-end hook fed it — privatized
    under a privacy wrapper (its ``_observed`` entry is written by that
    compress), the raw ``‖Δ‖₂`` otherwise."""
    sampler = _RecordingOCS(5)
    server = _server(
        tiny_dataset, 5, scheduler,
        strategy=make_strategy(), sampler=sampler, overcommit=1.4,
        model_kwargs={"hidden": (16,)}, local_steps=2,
        async_buffer_size=3,
    )
    expected = _batch_end_oracle(server.strategy)
    try:
        for _ in range(5):
            server.run_round()
    finally:
        server.close()
    assert len(expected) >= 15
    assert sampler.observed == expected
