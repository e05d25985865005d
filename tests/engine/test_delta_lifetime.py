"""The delta-lifetime rule: a dense Δ_i lives from the end of its training
to the end of its ``client_compress``, and its payload until its ``fold``.

Backends deliver each result to the round as it lands; the round
compresses it on the spot and folds the payload into the strategy's open
sums, so a round holds one dense ``d``-vector, one payload and the sums —
what it holds does not grow with K.  The one reader that used to need all
K deltas after the batch was compressed, the sampler's norm feedback, now
rides the same hand-off; its observable sequence is pinned against the old
"after the whole batch" timing.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.compression import FedAvgStrategy, GlueFLMaskStrategy
from repro.compression.topk import ratio_to_k
from repro.fl import FLServer, RunConfig, UniformSampler
from repro.fl.extra_samplers import OptimalClientSampler
from repro.privacy import PrivateStrategy


def _gluefl(regen_interval=10):
    return GlueFLMaskStrategy(q=0.1, q_shr=0.08, regen_interval=regen_interval)


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


def _warm_round_peak(dataset, k, scheduler, strategy):
    """``(tracemalloc peak above the round's starting level, largest
    payload's array bytes, bytes of one dense delta)`` of the 4th round of
    a server running ``strategy`` (three rounds warm it up)."""
    server = _server(dataset, k, scheduler, strategy=strategy)
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
def test_regen_round_memory_is_flat_in_k(tiny_dataset, scheduler):
    """GlueFL's mask-regeneration round is its widest: M_t is empty, so
    every client uploads a full top-q.  Twelve more participants there
    raise the round's peak by at most two such payloads plus two dense
    vectors of slack (K-sized bookkeeping, allocator noise) — each payload
    is folded into the open sums and dropped as it is compressed — where
    holding the payloads to the end of the round costs twelve."""
    make = lambda: _gluefl(regen_interval=4)  # round 4 regenerates
    peak_4, _, _ = _warm_round_peak(tiny_dataset, 4, scheduler, make())
    strategy = make()
    peak_16, payload, dense = _warm_round_peak(tiny_dataset, 16, scheduler, strategy)
    assert strategy.is_regen_round
    assert payload == ratio_to_k(strategy.q, strategy.d) * (8 + 4)
    assert dense > 400_000 and payload < dense / 2
    assert peak_16 - peak_4 <= 2 * payload + 2 * dense


@pytest.mark.parametrize("scheduler", ["sync", "semiasync"])
def test_fedavg_round_memory_is_flat_in_k(tiny_dataset, scheduler):
    """The Table 2 baseline uploads dense ``delta.copy()`` payloads; folded
    on arrival, twelve more of them cost at most three dense vectors of
    slack, not twelve."""
    peak_4, _, _ = _warm_round_peak(tiny_dataset, 4, scheduler, FedAvgStrategy())
    peak_16, payload, dense = _warm_round_peak(
        tiny_dataset, 16, scheduler, FedAvgStrategy()
    )
    assert payload == dense > 400_000
    assert peak_16 - peak_4 <= 3 * dense


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

    def aggregate_after_feedback():
        expected.extend(
            (cid, float(strategy.feedback_norm(cid, delta))) for cid, delta in in_round
        )
        del in_round[:]
        return aggregate()

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
        **({"async_buffer_size": 3} if scheduler == "async" else {}),
    )
    expected = _batch_end_oracle(server.strategy)
    try:
        for _ in range(5):
            server.run_round()
    finally:
        server.close()
    assert len(expected) >= 15
    assert sampler.observed == expected
