"""A failure mid-stream ends the round cleanly, on every backend.

Training runs inside ``strategy_round`` interleaved with compression and
the fold into the strategy's open sums, so a round can fail *between* two
clients' folds — when a later task's training raises, or the hand-off
itself does.  Either way the error propagates as itself, the opened
strategy round is aborted exactly once and its open sums are dropped
(through any wrapper), a GlueFL regeneration round re-arms, the global
model and the staleness version are untouched, the backend is left idle
and usable, and the next ``run_round()`` is an ordinary round that
aggregates exactly its own payloads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compression import GlueFLMaskStrategy, QuantizedStrategy, STCStrategy
from repro.fl import FLServer, RunConfig, UniformSampler
from repro.privacy import PrivateStrategy
from tests.compression import server_reference as reference


class HandOffBroke(Exception):
    pass


class FaultyBackend:
    """Wraps an ExecutionBackend; once armed, the next dispatch fails at
    its third task — in that task's training (``LocalTrainer.run`` rejects
    a zero step override) or in the hand-off of its result."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = None

    def run_clients(self, tasks, global_params, global_buffers, deliver):
        armed, self.armed = self.armed, None
        if armed == "train":
            tasks = [
                dataclasses.replace(task, local_steps=0) if i == 2 else task
                for i, task in enumerate(tasks)
            ]
        elif armed == "deliver":
            inner_deliver, count = deliver, iter(range(len(tasks)))

            def deliver(result):
                if next(count) == 2:
                    raise HandOffBroke(result.client_id)
                inner_deliver(result)

        self.inner.run_clients(tasks, global_params, global_buffers, deliver)

    def close(self):
        self.inner.close()


def _innermost(strategy):
    while hasattr(strategy, "inner"):
        strategy = strategy.inner
    return strategy


def _holds_open_sums(strategy):
    """Whether any strategy down the wrapper chain has a round's sums open."""
    while strategy is not None:
        if strategy._sums is not None:
            return True
        strategy = getattr(strategy, "inner", None)
    return False


def _fail_round_three_then_recover(dataset, backend, fault, strategy):
    """Run two rounds, fail round 3 at its third client — after two folds —
    with ``fault``, then run round 4; assert what every strategy owes."""
    server = FLServer(
        RunConfig(
            dataset=dataset,
            model_name="mlp",
            model_kwargs={"hidden": (16,)},
            strategy=strategy,
            sampler=UniformSampler(5),
            rounds=10,
            local_steps=2,
            batch_size=8,
            lr=0.05,
            eval_every=10,
            seed=3,
            always_available=True,
            dropout_prob=0.0,
            execution_backend=backend,
            backend_workers=2,
        )
    )
    faulty = server._backend = FaultyBackend(server.backend)
    gluefl = _innermost(strategy)
    lifecycle, payloads, aggregated = [], [], []
    begin, abort, compress, fold, aggregate = (
        strategy.begin_round, strategy.abort_round, strategy.client_compress,
        strategy.fold, strategy.aggregate,
    )

    def begin_round(t):
        begin(t)
        del payloads[:]
        lifecycle.append(("begin", t, getattr(gluefl, "is_regen_round", None)))

    def abort_round(t):
        lifecycle.append(("abort", t, _holds_open_sums(strategy)))
        abort(t)

    def client_compress(cid, delta, weight):
        lifecycle.append(("compress", cid))
        payload = compress(cid, delta, weight)
        payloads.append((cid, weight, payload))
        return payload

    def fold_in(weight, payload):
        lifecycle.append(("fold",))
        fold(weight, payload)

    def aggregate_round():
        # the textbook round over exactly this round's payloads, read off
        # the strategy state the real aggregate is about to use
        want = reference.strategy_round(strategy, list(payloads))
        agg = aggregate()
        aggregated.append((want, agg))
        return agg

    strategy.begin_round, strategy.abort_round = begin_round, abort_round
    strategy.client_compress, strategy.fold = client_compress, fold_in
    strategy.aggregate = aggregate_round
    try:
        server.run_round()
        server.run_round()
        params, version = server.global_params, server.staleness.version
        params_bytes = params.tobytes()
        del lifecycle[:]

        faulty.armed = fault  # round 3
        error = ValueError if fault == "train" else HandOffBroke
        with pytest.raises(error):
            server.run_round()

        # two clients were compressed and folded (their residuals are
        # recorded — the exposure a failing client_compress always had),
        # then one abort found the sums open and dropped them
        assert [e[0] for e in lifecycle] == [
            "begin", "compress", "fold", "compress", "fold", "abort"
        ]
        assert lifecycle[-1] == ("abort", 3, True)
        assert not _holds_open_sums(strategy)
        assert server.global_params is params
        assert server.global_params.tobytes() == params_bytes
        assert server.staleness.version == version

        # the next round is a whole one: it aggregates its own five
        # payloads and nothing the failed round folded
        del lifecycle[:], aggregated[:]
        record = server.run_round()
        assert record.num_participants == 5
        assert [e[0] for e in lifecycle].count("fold") == 5
        assert "abort" not in [e[0] for e in lifecycle]
        assert len(payloads) == 5 and len(aggregated) == 1
        (want_delta, want_idx), agg = aggregated[0]
        np.testing.assert_array_equal(agg.global_delta, want_delta)
        np.testing.assert_array_equal(agg.changed_idx, want_idx)
        assert not _holds_open_sums(strategy)
        assert server.staleness.version == version + 1
        assert not np.array_equal(server.global_params, params)
        return lifecycle
    finally:
        server.close()


@pytest.mark.parametrize("fault", ["train", "deliver"])
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_round_failing_at_its_third_client_aborts_cleanly(
    tiny_dataset, backend, fault
):
    strategy = GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=3)
    recovered = _fail_round_three_then_recover(
        tiny_dataset, backend, fault, strategy
    )
    # round 3 was a scheduled regeneration; it aborted, so round 4 runs as
    # the missed regen round
    assert recovered[0] == ("begin", 4, True)
    assert not strategy._regen_pending


@pytest.mark.parametrize("fault", ["train", "deliver"])
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize(
    "make_strategy",
    [
        pytest.param(
            lambda: PrivateStrategy(
                GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=3),
                clip_norm=0.5, noise_multiplier=1.0, values_only=True,
            ),
            id="private-gluefl",
        ),
        pytest.param(
            lambda: QuantizedStrategy(STCStrategy(q=0.3), bits=8),
            id="quantized-stc",
        ),
    ],
)
def test_wrapped_round_failing_after_two_folds_drops_its_sums(
    tiny_dataset, backend, fault, make_strategy
):
    """The open sums live in the wrapped strategy; the wrapper's
    ``abort_round`` must reach them."""
    strategy = make_strategy()
    recovered = _fail_round_three_then_recover(
        tiny_dataset, backend, fault, strategy
    )
    if isinstance(strategy.inner, GlueFLMaskStrategy):
        assert recovered[0] == ("begin", 4, True)
