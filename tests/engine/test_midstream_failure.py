"""A failure mid-stream ends the round cleanly, on every backend.

Training runs inside ``strategy_round`` interleaved with compression, so a
round can now fail *between* two clients' compresses — when a later task's
training raises, or the hand-off itself does.  Either way the error
propagates as itself, the opened strategy round is aborted exactly once (a
GlueFL regeneration round re-arms), the global model and the staleness
version are untouched, the backend is left idle and usable, and the next
``run_round()`` is an ordinary round.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compression import GlueFLMaskStrategy
from repro.fl import FLServer, RunConfig, UniformSampler


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


@pytest.mark.parametrize("fault", ["train", "deliver"])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_round_failing_at_its_third_client_aborts_cleanly(
    tiny_dataset, backend, fault
):
    strategy = GlueFLMaskStrategy(q=0.3, q_shr=0.15, regen_interval=3)
    server = FLServer(
        RunConfig(
            dataset=tiny_dataset,
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
    lifecycle = []
    begin, abort, compress = (
        strategy.begin_round, strategy.abort_round, strategy.client_compress,
    )

    def begin_round(t):
        begin(t)
        lifecycle.append(("begin", t, strategy.is_regen_round))

    def abort_round(t):
        lifecycle.append(("abort", t))
        abort(t)

    def client_compress(cid, delta, weight):
        lifecycle.append(("compress", cid))
        return compress(cid, delta, weight)

    strategy.begin_round, strategy.abort_round = begin_round, abort_round
    strategy.client_compress = client_compress
    try:
        server.run_round()
        server.run_round()
        params, version = server.global_params, server.staleness.version
        params_bytes = params.tobytes()
        del lifecycle[:]

        faulty.armed = fault  # round 3: a scheduled regeneration round
        error = ValueError if fault == "train" else HandOffBroke
        with pytest.raises(error):
            server.run_round()

        # two clients were compressed (their residuals are recorded — the
        # exposure a failing client_compress always had), then one abort
        assert [e[0] for e in lifecycle] == ["begin", "compress", "compress", "abort"]
        assert lifecycle[0] == ("begin", 3, True)
        assert server.global_params is params
        assert server.global_params.tobytes() == params_bytes
        assert server.staleness.version == version
        inner = faulty.inner
        if backend == "thread":
            assert inner._replicas.qsize() == inner.workers
            assert inner._pool._work_queue.qsize() == 0

        # the next round is a whole one, and runs as the missed regen round
        del lifecycle[:]
        record = server.run_round()
        assert record.num_participants == 5
        assert lifecycle[0] == ("begin", 4, True)
        assert [e[0] for e in lifecycle].count("compress") == 5
        assert "abort" not in [e[0] for e in lifecycle]
        assert server.staleness.version == version + 1
        assert not np.array_equal(server.global_params, params)
    finally:
        server.close()
