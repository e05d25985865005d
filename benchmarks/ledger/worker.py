"""One run of one workload, in a process of its own.

Spawned by ``run.py``; not meant to be run by hand.  Protocol: build the
workload from ``--seed``, construct ``FLServer``, run one warm-up round
(everything so far is set-up), then run ``--horizon`` rounds — the fixed
stretch every simulated metric is taken over — and keep going until
``--seconds`` of timed rounds have passed.  Each ``run_round()`` is timed
on its own with ``perf_counter``; closed loop, one driver.  ``--horizon 0``
is a set-up probe: warm up, close, time the calibration kernel, exit.

With ``--trace 1`` the timing wrappers of ``tracer.LAYER_PROBES`` go on
the live objects after the warm-up round and exactly ``--horizon`` rounds
run; the result then carries per-layer metrics instead of host metrics.

The last stdout line is one JSON object (see :func:`run`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: calibration samples a set-up probe takes after its set-up is over
PROBE_CALIBRATIONS = 5

RECORD_FIELDS = (
    "round_idx", "down_bytes", "up_bytes", "round_seconds", "wall_clock_s",
    "accuracy", "num_candidates", "num_participants", "quorum_failed",
)


def _import_program() -> None:
    """Put this checkout's ``src`` first and refuse any other ``repro``."""
    for var in BLAS_ENV:
        # GEMM reduction order depends on the BLAS thread count and flips
        # top-k ties, so unpinned runs do not repeat their simulated bytes
        if os.environ.get(var) != "1":
            raise SystemExit(f"{var} must be 1 (run.py sets it)")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if ROOT not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT}/src")


def make_calibrate():
    """A fixed ~25 ms kernel with the simulator's mix of work — interpreter
    loop, im2col-sized float32 GEMMs, a selection over a d=475k vector —
    whose time tracks how fast the host is *right now* (see
    ``metrics.host_speed``).  It never touches ``repro``."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(160, 144)).astype(np.float32)
    b = rng.normal(size=(144, 64)).astype(np.float32)
    v = rng.normal(size=475_000).astype(np.float32)
    clock = time.perf_counter

    def calibrate() -> float:
        t0 = clock()
        acc, table = 0, {}
        for i in range(90_000):
            table[i & 255] = acc
            acc += i * 3 % 7
        for _ in range(300):
            c = a @ b
            np.maximum(c, 0.0, out=c)
        for _ in range(6):
            np.argpartition(np.abs(v), 380_000)
        return clock() - t0

    return calibrate


def _row(record) -> dict:
    return {name: getattr(record, name) for name in RECORD_FIELDS}


def _rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (the
    process-backend workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _traced_metrics(tracer, spans, server, rows, sim, idle, calib_s):
    """Per-layer metrics of a traced run, and the checks only it can make."""
    import metrics
    from repro.network.encoding import dense_bytes
    from tracer import self_times

    busy, calls = self_times(spans)
    durations = {metrics.ROOT_SEAM: [], "runtime.run_clients": []}
    for span in spans:
        if span["name"] in durations:
            durations[span["name"]].append(span["end"] - span["start"])
    out = metrics.layer_metrics(
        busy, calls, tracer.counters, rows, durations[metrics.ROOT_SEAM], sim,
        {
            "run_clients_span_s": sum(durations["runtime.run_clients"]),
            "workers": getattr(server.backend, "workers", 1),
            "materialized_clients": server.staleness.materialized_clients,
            "idle_mean": sum(idle) / len(idle) if idle else 0.0,
            "mask_overhead_bytes": server.strategy.downstream_extra_bytes(),
            "spans": len(spans),
            "calib_s": calib_s,
        },
    )
    failures = []
    attributed = sum(busy.values())
    if abs(attributed - out["trace.run_s"]) > 1e-6 * out["trace.run_s"]:
        failures.append(
            f"self times sum to {attributed!r}, rounds to {out['trace.run_s']!r}"
        )
    # every upload is priced at the client_compress seam, plus the dense
    # batch-norm buffer shipment the engine adds per update
    seam_up = int(tracer.counters["network.up_bytes"]) + dense_bytes(
        server.view.num_buffer
    ) * calls.get("compression.client_compress", 0)
    record_up = sum(r["up_bytes"] for r in rows)
    if seam_up != record_up:
        failures.append(f"seam counted {seam_up} up bytes, records {record_up}")
    return out, failures


def run(args) -> dict:
    """Run the workload; returns ``calib_s`` for a set-up probe, else
    ``attempted``, ``failed_rounds``, ``failures`` (check messages),
    ``metrics`` (host + simulated, or per-layer when traced), ``sim``,
    ``digest`` (SHA-256 of the global model at the horizon),
    ``horizon_run_s``, ``host_speed`` and ``host``."""
    import numpy as np

    import metrics
    from repro.fl.server import FLServer
    from workloads import WORKLOADS, derive_seeds

    workload = WORKLOADS[args.workload]
    server = FLServer(workload.build(derive_seeds(args.seed)))
    warm = _row(server.run_round())
    calibrate = make_calibrate()
    if args.horizon == 0:
        server.close()
        # set-up is over; the supervisor takes these out of its wall time
        return {"calib_s": [calibrate() for _ in range(PROBE_CALIBRATIONS)]}

    tracer = None
    run_round = server.run_round
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.attach(server, workload.absent_layers)
        run_round = tracer.root(server.run_round)

    clock = time.perf_counter
    segment = 2 * workload.eval_every
    rows, round_s, idle = [], [], []
    calib_s = [calibrate()]
    elapsed = 0.0
    while len(rows) < args.horizon or (tracer is None and elapsed < args.seconds):
        if tracer is not None:
            tracer.round_idx = len(rows)
        t0 = clock()
        record = run_round()
        round_s.append(clock() - t0)
        elapsed += round_s[-1]
        rows.append(_row(record))
        if len(rows) == args.horizon:
            # hashed between rounds, outside every timed interval
            digest = hashlib.sha256(server.global_params.tobytes()).hexdigest()
        if tracer is not None and server.population is not None:
            idle.append(server.population.state_counts()["idle"])
        if len(rows) % segment == 0:
            # between pieces, outside every timed interval
            calib_s.append(calibrate())

    failures = metrics.check_records(warm, rows)
    sim, missed = metrics.simulated_metrics(
        rows[: args.horizon], args.target, warm["wall_clock_s"]
    )
    if missed:
        failures.append(missed)
    if tracer is None:
        server.close()
        # after close: the pool's workers are waited for, so they count
        values = {
            "rounds_per_s": metrics.rounds_per_s(round_s, segment, calib_s),
            "peak_rss_mb": _rss_mb(),
        }
        values.update(
            (k, v) for k, v in sim.items() if k not in metrics.DEMOTED
        )
    else:
        from tracer import write_chrome_trace, write_jsonl

        spans = tracer.span_dicts()
        values, more = _traced_metrics(
            tracer, spans, server, rows, sim, idle, calib_s
        )
        failures.extend(more)
        if args.spans_out:
            stem = Path(args.spans_out) / workload.name
            stem.parent.mkdir(parents=True, exist_ok=True)
            write_jsonl(spans, f"{stem}.spans.jsonl")
            write_chrome_trace(spans, f"{stem}.chrome.json")
        tracer.detach()
        server.close()
    return {
        "attempted": len(rows),
        "failed_rounds": metrics.failed_rounds(rows),
        "failures": failures,
        "metrics": values,
        "sim": sim,
        "digest": digest,
        "horizon_run_s": sum(round_s[: args.horizon]),
        "host_speed": metrics.host_speed(calib_s),
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--target", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    _import_program()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
