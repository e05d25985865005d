"""Metric tables and the arithmetic that turns round records into them.

*Host* metrics time the simulator; *simulated* metrics (``sim_*``,
``final_accuracy``) are what the modelled federation did over the
workload's fixed horizon and repeat exactly for a fixed ``--seed``.
``BENCHMARK.json`` mirrors :data:`END_TO_END` and :data:`PER_LAYER`
(the smoke test holds the two in sync).

Pure stdlib: the supervisor imports this without numpy.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ACCURACY_WINDOW", "DEMOTED", "END_TO_END", "PER_LAYER", "ROOT_SEAM",
    "check_records", "host_speed", "layer_metrics", "rounds_per_s",
    "simulated_metrics",
]

#: seam name of the per-round root span (``FLServer.run_round``); its self
#: time is what no probe claims
ROOT_SEAM = "engine.round"

#: quiet-floor time of ``worker.make_calibrate()``'s kernel on the reference host (2
#: vCPUs, numpy 2.4.6/OpenBLAS, one BLAS thread), run on its own; host
#: time is reported in seconds of a host running the kernel at this speed.
#: Between a workload's rounds the kernel starts with colder caches, so a
#: quiet run reads a host speed of ~0.95, not 1.
CAL_REFERENCE_S = 0.0245

#: evaluations averaged before the target test (the paper smooths over 5)
ACCURACY_WINDOW = 5

#: (name, unit, better, bound).  A bound is the share of the parent's
#: median a metric may worsen by.  The driver takes each metric's spread
#: across ten *different* seeds, so each bound is at least 3x the widest
#: across-seed interquartile spread measured on the four workloads
#: (README, "Measured spreads"), capped at the contract's 0.25.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("sim_down_mb", "MB", "lower", 0.05),
    ("sim_total_mb", "MB", "lower", 0.05),
    ("final_accuracy", "fraction", "higher", 0.25),
)

#: simulated statistics that swing 15-50 % from seed to seed (one slow
#: client sets a round's time; a target crossing moves by whole eval
#: periods) and so cannot carry a bound under the across-seed protocol.
#: Per the issue's rule they are demoted to per-layer metrics, never
#: given a looser bound; for one seed they still repeat exactly.
DEMOTED = {
    "sim_wall_clock_s": "engine.sim_wall_clock_s",
    "sim_time_to_target_s": "fl.time_to_target_s",
    "sim_down_mb_to_target": "fl.down_mb_to_target",
}

#: seams reporting ``<seam>.busy_s`` (self time) and ``<seam>.calls``
SEAMS = (
    "runtime.run_clients", "nn.forward", "nn.backward", "nn.optim_step",
    "datasets.shard_fetch", "datasets.shard_build",
    "compression.client_compress", "compression.aggregate",
    "compression.end_round", "compression.begin_round",
    "fl.sampler", "fl.staleness", "fl.evaluate",
    "population.advance", "population.transitions", "population.reads",
    "engine.clock",
)

_EXTRA_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.sim_wall_clock_s", "s", "lower"),
    ("fl.time_to_target_s", "s", "lower"),
    ("fl.down_mb_to_target", "MB", "lower"),
    ("runtime.run_clients.span_s", "s", "lower"),
    ("runtime.tasks", "count", "higher"),
    ("runtime.task_ms", "ms", "lower"),
    ("runtime.workers", "count", "higher"),
    ("compression.up_bytes_per_update", "B", "lower"),
    ("compression.changed_positions_per_round", "count", "lower"),
    ("fl.sampler.candidates", "count", "lower"),
    ("fl.sampler.participants", "count", "higher"),
    ("fl.sampler.participant_ratio", "fraction", "higher"),
    ("fl.staleness.materialized_clients", "count", "lower"),
    ("population.work_completion_ratio", "fraction", "higher"),
    ("population.idle_mean", "count", "higher"),
    ("engine.clock.events_per_round", "count", "lower"),
    ("engine.round_self_s", "s", "lower"),
    ("engine.rounds", "count", "higher"),
    ("engine.empty_rounds", "count", "lower"),
    ("engine.round_ms_p50", "ms", "lower"),
    ("engine.round_ms_p90", "ms", "lower"),
    ("engine.round_ms_max", "ms", "lower"),
    ("network.down_bytes_per_candidate", "B", "lower"),
    ("network.mask_overhead_bytes", "B", "lower"),
    ("network.up_bytes", "B", "lower"),
    ("trace.host_speed", "fraction", "higher"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
    ("trace.spans", "count", "lower"),
)

#: (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    row
    for seam in SEAMS
    for row in ((f"{seam}.busy_s", "s", "lower"), (f"{seam}.calls", "count", "lower"))
) + _EXTRA_LAYER


# -- records -----------------------------------------------------------------
def check_records(warm: dict, rows: Sequence[dict]) -> List[str]:
    """Invariants the record stream after the ``warm``-up round's record
    must satisfy; returns failures."""
    failures = []
    clock = warm["wall_clock_s"]
    candidates, participants = warm["num_candidates"], warm["num_participants"]
    for row in rows:
        # cumulative: a semi-async straggler participates in a later round
        # than the one it was a candidate of
        candidates += row["num_candidates"]
        participants += row["num_participants"]
        if participants > candidates:
            failures.append(f"round {row['round_idx']}: participants > candidates")
        if row["wall_clock_s"] < clock:
            failures.append(f"round {row['round_idx']}: clock went backwards")
        expect = clock + row["round_seconds"]
        if abs(expect - row["wall_clock_s"]) > 1e-9 * max(1.0, abs(expect)):
            failures.append(
                f"round {row['round_idx']}: cumsum(round_seconds) {expect!r} "
                f"!= wall_clock_s {row['wall_clock_s']!r}"
            )
        clock = row["wall_clock_s"]
    return failures


def failed_rounds(rows: Sequence[dict]) -> int:
    """Rounds that produced no aggregate (nobody arrived, or quorum lost)."""
    return sum(
        1 for r in rows if r["num_participants"] == 0 or r["quorum_failed"]
    )


def _smoothed(rows: Sequence[dict]) -> List[Tuple[int, float]]:
    """``(row position, mean of the last ACCURACY_WINDOW evals)`` per eval."""
    evals = [(i, r["accuracy"]) for i, r in enumerate(rows) if r["accuracy"] is not None]
    return [
        (pos, statistics.fmean(a for _, a in evals[max(0, j - ACCURACY_WINDOW + 1) : j + 1]))
        for j, (pos, _) in enumerate(evals)
    ]


def simulated_metrics(
    rows: Sequence[dict], target: float, clock_start: float
) -> Tuple[Dict[str, float], Optional[str]]:
    """The paper's volume/time accounting over the horizon's records.

    Returns the metrics and, when the smoothed accuracy never reaches
    ``target``, the failure message (the at-target metrics then fall back
    to the full-horizon totals so every name is still reported).
    """
    smoothed = _smoothed(rows)
    down = [r["down_bytes"] for r in rows]
    hit = next((pos for pos, acc in smoothed if acc >= target), None)
    failure = None
    if hit is None:
        best = max((acc for _, acc in smoothed), default=0.0)
        failure = f"target accuracy {target} not reached (best smoothed {best:.4f})"
        hit = len(rows) - 1
    out = {
        "sim_down_mb": sum(down) / 1e6,
        "sim_total_mb": (sum(down) + sum(r["up_bytes"] for r in rows)) / 1e6,
        "sim_wall_clock_s": rows[-1]["wall_clock_s"] - clock_start,
        "sim_time_to_target_s": rows[hit]["wall_clock_s"] - clock_start,
        "sim_down_mb_to_target": sum(down[: hit + 1]) / 1e6,
        "final_accuracy": smoothed[-1][1] if smoothed else 0.0,
    }
    return out, failure


def _fast_quartile(seconds: Sequence[float]) -> float:
    """Lower quartile of timings (the fastest one when too few to cut)."""
    if len(seconds) < 4:
        return min(seconds)
    return statistics.quantiles(seconds, n=4)[0]


def host_speed(calib_s: Sequence[float]) -> float:
    """Speed of the host while ``calib_s`` were taken, as a share of the
    quiet reference host's (1.0 there; 0.8 under a noisy neighbour)."""
    return CAL_REFERENCE_S / _fast_quartile(calib_s)


def rounds_per_s(
    round_s: Sequence[float], segment: int, calib_s: Sequence[float]
) -> float:
    """Upper-quartile throughput over consecutive ``segment``-round pieces,
    divided by the :func:`host_speed` measured between the pieces.

    Host noise on a shared VM only ever slows things down (measured: a
    clean floor with a one-sided tail), in sub-second bursts and in
    episodes of -20 % that last minutes.  The upper quartile of the pieces
    drops the bursts; dividing by the host speed — the fast quartile of a
    fixed calibration kernel timed between the pieces — cancels the
    episodes.  ``segment`` is a multiple of the workload's eval period, so
    every piece holds the same mix of plain, eval and mask-regeneration
    rounds.  With fewer than four whole pieces (``--quick``) the rate is
    plain rounds / seconds.
    """
    pieces = [
        segment / sum(round_s[i : i + segment])
        for i in range(0, len(round_s) - segment + 1, segment)
    ]
    if len(pieces) < 4:
        rate = len(round_s) / sum(round_s)
    else:
        rate = statistics.quantiles(pieces, n=4)[2]
    return rate / host_speed(calib_s)


# -- per-layer ---------------------------------------------------------------
def layer_metrics(
    busy: Dict[str, float],
    calls: Dict[str, int],
    counters: Dict[str, float],
    rows: Sequence[dict],
    round_s: Sequence[float],
    sim: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``busy``/``calls`` come from :func:`tracer.self_times`, ``counters``
    from the probes' count hooks, ``sim`` from :func:`simulated_metrics`
    (its :data:`DEMOTED` entries are reported here), ``extras`` carries
    what only the run process can read (workers, materialized clients,
    idle mean, span totals).  ``trace.overhead_share`` needs the untraced
    twin run and is added by the supervisor.
    """
    rounds = len(rows)
    out = {}
    for seam in SEAMS:
        out[f"{seam}.busy_s"] = busy.get(seam, 0.0)
        out[f"{seam}.calls"] = calls.get(seam, 0)
    run_s = sum(round_s)
    tasks = counters.get("runtime.tasks", 0)
    updates = calls.get("compression.client_compress", 0)
    candidates = sum(r["num_candidates"] for r in rows)
    participants = sum(r["num_participants"] for r in rows)
    begun = counters.get("population.work_begun", 0)
    ordered = sorted(round_s)
    out.update({layer_name: sim[name] for name, layer_name in DEMOTED.items()})
    out.update({
        "runtime.run_clients.span_s": extras["run_clients_span_s"],
        "runtime.tasks": tasks,
        "runtime.task_ms": extras["run_clients_span_s"] / tasks * 1e3 if tasks else 0.0,
        "runtime.workers": extras["workers"],
        "compression.up_bytes_per_update":
            counters.get("network.up_bytes", 0) / updates if updates else 0.0,
        "compression.changed_positions_per_round":
            counters.get("compression.changed_positions", 0) / rounds,
        "fl.sampler.candidates": candidates,
        "fl.sampler.participants": participants,
        "fl.sampler.participant_ratio": participants / candidates if candidates else 0.0,
        "fl.staleness.materialized_clients": extras["materialized_clients"],
        "population.work_completion_ratio":
            counters.get("population.work_completed", 0) / begun if begun else 0.0,
        "population.idle_mean": extras["idle_mean"],
        "engine.clock.events_per_round": counters.get("engine.clock.events", 0) / rounds,
        "engine.round_self_s": busy.get(ROOT_SEAM, 0.0),
        "engine.rounds": rounds,
        "engine.empty_rounds": failed_rounds(rows),
        "engine.round_ms_p50": statistics.median(ordered) * 1e3,
        "engine.round_ms_p90": ordered[min(rounds - 1, int(0.9 * rounds))] * 1e3,
        "engine.round_ms_max": ordered[-1] * 1e3,
        "network.down_bytes_per_candidate":
            sum(r["down_bytes"] for r in rows) / candidates if candidates else 0.0,
        "network.mask_overhead_bytes": extras["mask_overhead_bytes"],
        "network.up_bytes": counters.get("network.up_bytes", 0),
        "trace.host_speed": host_speed(extras["calib_s"]),
        "trace.run_s": run_s,
        "trace.unattributed_share": busy.get(ROOT_SEAM, 0.0) / run_s,
        "trace.spans": extras["spans"],
    })
    return out
