"""Span tracing from outside the program: timing wrappers on live objects.

The traced run of a workload wraps the public methods named in
:data:`LAYER_PROBES` on the *live* server objects (after the warm-up
round, so lazily built pieces such as the execution backend exist) and
records one span per call: seam, start, end, parent span, round index.
Each ``run_round()`` is the root span of its round.  Spans stay in memory
until the run ends.

A seam's ``busy_s`` is *self* time: the span's duration minus the part
its direct child spans cover; ``calls`` counts entries into the seam from
outside it (a seam's calls to itself open no span).  The parent process is single-threaded, so
children nest strictly inside their parent and the self times of one
round sum exactly to the round's root span.

Nothing here is used by an untraced run — end-to-end metrics never come
from a process that imported a wrapper.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from metrics import ROOT_SEAM

__all__ = [
    "LAYER_PROBES", "Probe", "Tracer", "self_times", "write_chrome_trace",
    "write_jsonl",
]

#: count hook: ``(args, result) -> (counter, increment)``; ``args`` are the
#: wrapped call's positional arguments (without ``self`` for instance
#: probes, with it for class-level probes)
CountFn = Callable[[tuple, object], Tuple[str, float]]


@dataclass(frozen=True)
class Probe:
    """One row of the attach table.

    ``owner`` is a dotted attribute path from the server (``"backend"``,
    ``"trainer.model"``) whose *instance* gets the wrapper, or
    ``"class:<module>:<Class>"`` for a class-level patch (dunder methods,
    objects created per call).  ``layer`` names the ``repro`` module the
    seam belongs to; a workload declares the layers it does not have, and
    only those may be missing.
    """

    seam: str
    layer: str
    owner: str
    methods: Tuple[str, ...]
    count: Optional[CountFn] = None


#: attach point -> metric seam; a benchmark correction is a one-line edit here
LAYER_PROBES: Tuple[Probe, ...] = (
    Probe(
        "runtime.run_clients", "runtime", "backend", ("run_clients",),
        lambda a, out: ("runtime.tasks", len(a[0])),
    ),
    Probe("nn.forward", "nn", "trainer.model", ("forward",)),
    Probe("nn.backward", "nn", "trainer.model", ("backward",)),
    Probe("nn.optim_step", "nn", "class:repro.nn.optim:SGD", ("step",)),
    Probe(
        "datasets.shard_fetch", "datasets",
        "class:repro.datasets.lazy:LazyClientList", ("__getitem__",),
    ),
    Probe(
        "datasets.shard_build", "datasets", "config.dataset.clients",
        ("factory",),
    ),
    Probe(
        "compression.client_compress", "compression", "strategy",
        ("client_compress",),
        lambda a, out: ("network.up_bytes", out.upstream_bytes),
    ),
    Probe(
        "compression.aggregate", "compression", "strategy", ("aggregate",),
        lambda a, out: ("compression.changed_positions", len(out.changed_idx)),
    ),
    Probe("compression.end_round", "compression", "strategy", ("end_round",)),
    Probe(
        "compression.begin_round", "compression", "strategy",
        ("begin_round", "abort_round"),
    ),
    Probe(
        "fl.sampler", "fl", "sampler",
        (
            "draw", "draw_pool", "sample_replacements",
            "sample_replacements_pool", "complete_round",
            "aggregation_weights",
        ),
    ),
    Probe(
        "fl.staleness", "fl", "staleness",
        (
            "stale_counts", "sync_gaps", "download_bytes_many",
            "last_sync_of", "mark_synced", "record_update",
            "mean_staleness_fraction",
        ),
    ),
    Probe("fl.evaluate", "fl", "", ("evaluate",)),
    Probe("population.advance", "population", "population", ("advance",)),
    Probe(
        "population.transitions", "population", "population", ("begin_work",),
        lambda a, out: ("population.work_begun", len(a[0])),
    ),
    Probe(
        "population.transitions", "population", "population",
        ("complete_work",),
        lambda a, out: ("population.work_completed", len(a[0])),
    ),
    Probe(
        "population.transitions", "population", "population",
        ("drop_work", "finish_round"),
    ),
    Probe(
        "population.reads", "population", "population",
        (
            "idle_pool", "online", "survives_round", "responsiveness_of",
            "completeness_of", "local_steps_for",
        ),
    ),
    Probe(
        "engine.clock", "engine", "scheduler.clock", ("pop",),
        lambda a, out: ("engine.clock.events", 1),
    ),
    Probe(
        "engine.clock", "engine", "scheduler.clock",
        (
            "schedule", "schedule_timings", "pop_until", "advance_by",
            "advance_to",
        ),
    ),
)


#: "the owner had no attribute of its own under this name" (instance probes)
_UNSET = object()


def _resolve(root, path: str):
    obj = root
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans from wrappers attached per :data:`LAYER_PROBES`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.seams: List[str] = [ROOT_SEAM]
        self._seam_ids: Dict[str, int] = {ROOT_SEAM: 0}
        # one entry per span in five parallel lists of plain ints/floats:
        # a container per span would be tracked by the cyclic GC, whose
        # passes over a growing heap cost more than the wrapper itself
        self._seam: List[int] = []
        self._parent: List[int] = []
        self._round: List[int] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.round_idx = -1
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _seam_id(self, seam: str) -> int:
        if seam not in self._seam_ids:
            self._seam_ids[seam] = len(self.seams)
            self.seams.append(seam)
        return self._seam_ids[seam]

    def wrap(self, fn: Callable, seam: str, count: Optional[CountFn] = None):
        """Return ``fn`` bracketed by a span of ``seam``."""
        seam_id = self._seam_id(seam)
        seams, parents, rounds, starts, ends = (
            self._seam, self._parent, self._round, self._start, self._end,
        )
        stack, clock, counters = self._stack, self.clock, self.counters

        def probe(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and seams[parent] == seam_id:
                # a seam calling itself (download_bytes_many -> stale_counts,
                # pop_until -> pop) is one visit to the layer, not two
                out = fn(*args, **kwargs)
            else:
                idx = len(starts)
                seams.append(seam_id)
                parents.append(parent)
                rounds.append(self.round_idx)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            if count is not None:
                name, inc = count(args, out)
                counters[name] += inc
            return out

        probe.__wrapped__ = fn
        return probe

    def root(self, run_round: Callable):
        """``run_round`` as the root span of its round; the caller sets
        :attr:`round_idx` before each call."""
        return self.wrap(run_round, ROOT_SEAM)

    # -- attaching ---------------------------------------------------------
    def attach(self, server, absent_layers: Sequence[str] = ()) -> None:
        """Install every probe on ``server``'s live objects.

        A probe of a layer in ``absent_layers`` is skipped (the workload
        has no such object); any other missing attach point raises.
        """
        for probe in LAYER_PROBES:
            if probe.layer in absent_layers:
                continue
            if probe.owner.startswith("class:"):
                _, module, cls = probe.owner.split(":")
                owner = getattr(importlib.import_module(module), cls)
            else:
                owner = _resolve(server, probe.owner)
                if owner is None:
                    raise LookupError(
                        f"probe {probe.seam}: server.{probe.owner} is None "
                        f"and layer {probe.layer!r} is not declared absent"
                    )
            for method in probe.methods:
                # instance probes wrap the bound method; class probes wrap
                # the function, so ``self`` arrives as args[0]
                self._undo.append((owner, method, vars(owner).get(method, _UNSET)))
                setattr(
                    owner, method,
                    self.wrap(getattr(owner, method), probe.seam, probe.count),
                )

    def detach(self) -> None:
        """Remove every wrapper :meth:`attach` installed."""
        for owner, method, original in reversed(self._undo):
            if original is _UNSET:
                delattr(owner, method)
            else:
                setattr(owner, method, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------
    def span_dicts(self) -> List[dict]:
        return [
            {
                "id": i, "name": self.seams[seam], "parent": parent,
                "round": round_idx, "start": start, "end": end,
            }
            for i, (seam, parent, round_idx, start, end) in enumerate(zip(
                self._seam, self._parent, self._round, self._start, self._end
            ))
        ]


def write_jsonl(spans: Sequence[dict], path) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def write_chrome_trace(spans: Sequence[dict], path) -> None:
    """Chrome ``about:tracing`` / Perfetto complete-event JSON."""
    t0 = spans[0]["start"] if spans else 0.0
    events = [
        {
            "name": s["name"], "ph": "X", "pid": 0, "tid": 0,
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": {"round": s["round"]},
        }
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times(spans: Sequence[dict]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-seam self seconds and call counts of ``spans``.

    Self time of a span is its duration minus its direct children's
    durations; by construction the self times of a tree sum to its root.
    """
    child_s = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child_s[span["parent"]] += span["end"] - span["start"]
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        busy[span["name"]] += span["end"] - span["start"] - child_s[span["id"]]
        calls[span["name"]] += 1
    return dict(busy), dict(calls)
