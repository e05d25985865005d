"""Per-round state threaded through the engine's phases.

A :class:`RoundContext` is created empty at the top of each round and
filled in progressively: every phase reads the fields earlier phases
produced and writes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

__all__ = ["RoundContext"]


@dataclass
class RoundContext:
    """Everything one round produces, phase by phase.

    ``Any``-typed fields hold :class:`~repro.fl.samplers.SampleDraw`,
    :class:`~repro.fl.simulator.ParticipantSelection`,
    :class:`~repro.compression.base.AggregateResult` and
    :class:`~repro.fl.metrics.RoundRecord` instances; the loose typing
    keeps this module import-light (it is imported by both the engine and
    ``repro.fl``).
    """

    round_idx: int

    #: the scheduler's :class:`~repro.engine.clock.SimClock`.  When set, the
    #: measurement phase advances it by the round's duration and stamps the
    #: record's ``wall_clock_s``; schedulers that own a non-linear clock
    #: model (e.g. overlapped rounds) leave it ``None`` and advance the
    #: clock themselves.
    clock: Any = None

    # -- sampling phase --------------------------------------------------------
    available: Optional[np.ndarray] = None
    draw: Any = None
    #: strategy round-lifecycle ledger: ``begin_round`` ran / the round was
    #: closed by ``end_round`` or ``abort_round``.  The engine aborts any
    #: opened-but-unclosed round when a phase raises, so the strategy's
    #: begin/end/abort pairing survives arbitrary failures.
    round_opened: bool = False
    round_closed: bool = False

    # -- sync-accounting phase -------------------------------------------------
    down_per_client: Optional[np.ndarray] = None
    down_bytes_total: int = 0
    mean_stale_fraction: float = 0.0
    sync_details: Optional[List[tuple]] = None

    # -- timing/selection phase ------------------------------------------------
    up_nominal: int = 0
    selection: Any = None
    #: candidates whose upload was lost mid-round (population runs only) —
    #: the measurement phase hands them to ``population.finish_round`` so
    #: they enter the DROPPED state for the configured cooldown
    dropped_ids: Optional[np.ndarray] = None
    #: simulated seconds spent on failed quorum re-draw waves (charged on
    #: top of the final selection's round time)
    redraw_wait_s: float = 0.0
    #: how many quorum re-draw waves ran this round
    quorum_redraws: int = 0
    #: the cohort stayed below quorum after every allowed re-draw; the
    #: round degrades to ``skip_empty_rounds`` semantics
    quorum_failed: bool = False
    #: total distinct candidates contacted across re-draw waves (None →
    #: the record reports ``len(draw.candidates)`` as before)
    num_candidates: Optional[int] = None

    # -- execution phase ---------------------------------------------------------
    lr: float = 0.0
    #: mean realized work fraction over participants (population runs with
    #: partial completeness; None otherwise)
    mean_completeness: Optional[float] = None
    all_weights: Optional[np.ndarray] = None
    tasks: List[Any] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)

    # -- compression phase -------------------------------------------------------
    payloads: List[Any] = field(default_factory=list)
    buffer_deltas: List[np.ndarray] = field(default_factory=list)
    up_bytes_total: int = 0
    losses: List[float] = field(default_factory=list)
    #: no participant survived and ``skip_empty_rounds`` is on: aggregation
    #: is skipped and the measurement phase emits a zero-participant record
    empty_round: bool = False

    # -- aggregation phase -------------------------------------------------------
    agg: Any = None

    # -- measurement phase -------------------------------------------------------
    accuracy: Optional[float] = None
    record: Any = None

    #: True when the failure scheduler's population bursts this round
    injected_failure: bool = False
