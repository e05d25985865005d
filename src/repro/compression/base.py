"""Strategy interface between the FL server and a masking/compression scheme.

The server round loop (:mod:`repro.fl.server`) is strategy-agnostic; a
:class:`CompressionStrategy` plugs in at five points:

1. ``begin_round`` — per-round state decisions (e.g. GlueFL's shared-mask
   regeneration schedule);
2. ``client_compress`` — turn a client's raw local delta into an upstream
   payload (with its wire size);
3. ``fold`` — add one weighted payload into the round's open sums, the
   moment it is compressed (the round keeps sums, never its K payloads);
4. ``aggregate`` — finish the round from those sums into the global update
   and report which coordinates changed (what staleness tracking records);
5. ``end_round`` — post-update state transitions (mask shift, APF freeze).

Everything a strategy sends downstream beyond the staleness-driven value
sync (e.g. GlueFL's shared-mask bitmap) is reported via
``downstream_extra_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "VALUE_KEYS",
    "ClientPayload",
    "AggregateResult",
    "CompressionStrategy",
]

#: Payload ``data`` keys that hold transmitted *values* (as opposed to
#: addressing like ``"idx"``) — the repo-wide convention every strategy in
#: :mod:`repro.compression` follows, and what value-transforming wrappers
#: (:class:`~repro.compression.quantized.QuantizedStrategy`,
#: :class:`~repro.privacy.strategy.PrivateStrategy`) iterate over.  A new
#: strategy that transmits values under another key must extend this tuple,
#: or the wrappers will silently pass those values through untouched.
VALUE_KEYS = ("dense", "vals", "shr_vals")


@dataclass
class ClientPayload:
    """One client's upstream contribution.

    Attributes
    ----------
    upstream_bytes:
        Wire size of everything this client uploads this round.
    data:
        Strategy-specific arrays (sparse indices/values etc.).
    """

    upstream_bytes: int
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass
class AggregateResult:
    """The server-side result of one round's aggregation.

    Attributes
    ----------
    global_delta:
        Dense length-``d`` update added to the global model.
    changed_idx:
        Coordinates where ``global_delta`` is (possibly) non-zero — exactly
        the positions a stale client will eventually have to download.
        Sorted ascending, without duplicates.

    **Invariant: ``global_delta`` is exactly zero outside ``changed_idx``.**
    Every server step after aggregation relies on it to do work
    proportional to ``len(changed_idx)`` rather than ``d``: the mask shift
    selects among ``global_delta[changed_idx]``
    (``top_k_indices(..., support=changed_idx)``), and
    the staleness ledger advances its version histogram from
    ``changed_idx`` alone.  A strategy that moves a coordinate it does not
    list would have that movement ignored by both — and never downloaded
    by stale clients.  ``changed_idx`` may over-approximate (listed
    coordinates can hold zeros).
    """

    global_delta: np.ndarray
    changed_idx: np.ndarray


class CompressionStrategy:
    """Base class; subclasses override the hook points."""

    name: str = "base"

    #: True when ``client_compress`` chooses *which coordinates to
    #: transmit* as a function of the client's own update (client-side
    #: top-k: STC, GlueFL's unique part).  False when the transmitted
    #: support is dense or fixed by server/public state before the client
    #: looks at its delta (FedAvg, APF's frozen-coordinate mask — derived
    #: from global-model history, i.e. post-processing of what was already
    #: released).  Privacy wrappers consult this flag: adding noise to the
    #: transmitted values does not cover a data-dependent index release,
    #: so a Gaussian-mechanism ε over such a strategy is values-only (see
    #: :class:`~repro.privacy.strategy.PrivateStrategy`).  Wrappers must
    #: delegate it to their inner strategy.
    data_dependent_selection: bool = False

    def __init__(self) -> None:
        self.d: int = 0
        self.dtype: np.dtype = np.dtype(np.float64)
        #: the round's open sums (:meth:`_new_sums`): opened by its first
        #: :meth:`fold`, closed by :meth:`aggregate`, dropped by
        #: :meth:`abort_round`
        self._sums = None

    # -- lifecycle -----------------------------------------------------------
    def setup(self, d: int, rng: np.random.Generator, dtype=np.float64) -> None:
        """Bind the strategy to a model dimensionality and precision policy.

        ``dtype`` is the run-level precision (see :mod:`repro.runtime`):
        aggregation outputs and any dense scratch vectors the strategy
        materializes use it, so a float32 run stays float32 end to end.
        A strategy is usable after ``setup()`` alone.  A strategy bound
        again starts over: open sums are dropped and the conventional
        ``self.residuals`` store is reset (its mode and LRU bound stay),
        so no run compensates with another run's residuals.
        """
        if d <= 0:
            raise ValueError(f"model dimension must be positive, got {d}")
        self.d = d
        self.dtype = np.dtype(dtype)
        self._sums = None
        store = getattr(self, "residuals", None)
        if store is not None:
            store.reset()

    def begin_round(self, round_idx: int) -> None:
        """Per-round state decisions before any client work."""

    def limit_residuals(self, max_clients) -> None:
        """Apply ``RunConfig.residual_max_clients``: bound the per-client
        residual store (if this strategy keeps one) to an LRU budget.

        The base implementation binds the conventional ``self.residuals``
        :class:`~repro.compression.error_comp.ResidualStore`; strategies
        without residual state ignore the knob, and wrapper strategies
        must delegate to their inner strategy.
        """
        store = getattr(self, "residuals", None)
        if store is not None:
            store.bound(max_clients)

    def close(self) -> None:
        """Release what the strategy holds outside the heap — the residual
        store's row file, and the residuals in it.  Reached from
        ``FLServer.close()``; idempotent, and the strategy stays usable.
        Wrapper strategies must delegate to their inner strategy.
        """
        store = getattr(self, "residuals", None)
        if store is not None:
            store.close()

    # -- downstream accounting -------------------------------------------------
    def downstream_extra_bytes(self) -> int:
        """Per-sampled-client downstream overhead beyond the value sync."""
        return 0

    # -- upstream estimate (for round-time scheduling) ----------------------------
    def nominal_upstream_bytes(self) -> int:
        """A-priori upload size per client this round.

        The simulator schedules a round before payloads exist, so it needs
        the upload size in advance; for every strategy here the size is
        deterministic given the round's mask state.
        """
        raise NotImplementedError

    # -- client side -----------------------------------------------------------
    def client_compress(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        """Compress a client's local model delta into an upstream payload.

        ``weight`` is the aggregation weight ν that the server will apply —
        needed by re-scaled error compensation (Eq. 7).
        """
        raise NotImplementedError

    # -- server side -------------------------------------------------------------
    def fold(self, weight: float, payload: ClientPayload) -> None:
        """Add one compressed update, under its aggregation weight ν, into
        the round's open sums (the first fold of a round opens them).

        The engine folds each payload right after its ``client_compress``
        and lets it go, in aggregation order — so a round holds its sums,
        never its K payloads, and every coordinate receives the same adds
        in the same order a list-at-once sum would give it.
        """
        raise NotImplementedError

    def aggregate(self) -> AggregateResult:
        """Finish the round from its open sums, and close them.

        Called once per closed round, after its last :meth:`fold`; a round
        nothing was folded into aggregates empty sums.
        """
        raise NotImplementedError

    def _new_sums(self):
        """Fresh zeroed open sums for one round (whatever :meth:`fold` and
        :meth:`aggregate` of the subclass need)."""
        raise NotImplementedError

    def _open_sums(self):
        if self._sums is None:
            self._sums = self._new_sums()
        return self._sums

    def _close_sums(self):
        sums = self._open_sums()
        self._sums = None
        return sums

    def end_round(self, agg: AggregateResult, round_idx: int) -> None:
        """Post-aggregation state transitions (mask updates, freezing)."""

    def abort_round(self, round_idx: int) -> None:
        """Close a round that opened but aggregated nothing.

        Every ``begin_round`` is matched by exactly one of ``end_round``
        (normal path) or ``abort_round`` (nobody survived a sync round, an
        async flush came up empty, or the round raised — possibly after
        some updates were folded).  The round's open sums are dropped.
        Strategies whose round schedule is stateful (e.g. GlueFL's
        shared-mask regeneration cadence) extend this to keep the schedule
        from drifting; wrapper strategies must delegate to their inner
        strategy.
        """
        self._sums = None

    # -- engine feedback ---------------------------------------------------------
    def feedback_norm(self, client_id: int, delta: np.ndarray) -> float:
        """The update norm the engine may report to norm-aware samplers.

        Called on the compression seam (after :meth:`client_compress`) for
        every aggregated participant whose sampler opted into norm
        feedback.  The default is the raw local-update magnitude ``‖Δ‖₂``;
        privacy wrappers override it so samplers only ever observe the
        *privatized* norm (see
        :class:`~repro.privacy.strategy.PrivateStrategy`).

        >>> import numpy as np
        >>> CompressionStrategy().feedback_norm(0, np.array([3.0, 4.0]))
        5.0
        """
        return float(np.linalg.norm(delta))

    def privacy_epsilon_spent(self) -> Optional[float]:
        """Cumulative privacy budget ε consumed so far, if tracked.

        ``None`` (the default) means "no privacy accounting on this
        strategy" — recorded per round as
        :attr:`~repro.fl.metrics.RoundRecord.privacy_epsilon_spent`.
        """
        return None

    # -- helpers ---------------------------------------------------------------
    def _check_setup(self) -> None:
        if self.d <= 0:
            raise RuntimeError(
                f"{type(self).__name__}.setup() must run before use"
            )

    def _check_delta(self, delta: np.ndarray) -> None:
        if delta.ndim != 1 or delta.shape[0] != self.d:
            raise ValueError(
                f"delta must be a length-{self.d} vector, got {delta.shape}"
            )
