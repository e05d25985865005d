"""Error compensation (§3.3, Eq. 7).

Clients remember the part of their update that compression discarded
(``h_i = Δ_i − sent_i``) and add it back before compressing the next time
they participate.  GlueFL's twist is *re-scaling*: because sticky sampling
changes a client's aggregation weight between participations (ν_s when in
the sticky group, ν_r otherwise), the remembered residual must be scaled by
``ν^{φ(t)}_i / ν^t_i`` so that its weighted contribution to the global model
is the one originally intended.  The ablation in Fig. 11 compares:

* ``NONE`` — no compensation,
* ``EC``   — plain compensation (no re-scale), which the paper shows
  *breaks* GlueFL,
* ``REC``  — re-scaled compensation (the default).

Residuals are lazily materialized per client
(:class:`~repro.utils.client_state.LazyClientState`): a 10⁶-client run
allocates entries only for the ever-sampled cohort, and an optional
``max_clients`` LRU bound (``RunConfig.residual_max_clients``) caps the
store outright — an evicted residual reads back as "no residual", i.e.
that client's next compensation adds nothing, which is the NONE-mode
semantics for a first-time participant.  Unbounded stores (the default)
are bit-identical to the historical dict-backed implementation.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.utils.client_state import LazyClientState

__all__ = ["ErrorCompMode", "ResidualStore"]


class ErrorCompMode(str, enum.Enum):
    """Which error-compensation variant a strategy applies."""

    NONE = "none"
    EC = "ec"
    REC = "rec"


class ResidualStore:
    """Per-client compression residuals with aggregation-weight memory.

    Residuals are stored as float32 to bound memory (they are re-added to
    float64 deltas; the quantization error is far below compression error).
    Each entry is a ``(array, weight)`` pair inside a
    :class:`~repro.utils.client_state.LazyClientState`; ``max_clients``
    (settable later via :meth:`bound`) turns on LRU eviction.

    A residual is one flat vector whatever the server's shard count:
    residuals are *client-side* state that ``compensate`` reads whole, once
    per participation, so chunking one along the server's partition would
    buy a reassembly copy per read and nothing else.
    """

    def __init__(
        self,
        mode: ErrorCompMode = ErrorCompMode.REC,
        *,
        max_clients: Optional[int] = None,
    ):
        self.mode = ErrorCompMode(mode)
        self._store: LazyClientState = LazyClientState(max_clients=max_clients)

    def bound(self, max_clients: Optional[int]) -> None:
        """(Re)set the LRU residual budget (``None`` = unbounded)."""
        self._store.bound(max_clients)

    @property
    def evictions(self) -> int:
        """Residuals dropped by the LRU bound since construction."""
        return self._store.evictions

    def compensate(
        self, client_id: int, delta: np.ndarray, current_weight: float
    ) -> np.ndarray:
        """Return ``delta`` plus the (possibly re-scaled) stored residual.

        Implements Eq. 7: ``Δ_i ← Δ_i + (ν^{φ(t)}_i / ν^t_i) · h^{φ(t)}_i``
        in ``REC`` mode; ``EC`` adds the raw residual; ``NONE`` adds
        nothing.  The returned array is always **owned by the caller** — a
        fresh allocation, never an alias of ``delta`` — so strategies may
        zero it in place while splitting sent mass from residual mass
        without corrupting the caller's delta.
        """
        if self.mode is ErrorCompMode.NONE:
            return delta.copy()
        entry = self._store.get(client_id)
        if entry is None:
            return delta.copy()
        h = entry[0]
        # the ufunc-level spelling of ``h.astype(delta.dtype)``
        cast = {"dtype": delta.dtype, "casting": "unsafe"}
        if self.mode is ErrorCompMode.REC:
            if current_weight <= 0:
                raise ValueError(
                    f"non-positive aggregation weight {current_weight} for "
                    f"client {client_id}"
                )
            # scale·h lands directly in the caller-owned result and delta
            # is added in place: the same two IEEE operations (in delta's
            # dtype) as ``delta + scale * h.astype(delta.dtype)``, without
            # its cast copy and product temporary
            out = np.multiply(h, entry[1] / current_weight, **cast)
            return np.add(delta, out, out=out)
        return np.add(delta, h, **cast)

    def record(
        self, client_id: int, residual: np.ndarray, weight: float
    ) -> None:
        """Store this participation's residual and the weight it was sent with.

        ``residual`` is copied into float32 storage (a no-copy view when it
        already is float32 — callers hand over ownership).
        """
        if self.mode is ErrorCompMode.NONE:
            return
        h = residual.astype(np.float32, copy=False)
        self._store.set(client_id, (h, float(weight)))

    def peek(self, client_id: int) -> Optional[Tuple[np.ndarray, float]]:
        """Inspect a stored residual (testing hook)."""
        if client_id not in self._store:
            return None
        return self._store.get(client_id)

    def __len__(self) -> int:
        return len(self._store)
