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

A residual is read whole once and written whole once per participation,
so it does not sit in the heap in between: the store keeps a
``(row, weight)`` pair per ever-sampled client
(:class:`~repro.utils.client_state.LazyClientState`) and the float32
vectors are fixed-width rows of one unnamed temporary file in
``tempfile.gettempdir()``.  ``TMPDIR`` picks the medium — on a disk
filesystem the kernel writes residual pages back and evicts them, on tmpfs
they stay in RAM but outside the process.  An optional ``max_clients`` LRU
bound (``RunConfig.residual_max_clients``) caps the file at that many rows
— an evicted residual reads back as "no residual", i.e. that client's next
compensation adds nothing, which is the NONE-mode semantics for a
first-time participant — and an evicted client's row is the next one
written.  Results are bit-identical to the dict-of-arrays store this
replaced, which survives as the test oracle
``tests/compression/reference.py``.
"""

from __future__ import annotations

import enum
import os
import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.client_state import LazyClientState

__all__ = ["ErrorCompMode", "ResidualStore", "ResidualStoreError"]

_ROW_DTYPE = np.dtype(np.float32)


class ErrorCompMode(str, enum.Enum):
    """Which error-compensation variant a strategy applies."""

    NONE = "none"
    EC = "ec"
    REC = "rec"


class ResidualStoreError(OSError):
    """The residual row file could not be created, written or read."""


class ResidualStore:
    """Per-client compression residuals with aggregation-weight memory.

    Residuals are stored as float32 to bound their size (they are re-added
    to float64 deltas; the quantization error is far below compression
    error).  Each client's entry is a ``(row, weight)`` pair inside a
    :class:`~repro.utils.client_state.LazyClientState`; row ``r`` is bytes
    ``[r·4d, (r+1)·4d)`` of an unnamed temporary file created by the first
    :meth:`record` (a ``NONE``-mode store never creates one).
    :meth:`record` copies the caller's vector out with one positional
    write and :meth:`compensate` copies it back with one positional read,
    so the caller keeps ownership of everything it passes in and the store
    holds no heap vector beyond one scratch row.  ``max_clients`` (settable
    later via :meth:`bound`) turns on LRU eviction; evicted rows go on a
    free list, so the file never exceeds ``max_clients`` rows.

    The file is closed by :meth:`close` (reached from
    ``FLServer.close()``), or by a finalizer when the store is dropped
    un-closed.  Not thread-safe: compression runs in the server process, in
    task order.
    """

    def __init__(
        self,
        mode: ErrorCompMode = ErrorCompMode.REC,
        *,
        max_clients: Optional[int] = None,
    ):
        self.mode = ErrorCompMode(mode)
        self._entries: LazyClientState = LazyClientState(max_clients=max_clients)
        #: rows of evicted clients, reused before the file grows
        self._free_rows: List[int] = []
        self._rows_allocated = 0
        #: row length, fixed by the first record() after construction/reset()
        self._d = 0
        self._file = None
        self._close_file = None
        #: where the row file lives, for error messages
        self._tmpdir = ""
        #: float32 staging row for deltas and residuals of another dtype
        self._scratch: Optional[np.ndarray] = None

    def bound(self, max_clients: Optional[int]) -> None:
        """(Re)set the LRU residual budget (``None`` = unbounded)."""
        self._release(self._entries.bound(max_clients))

    @property
    def evictions(self) -> int:
        """Residuals dropped by the LRU bound since construction."""
        return self._entries.evictions

    def reset(self) -> None:
        """Drop every residual and close the row file.

        The mode and the LRU bound stay, so the store is ready for another
        run (possibly of another row length)."""
        self._entries.clear()
        self._free_rows.clear()
        self._rows_allocated = 0
        self._d = 0
        self._scratch = None
        if self._close_file is not None:
            self._close_file()
            self._file = self._close_file = None

    def close(self) -> None:
        """Release the row file — and with it the residuals: the store is
        empty, and usable, afterwards.  Idempotent."""
        self.reset()

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
        entry = self._entries.get(client_id)
        if entry is None:
            return delta.copy()
        row, stored_weight = entry
        self._check_length(len(delta), "delta")
        # the ufunc-level spelling of ``h.astype(delta.dtype)``
        cast = {"dtype": delta.dtype, "casting": "unsafe"}
        scale = None
        if self.mode is ErrorCompMode.REC:
            if current_weight <= 0:
                raise ValueError(
                    f"non-positive aggregation weight {current_weight} for "
                    f"client {client_id}"
                )
            scale = stored_weight / current_weight
        # scale·h lands directly in the caller-owned result and delta is
        # added in place: the same two IEEE operations (in delta's dtype) as
        # ``delta + scale * h.astype(delta.dtype)``, without its cast copy
        # and product temporary.  A float32 run reads the row straight into
        # the result; any other dtype stages it in the scratch row.
        if delta.dtype == _ROW_DTYPE:
            h = out = self._read_row(row, np.empty(self._d, dtype=_ROW_DTYPE))
        else:
            h, out = self._read_row(row, self._scratch), None
        if scale is None:
            return np.add(delta, h, out=out, **cast)
        out = np.multiply(h, scale, out=out, **cast)
        return np.add(delta, out, out=out)

    def record(
        self, client_id: int, residual: np.ndarray, weight: float
    ) -> None:
        """Store this participation's residual and the weight it was sent with.

        ``residual`` is written to the client's float32 row (staged through
        the scratch row unless it already is contiguous float32); the
        caller keeps the array.
        """
        if self.mode is ErrorCompMode.NONE:
            return
        if self._file is None:
            self._open(len(residual))
        self._check_length(len(residual), "residual")
        entry = self._entries.peek(client_id)
        if entry is None:
            # the client claims its LRU slot before it takes a row, so the
            # bound hands a row back first and the file never outgrows it
            self._release(self._entries.set(client_id, None))
            row = self._take_row()
        else:
            row = entry[0]
        try:
            self._write_row(row, residual)
        except OSError:
            # a torn row must not read back as a residual
            self._entries.pop(client_id)
            self._free_rows.append(row)
            raise
        self._entries.set(client_id, (row, float(weight)))

    def peek(self, client_id: int) -> Optional[Tuple[np.ndarray, float]]:
        """Inspect a stored residual (testing hook): a copy of the row and
        its weight.  Does not freshen the client's LRU rank."""
        entry = self._entries.peek(client_id)
        if entry is None:
            return None
        row, weight = entry
        return self._read_row(row, np.empty(self._d, dtype=_ROW_DTYPE)), weight

    def __len__(self) -> int:
        return len(self._entries)

    # -- the row file --------------------------------------------------------
    def _release(self, evicted) -> None:
        self._free_rows.extend(row for row, _ in evicted)

    def _take_row(self) -> int:
        if self._free_rows:
            return self._free_rows.pop()
        self._rows_allocated += 1
        return self._rows_allocated - 1

    def _check_length(self, length: int, what: str) -> None:
        if length != self._d:
            raise ValueError(
                f"{what} has length {length} but this store's rows have "
                f"length {self._d}; reset() the store to change it"
            )

    def _open(self, d: int) -> None:
        # call-time import: a run that keeps no residual (FedAvg, NONE mode)
        # never pays for tempfile and the shutil/bz2/lzma/random it pulls in
        import tempfile

        self._tmpdir = tempfile.gettempdir()
        try:
            file = tempfile.TemporaryFile(buffering=0, prefix="repro-residuals-")
        except OSError as exc:
            raise ResidualStoreError(
                exc.errno,
                f"ResidualStore: cannot create the row file in "
                f"{self._tmpdir!r} ({exc.strerror or exc}); point TMPDIR at "
                f"a writable directory",
            ) from exc
        self._file = file
        # a store dropped un-closed still closes its descriptor explicitly
        # (no ResourceWarning), at collection or at interpreter exit
        self._close_file = weakref.finalize(self, file.close)
        self._d = d
        self._scratch = np.empty(d, dtype=_ROW_DTYPE)

    def _write_row(self, row: int, residual: np.ndarray) -> None:
        if residual.dtype == _ROW_DTYPE and residual.flags.c_contiguous:
            h = residual
        else:
            h = self._scratch
            np.copyto(h, residual, casting="unsafe")
        try:
            written = os.pwrite(self._file.fileno(), h, row * h.nbytes)
        except OSError as exc:
            raise ResidualStoreError(
                exc.errno,
                f"ResidualStore: cannot write row {row} ({h.nbytes} bytes) "
                f"to the row file in {self._tmpdir!r} "
                f"({exc.strerror or exc})",
            ) from exc
        if written != h.nbytes:
            raise ResidualStoreError(
                f"ResidualStore: short write to the row file in "
                f"{self._tmpdir!r}: row {row} took {written} of "
                f"{h.nbytes} bytes"
            )

    def _read_row(self, row: int, out: np.ndarray) -> np.ndarray:
        read = os.preadv(self._file.fileno(), [out], row * out.nbytes)
        if read != out.nbytes:
            raise ResidualStoreError(
                f"ResidualStore: short read from the row file in "
                f"{self._tmpdir!r}: row {row} gave {read} of "
                f"{out.nbytes} bytes"
            )
        return out
