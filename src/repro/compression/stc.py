"""Sparse Ternary Compression — the masking part (Algorithm 1).

STC (Sattler et al., 2019) applies magnitude top-q sparsification twice:

* **client side** (Alg. 1 line 12): each client uploads the top-q entries of
  its local delta, with error feedback accumulating what was dropped;
* **server side** (Alg. 1 line 17): the server takes the top-q of the
  weighted aggregate, so only a q-fraction of the global model changes per
  round.

Because each round's server mask is recomputed from scratch, consecutive
masks drift freely — this is precisely the staleness pathology of Fig. 2
that GlueFL's mask shifting bounds.  Per the paper's footnote 1 we omit
STC's ternary quantization (see :mod:`repro.compression.quantize` for the
orthogonal extension).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    AggregateResult,
    ClientPayload,
    CompressionStrategy,
)
from repro.compression.error_comp import ErrorCompMode, ResidualStore
from repro.compression.topk import ratio_to_k, top_k_indices
from repro.network.encoding import sparse_bytes

__all__ = ["STCStrategy"]


class STCStrategy(CompressionStrategy):
    """Client top-q upload + server top-q masking with error feedback.

    Parameters
    ----------
    q:
        Compression ratio (fraction of coordinates kept), e.g. 0.2.
    error_comp:
        Client-side error feedback mode.  STC's original formulation uses
        plain accumulation (``EC``); under uniform sampling the aggregation
        weight is constant across rounds, so ``EC`` and ``REC`` coincide.
    server_residual:
        Keep a server-side residual of the aggregate mass dropped by the
        server's top-q (Sattler et al.'s "weight update caching"), folding
        it into the next round's aggregate.  Off by default to match the
        paper's Algorithm 1, which omits it.
    """

    name = "stc"
    # each client uploads the top-q of its *own* delta: the index set is a
    # data-dependent release a values-only Gaussian mechanism cannot cover
    data_dependent_selection = True

    def __init__(
        self,
        q: float,
        error_comp: ErrorCompMode = ErrorCompMode.EC,
        server_residual: bool = False,
    ):
        super().__init__()
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        self.q = q
        self.residuals = ResidualStore(error_comp)
        self.server_residual = server_residual
        self._k: int = 0
        self._server_h: np.ndarray = np.zeros(0, dtype=np.float64)

    def setup(self, d: int, rng: np.random.Generator, dtype=np.float64) -> None:
        super().setup(d, rng, dtype=dtype)
        self._k = ratio_to_k(self.q, d)
        if self._k == 0:
            raise ValueError(f"q={self.q} keeps zero of {d} coordinates")
        self._server_h = np.zeros(d, dtype=self.dtype)

    def nominal_upstream_bytes(self) -> int:
        self._check_setup()
        return sparse_bytes(self._k, self.d)

    def client_compress(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        self._check_setup()
        self._check_delta(delta)
        # compensate() returns a caller-owned vector: zero the sent top-k
        # in place and what remains is the residual (no zeros(d) scratch)
        accumulated = self.residuals.compensate(client_id, delta, weight)
        idx = top_k_indices(accumulated, self._k)
        vals = accumulated[idx].copy()
        accumulated[idx] = 0.0
        self.residuals.record(client_id, accumulated, weight)
        return ClientPayload(
            upstream_bytes=sparse_bytes(self._k, self.d),
            data={"idx": idx, "vals": vals},
        )

    def _new_sums(self):
        return np.zeros(self.d, dtype=self.dtype)

    def fold(self, weight: float, payload: ClientPayload) -> None:
        data = payload.data
        np.add.at(self._open_sums(), data["idx"], weight * data["vals"])

    def aggregate(self) -> AggregateResult:
        self._check_setup()
        acc = self._close_sums()
        if self.server_residual:
            acc = acc + self._server_h
        keep = top_k_indices(acc, self._k)
        global_delta = np.zeros(self.d, dtype=self.dtype)
        global_delta[keep] = acc[keep]
        if self.server_residual:
            self._server_h = acc - global_delta
        return AggregateResult(global_delta=global_delta, changed_idx=keep)
