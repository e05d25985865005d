"""``PrivateStrategy`` — privacy as a composable compression wrapper.

The engine's compression seam is the one point every scheduler's client
updates pass through, so privacy plugs in exactly like quantization does
(:class:`~repro.compression.quantized.QuantizedStrategy`): wrap any
:class:`~repro.compression.base.CompressionStrategy` and privatize what
clients upload, leaving the sync/async/failure schedulers untouched.

Two modes:

``"gaussian"``
    DP-FedAvg-style release: clip the local delta to L2 norm ``S``
    (:mod:`repro.privacy.clipping`), let the wrapped strategy pick its
    coordinates, then add ``N(0, (z·S)²)`` to the *transmitted values
    only* (:mod:`repro.privacy.mechanisms`) — the same coordinates go on
    the wire, so every byte count is exactly the wrapped strategy's.  An
    :class:`~repro.privacy.accountant.RdpAccountant` charges one sampled
    Gaussian mechanism per aggregated round.

    With noise active, the wrapper **switches the wrapped strategy's
    client-side error compensation off** (its
    :class:`~repro.compression.error_comp.ResidualStore` is replaced by a
    ``NONE``-mode store at setup).  Error feedback accumulates the unsent
    mass of past updates and re-adds it before compression, so the
    compensated vector can exceed the clip bound by an unbounded margin —
    the noise would no longer match the mechanism's sensitivity and the
    reported ε would be fiction.  This is the "co-design, don't stack"
    lesson of constrained-DP FL: under DP, what each round uploads must
    itself be the clipped quantity.  (Server-side residuals such as STC's
    ``server_residual`` are post-processing of already-noised aggregates
    and stay untouched.)

    **The analyzed mechanism releases noisy values at a data-independent
    support.**  A sparsifying strategy whose clients pick their own top-k
    (:attr:`~repro.compression.base.CompressionStrategy.data_dependent_selection`)
    additionally releases the chosen *index set* — a data-dependent
    function of the private delta that no amount of value noise covers,
    so the accountant's (ε, δ) would overstate the guarantee.  Wrapping
    such a strategy with noise active therefore **raises** unless the
    caller passes ``values_only=True``, which emits a ``UserWarning`` and
    downgrades the claim explicitly: the stated ε then covers the
    released *values only*, never the coordinate choice.  Dense FedAvg
    and server/public-mask strategies (APF) need no such waiver.

``"random_defense"``
    Kim & Park's (2024) random gradient masking: before the wrapped
    strategy sees the delta, a fresh Bernoulli mask zeroes a
    ``defense_fraction`` of coordinates — a drop-in *random* mask
    schedule that blunts gradient-inversion without noise (and without a
    formal ε; :meth:`PrivateStrategy.privacy_epsilon_spent` stays None).

    This mode too switches the wrapped strategy's client-side error
    compensation off: a residual store would accumulate exactly the
    coordinates the mask suppressed and re-upload them in later rounds,
    eventually transmitting the masked information the defense exists to
    withhold.

Both modes feed norm-aware samplers the *privatized* norm: the engine's
per-result sink (``repro.engine.steps.compress_result``) asks
:meth:`PrivateStrategy.feedback_norm` right after that client's own
``client_compress``, which reports the L2 norm of the values actually
uploaded (noisy under ``gaussian``) instead of the raw local update —
Optimal Client Sampling under privacy noise never sees a clean norm.

>>> import numpy as np
>>> from repro.compression import FedAvgStrategy
>>> private = PrivateStrategy(FedAvgStrategy(), clip_norm=1.0,
...                           noise_multiplier=1.0, sample_rate=0.1)
>>> private.setup(4, np.random.default_rng(0))
>>> private.begin_round(1)
>>> payload = private.client_compress(0, np.full(4, 10.0), 1.0)
>>> float(np.linalg.norm(payload.data["dense"])) < 20.0   # clipped + noise
True
>>> private.fold(1.0, payload)
>>> agg = private.aggregate()
>>> private.end_round(agg, 1)
>>> 0.0 < private.privacy_epsilon_spent() < 3.0           # ε after 1 round
True
"""

from __future__ import annotations

import math
import warnings
from typing import Dict, Optional, Sequence

import numpy as np

from repro.compression.base import (
    VALUE_KEYS,
    AggregateResult,
    ClientPayload,
    CompressionStrategy,
)
from repro.compression.error_comp import ErrorCompMode, ResidualStore
from repro.privacy.accountant import DEFAULT_ORDERS, RdpAccountant
from repro.privacy.clipping import clip_by_l2
from repro.privacy.mechanisms import add_gaussian_noise, gaussian_noise_std

__all__ = [
    "DEFAULT_DEFENSE_FRACTION",
    "PRIVACY_MODES",
    "PrivateStrategy",
    "build_private_strategy",
]

#: Valid ``RunConfig.privacy_mode`` values ("off" disables wrapping).
PRIVACY_MODES = ("off", "gaussian", "random_defense")

#: ``random_defense`` masking fraction used when none is configured —
#: the single source for the mode's default.
DEFAULT_DEFENSE_FRACTION = 0.5


def _payload_values_norm(payload: ClientPayload) -> float:
    """L2 norm of everything a payload actually puts on the wire."""
    total = 0.0
    for key in VALUE_KEYS:
        values = payload.data.get(key)
        if values is not None and len(values):
            total += float(np.dot(values, values))
    return math.sqrt(total)


class PrivateStrategy(CompressionStrategy):
    """Wrap ``inner`` with clipping + Gaussian noise or random masking.

    Parameters
    ----------
    inner:
        Any compression strategy; its masks, byte accounting and
        aggregation run unchanged.
    mode:
        ``"gaussian"`` (default) or ``"random_defense"``.
    clip_norm:
        L2 sensitivity bound S applied before ``inner`` compresses.
        ``None`` disables clipping (forbidden when noise is on — noise
        without a sensitivity bound carries no guarantee).
    noise_multiplier:
        z — per-coordinate noise std in units of ``clip_norm``.  0 adds
        nothing, draws nothing, and leaves the wrapped strategy
        bit-identical (the regression-tested no-op).
    defense_fraction:
        ``random_defense`` only: fraction of coordinates zeroed per
        client per round.
    values_only:
        Waiver for wrapping a strategy with
        :attr:`~repro.compression.base.CompressionStrategy.data_dependent_selection`
        under active gaussian noise: acknowledge (with a ``UserWarning``)
        that the reported ε covers only the released values, not the
        client-chosen index set.  Without it such a combination raises.
    sample_rate / delta / orders:
        Accountant parameters (see :class:`~repro.privacy.accountant.RdpAccountant`).
    """

    def __init__(
        self,
        inner: CompressionStrategy,
        *,
        mode: str = "gaussian",
        clip_norm: Optional[float] = None,
        noise_multiplier: float = 0.0,
        defense_fraction: float = DEFAULT_DEFENSE_FRACTION,
        values_only: bool = False,
        sample_rate: float = 1.0,
        delta: float = 1e-5,
        orders: Sequence[int] = DEFAULT_ORDERS,
        _warn_stacklevel: int = 2,
    ):
        super().__init__()
        if mode not in ("gaussian", "random_defense"):
            raise ValueError(
                f"unknown privacy mode {mode!r}; expected 'gaussian' or "
                "'random_defense'"
            )
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {clip_norm}")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        if mode == "gaussian" and noise_multiplier > 0 and clip_norm is None:
            raise ValueError(
                "gaussian mode with noise requires clip_norm: noise is "
                "calibrated to the clip bound (the mechanism's sensitivity)"
            )
        if not 0.0 <= defense_fraction < 1.0:
            raise ValueError("defense_fraction must be in [0, 1)")
        if values_only and mode != "gaussian":
            # mirror RunConfig.validate: a waiver on a mechanism with no
            # epsilon records an honesty concession that never applies
            raise ValueError(
                "values_only qualifies the gaussian mechanism's epsilon; "
                f"it means nothing under mode {mode!r}"
            )
        if (
            mode == "gaussian"
            and noise_multiplier > 0
            and inner.data_dependent_selection
        ):
            if not values_only:
                raise ValueError(
                    f"strategy {inner.name!r} selects its transmitted "
                    "coordinates from each client's private update; the "
                    "Gaussian mechanism's (eps, delta) covers the noised "
                    "values but not that index release.  Pass "
                    "values_only=True to accept values-only accounting, "
                    "or wrap a strategy with data-independent selection "
                    "(dense FedAvg, a server/public mask)"
                )
            warnings.warn(
                f"{inner.name!r} transmits client-chosen indices: the "
                "accounted epsilon covers the released values only — the "
                "index set is an unaccounted data-dependent release",
                UserWarning,
                stacklevel=_warn_stacklevel,
            )
        self.inner = inner
        self.values_only = bool(values_only)
        self.mode = mode
        self.clip_norm = clip_norm
        self.noise_multiplier = float(noise_multiplier)
        self.defense_fraction = float(defense_fraction)
        self.sample_rate = float(sample_rate)
        self.delta = float(delta)
        self.orders = tuple(orders)
        self.accountant: Optional[RdpAccountant] = None
        self.name = (
            f"{inner.name}+dp" if mode == "gaussian" else f"{inner.name}+rdmask"
        )
        self._rng: np.random.Generator = np.random.default_rng(0)
        self._observed: Dict[int, float] = {}

    # -- lifecycle ----------------------------------------------------------
    def setup(self, d: int, rng: np.random.Generator, dtype=np.float64) -> None:
        super().setup(d, rng, dtype=dtype)
        self._rng = rng
        self.inner.setup(d, rng, dtype=dtype)
        self._observed = {}
        if self.mode == "gaussian" and self.noise_multiplier > 0:
            self._disable_error_compensation()
            self.accountant = RdpAccountant(
                self.noise_multiplier,
                sample_rate=self.sample_rate,
                delta=self.delta,
                orders=self.orders,
            )
        elif self.mode == "random_defense" and self.defense_fraction > 0:
            self._disable_error_compensation()

    def _disable_error_compensation(self) -> None:
        """Keep the privatization per-round honest (see the module docs).

        Client-side residual stores re-add unsent mass of earlier updates
        before compression.  Under gaussian noise that would push uploads
        past ``clip_norm`` (the mechanism's sensitivity); under
        ``random_defense`` it would re-upload the very coordinates the
        random mask suppressed.  Every ``ResidualStore`` found down the
        wrapper chain is replaced by a ``NONE``-mode store.
        """
        strategy = self.inner
        while strategy is not None:
            store = getattr(strategy, "residuals", None)
            if isinstance(store, ResidualStore):
                strategy.residuals = ResidualStore(ErrorCompMode.NONE)
            strategy = getattr(strategy, "inner", None)

    def begin_round(self, round_idx: int) -> None:
        # drop prior-round observations so feedback_norm can never hand a
        # sampler a stale noisy norm for a client that did not compress
        # this round
        self._observed.clear()
        self.inner.begin_round(round_idx)

    def end_round(self, agg: AggregateResult, round_idx: int) -> None:
        self.inner.end_round(agg, round_idx)
        if self.accountant is not None:
            # one aggregated round == one sampled-Gaussian invocation
            self.accountant.step()

    def abort_round(self, round_idx: int) -> None:
        # nothing was uploaded, so no privacy was spent — no step
        self.inner.abort_round(round_idx)

    def limit_residuals(self, max_clients) -> None:
        self.inner.limit_residuals(max_clients)

    def close(self) -> None:
        self.inner.close()

    # -- pure delegation ----------------------------------------------------
    @property
    def data_dependent_selection(self) -> bool:
        # clipping/noising/masking transform values; whether the support
        # is client-chosen is the wrapped strategy's property
        return self.inner.data_dependent_selection

    def downstream_extra_bytes(self) -> int:
        return self.inner.downstream_extra_bytes()

    def nominal_upstream_bytes(self) -> int:
        return self.inner.nominal_upstream_bytes()

    def fold(self, weight: float, payload: ClientPayload) -> None:
        self.inner.fold(weight, payload)

    def aggregate(self) -> AggregateResult:
        return self.inner.aggregate()

    # -- the privatizing step -----------------------------------------------
    def client_compress(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        if self.mode == "random_defense":
            return self._compress_random_defense(client_id, delta, weight)
        return self._compress_gaussian(client_id, delta, weight)

    def _compress_gaussian(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        clipped, _ = clip_by_l2(delta, self.clip_norm)
        payload = self.inner.client_compress(client_id, clipped, weight)
        if self.noise_multiplier == 0.0:
            # exact no-op: no noise, no RNG draw, no recorded norm — the
            # wrapped strategy's behavior is bit-identical end to end
            return payload
        std = gaussian_noise_std(self.clip_norm, self.noise_multiplier)
        for key in VALUE_KEYS:
            values = payload.data.get(key)
            if values is None or len(values) == 0:
                continue
            payload.data[key] = add_gaussian_noise(values, std, self._rng)
        self._observed[int(client_id)] = _payload_values_norm(payload)
        return payload

    def _compress_random_defense(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        clipped, _ = clip_by_l2(delta, self.clip_norm)
        if self.defense_fraction > 0.0:
            keep = self._rng.random(len(clipped)) >= self.defense_fraction
            clipped = (clipped * keep).astype(clipped.dtype, copy=False)
        payload = self.inner.client_compress(client_id, clipped, weight)
        self._observed[int(client_id)] = _payload_values_norm(payload)
        return payload

    # -- privacy-aware engine hooks -----------------------------------------
    def feedback_norm(self, client_id: int, delta: np.ndarray) -> float:
        """The norm a norm-aware sampler may observe: privatized, not raw.

        For a client that compressed this round, the recorded norm of the
        (noisy) payload it actually uploaded.  With noise active, a
        client that released *nothing* this round has no privatized
        observable, so the fallback is the data-independent ceiling
        ``clip_norm`` — never the raw local norm, which would leak the
        very magnitude the mechanism withholds.  Without noise the
        wrapper adds no guarantee and delegates to the inner strategy.
        """
        recorded = self._observed.get(int(client_id))
        if recorded is not None:
            return recorded
        if self.mode == "gaussian" and self.noise_multiplier > 0:
            return float(self.clip_norm)
        return self.inner.feedback_norm(client_id, delta)

    def privacy_epsilon_spent(self) -> Optional[float]:
        """Cumulative ε after the rounds aggregated so far (None without
        an accountant — i.e. zero noise or ``random_defense``)."""
        if self.accountant is None:
            return None
        return self.accountant.epsilon()


def build_private_strategy(
    inner: CompressionStrategy,
    *,
    mode: str,
    rounds: int,
    sample_rate: float,
    epsilon: Optional[float] = None,
    delta: float = 1e-5,
    clip_norm: Optional[float] = None,
    noise_multiplier: Optional[float] = None,
    defense_fraction: Optional[float] = None,
    values_only: bool = False,
) -> PrivateStrategy:
    """Assemble a :class:`PrivateStrategy` from run-level knobs.

    This is the ``RunConfig`` → privacy bridge the server uses: in
    ``gaussian`` mode an explicit ``noise_multiplier`` wins; otherwise z
    is calibrated so the full ``rounds``-round spend stays within
    ``epsilon`` at ``delta``
    (:func:`~repro.privacy.accountant.calibrate_noise_multiplier`).
    ``values_only`` is :class:`PrivateStrategy`'s waiver for strategies
    with data-dependent coordinate selection.
    """
    if mode not in PRIVACY_MODES or mode == "off":
        raise ValueError(
            f"cannot build a private strategy for mode {mode!r}"
        )
    if mode == "gaussian" and noise_multiplier is None:
        if epsilon is None:
            raise ValueError(
                "gaussian privacy needs privacy_epsilon (a total budget to "
                "calibrate noise against) or an explicit noise multiplier"
            )
        from repro.privacy.accountant import calibrate_noise_multiplier

        noise_multiplier = calibrate_noise_multiplier(
            epsilon, delta, rounds, sample_rate
        )
    return PrivateStrategy(
        inner,
        mode=mode,
        clip_norm=clip_norm,
        noise_multiplier=noise_multiplier or 0.0,
        defense_fraction=(
            defense_fraction
            if defense_fraction is not None
            else DEFAULT_DEFENSE_FRACTION
        ),
        values_only=values_only,
        sample_rate=sample_rate,
        delta=delta,
        # attribute the values-only warning to this function's caller,
        # not to the construction line below
        _warn_stacklevel=3,
    )
