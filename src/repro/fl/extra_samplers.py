"""Additional client samplers from the paper's related-work section (§6).

These are extensions beyond the paper's core contribution, provided so the
library covers the sampling landscape GlueFL is positioned against:

* :class:`OortLikeSampler` — a utility-guided sampler in the spirit of
  Oort (Lai et al., 2021): clients are scored by a blend of statistical
  utility (recent training loss) and system speed, with an
  exploration/exploitation split.
* :class:`OptimalClientSampler` — Optimal Client Sampling (Chen et al.,
  2020): inclusion probabilities proportional to estimated per-client
  update norms (capped at 1, water-filled to an expected budget of K),
  drawn by systematic PPS and corrected by Horvitz–Thompson weights
  ``p_i / π_i``.  Norm estimates come from the engine's update-norm
  feedback hook (:meth:`~repro.fl.samplers.ClientSampler.observe_update`)
  through an :class:`UpdateNormEstimator`.
* :class:`DynamicScheduleSampler` — Dynamic Sampling (Ji et al., 2020): a
  wrapper that anneals the inner sampler's per-round budget K with an
  exponential decay schedule, so early rounds learn from broad
  participation and late rounds spend less bandwidth.

All plug into the :class:`~repro.fl.samplers.ClientSampler` interface and
own their aggregation-weight corrections (see the weight contract in
:mod:`repro.fl.samplers`): Oort returns ``1/K`` weights (it is biased
by design), OCS returns Horvitz–Thompson weights, and the dynamic wrapper
delegates to its inner sampler.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.fl.aggregation import equal_weights, horvitz_thompson_weights
from repro.fl.samplers import ClientSampler, SampleDraw
from repro.utils.arrays import sorted_unique
from repro.utils.client_state import LazyClientState

__all__ = [
    "OortLikeSampler",
    "UpdateNormEstimator",
    "OptimalClientSampler",
    "DynamicScheduleSampler",
    "capped_proportional_probs",
]


class OortLikeSampler(ClientSampler):
    """Utility-guided sampling in the spirit of Oort.

    Each client carries a utility score ``loss_utility × speed_utility``:

    * statistical utility = the client's most recent mean training loss
      (high loss ⇒ more to learn from), defaulting to a high prior so
      unexplored clients get tried;
    * system utility = ``(deadline / round_time)^α`` penalizing slow
      clients, fed back by the server via :meth:`observe_speed`.

    Per round, ``1 − exploration`` of the K slots go to the highest-utility
    known clients and the rest to unexplored ones.  This is *biased* by
    design; pair it with ``weight_mode="equal"``.
    """

    def __init__(
        self,
        num_to_sample: int,
        exploration: float = 0.2,
        speed_alpha: float = 1.0,
        deadline_seconds: float = 1.0,
    ):
        super().__init__(num_to_sample)
        if not 0.0 <= exploration <= 1.0:
            raise ValueError("exploration must be in [0, 1]")
        self.exploration = exploration
        self.speed_alpha = speed_alpha
        self.deadline_seconds = deadline_seconds
        self._loss: Dict[int, float] = {}
        self._speed: Dict[int, float] = {}
        #: ``_observed[c]``: ``c`` has a loss in ``_loss`` (one bool per
        #: client of the bound population, so a draw splits its pool in
        #: numpy rather than with a dict lookup per available client)
        self._observed = np.zeros(0, dtype=bool)

    def setup(self, num_clients: int, rng: np.random.Generator) -> None:
        super().setup(num_clients, rng)
        self._observed = np.zeros(num_clients, dtype=bool)
        ids = np.fromiter(self._loss, dtype=np.int64, count=len(self._loss))
        self._observed[ids[ids < num_clients]] = True

    # -- feedback hooks ------------------------------------------------------
    def observe_loss(self, client_id: int, mean_loss: float) -> None:
        client_id = int(client_id)
        self._loss[client_id] = float(mean_loss)
        if client_id < len(self._observed):
            self._observed[client_id] = True

    def observe_speed(self, client_id: int, round_seconds: float) -> None:
        self._speed[int(client_id)] = float(round_seconds)

    def utility(self, client_id: int) -> float:
        stat = self._loss.get(int(client_id), 10.0)  # optimistic prior
        seconds = self._speed.get(int(client_id))
        if seconds is None or seconds <= 0:
            system = 1.0
        else:
            system = min(1.0, (self.deadline_seconds / seconds)) ** self.speed_alpha
        return stat * system

    # -- sampling --------------------------------------------------------------
    def draw(
        self, round_idx: int, available: np.ndarray, overcommit: float = 1.0
    ) -> SampleDraw:
        pool = np.flatnonzero(available)
        if len(pool) == 0:
            raise RuntimeError(f"no clients available in round {round_idx}")
        want = min(self.k + self._extras(overcommit, self.k), len(pool))
        observed = self._observed[pool]
        explored, fresh = pool[observed], pool[~observed]

        n_explore = min(int(round(self.exploration * want)), len(fresh))
        n_exploit = min(want - n_explore, len(explored))
        chosen = []
        if n_exploit > 0:
            utilities = np.array([self.utility(c) for c in explored])
            order = np.argsort(utilities)[::-1]
            chosen.append(explored[order[:n_exploit]])
        remaining = want - n_exploit
        if remaining > 0 and len(fresh):
            take = min(remaining, len(fresh))
            chosen.append(self._rng.choice(fresh, size=take, replace=False))
        elif remaining > 0 and len(explored) > n_exploit:
            # no fresh clients left: backfill with the next-best explored
            utilities = np.array([self.utility(c) for c in explored])
            order = np.argsort(utilities)[::-1]
            extra = explored[order[n_exploit : n_exploit + remaining]]
            chosen.append(extra)
        candidates = (
            np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
        )
        return SampleDraw(
            sticky=np.empty(0, dtype=np.int64),
            nonsticky=candidates.astype(np.int64),
            quota_sticky=0,
            quota_nonsticky=min(self.k, len(candidates)),
        )

    def aggregation_weights(
        self, p: np.ndarray, sticky_ids: np.ndarray, nonsticky_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Oort's selection is biased by design (it chases utility, not a
        sampling distribution with known propensities); the convention is
        an unweighted ``1/K`` average of the selected updates."""
        return np.empty(0), equal_weights(nonsticky_ids)

    def complete_round(
        self, sticky_used: np.ndarray, nonsticky_used: np.ndarray
    ) -> None:
        # participation itself is recorded through observe_* feedback;
        # nothing structural to rebalance
        return None


# ------------------------------------------------------------ optimal sampling


def capped_proportional_probs(scores: np.ndarray, budget: int) -> np.ndarray:
    """Inclusion probabilities ``π_i = min(1, c · scores_i)`` with ``Σπ = budget``.

    The water-filling step of Optimal Client Sampling (Chen et al., 2020,
    Alg. 1): scale scores to sum to ``budget``, cap anything that exceeds 1
    and redistribute its excess over the rest, repeating until feasible.
    Zero-score clients inside an otherwise positive pool get probability 0;
    an all-zero pool degenerates to uniform ``budget / n``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if budget <= 0:
        return np.zeros(n)
    if budget >= n:
        return np.ones(n)
    probs = np.zeros(n)
    active = np.ones(n, dtype=bool)
    remaining = float(budget)
    for _ in range(n):
        total = scores[active].sum()
        if total <= 0.0:
            probs[active] = remaining / active.sum()
            break
        scaled = np.zeros(n)
        scaled[active] = scores[active] * (remaining / total)
        over = active & (scaled >= 1.0)
        if not over.any():
            probs[active] = scaled[active]
            break
        probs[over] = 1.0
        active &= ~over
        remaining = budget - probs[~active].sum()
        if not active.any():
            break
    return probs


class UpdateNormEstimator:
    """Per-client EMA of observed local-update norms.

    Unknown clients are treated *optimistically*: their estimate is the
    maximum known norm (or 1.0 before any observation), so a norm-aware
    sampler keeps exploring clients it has never aggregated.

    Observations are lazily materialized
    (:class:`~repro.utils.client_state.LazyClientState`): only ever-
    aggregated clients hold an entry, so the estimator costs O(cohort)
    memory at fleet scale.  ``estimates()`` still returns the dense
    N-vector the PPS draw needs — that allocation is per-draw, not
    resident state.
    """

    def __init__(self, num_clients: int, smoothing: float = 0.3):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self.num_clients = num_clients
        self._est = LazyClientState()

    @property
    def materialized_clients(self) -> int:
        """How many clients hold an observation (= ever aggregated)."""
        return len(self._est)

    def observe(self, client_id: int, norm: float) -> None:
        if norm < 0:
            raise ValueError("update norms are non-negative")
        cid = int(client_id)
        old = self._est.get(cid)
        if old is None:
            self._est.set(cid, float(norm))
        else:
            self._est.set(
                cid, (1.0 - self.smoothing) * old + self.smoothing * norm
            )

    def estimates(self) -> np.ndarray:
        """Effective norms: observations where known, optimistic elsewhere.

        A small floor keeps every probability positive — Horvitz–Thompson
        weights divide by π, so no available client may become unreachable.
        """
        known = self._est.values_by_id()
        prior = float(max(known.values())) if known else 1.0
        filled = np.full(self.num_clients, max(prior, 1e-12))
        if known:
            ids = np.fromiter(known.keys(), dtype=np.int64, count=len(known))
            vals = np.fromiter(known.values(), dtype=float, count=len(known))
            filled[ids] = vals
        floor = 1e-3 * max(prior, 1e-12)
        return np.maximum(filled, floor)


class OptimalClientSampler(ClientSampler):
    """Optimal Client Sampling (Chen et al., 2020): norm-proportional draws.

    Each round the sampler turns per-client update-norm estimates into
    inclusion probabilities ``π_i ∝ norm_i`` (capped at 1, water-filled so
    ``Σπ`` equals the round's draw size), samples that many distinct
    clients by systematic PPS over a randomly permuted pool, and exposes
    Horvitz–Thompson weights ``ν_i = p_i / π_i`` — an unbiased estimator
    of ``Σ p_i Δ_i`` for *any* positive π (property-tested).  Variance is
    minimized when π tracks the true update norms, which is exactly what
    the engine's norm-feedback hook estimates.

    Unbiasedness is exact under full availability without over-commitment.
    Over-committed draws are handled by realized-count self-normalization
    of the weights (see :meth:`aggregation_weights`); the residual bias
    from speed-correlated fastest-K selection is the same one the
    uniform/sticky samplers share (§5.6).

    The async scheduler's replacement dispatch also goes through the norm
    lens: :meth:`sample_replacements` draws ∝ the same estimates.
    """

    wants_update_norms = True

    def __init__(self, num_to_sample: int, smoothing: float = 0.3):
        super().__init__(num_to_sample)
        self._smoothing = smoothing
        self.estimator: Optional[UpdateNormEstimator] = None
        self._last_inclusion: np.ndarray = np.empty(0)
        self._last_draw_size: int = num_to_sample

    def setup(self, num_clients: int, rng: np.random.Generator) -> None:
        super().setup(num_clients, rng)
        self.estimator = UpdateNormEstimator(
            num_clients, smoothing=self._smoothing
        )
        self._last_inclusion = np.full(num_clients, np.nan)

    def observe_update(self, client_id: int, norm: float) -> None:
        self.estimator.observe(client_id, norm)

    def _systematic_pps(self, pool: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Draw ``round(Σprobs)`` distinct ids with inclusion probs ``probs``.

        Systematic sampling over a randomly permuted pool: with every
        ``π_i ≤ 1`` the grid points land in distinct intervals, so the
        draw has exactly the requested size and marginal inclusion
        probabilities equal to π.
        """
        want = int(round(probs.sum()))
        if want >= len(pool):
            return pool.copy()
        order = self._rng.permutation(len(pool))
        cum = np.cumsum(probs[order])
        points = self._rng.uniform() + np.arange(want)
        picks = np.searchsorted(cum, points, side="left")
        picks = np.minimum(picks, len(pool) - 1)
        # float-edge duplicates are measure-zero; dedup keeps the draw valid
        return pool[order[sorted_unique(picks)]]

    def draw(
        self, round_idx: int, available: np.ndarray, overcommit: float = 1.0
    ) -> SampleDraw:
        pool = np.flatnonzero(available)
        want = min(self.k + self._extras(overcommit, self.k), len(pool))
        if want == 0:
            raise RuntimeError(f"no clients available in round {round_idx}")
        norms = self.estimator.estimates()[pool]
        probs = capped_proportional_probs(norms, want)
        self._last_inclusion = np.full(self.num_clients, np.nan)
        self._last_inclusion[pool] = probs
        self._last_draw_size = want
        chosen = self._systematic_pps(pool, probs)
        return SampleDraw(
            sticky=np.empty(0, dtype=np.int64),
            nonsticky=chosen.astype(np.int64),
            quota_sticky=0,
            quota_nonsticky=min(self.k, want),
        )

    def aggregation_weights(
        self, p: np.ndarray, sticky_ids: np.ndarray, nonsticky_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Horvitz–Thompson ``ν_i = p_i / π_i``, self-normalized for
        over-commitment.

        With over-commitment only the fastest K of the ~1.3K drawn
        candidates aggregate, so raw HT weights would cover only K/1.3K
        of the objective in expectation.  Scaling by
        ``drawn / realized`` restores ``E[Σν] = Σp`` — the same
        realized-count self-normalization Eq. 2/Eq. 3 get by dividing by
        the actual participant count (under uniform norms this reduces
        exactly to ``fedavg_weights`` over the realized participants).
        """
        ids = np.asarray(nonsticky_ids, dtype=np.int64)
        if len(ids) == 0:
            return np.empty(0), np.empty(0)
        pi = self._last_inclusion[ids]
        if np.isnan(pi).any():
            raise RuntimeError(
                "aggregation_weights called with ids outside the last draw"
            )
        nu = horvitz_thompson_weights(p, ids, pi)
        return np.empty(0), nu * (self._last_draw_size / len(ids))

    def replacement_scores(self, pool: np.ndarray) -> Optional[np.ndarray]:
        """Async dispatch ∝ norm estimates (see the base hook)."""
        return self.estimator.estimates()[pool]


class DynamicScheduleSampler(ClientSampler):
    """Dynamic Sampling (Ji et al., 2020): anneal the budget K over rounds.

    Wraps any bucket-free sampler and shrinks its per-round budget
    ``K_t = max(k_min, round(K_0 · decay^(t−1)))`` — broad participation
    while the model moves fast, less bandwidth once it stabilizes.  All
    other sampler behavior (weights, feedback) delegates to the inner
    sampler, whose weight correction stays unbiased at every budget
    because it is recomputed from the realized draw.

    The sync scheduler only: annealing acts
    through :meth:`draw`, which the async scheduler never calls, and the
    semiasync scheduler folds stale updates across rounds whose ``1/K``
    share the annealed budget would distort — ``RunConfig.validate``
    rejects both combinations instead of silently misbehaving
    (``supports_async = False``).
    """

    supports_async = False

    def __init__(
        self, inner: ClientSampler, k_min: int, decay: float = 0.98
    ):
        if isinstance(inner, DynamicScheduleSampler):
            raise ValueError("cannot nest DynamicScheduleSampler")
        if not 0 < k_min <= inner.k:
            raise ValueError(
                f"need 0 < k_min <= K_0, got k_min={k_min}, K_0={inner.k}"
            )
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        sticky_floor = getattr(inner, "sticky_count", None)
        if sticky_floor is not None and k_min < sticky_floor:
            raise ValueError(
                "k_min below the inner sampler's sticky_count would break "
                "its quota split"
            )
        self.inner = inner
        self.k0 = inner.k
        self.k_min = k_min
        self.decay = decay
        self.wants_update_norms = inner.wants_update_norms

    @property
    def k(self) -> int:  # noqa: D401 - mirrors the base attribute
        """The inner sampler's *current* budget (K_0 before any draw)."""
        return self.inner.k

    @property
    def num_clients(self) -> int:
        return self.inner.num_clients

    def budget_at(self, round_idx: int) -> int:
        """The annealed budget K_t for ``round_idx`` (1-based)."""
        t = max(0, round_idx - 1)
        return max(self.k_min, int(round(self.k0 * self.decay**t)))

    def setup(self, num_clients: int, rng: np.random.Generator) -> None:
        # a run starts at K_0: a sampler reused from an earlier run would
        # otherwise keep that run's annealed budget
        self.inner.k = self.k0
        self.inner.setup(num_clients, rng)

    def draw(
        self, round_idx: int, available: np.ndarray, overcommit: float = 1.0
    ) -> SampleDraw:
        self.inner.k = self.budget_at(round_idx)
        return self.inner.draw(round_idx, available, overcommit)

    @property
    def supports_pool_draw(self) -> bool:
        # class attributes resolve on the base class before __getattr__
        # runs, so the pool capability must delegate explicitly
        return self.inner.supports_pool_draw

    def draw_pool(
        self, round_idx: int, pool, overcommit: float = 1.0
    ) -> SampleDraw:
        self.inner.k = self.budget_at(round_idx)
        return self.inner.draw_pool(round_idx, pool, overcommit)

    def sample_replacements_pool(self, pool, exclude, count: int):
        return self.inner.sample_replacements_pool(pool, exclude, count)

    def complete_round(
        self, sticky_used: np.ndarray, nonsticky_used: np.ndarray
    ) -> None:
        self.inner.complete_round(sticky_used, nonsticky_used)

    def aggregation_weights(
        self, p: np.ndarray, sticky_ids: np.ndarray, nonsticky_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner.aggregation_weights(p, sticky_ids, nonsticky_ids)

    def observe_update(self, client_id: int, norm: float) -> None:
        self.inner.observe_update(client_id, norm)

    def dp_sample_rate(self, num_clients: int, overcommit: float) -> float:
        # annealing only ever shrinks the inner budget, so the inner
        # sampler's rate (computed at K_0) stays a valid upper bound
        return self.inner.dp_sample_rate(num_clients, overcommit)

    def sample_replacements(
        self, available: np.ndarray, exclude: np.ndarray, count: int
    ) -> np.ndarray:
        return self.inner.sample_replacements(available, exclude, count)

    def __getattr__(self, name: str):
        # inner-specific hooks (Oort's observe_loss/observe_speed, sticky
        # membership helpers, ...) pass through; only reached for names
        # this wrapper doesn't define itself
        if name == "inner":  # pickle/copy probe before __init__ ran
            raise AttributeError(name)
        return getattr(self.inner, name)
