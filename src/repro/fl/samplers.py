"""Client sampling: uniform (FedAvg), sticky (GlueFL Alg. 2), Poisson (DP).

A sampler produces a :class:`SampleDraw` per round: *candidate* client ids
(over-committed, §5.6) split into a sticky and a non-sticky bucket with
participation quotas.  The simulator picks the fastest candidates within
each bucket; after the round, :meth:`ClientSampler.complete_round` lets the
sticky sampler rebalance its group (Alg. 2 lines 20–21).

The weight contract
-------------------
Every sampler *owns its unbiasedness correction*: the server asks
:meth:`ClientSampler.aggregation_weights` for the per-participant weights
ν, and the sampler must return weights that make the aggregated update an
unbiased estimator of the full-participation objective ``Σ p_i Δ_i`` under
its own sampling distribution (or document its bias, see
:mod:`repro.fl.extra_samplers`).  The server never special-cases sampler
types — a new sampling policy only has to implement ``draw`` plus
``aggregation_weights`` to plug into every scheduler:

* :class:`UniformSampler` → Eq. 2 FedAvg weights ``(N / K) · p_i``;
* :class:`StickySampler` → Eq. 3 inverse-propensity weights per bucket
  (falling back to Eq. 2 when the sticky bucket is empty);
* norm-aware samplers → Horvitz–Thompson weights ``p_i / π_i`` from their
  own inclusion probabilities π.

``weight_mode="equal"`` in :class:`~repro.fl.config.RunConfig` bypasses
this contract entirely (the Fig. 5 "Equal" ablation).

Samplers that adapt to training signals set ``wants_update_norms`` and
receive :meth:`ClientSampler.observe_update` callbacks — the engine's
compression seam feeds every participant's update norm back after local
training (the *privatized* norm whenever a privacy wrapper is active,
never the raw one; see
:meth:`repro.privacy.strategy.PrivateStrategy.feedback_norm`), in both
the sync and async schedulers.  Samplers with an ``observe_loss`` hook
receive each participant's training loss the same way, except under a
privacy wrapper, which withholds it
(:meth:`repro.privacy.strategy.PrivateStrategy.feedback_loss`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.fl.aggregation import fedavg_weights, sticky_weights

__all__ = [
    "SampleDraw",
    "ClientSampler",
    "UniformSampler",
    "PoissonSampler",
    "StickySampler",
]


@dataclass
class SampleDraw:
    """One round's candidate sets and quotas.

    ``sticky``/``nonsticky`` are candidate ids (already over-committed);
    the quotas say how many from each bucket actually aggregate.
    """

    sticky: np.ndarray
    nonsticky: np.ndarray
    quota_sticky: int
    quota_nonsticky: int

    @property
    def candidates(self) -> np.ndarray:
        return np.concatenate([self.sticky, self.nonsticky])


class ClientSampler:
    """Base sampler interface.

    Subclasses implement :meth:`draw`; policies whose sampling distribution
    is not uniform must also override :meth:`aggregation_weights` (see the
    module docs for the weight contract).  Samplers that adapt to observed
    update magnitudes set :attr:`wants_update_norms` and override
    :meth:`observe_update`.
    """

    #: set True on samplers that consume per-client update-norm feedback;
    #: the engine then calls :meth:`observe_update` for every participant
    #: after local training (sync and async schedulers alike)
    wants_update_norms: bool = False

    #: set False on samplers whose policy only acts through per-round
    #: ``draw`` calls (which the async scheduler never makes — it
    #: dispatches via :meth:`sample_replacements` instead); the config
    #: rejects such samplers under ``scheduler="async"`` rather than
    #: silently ignoring their policy
    supports_async: bool = True

    #: set True on samplers that implement :meth:`draw_pool` — the
    #: O(idle) draw path an event-driven population offers via
    #: :class:`~repro.population.population.IdlePool` when
    #: ``RunConfig.population_scalable_sampling`` is on.  The config
    #: rejects the knob for samplers that leave this False (their policy
    #: needs a dense availability mask)
    supports_pool_draw: bool = False

    def __init__(self, num_to_sample: int):
        if num_to_sample <= 0:
            raise ValueError("num_to_sample must be positive")
        self.k = num_to_sample
        self.num_clients = 0

    def setup(self, num_clients: int, rng: np.random.Generator) -> None:
        if num_clients < self.k:
            raise ValueError(
                f"cannot sample {self.k} of {num_clients} clients"
            )
        self.num_clients = num_clients
        self._rng = rng

    def draw(
        self, round_idx: int, available: np.ndarray, overcommit: float = 1.0
    ) -> SampleDraw:
        raise NotImplementedError

    def complete_round(
        self, sticky_used: np.ndarray, nonsticky_used: np.ndarray
    ) -> None:
        """Notify the sampler which candidates actually participated."""

    def aggregation_weights(
        self, p: np.ndarray, sticky_ids: np.ndarray, nonsticky_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Unbiased aggregation weights ``(ν_s, ν_r)`` for this sampler's draw.

        ``p`` are the data weights (shard sizes normalized to 1); the ids
        are the round's *actual* participants split into the same buckets
        the draw produced.  The default is Eq. 2's FedAvg correction
        ``(N / K) · p_i`` over the non-sticky bucket — correct for any
        sampler that draws uniformly without replacement and leaves the
        sticky bucket empty.

        >>> import numpy as np
        >>> sampler = UniformSampler(2)
        >>> sampler.setup(4, np.random.default_rng(0))
        >>> p = np.full(4, 0.25)
        >>> none, nu = sampler.aggregation_weights(
        ...     p, np.empty(0, np.int64), np.array([1, 3]))
        >>> nu.tolist()                     # (N / K) · p_i = (4 / 2) · 0.25
        [0.5, 0.5]
        """
        return np.empty(0), fedavg_weights(p, nonsticky_ids, self.num_clients)

    def observe_update(self, client_id: int, norm: float) -> None:
        """Feedback hook: the norm of ``client_id``'s raw local update.

        Called by the engine for every aggregated participant when
        :attr:`wants_update_norms` is set; the base sampler ignores it.
        """

    def dp_sample_rate(self, num_clients: int, overcommit: float) -> float:
        """Per-round inclusion probability the privacy accountant may use.

        The accountant's amplification bound (the Mironov et al.
        sampled-Gaussian RDP bound) is proved for **Poisson** subsampling:
        each client included independently with probability ≤ q.  The base
        answer is the conservative **1.0** — no amplification claimed —
        because no other draw shape qualifies: sticky groups and
        norm/utility policies give some clients a history-correlated
        inclusion probability, and even uniform fixed-size sampling
        without replacement is a different scheme whose RDP the Poisson
        bound does not upper-bound.  Only a sampler whose draw *is*
        independent per-client Bernoulli overrides this (see
        :class:`PoissonSampler`).
        """
        return 1.0

    def replacement_scores(self, pool: np.ndarray) -> Optional[np.ndarray]:
        """Optional per-client scores biasing async replacement dispatch.

        ``None`` (the default) means uniform dispatch over the pool;
        norm-aware samplers return their estimates so in-flight slots go
        to the clients expected to contribute most.
        """
        return None

    def sample_replacements(
        self, available: np.ndarray, exclude: np.ndarray, count: int
    ) -> np.ndarray:
        """Draw up to ``count`` fresh clients for an async dispatch wave.

        Over the online pool minus ``exclude`` (in-flight clients),
        without replacement — uniform unless :meth:`replacement_scores`
        biases the draw.  The async scheduler is sampler-agnostic, so
        this serves sticky samplers too (sticky quotas are a
        synchronous-round concept).  Returns fewer than ``count`` ids
        when the pool runs dry.
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        pool = np.flatnonzero(available)
        if len(exclude):
            pool = pool[~np.isin(pool, exclude)]
        if len(pool) == 0:
            return np.empty(0, dtype=np.int64)
        take = min(count, len(pool))
        scores = self.replacement_scores(pool)
        probs = None
        if scores is not None:
            total = scores.sum()
            if total > 0:
                probs = scores / total
        return self._rng.choice(
            pool, size=take, replace=False, p=probs
        ).astype(np.int64)

    def draw_pool(
        self, round_idx: int, pool, overcommit: float = 1.0
    ) -> SampleDraw:
        """O(idle) analogue of :meth:`draw` over an ``IdlePool``.

        ``pool`` is the population's maintained idle index
        (:class:`~repro.population.population.IdlePool`); the draw must
        touch only O(k + |pool interactions|) work, never an N-wide mask.
        Note this is a *different RNG stream* than :meth:`draw` — rounds
        sampled through the pool are not bit-identical to mask-based
        rounds, which is why ``population_scalable_sampling`` is opt-in.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support pool draws"
        )

    def sample_replacements_pool(
        self, pool, exclude, count: int
    ) -> np.ndarray:
        """O(count) analogue of :meth:`sample_replacements` over a pool.

        Uniform without replacement over the idle pool minus ``exclude``
        (in-flight clients).  Norm-aware dispatch biasing
        (:meth:`replacement_scores`) is *not* applied on this path — the
        config restricts scalable sampling to samplers whose replacement
        policy is uniform.
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        return pool.sample(self._rng, count, exclude=exclude)

    @staticmethod
    def _extras(overcommit: float, k: int) -> int:
        if overcommit < 1.0:
            raise ValueError(f"overcommit must be >= 1.0, got {overcommit}")
        # round at 1e-9 first so 0.3 * 10 == 3.0000000000000004 ceils to 3
        return math.ceil(round((overcommit - 1.0) * k, 9))


class UniformSampler(ClientSampler):
    """FedAvg's uniform sampling without replacement.

    Claims no DP amplification (``dp_sample_rate`` stays 1.0): a
    fixed-size draw bounds each client's *marginal* inclusion by
    ``OC·K/N``, but it is not Poisson subsampling — inclusions are
    negatively correlated — and the accountant's Poisson bound being
    monotone in q does not make it an upper bound across sampling
    schemes.  Use :class:`PoissonSampler` when amplification matters.
    """

    supports_pool_draw = True

    def draw_pool(
        self, round_idx: int, pool, overcommit: float = 1.0
    ) -> SampleDraw:
        want = min(self.k + self._extras(overcommit, self.k), len(pool))
        if want == 0:
            raise RuntimeError(f"no clients available in round {round_idx}")
        chosen = pool.sample(self._rng, want)
        return SampleDraw(
            sticky=np.empty(0, dtype=np.int64),
            nonsticky=chosen,
            quota_sticky=0,
            quota_nonsticky=min(self.k, want),
        )

    def draw(
        self, round_idx: int, available: np.ndarray, overcommit: float = 1.0
    ) -> SampleDraw:
        pool = np.flatnonzero(available)
        want = min(self.k + self._extras(overcommit, self.k), len(pool))
        if want == 0:
            raise RuntimeError(f"no clients available in round {round_idx}")
        chosen = self._rng.choice(pool, size=want, replace=False)
        return SampleDraw(
            sticky=np.empty(0, dtype=np.int64),
            nonsticky=chosen.astype(np.int64),
            quota_sticky=0,
            quota_nonsticky=min(self.k, want),
        )


class PoissonSampler(ClientSampler):
    """Poisson (independent per-client Bernoulli) sampling — the DP sampler.

    Every available client joins the round's candidate set independently
    with probability ``q = min(1, OC·K/N)``; the round aggregates the
    fastest ``min(K, |drawn|)`` of them.  Unlike the fixed-size samplers
    the cohort size varies round to round and can come up *empty* — set
    ``skip_empty_rounds=True`` on small federations.

    This is the only built-in sampler whose :meth:`dp_sample_rate` claims
    subsampling amplification, because its draw is exactly the scheme the
    accountant's sampled-Gaussian RDP bound is proved for.  A client's
    inclusion in the *aggregated* set is Bernoulli with probability
    ``q·s_i ≤ q``, where ``s_i`` (online, survives, fast enough) is
    data-independent, so the rate-``q`` Poisson bound upper-bounds the
    release.

    Aggregation uses the inherited Eq. 2 correction ``(N/K)·p_i`` — the
    Horvitz–Thompson weight at the expected participation rate ``K/N``.
    Like the other samplers' corrections it treats over-commitment and
    speed selection as second-order (see
    :mod:`repro.fl.extra_samplers` for the bias discussion).
    """

    #: Poisson's policy lives entirely in per-round draw() calls, which
    #: the async scheduler never makes (it dispatches replacements
    #: continuously) — the config rejects the pairing
    supports_async = False

    def dp_sample_rate(self, num_clients: int, overcommit: float) -> float:
        """The genuine Poisson candidate rate ``q = min(1, OC·K/N)``."""
        return min(1.0, overcommit * self.k / num_clients)

    def draw(
        self, round_idx: int, available: np.ndarray, overcommit: float = 1.0
    ) -> SampleDraw:
        if overcommit < 1.0:
            raise ValueError(f"overcommit must be >= 1.0, got {overcommit}")
        pool = np.flatnonzero(available)
        if len(pool) == 0:
            raise RuntimeError(f"no clients available in round {round_idx}")
        rate = self.dp_sample_rate(self.num_clients, overcommit)
        drawn = pool[self._rng.random(len(pool)) < rate]
        return SampleDraw(
            sticky=np.empty(0, dtype=np.int64),
            nonsticky=drawn.astype(np.int64),
            quota_sticky=0,
            quota_nonsticky=min(self.k, len(drawn)),
        )


class StickySampler(ClientSampler):
    """GlueFL sticky sampling (Algorithm 2).

    Parameters
    ----------
    num_to_sample:
        K — total clients aggregated per round.
    group_size:
        S — sticky-group size (paper default ``4K``).
    sticky_count:
        C — how many of the K come from the sticky group (paper ``4K/5``).
    oc_sticky_share:
        Fraction of over-commitment extras drawn from the sticky group;
        ``None`` uses the paper's default of ``C/K`` (§5.6 evaluates 10%,
        30%, 50% alternatives in Table 3a).
    """

    supports_pool_draw = True

    def __init__(
        self,
        num_to_sample: int,
        group_size: int,
        sticky_count: int,
        oc_sticky_share: Optional[float] = None,
    ):
        super().__init__(num_to_sample)
        if not 0 < sticky_count <= num_to_sample:
            raise ValueError(
                f"need 0 < C <= K, got C={sticky_count}, K={num_to_sample}"
            )
        if group_size < sticky_count:
            raise ValueError(
                f"sticky group (S={group_size}) smaller than C={sticky_count}"
            )
        if oc_sticky_share is not None and not 0.0 <= oc_sticky_share <= 1.0:
            raise ValueError("oc_sticky_share must be in [0, 1]")
        self.group_size = group_size
        self.sticky_count = sticky_count
        self.oc_sticky_share = oc_sticky_share
        self.sticky_group: np.ndarray = np.empty(0, dtype=np.int64)

    def setup(self, num_clients: int, rng: np.random.Generator) -> None:
        super().setup(num_clients, rng)
        if num_clients <= self.group_size:
            raise ValueError(
                f"sticky group S={self.group_size} must be smaller than "
                f"the federation (N={num_clients})"
            )
        self.sticky_group = rng.choice(
            num_clients, size=self.group_size, replace=False
        ).astype(np.int64)

    def draw(
        self, round_idx: int, available: np.ndarray, overcommit: float = 1.0
    ) -> SampleDraw:
        in_sticky = np.zeros(self.num_clients, dtype=bool)
        in_sticky[self.sticky_group] = True
        sticky_pool = np.flatnonzero(available & in_sticky)
        nonsticky_pool = np.flatnonzero(available & ~in_sticky)

        share = (
            self.oc_sticky_share
            if self.oc_sticky_share is not None
            else self.sticky_count / self.k
        )
        extras = self._extras(overcommit, self.k)
        extra_sticky = int(round(extras * share))
        extra_non = extras - extra_sticky

        want_sticky = min(self.sticky_count + extra_sticky, len(sticky_pool))
        quota_sticky = min(self.sticky_count, want_sticky)
        # if the sticky pool falls short, refill the round from non-sticky
        want_non = min(
            self.k - quota_sticky + extra_non, len(nonsticky_pool)
        )
        sticky = self._rng.choice(sticky_pool, size=want_sticky, replace=False)
        nonsticky = self._rng.choice(nonsticky_pool, size=want_non, replace=False)
        quota_non = min(self.k - quota_sticky, want_non)
        return SampleDraw(
            sticky=sticky.astype(np.int64),
            nonsticky=nonsticky.astype(np.int64),
            quota_sticky=quota_sticky,
            quota_nonsticky=quota_non,
        )

    def draw_pool(
        self, round_idx: int, pool, overcommit: float = 1.0
    ) -> SampleDraw:
        """Same quota split as :meth:`draw`, but O(S + k) instead of O(N).

        The sticky bucket is tiny (S clients), so probing the pool for the
        group's idle members is cheap; the non-sticky bucket draws from
        the pool directly with the sticky group excluded.
        """
        sticky_pool = np.sort(
            self.sticky_group[pool.contains(self.sticky_group)]
        )
        share = (
            self.oc_sticky_share
            if self.oc_sticky_share is not None
            else self.sticky_count / self.k
        )
        extras = self._extras(overcommit, self.k)
        extra_sticky = int(round(extras * share))
        extra_non = extras - extra_sticky

        want_sticky = min(self.sticky_count + extra_sticky, len(sticky_pool))
        quota_sticky = min(self.sticky_count, want_sticky)
        nonsticky_eligible = len(pool) - len(sticky_pool)
        want_non = min(
            self.k - quota_sticky + extra_non, nonsticky_eligible
        )
        sticky = self._rng.choice(sticky_pool, size=want_sticky, replace=False)
        nonsticky = pool.sample(self._rng, want_non, exclude=self.sticky_group)
        quota_non = min(self.k - quota_sticky, len(nonsticky))
        return SampleDraw(
            sticky=sticky.astype(np.int64),
            nonsticky=nonsticky,
            quota_sticky=quota_sticky,
            quota_nonsticky=quota_non,
        )

    def aggregation_weights(
        self, p: np.ndarray, sticky_ids: np.ndarray, nonsticky_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 3 inverse-propensity weights for the two buckets.

        Theorem 1: ``ν_s = (S / C) · p_i`` over-weighted sticky draws down
        and ``ν_r = ((N − S) / (K − C)) · p_i`` non-sticky draws up make
        the sticky-sampled update unbiased.  When the sticky bucket is
        empty (e.g. the whole group dropped out) the round degenerates to
        a uniform draw and Eq. 2 applies.
        """
        if not len(sticky_ids):
            return super().aggregation_weights(p, sticky_ids, nonsticky_ids)
        return sticky_weights(
            p,
            sticky_ids,
            nonsticky_ids,
            group_size=self.group_size,
            num_clients=self.num_clients,
        )

    def complete_round(
        self, sticky_used: np.ndarray, nonsticky_used: np.ndarray
    ) -> None:
        """Rebalance: swap |R| sticky non-participants for the new R clients.

        Implements Alg. 2 lines 20–21: remove ``|R|`` random clients from
        ``S \\ C`` and admit the non-sticky participants, keeping ``|S|``
        constant.
        """
        newcomers = np.asarray(nonsticky_used, dtype=np.int64)
        if len(newcomers) == 0:
            return
        participated = set(np.asarray(sticky_used).tolist())
        removable = np.array(
            [c for c in self.sticky_group if c not in participated],
            dtype=np.int64,
        )
        n_swap = min(len(newcomers), len(removable))
        to_remove = set(
            self._rng.choice(removable, size=n_swap, replace=False).tolist()
        )
        kept = np.array(
            [c for c in self.sticky_group if c not in to_remove], dtype=np.int64
        )
        self.sticky_group = np.concatenate([kept, newcomers[:n_swap]])
