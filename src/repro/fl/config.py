"""Run configuration for the FL simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.compression.base import CompressionStrategy
from repro.datasets.base import FederatedDataset
from repro.fl.samplers import ClientSampler
from repro.nn.optim import ExponentialDecay

__all__ = ["RunConfig"]


@dataclass
class RunConfig:
    """Everything needed to launch one training run.

    The defaults follow the paper's §5.1 training parameters: 10 local
    updates, SGD momentum 0.9, exponential LR decay 0.98 every 10 rounds,
    over-commitment 1.3.

    Runtime knobs (see :mod:`repro.runtime`):

    * ``execution_backend`` — how participants are trained each round:
      ``"serial"`` (default) or ``"process"``.  Both are bit-identical
      for the same seed; process trades fork and memory cost for
      wall-clock on multi-core hosts when training dominates the round.
    * ``backend_workers`` — worker count for the process backend
      (default: the CPUs the process may run on, capped at K —
      ``repro.runtime.backends.usable_cpus``).
    * ``dtype`` — ``"float64"`` (default) or ``"float32"``; float32 runs
      the whole hot path (model, training, compression, aggregation) in
      single precision for a large CPU speedup at FL-irrelevant accuracy
      cost.

    Scheduling knobs (see :mod:`repro.engine.schedulers`):

    * ``scheduler`` — the round shape: ``"sync"`` (default, Algorithm 1),
      ``"async"`` (FedBuff-style buffered asynchrony; one round == one
      buffer flush of ``async_buffer_size`` arrivals, weighted by
      ``(1 + τ)^(−async_staleness_alpha)``), ``"failure"`` (sync rounds
      with periodic dropout bursts + straggler storms), ``"semiasync"``
      (FLASH-style tiered rounds: the fast tier aggregates synchronously
      at its deadline, over-committed stragglers fold into later rounds
      with staleness-discounted weights, capped at ``semiasync_max_lag``
      rounds of lag), or ``"overlapped"`` (sync learning dynamics under a
      pipelined clock: round *t+1*'s downloads overlap round *t*'s
      uploads).  Every scheduler runs on the shared
      :class:`~repro.engine.clock.SimClock` and stamps cumulative
      simulated time into ``RoundRecord.wall_clock_s``.
    * ``skip_empty_rounds`` — survive rounds where nobody's update arrives
      by recording a zero-participant round instead of raising.

    Device population (see :mod:`repro.population`):

    * ``population_preset`` — model the federation as a vectorized
      :class:`~repro.population.DeviceStatePopulation` (numpy state
      columns with an idle/working/offline/dropped state machine) driven
      by a scenario trace: ``"none"``, ``"diurnal"``, ``"device-classes"``
      (phone/tablet/silo), or ``"storm"`` (periodic churn bursts).
      ``scheduler="failure"`` auto-builds the ``"storm"`` population from
      the ``failure_*`` knobs (storms wrap any other preset it is combined
      with).
    * ``population_scalable_sampling`` — draw cohorts from the
      population's maintained idle index (O(idle) per draw) instead of
      N-wide availability masks; a different RNG stream, so opt-in.
    * ``residual_max_clients`` — bound the server's per-client residual
      stores to an LRU budget (evicted clients lose only their error
      compensation).
    * ``quorum_fraction`` / ``redraw_max_attempts`` / ``redraw_backoff_s``
      — graceful degradation: when a round's surviving cohort falls below
      ``quorum_fraction · K``, the round re-draws fresh candidates
      up to ``redraw_max_attempts`` times (each wave's round time plus
      ``redraw_backoff_s`` is charged to the simulated clock) before
      falling back to ``skip_empty_rounds`` semantics.

    Sampling policy (see :mod:`repro.fl.samplers` for the weight contract):

    * ``sampler`` — any :class:`~repro.fl.samplers.ClientSampler`.  Each
      sampler owns its aggregation-weight correction, so beyond the
      paper's :class:`~repro.fl.samplers.UniformSampler` (Eq. 2) and
      :class:`~repro.fl.samplers.StickySampler` (Eq. 3), the norm-aware
      :class:`~repro.fl.extra_samplers.OptimalClientSampler`
      (Horvitz–Thompson weights, fed by the engine's update-norm hook)
      and the budget-annealing
      :class:`~repro.fl.extra_samplers.DynamicScheduleSampler` wrapper
      plug in without server changes.
    * ``weight_mode="equal"`` — bypass the sampler's correction with the
      biased ``1/K`` weights of the Fig. 5 "Equal" ablation.

    Privacy (see :mod:`repro.privacy`):

    * ``privacy_mode`` — ``"off"`` (default; the configured strategy runs
      untouched), ``"gaussian"`` (clip each client's update to
      ``privacy_clip_norm`` — required in this mode — add calibrated
      Gaussian noise to the *transmitted* coordinates only, and track the
      spend with an RDP accountant), or ``"random_defense"`` (Kim &
      Park's random gradient masking: zero a random
      ``privacy_defense_fraction`` of each update before compression —
      no ε, no noise, and no clipping unless ``privacy_clip_norm`` is
      set).
    * ``privacy_epsilon`` / ``privacy_delta`` — the total (ε, δ) budget
      for the whole run; the server calibrates the noise multiplier so
      ``rounds`` rounds spend at most ε.  An explicit
      ``privacy_noise_multiplier`` overrides the calibration.
    * Accounting is honest about composition: with noise on, the wrapped
      strategy's client-side error compensation is disabled (residuals
      would breach the clip bound; ``random_defense`` disables it too, so
      masked coordinates are not re-uploaded later), and subsampling
      amplification is only claimed when the sampler's ``dp_sample_rate``
      genuinely bounds per-round inclusion under the *Poisson* scheme the
      accountant's bound is proved for
      (:class:`~repro.fl.samplers.PoissonSampler`; every other built-in
      sampler and the async scheduler account at rate 1.0).
    * Sparsifying strategies whose clients choose their own transmitted
      coordinates (STC, the GlueFL mask) release a data-dependent index
      set that value noise cannot cover, so gaussian noise over them is
      rejected unless ``privacy_values_only=True`` acknowledges (with a
      warning) that the reported ε covers the released values only.
    * Per-round spend lands in
      :attr:`~repro.fl.metrics.RoundRecord.privacy_epsilon_spent`, and
      norm-aware samplers only ever observe privatized update norms.

    >>> RunConfig.__dataclass_fields__["privacy_mode"].default
    'off'
    """

    # workload
    dataset: FederatedDataset
    model_name: str
    strategy: CompressionStrategy
    sampler: ClientSampler
    rounds: int

    # local training (paper §5.1)
    local_steps: int = 10
    batch_size: int = 16
    lr: float = 0.05
    lr_decay: float = 0.98
    lr_decay_every: int = 10
    momentum: float = 0.9
    weight_decay: float = 0.0
    model_kwargs: Dict[str, Any] = field(default_factory=dict)

    # systems environment
    network_profile: str = "ndt"
    #: Calibrated to reproduce the paper's Fig. 9 regimes with our ~100×
    #: smaller stand-in models: on NDT-like end-user links transmission
    #: dominates the round (several × compute), while on 5G/datacenter
    #: links the same compute dominates transmission.  (Wire times shrink
    #: with the model ~100×, so compute must shrink with them.)
    base_step_seconds: float = 0.008
    compute_sigma: float = 0.5
    overcommit: float = 1.3
    mean_on_fraction: float = 0.9
    dropout_prob: float = 0.05
    always_available: bool = False
    #: optional pre-built availability trace (e.g.
    #: :class:`~repro.traces.diurnal.DiurnalAvailabilityTrace`); overrides
    #: the duty-cycle trace built from the fields above
    availability_trace: Optional[Any] = None

    # aggregation (Fig. 5 ablation switch)
    weight_mode: str = "unbiased"  # "unbiased" | "equal"

    # runtime policy (repro.runtime)
    execution_backend: str = "serial"  # "serial" | "process"
    backend_workers: Optional[int] = None
    #: "float64" | "float32" (see repro.runtime.dtype)
    dtype: str = "float64"
    #: process backend only: runtime sanitizer (see
    #: :mod:`repro.runtime.sanitize`) — tag the result-ring slots with
    #: claim epochs and the parent-side ring views with the dispatch
    #: epoch, and raise ``SanitizerError`` on a double slot claim or a
    #: result touched after the next dispatch reclaimed the ring.
    #: Debugging aid (every touch of a ring view pays a tag check), so it
    #: defaults off; ``REPRO_SANITIZE=1`` in the environment also enables it
    sanitize: bool = False

    # round scheduling (repro.engine)
    #: round shape: "sync" (Algorithm 1), "async" (FedBuff-style buffered
    #: asynchrony), "failure" (sync + injected dropout bursts/straggler
    #: storms), "semiasync" (sync fast tier + stale straggler fold-ins) or
    #: "overlapped" (sync dynamics under a pipelined clock); see
    #: :mod:`repro.engine.schedulers` for semantics
    scheduler: str = "sync"
    #: record a zero-participant RoundRecord and continue instead of
    #: aborting when no participant survives a round
    skip_empty_rounds: bool = False
    #: async: aggregate every M client arrivals
    async_buffer_size: int = 5
    #: async: clients kept in flight (default: the sampler's K)
    async_concurrency: Optional[int] = None
    #: async + semiasync: staleness-discount exponent α in ``(1 + τ)^(−α)``
    async_staleness_alpha: float = 0.5
    #: semiasync: discard straggler arrivals staler than this many rounds
    #: (0 keeps only same-round arrivals)
    semiasync_max_lag: int = 10
    #: failure: inject a burst every Nth round (0 disables).  Round
    #: indices are 1-based, so the first burst lands at round
    #: ``failure_burst_every`` — round 1 is never a burst unless this is 1
    failure_burst_every: int = 5
    #: failure: extra mid-round dropout probability during a burst
    failure_burst_dropout: float = 0.75
    #: failure: fraction of candidates slowed by a straggler storm
    failure_straggler_fraction: float = 0.3
    #: failure: compute-time multiplier for storm-hit candidates
    failure_straggler_slowdown: float = 4.0

    # device population (repro.population)
    #: scenario preset building a vectorized
    #: :class:`~repro.population.DeviceStatePopulation` as the server's
    #: availability model: "none" | "diurnal" | "device-classes" | "storm"
    #: (``scheduler="failure"`` defaults to "storm" automatically)
    population_preset: Optional[str] = None
    #: pre-built :class:`~repro.population.DeviceStatePopulation`;
    #: overrides ``population_preset``
    population: Optional[Any] = None
    #: floor on any trace-assigned per-client completeness (work fraction)
    population_min_completeness: float = 0.25
    #: cap on any trace-assigned compute-slowdown multiplier
    population_max_responsiveness: float = 8.0
    #: rounds a mid-round-dropped client sits out before rejoining the pool
    population_dropped_cooldown: int = 1
    #: sample cohorts from the population's maintained idle index
    #: (:class:`~repro.population.IdlePool`, O(idle) per draw) instead of
    #: building N-wide availability masks.  A *different RNG stream* than
    #: the mask-based draw — cohorts differ for the same seed — so it is
    #: opt-in; requires a population, a pool-capable sampler
    #: (``supports_pool_draw``), and no ``quorum_fraction``
    population_scalable_sampling: bool = False
    #: bound every per-client residual store the strategy keeps (error
    #: compensation) to an LRU of this many clients; an evicted client
    #: loses only its accumulated compensation (its next update is
    #: uncompensated, never wrong).  None (the default) keeps all N
    residual_max_clients: Optional[int] = None
    #: graceful degradation: minimum surviving cohort, as a fraction of the
    #: sampler's K, below which the round re-draws fresh candidates
    #: (None disables quorum checking).  Sync-shaped schedulers only
    quorum_fraction: Optional[float] = None
    #: quorum: bounded number of re-draw waves before giving up and
    #: degrading to ``skip_empty_rounds`` semantics
    redraw_max_attempts: int = 2
    #: quorum: extra simulated seconds charged to the clock per re-draw
    #: (on top of the failed wave's round time)
    redraw_backoff_s: float = 0.0

    # privacy (repro.privacy)
    #: "off" | "gaussian" | "random_defense"
    privacy_mode: str = "off"
    #: total (ε, δ)-DP budget for the run; the noise multiplier is
    #: calibrated so `rounds` rounds spend at most this (gaussian mode)
    privacy_epsilon: Optional[float] = None
    #: the δ of the (ε, δ) guarantee
    privacy_delta: float = 1e-5
    #: per-client L2 clip bound S (the mechanism's sensitivity); required
    #: for gaussian noise — there is no sensible universal default, S is a
    #: workload property.  None (the default) disables clipping, which is
    #: only legal without noise (random_defense, or an explicit z = 0)
    privacy_clip_norm: Optional[float] = None
    #: explicit noise multiplier z (std = z·S per transmitted coordinate);
    #: overrides the ε-based calibration when set
    privacy_noise_multiplier: Optional[float] = None
    #: random_defense: fraction of coordinates zeroed per client per round;
    #: None (the default) means the mode's default
    #: (``repro.privacy.DEFAULT_DEFENSE_FRACTION``).  Like the other
    #: privacy knobs, setting it under any other mode is rejected — a set
    #: knob that does nothing is a silent non-defense
    privacy_defense_fraction: Optional[float] = None
    #: gaussian only: accept (with a UserWarning) that noising a strategy
    #: with client-chosen transmitted coordinates (STC, GlueFL) yields an
    #: ε covering the released *values* only — the chosen index set is a
    #: data-dependent release the mechanism does not analyze.  Without
    #: this waiver such combinations are rejected
    privacy_values_only: bool = False

    # evaluation
    eval_every: int = 5
    eval_batch: int = 256
    eval_top_k: int = 1
    accuracy_window: int = 5
    target_accuracy: Optional[float] = None
    stop_at_target: bool = False

    # bookkeeping
    seed: int = 0
    count_buffer_sync: bool = True
    collect_sync_details: bool = False

    def lr_schedule(self) -> ExponentialDecay:
        return ExponentialDecay(self.lr, self.lr_decay, self.lr_decay_every)

    def validate(self) -> None:
        # the canonical name lists live next to their factories; imported
        # lazily because repro.engine/runtime modules import repro.fl
        # submodules (a module-level import here would cycle)
        from repro.engine.schedulers import SCHEDULERS
        from repro.privacy import PRIVACY_MODES
        from repro.runtime.backends import BACKENDS
        from repro.runtime.dtype import DTYPE_NAMES

        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not self.model_name:
            raise ValueError("model_name must be a non-empty model key")
        if not isinstance(self.model_kwargs, dict):
            raise ValueError("model_kwargs must be a dict")
        # local-training hyperparameters (paper §5.1)
        if self.local_steps <= 0:
            raise ValueError("local_steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.lr_decay_every <= 0:
            raise ValueError("lr_decay_every must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        # systems environment
        if not self.network_profile:
            raise ValueError("network_profile must be a profile name")
        if self.base_step_seconds <= 0:
            raise ValueError("base_step_seconds must be positive")
        if self.compute_sigma < 0:
            raise ValueError("compute_sigma must be >= 0")
        if self.availability_trace is not None and not all(
            hasattr(self.availability_trace, m)
            for m in ("online", "survives_round")
        ):
            raise ValueError(
                "availability_trace must expose online(round_idx) and "
                "survives_round(client_ids) (see "
                "repro.traces.diurnal.DiurnalAvailabilityTrace)"
            )
        # evaluation / stopping
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.eval_batch <= 0:
            raise ValueError("eval_batch must be positive")
        if self.accuracy_window <= 0:
            raise ValueError("accuracy_window must be positive")
        if self.target_accuracy is not None and not (
            0.0 < self.target_accuracy <= 1.0
        ):
            raise ValueError("target_accuracy must be in (0, 1]")
        if self.stop_at_target and self.target_accuracy is None:
            raise ValueError(
                "stop_at_target needs target_accuracy to know when to stop"
            )
        # bookkeeping: the seed and the boolean switches are used as-is in
        # hashed/golden-pinned places, so reject look-alike types early
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an int")
        for flag in (
            "always_available",
            "sanitize",
            "skip_empty_rounds",
            "stop_at_target",
            "count_buffer_sync",
            "collect_sync_details",
        ):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a bool")
        if self.weight_mode not in ("unbiased", "equal"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")
        if self.eval_top_k not in (1, 5):
            raise ValueError("eval_top_k must be 1 or 5")
        if self.overcommit < 1.0:
            raise ValueError("overcommit must be >= 1.0")
        if self.execution_backend not in BACKENDS:
            raise ValueError(
                f"unknown execution_backend {self.execution_backend!r}; "
                f"expected {BACKENDS}"
            )
        if self.backend_workers is not None and self.backend_workers <= 0:
            raise ValueError("backend_workers must be positive")
        if self.dtype not in DTYPE_NAMES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; expected {DTYPE_NAMES}"
            )
        if self.sanitize and self.execution_backend != "process":
            raise ValueError(
                "sanitize guards the process backend's result ring; with "
                f"execution_backend={self.execution_backend!r} it would be "
                "silently ignored — set execution_backend='process' (or "
                "unset it)"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected {SCHEDULERS}"
            )
        if (
            self.scheduler in ("async", "semiasync")
            and not self.sampler.supports_async
        ):
            raise ValueError(
                f"sampler {type(self.sampler).__name__} is a sync-only "
                "policy (supports_async=False): the async scheduler never "
                "makes the per-round draw() calls it acts through, and "
                "semiasync folds stale updates across rounds, which its "
                "per-round budget semantics do not account for — the "
                "policy would silently misbehave"
            )
        # same bounds AvailabilityTrace enforces, surfaced before any model
        # or trace construction happens
        if not 0.0 < self.mean_on_fraction <= 1.0:
            raise ValueError("mean_on_fraction must be in (0, 1]")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if self.async_buffer_size <= 0:
            raise ValueError("async_buffer_size must be positive")
        if self.async_concurrency is not None and self.async_concurrency <= 0:
            raise ValueError("async_concurrency must be positive")
        if self.async_staleness_alpha < 0:
            raise ValueError("async_staleness_alpha must be non-negative")
        if self.semiasync_max_lag < 0:
            raise ValueError("semiasync_max_lag must be >= 0")
        if self.failure_burst_every < 0:
            raise ValueError("failure_burst_every must be >= 0")
        if not 0.0 <= self.failure_burst_dropout <= 1.0:
            raise ValueError("failure_burst_dropout must be in [0, 1]")
        if not 0.0 <= self.failure_straggler_fraction <= 1.0:
            raise ValueError("failure_straggler_fraction must be in [0, 1]")
        if self.failure_straggler_slowdown < 1.0:
            raise ValueError("failure_straggler_slowdown must be >= 1")
        if self.population_preset is not None:
            from repro.population import POPULATION_PRESETS

            if self.population_preset not in POPULATION_PRESETS:
                raise ValueError(
                    f"unknown population_preset {self.population_preset!r}; "
                    f"expected {POPULATION_PRESETS}"
                )
        if not 0.0 < self.population_min_completeness <= 1.0:
            raise ValueError(
                "population_min_completeness must be in (0, 1]"
            )
        if self.population_max_responsiveness < 1.0:
            raise ValueError("population_max_responsiveness must be >= 1")
        if self.population_dropped_cooldown < 0:
            raise ValueError("population_dropped_cooldown must be >= 0")
        if self.quorum_fraction is not None:
            if not 0.0 < self.quorum_fraction <= 1.0:
                raise ValueError("quorum_fraction must be in (0, 1]")
            if self.scheduler in ("async", "semiasync"):
                raise ValueError(
                    "quorum_fraction is a synchronous-cohort concept; the "
                    f"{self.scheduler!r} scheduler has no per-round cohort "
                    "to re-draw — unset it or use a sync-shaped scheduler"
                )
        if self.redraw_max_attempts < 0:
            raise ValueError("redraw_max_attempts must be >= 0")
        if self.redraw_backoff_s < 0:
            raise ValueError("redraw_backoff_s must be >= 0")
        if not isinstance(self.population_scalable_sampling, bool):
            raise ValueError("population_scalable_sampling must be a bool")
        if self.population_scalable_sampling:
            if (
                self.population is None
                and self.population_preset is None
                and self.scheduler != "failure"
            ):
                raise ValueError(
                    "population_scalable_sampling draws from a device "
                    "population's idle index; set population/"
                    "population_preset (or scheduler='failure', which "
                    "auto-builds one)"
                )
            if not getattr(self.sampler, "supports_pool_draw", False):
                raise ValueError(
                    f"sampler {type(self.sampler).__name__} has no O(idle) "
                    "pool draw (supports_pool_draw=False) — its policy "
                    "needs a dense availability mask, which scalable "
                    "sampling exists to avoid"
                )
            if self.quorum_fraction is not None:
                raise ValueError(
                    "quorum_fraction re-draws against a dense availability "
                    "mask snapshot, which scalable sampling never builds — "
                    "set at most one of the two"
                )
        if self.residual_max_clients is not None and (
            not isinstance(self.residual_max_clients, int)
            or isinstance(self.residual_max_clients, bool)
            or self.residual_max_clients < 1
        ):
            raise ValueError("residual_max_clients must be >= 1 (or None)")
        if self.privacy_mode not in PRIVACY_MODES:
            raise ValueError(
                f"unknown privacy_mode {self.privacy_mode!r}; "
                f"expected {PRIVACY_MODES}"
            )
        if self.privacy_epsilon is not None and self.privacy_epsilon <= 0:
            raise ValueError("privacy_epsilon must be positive")
        if not 0.0 < self.privacy_delta < 1.0:
            raise ValueError("privacy_delta must be in (0, 1)")
        if self.privacy_clip_norm is not None and self.privacy_clip_norm <= 0:
            raise ValueError("privacy_clip_norm must be positive (or None)")
        if (
            self.privacy_noise_multiplier is not None
            and self.privacy_noise_multiplier < 0
        ):
            raise ValueError("privacy_noise_multiplier must be non-negative")
        if self.privacy_defense_fraction is not None and not (
            0.0 <= self.privacy_defense_fraction < 1.0
        ):
            raise ValueError("privacy_defense_fraction must be in [0, 1)")
        if (
            self.privacy_defense_fraction is not None
            and self.privacy_mode == "gaussian"
        ):
            raise ValueError(
                "privacy_defense_fraction belongs to "
                "privacy_mode='random_defense'; the gaussian mechanism "
                "masks nothing"
            )
        if self.privacy_mode == "off":
            stale = [
                name
                for name, value in (
                    ("privacy_epsilon", self.privacy_epsilon),
                    ("privacy_clip_norm", self.privacy_clip_norm),
                    ("privacy_noise_multiplier", self.privacy_noise_multiplier),
                    ("privacy_defense_fraction", self.privacy_defense_fraction),
                )
                if value is not None
            ]
            if self.privacy_values_only:
                stale.append("privacy_values_only")
            if stale:
                raise ValueError(
                    f"privacy_mode='off' ignores {', '.join(stale)}; a "
                    "budget without a mode would run non-private silently "
                    "— set privacy_mode='gaussian' (or unset the knobs)"
                )
        if self.privacy_values_only and self.privacy_mode != "gaussian":
            raise ValueError(
                "privacy_values_only qualifies the gaussian mechanism's "
                f"epsilon; it means nothing under "
                f"privacy_mode={self.privacy_mode!r}"
            )
        if self.privacy_mode == "random_defense" and (
            self.privacy_epsilon is not None
            or self.privacy_noise_multiplier is not None
        ):
            raise ValueError(
                "privacy_mode='random_defense' adds no noise and tracks no "
                "epsilon; unset privacy_epsilon/privacy_noise_multiplier "
                "(use privacy_mode='gaussian' for the DP mechanism)"
            )
        if self.privacy_mode == "gaussian":
            if (
                self.privacy_epsilon is None
                and self.privacy_noise_multiplier is None
            ):
                raise ValueError(
                    "privacy_mode='gaussian' needs privacy_epsilon (to "
                    "calibrate noise) or an explicit "
                    "privacy_noise_multiplier"
                )
            if (
                self.privacy_epsilon is not None
                and self.privacy_noise_multiplier is not None
            ):
                raise ValueError(
                    "privacy_epsilon and privacy_noise_multiplier are "
                    "alternative ways to set the noise level; an explicit "
                    "multiplier overrides the calibration, so the epsilon "
                    "budget would be silently ignored — set exactly one"
                )
            noisy = (
                self.privacy_noise_multiplier is None  # ε-calibrated > 0
                or self.privacy_noise_multiplier > 0
            )
            if noisy and self.privacy_clip_norm is None:
                raise ValueError(
                    "gaussian noise requires privacy_clip_norm: the clip "
                    "bound is the mechanism's sensitivity"
                )
            if (
                noisy
                and not self.privacy_values_only
                and getattr(self.strategy, "data_dependent_selection", False)
            ):
                raise ValueError(
                    f"strategy {self.strategy.name!r} transmits "
                    "client-chosen coordinates; gaussian noise covers the "
                    "values but not that data-dependent index release.  "
                    "Set privacy_values_only=True to accept values-only "
                    "accounting, or use a strategy with data-independent "
                    "selection (fedavg, apf)"
                )
        if self.sampler.k > self.dataset.num_clients:
            raise ValueError(
                f"K={self.sampler.k} exceeds federation size "
                f"N={self.dataset.num_clients}"
            )
        if self.eval_top_k >= self.dataset.num_classes:
            raise ValueError(
                f"eval_top_k={self.eval_top_k} covers every one of the "
                f"dataset's {self.dataset.num_classes} classes, so accuracy "
                "would be 1.0 before any training"
            )
