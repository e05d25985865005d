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
    updates and over-commitment 1.3; the client optimizer itself (SGD
    momentum 0.9, exponential LR decay 0.98 every 10 rounds) is fixed, held
    by :class:`~repro.fl.client.LocalTrainer` and
    :class:`~repro.nn.optim.ExponentialDecay`.

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
      ``(1 + τ)^(−α)``), ``"semiasync"`` (FLASH-style tiered rounds: the
      fast tier aggregates synchronously at its deadline, over-committed
      stragglers fold into later rounds with staleness-discounted
      weights).  Every scheduler runs on the shared
      :class:`~repro.engine.clock.SimClock` and stamps cumulative
      simulated time into ``RoundRecord.wall_clock_s``.
    * ``skip_empty_rounds`` — survive rounds where nobody's update arrives
      by recording a zero-participant round instead of raising.

    Device population (see :mod:`repro.population`):

    * ``population_preset`` — model the federation as a vectorized
      :class:`~repro.population.DeviceStatePopulation` (numpy state
      columns with an idle/working/offline/dropped state machine) driven
      by a scenario trace: ``"none"``, ``"diurnal"``, ``"device-classes"``
      (phone/tablet/silo), or ``"storm"`` (periodic churn bursts: the
      fault-injection run, whose burst rounds every scheduler flags in
      ``RoundRecord.injected_failure``; a storm with other parameters or
      over another base is an explicit ``population=`` wrapping a
      :class:`~repro.population.ChurnStormTrace`).  ``"none"`` and
      ``"storm"`` run over the classic availability
      knobs; ``"diurnal"`` and ``"device-classes"`` draw their own trace,
      so ``validate()`` rejects an ``availability_trace`` beside them.
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

    Privacy is not a field but a strategy wrapper:
    ``strategy=PrivateStrategy(inner, ...)``, under ``QuantizedStrategy``
    when the run quantizes (see :mod:`repro.privacy`).

    >>> RunConfig.__dataclass_fields__["scheduler"].default
    'sync'
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
    model_kwargs: Dict[str, Any] = field(default_factory=dict)

    # systems environment
    network_profile: str = "ndt"
    overcommit: float = 1.3
    mean_on_fraction: float = 0.9
    dropout_prob: float = 0.05
    always_available: bool = False
    #: optional pre-built availability trace (e.g.
    #: :class:`~repro.traces.diurnal.DiurnalAvailabilityTrace`); overrides
    #: the duty-cycle trace built from the fields above (rejected beside
    #: ``population`` or the "diurnal" / "device-classes" presets)
    availability_trace: Optional[Any] = None

    # aggregation (Fig. 5 ablation switch)
    weight_mode: str = "unbiased"  # "unbiased" | "equal"

    # runtime policy (repro.runtime)
    execution_backend: str = "serial"  # "serial" | "process"
    backend_workers: Optional[int] = None
    #: "float64" | "float32" (see repro.runtime.dtype)
    dtype: str = "float64"

    # round scheduling (repro.engine)
    #: round shape: "sync" (Algorithm 1), "async" (FedBuff-style buffered
    #: asynchrony) or "semiasync" (sync fast tier + stale straggler
    #: fold-ins); see :mod:`repro.engine.schedulers` for semantics
    scheduler: str = "sync"
    #: record a zero-participant RoundRecord and continue instead of
    #: aborting when no participant survives a round
    skip_empty_rounds: bool = False
    #: async: aggregate every M client arrivals
    async_buffer_size: int = 5
    #: async: clients kept in flight (default: the sampler's K)
    async_concurrency: Optional[int] = None

    # device population (repro.population)
    #: scenario preset building a vectorized
    #: :class:`~repro.population.DeviceStatePopulation` as the server's
    #: availability model: "none" | "diurnal" | "device-classes" | "storm"
    population_preset: Optional[str] = None
    #: pre-built :class:`~repro.population.DeviceStatePopulation`; the
    #: run's whole availability model, so ``validate()`` rejects it beside
    #: ``population_preset``, ``availability_trace`` or ``always_available``
    population: Optional[Any] = None
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
    #: (None disables quorum checking).  The sync scheduler only
    quorum_fraction: Optional[float] = None
    #: quorum: bounded number of re-draw waves before giving up and
    #: degrading to ``skip_empty_rounds`` semantics
    redraw_max_attempts: int = 2
    #: quorum: extra simulated seconds charged to the clock per re-draw
    #: (on top of the failed wave's round time)
    redraw_backoff_s: float = 0.0

    # evaluation
    eval_every: int = 5
    eval_top_k: int = 1

    # bookkeeping
    seed: int = 0
    collect_sync_details: bool = False

    def lr_schedule(self) -> ExponentialDecay:
        return ExponentialDecay(self.lr)

    def validate(self) -> None:
        # the canonical name lists live next to their factories; imported
        # lazily because repro.engine/runtime modules import repro.fl
        # submodules (a module-level import here would cycle)
        from repro.engine.schedulers import SCHEDULERS
        from repro.runtime.backends import BACKENDS
        from repro.runtime.dtype import DTYPE_NAMES

        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not self.model_name:
            raise ValueError("model_name must be a non-empty model key")
        if not isinstance(self.model_kwargs, dict):
            raise ValueError("model_kwargs must be a dict")
        if not isinstance(self.strategy, CompressionStrategy):
            raise ValueError(
                "strategy must be a CompressionStrategy (privacy and "
                "quantization are wrappers around one)"
            )
        # local-training hyperparameters (paper §5.1)
        if self.local_steps <= 0:
            raise ValueError("local_steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        # systems environment
        if not self.network_profile:
            raise ValueError("network_profile must be a profile name")
        if self.availability_trace is not None and not all(
            hasattr(self.availability_trace, m)
            for m in ("online", "survives_round")
        ):
            raise ValueError(
                "availability_trace must expose online(round_idx) and "
                "survives_round(client_ids) (see "
                "repro.traces.diurnal.DiurnalAvailabilityTrace)"
            )
        # evaluation
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        # bookkeeping: the seed and the boolean switches are used as-is in
        # hashed/golden-pinned places, so reject look-alike types early
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an int")
        for flag in (
            "always_available",
            "skip_empty_rounds",
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
        if self.backend_workers is not None:
            if self.backend_workers <= 0:
                raise ValueError("backend_workers must be positive")
            if self.execution_backend != "process":
                raise ValueError(
                    "backend_workers sizes the process backend's pool; with "
                    f"execution_backend={self.execution_backend!r} it would "
                    "be silently ignored — set execution_backend='process' "
                    "(or unset it)"
                )
        if self.dtype not in DTYPE_NAMES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; expected {DTYPE_NAMES}"
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
        if (
            self.async_buffer_size
            != type(self).__dataclass_fields__["async_buffer_size"].default
            and self.scheduler != "async"
        ):
            raise ValueError(
                "async_buffer_size sizes the async scheduler's flush; with "
                f"scheduler={self.scheduler!r} it would be silently ignored "
                "— set scheduler='async' (or unset it)"
            )
        if self.async_concurrency is not None and self.async_concurrency <= 0:
            raise ValueError("async_concurrency must be positive")
        if self.population_preset is not None:
            from repro.population import POPULATION_PRESETS

            if self.population_preset not in POPULATION_PRESETS:
                raise ValueError(
                    f"unknown population_preset {self.population_preset!r}; "
                    f"expected {POPULATION_PRESETS}"
                )
        # a population is the whole availability model: an explicit object
        # replaces every classic knob, and the diurnal / device-classes
        # presets draw their own trace instead of the base one
        if self.population is not None:
            for knob, is_set in (
                ("population_preset", self.population_preset is not None),
                ("availability_trace", self.availability_trace is not None),
                ("always_available", self.always_available),
            ):
                if is_set:
                    raise ValueError(
                        f"{knob} would be ignored: an explicit population= "
                        "is the run's whole availability model — set one "
                        "of the two"
                    )
        if self.availability_trace is not None and self.population_preset in (
            "diurnal",
            "device-classes",
        ):
            raise ValueError(
                "availability_trace would be ignored: population_preset="
                f"{self.population_preset!r} draws its own trace — use "
                "population_preset='none' (or 'storm') to run over it"
            )
        if self.quorum_fraction is not None:
            if not 0.0 < self.quorum_fraction <= 1.0:
                raise ValueError("quorum_fraction must be in (0, 1]")
            if self.scheduler in ("async", "semiasync"):
                raise ValueError(
                    "quorum_fraction is a synchronous-cohort concept; the "
                    f"{self.scheduler!r} scheduler has no per-round cohort "
                    "to re-draw — unset it or use the sync scheduler"
                )
        if self.redraw_max_attempts < 0:
            raise ValueError("redraw_max_attempts must be >= 0")
        if self.redraw_backoff_s < 0:
            raise ValueError("redraw_backoff_s must be >= 0")
        if not isinstance(self.population_scalable_sampling, bool):
            raise ValueError("population_scalable_sampling must be a bool")
        if self.population_scalable_sampling:
            if self.population is None and self.population_preset is None:
                raise ValueError(
                    "population_scalable_sampling draws from a device "
                    "population's idle index; set population/"
                    "population_preset"
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
