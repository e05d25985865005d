"""The FL server: state-holder for the round's step functions.

:class:`FLServer` owns no round loop.  It owns the *state* — global model,
strategy, sampler, and the substrate models (bandwidth, compute,
availability, staleness) — and delegates every ``run_round`` call to a
:class:`~repro.engine.schedulers.Scheduler` chosen by
``RunConfig.scheduler``, a policy over the one cohort round written in
:mod:`repro.engine.steps`:

* ``"sync"`` calls the steps in order (contact an over-committed wave →
  downstream ledger → first K per bucket → train → compress → aggregate →
  record) — a faithful, bit-identical decomposition of Algorithm 1's
  round (pinned by ``tests/engine/test_round_engine.py``);
* ``"async"`` runs FedBuff-style buffered asynchrony over the shared
  simulated-time clock's event queue of client finish times, flushing
  through the same lifecycle guard, task builder, close and record;
* ``"failure"`` is the sync round over a fault-injecting device
  population (``"storm"`` preset: dropout bursts + straggler storms as
  trace-driven state transitions), flagging the burst rounds;
* ``"semiasync"`` runs FLASH-style tiered rounds (the sync round as fast
  tier at its deadline + staleness-discounted straggler fold-in);
* ``"overlapped"`` is the sync round under a pipelined clock (round *t+1*
  downloads overlap round *t* uploads).

All five run on one :class:`~repro.engine.clock.SimClock` per scheduler,
whose cumulative reading lands in ``RoundRecord.wall_clock_s``.

The steps reach the state through this object (``server`` in their
signatures); anything per-round lives in the
:class:`~repro.engine.steps.Cohort` and :class:`~repro.engine.steps.Batch`
they hand to each other, so no stale round state ever survives on the
server.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from repro.fl.aggregation import equal_weights
from repro.fl.client import LocalTrainer
from repro.fl.config import RunConfig
from repro.fl.metrics import RoundRecord, RunResult
from repro.fl.staleness import StalenessTracker
from repro.network.profiles import get_profile
from repro.network.transfer import ClientLinks
from repro.nn.flat import FlatParamView
from repro.nn.models import build_model
from repro.runtime.backends import WorkerSpec, create_backend, usable_cpus
from repro.runtime.dtype import resolve_dtype
from repro.traces.availability import AvailabilityTrace, always_available
from repro.traces.compute import ComputeTrace
from repro.utils.rng import RngFactory

__all__ = ["FLServer", "run_training"]


class FLServer:
    """Owns the global model and training state; schedulers drive it."""

    def __init__(self, config: RunConfig):
        config.validate()
        self.dtype = resolve_dtype(config.dtype)
        # the run keeps its shards in the run dtype, which every batch is
        # cast to anyway, so no value changes: a float64 federation under a
        # narrower run is copied once and the caller's is left untouched,
        # its block freed when the caller drops its config
        dataset = config.dataset.narrowed(self.dtype)
        if dataset is not config.dataset:
            config = dataclasses.replace(config, dataset=dataset)
        self.config = config
        self.rngs = RngFactory(config.seed)
        self.n = dataset.num_clients
        self.p = dataset.weights()

        self.model = build_model(
            config.model_name,
            in_channels=dataset.in_channels,
            num_classes=dataset.num_classes,
            image_size=dataset.image_size,
            rng=self.rngs("model-init"),
            dtype=self.dtype,
            **config.model_kwargs,
        )
        self.view = FlatParamView(self.model)
        self.d = self.view.num_trainable
        # the globals are replaced (never mutated) on every update — async
        # in-flight jobs keep references as dispatch-time snapshots — so
        # they stay read-only for their whole lifetime
        self.global_params = self.view.get_flat()
        self.global_params.flags.writeable = False
        self.global_buffers = self.view.get_buffers_flat()
        self.global_buffers.flags.writeable = False

        self.strategy = config.strategy
        if config.privacy_mode != "off":
            self.strategy = self._privatize_strategy(config)
        self.strategy.setup(self.d, self.rngs("strategy"), dtype=self.dtype)
        if config.residual_max_clients is not None:
            # bound per-client error-compensation state to an LRU budget;
            # wrappers delegate the call down to the strategy that owns
            # the store (see CompressionStrategy.limit_residuals)
            self.strategy.limit_residuals(config.residual_max_clients)
        self.sampler = config.sampler
        self.sampler.setup(self.n, self.rngs("sampler"))

        profile = get_profile(config.network_profile)
        self.links = ClientLinks(profile.sample(self.n, self.rngs("bandwidth")))
        self.compute = ComputeTrace(
            self.n,
            self.rngs("compute"),
            base_step_seconds=config.base_step_seconds,
            sigma=config.compute_sigma,
        )
        self.model_scale = ComputeTrace.model_scale(self.d)
        # device population: explicit object > preset > auto "storm" for
        # the failure scheduler (its faults are trace-driven transitions).
        # When bound, the population *is* the availability model — it
        # duck-types the trace protocol over its vectorized state columns.
        if config.population is not None:
            self.population = config.population
        elif config.population_preset is not None or config.scheduler == "failure":
            from repro.population import build_population

            self.population = build_population(
                config.population_preset or "storm",
                self.n,
                self.rngs("population"),
                config=config,
            )
        else:
            self.population = None
        if self.population is not None:
            if self.population.num_clients != self.n:
                raise ValueError(
                    f"population models {self.population.num_clients} "
                    f"clients but the dataset has {self.n}"
                )
            if config.scheduler == "failure" and not hasattr(
                self.population.trace, "is_burst"
            ):
                raise ValueError(
                    "scheduler='failure' injects faults through the "
                    "population's trace, but "
                    f"{type(self.population.trace).__name__} has no "
                    "is_burst(round_idx) — wrap it in ChurnStormTrace, or "
                    "drop population= for the auto-built storm population"
                )
            if config.population_scalable_sampling:
                # presets inherit the flag at construction; an explicit
                # population object is marked here
                self.population.scalable_sampling = True
            self.availability = self.population
        elif config.availability_trace is not None:
            self.availability = config.availability_trace
        elif config.always_available:
            self.availability = always_available(self.n)
        else:
            self.availability = AvailabilityTrace(
                self.n,
                self.rngs("availability"),
                mean_on_fraction=config.mean_on_fraction,
                dropout_prob=config.dropout_prob,
            )
        self.staleness = StalenessTracker(self.d, self.n)
        self.trainer = LocalTrainer(
            self.model,
            local_steps=config.local_steps,
            batch_size=config.batch_size,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        self._worker_spec = WorkerSpec(
            model_name=config.model_name,
            model_kwargs=dict(config.model_kwargs),
            in_channels=dataset.in_channels,
            num_classes=dataset.num_classes,
            image_size=dataset.image_size,
            local_steps=config.local_steps,
            batch_size=config.batch_size,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            seed=config.seed,
            clients=dataset.clients,
            dtype=config.dtype,
            d=self.d,
            num_buffer=self.view.num_buffer,
            sanitize=config.sanitize,
            # sizes the process backend's zero-copy result rings: the most
            # results a scheduler can ask for before draining them
            max_in_flight=max(
                int(math.ceil(config.overcommit * config.sampler.k)),
                config.async_concurrency or 0,
            ),
        )
        self._backend = None
        self.lr_schedule = config.lr_schedule()
        self.round_idx = 0

        # local import: repro.engine's steps import repro.fl submodules, so
        # a module-level import here would cycle through repro.fl.__init__
        from repro.engine import create_scheduler

        self.scheduler = create_scheduler(config.scheduler)
        self.scheduler.setup(self)

    # -- privacy wiring --------------------------------------------------------
    def _privatize_strategy(self, config: RunConfig):
        """Wrap the configured strategy per ``privacy_mode`` (see
        :mod:`repro.privacy`); every scheduler then runs privatized
        unchanged.

        Two seam subtleties live here rather than in the wrapper:

        * **Amplification is the sampler's claim.**  The accountant's
          sampled-Gaussian bound is proved for *Poisson* subsampling, so
          the rate comes from ``sampler.dp_sample_rate`` — sub-1 only for
          :class:`~repro.fl.samplers.PoissonSampler`, whose draw is that
          scheme; uniform fixed-size, sticky, norm-aware and utility
          policies all answer 1.0 — and is forced to 1.0 under the async
          scheduler, whose continuous dispatch keeps clients in flight
          rather than sampling rounds.
        * **Noise goes under quantization, not over it.**  A
          ``QuantizedStrategy`` re-prices payloads to ``bits`` per value;
          noising *after* quantization would put off-grid floats on wire
          bytes priced for the grid.  The private layer is spliced inside
          the quantization wrapper: ``Quantized(Private(inner))``.
        """
        from repro.compression.quantized import QuantizedStrategy
        from repro.privacy import build_private_strategy

        # overlapped has identical per-round sampling to sync (only the
        # clock differs); semiasync folds stale arrivals across rounds and
        # async never samples rounds at all, so both account at rate 1.0
        if config.scheduler in ("sync", "failure", "overlapped"):
            sample_rate = config.sampler.dp_sample_rate(
                self.n, config.overcommit
            )
        else:
            sample_rate = 1.0

        def privatize(inner):
            return build_private_strategy(
                inner,
                mode=config.privacy_mode,
                rounds=config.rounds,
                sample_rate=sample_rate,
                epsilon=config.privacy_epsilon,
                delta=config.privacy_delta,
                clip_norm=config.privacy_clip_norm,
                noise_multiplier=config.privacy_noise_multiplier,
                defense_fraction=config.privacy_defense_fraction,
                values_only=config.privacy_values_only,
            )

        if isinstance(config.strategy, QuantizedStrategy):
            return QuantizedStrategy(
                privatize(config.strategy.inner), bits=config.strategy.bits
            )
        return privatize(config.strategy)

    # -- weights ---------------------------------------------------------------
    def _weights_for(
        self, sticky_ids: np.ndarray, nonsticky_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregation weights ν for the two participant buckets.

        ``weight_mode="equal"`` (the Fig. 5 ablation) short-circuits to
        biased ``1/K`` weights; otherwise the *sampler* owns the weights —
        each :class:`~repro.fl.samplers.ClientSampler` returns its own
        unbiasedness correction (Eq. 2 for uniform, Eq. 3 for sticky,
        Horvitz–Thompson for norm-aware sampling), so new sampling
        policies plug in without the server knowing their type.

        Empty buckets come back as empty arrays in the run-level ``dtype``
        (non-empty weights stay float64: they are consumed one scalar at a
        time, and the paper's weight arithmetic is precision-insensitive).
        """
        empty = np.empty(0, dtype=self.dtype)
        if self.config.weight_mode == "equal":
            all_ids = np.concatenate([sticky_ids, nonsticky_ids])
            w = equal_weights(all_ids)
            n_sticky = len(sticky_ids)
            return (
                w[:n_sticky] if n_sticky else empty,
                w[n_sticky:] if len(nonsticky_ids) else empty,
            )
        nu_s, nu_r = self.sampler.aggregation_weights(
            self.p, sticky_ids, nonsticky_ids
        )
        return (
            nu_s if len(nu_s) else empty,
            nu_r if len(nu_r) else empty,
        )

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self) -> float:
        """Top-k accuracy of the current global model on the test set."""
        cfg = self.config
        dataset = cfg.dataset
        self.view.set_flat(self.global_params)
        if self.view.num_buffer:
            self.view.set_buffers_flat(self.global_buffers)
        correct = 0
        total = len(dataset.test_y)
        # eval mode is inference: no layer keeps backward state, so the
        # model holds no test-batch activation once this returns
        self.model.eval()
        try:
            for start in range(0, total, cfg.eval_batch):
                xb = dataset.test_x[start : start + cfg.eval_batch]
                yb = dataset.test_y[start : start + cfg.eval_batch]
                logits = self.model(xb.astype(self.dtype, copy=False))
                if cfg.eval_top_k == 1:
                    correct += int((logits.argmax(axis=1) == yb).sum())
                else:
                    top = np.argsort(logits, axis=1)[:, -cfg.eval_top_k :]
                    correct += int((top == yb[:, None]).any(axis=1).sum())
        finally:
            # the serial backend trains on this same instance
            self.model.train()
        return correct / total

    # -- one round ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Advance the run by one scheduler round (sync: one Algorithm 1
        round; async: one buffer flush) and return its record."""
        return self.scheduler.run_round(self)

    @property
    def sim_time_s(self) -> float:
        """Cumulative simulated wall-clock, read off the scheduler's
        :class:`~repro.engine.clock.SimClock`."""
        return self.scheduler.clock.now

    # -- lifecycle ----------------------------------------------------------------------
    @property
    def backend(self):
        """The execution backend, created on first use.

        Lazy so that a closed server stays usable: the next ``run_round``
        simply builds a fresh pool.
        """
        if self._backend is None:
            workers = self.config.backend_workers
            if workers is None:
                # at most K clients run per round — never pool wider
                workers = min(self.sampler.k, usable_cpus())
            self._backend = create_backend(
                self.config.execution_backend,
                self._worker_spec,
                trainer=self.trainer,
                workers=workers,
            )
        return self._backend

    def close(self) -> None:
        """Release execution-backend resources (worker processes and the
        mappings they share) and the strategy's residual row file.

        Idempotent; only needed when ``run_round`` is driven manually —
        :meth:`run` closes automatically, and a server dropped un-closed
        still closes the row file when it is collected.  Further training
        after close is fine: the next ``run_round`` builds a fresh backend, but error compensation starts over (the
        residuals went with the file).
        """
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self.strategy.close()

    # -- full run -----------------------------------------------------------------------
    def run(self) -> RunResult:
        cfg = self.config
        result = RunResult(
            meta={
                "strategy": self.strategy.name,
                "model": cfg.model_name,
                "dataset": cfg.dataset.name,
                "d": self.d,
                "n": self.n,
                "k": self.sampler.k,
                "rounds": cfg.rounds,
                "seed": cfg.seed,
                "scheduler": self.scheduler.name,
            }
        )
        try:
            for _ in range(cfg.rounds):
                result.append(self.run_round())
                if (
                    cfg.stop_at_target
                    and cfg.target_accuracy is not None
                    and result.rounds_to_target(
                        cfg.target_accuracy, cfg.accuracy_window
                    )
                    is not None
                ):
                    break
        finally:
            self.close()
        result.meta["sim_time_s"] = self.sim_time_s
        return result


def run_training(config: RunConfig) -> RunResult:
    """Build a server from ``config`` and run it to completion."""
    return FLServer(config).run()
