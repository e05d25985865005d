"""Device traces: the per-round dynamics driving a population.

A :class:`DeviceTrace` is the population's behavior model.  It is bound to
a :class:`~repro.population.population.DeviceStatePopulation` once:
``bind`` initializes whichever columns the trace owns, then
``schedule(population, queue)`` converts its dynamics into transition
events on the population's
:class:`~repro.population.events.PopulationEventQueue`, so each round
costs O(transitions), never O(N).  Deterministic dynamics (duty-cycle
windows, jitter-free diurnal edges) become periodic flips on the queue's
compiled flip wheel; dynamics that consume RNG or read an opaque
``online(round_idx)`` object (device-class redraws, diurnal jitter, storm
bursts, external traces) become recurring actions that fire once per
queried round, make their draws in registration order, and write only
the changed indices.

Traces compose: :class:`ChurnStormTrace` wraps any base availability trace
and layers burst-round effects on top — the base's events touch
``available`` while the storm's recurring action, registered after the
base's, touches ``connectivity``/``responsiveness``.

The ``POPULATION_PRESETS`` registry names the scenarios
``RunConfig.population_preset`` accepts; :func:`build_population` turns a
preset name plus a config into a ready population (this is also how
``scheduler="failure"`` gets its storm population).

>>> import numpy as np
>>> from repro.population.population import DeviceStatePopulation
>>> storm = ChurnStormTrace(burst_every=3, burst_dropout=1.0,
...                         straggler_fraction=0.0,
...                         rng=np.random.default_rng(0))
>>> pop = DeviceStatePopulation(4, np.random.default_rng(1), storm)
>>> storm.is_burst(3) and not storm.is_burst(1)
True
>>> _ = pop.online(1)
>>> pop.survives_round(np.array([0, 1])).tolist()   # calm round
[True, True]
>>> _ = pop.online(3)
>>> pop.survives_round(np.array([0, 1])).tolist()   # burst: nobody survives
[False, False]
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.traces.availability import AvailabilityTrace
from repro.traces.diurnal import DiurnalAvailabilityTrace
from repro.utils.arrays import CHUNK_IDS

__all__ = [
    "POPULATION_PRESETS",
    "DeviceTrace",
    "StaticTrace",
    "DutyCycleTrace",
    "DiurnalTrace",
    "DeviceClassTrace",
    "ChurnStormTrace",
    "ExternalAvailabilityTrace",
    "build_population",
]

#: scenario names ``RunConfig.population_preset`` accepts
POPULATION_PRESETS = ("none", "diurnal", "device-classes", "storm")


class DeviceTrace:
    """Base trace: owns nothing, changes nothing (always-on population)."""

    def bind(self, population) -> None:
        """One-time column initialization hook (called by the population).
        Write a float column through ``population.writable(name)``; a
        column no trace writes stays one broadcast scalar."""

    def schedule(self, population, queue) -> None:
        """Translate the trace's dynamics into transition events on
        ``queue``: ``queue.schedule_periodic(ids, period, residue,
        value)`` for availability flips that repeat forever,
        ``queue.schedule(round, action)`` for a one-off transition pinned
        to a round, ``queue.add_recurring(action)`` for per-round
        behavior.  Actions write ``available`` through
        ``population.set_available`` / ``note_available_changed`` and the
        float columns through ``population.writable(name)``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class StaticTrace(DeviceTrace):
    """No dynamics: the constructor baselines hold for the whole run."""


class ExternalAvailabilityTrace(DeviceTrace):
    """Adapt a classic availability trace (duty-cycle, diurnal, or any
    user object with ``online(round_idx)``) into a device trace: the
    wrapped object drives the ``available`` column, everything else keeps
    its baseline.  An arbitrary external object gives nothing to schedule
    from, so the adapter asks it for its mask once per queried round and
    writes the difference (subclasses wrapping known trace types override
    ``schedule`` with index flips)."""

    def __init__(self, trace) -> None:
        self.trace = trace

    def schedule(self, population, queue) -> None:
        queue.add_recurring(self._diff_apply)

    def _diff_apply(self, population, fire_round: int) -> None:
        """Recurring action: one ``online(fire_round)`` call on the wrapped
        trace, written as index diffs."""
        new = self.trace.online(fire_round)
        diff = np.flatnonzero(population.available != new)
        if len(diff):
            population.available[diff] = new[diff]
            population.note_available_changed(diff)


class DutyCycleTrace(ExternalAvailabilityTrace):
    """Per-client duty-cycle availability — the population-column port of
    :class:`~repro.traces.availability.AvailabilityTrace` (mid-round
    dropout lives in the population's connectivity column instead).

    The wrapped trace's window ``pos < on_fraction · period``
    is an integer interval ``pos ∈ [0, L)`` with ``L = ⌈on_fraction ·
    period⌉``, so each client flips on at rounds ≡ −phase (mod period)
    and off at rounds ≡ L − phase.  Both edges go to the queue's flip
    wheel in one vector call per direction, so a round costs one gather
    of its O(Σ 1/period · N) flipping ids, independent of how many
    clients sit between transitions.

    ``schedule`` works through the clients in
    :data:`~repro.utils.arrays.CHUNK_IDS` pieces, in the draws' narrow
    storage type, and hands the wrapped trace's per-client draws over to
    the wheels: once it returns, ``self.trace`` is ``None`` and the draws
    are freed, so one trace schedules one population.
    """

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        mean_on_fraction: float = 0.8,
        min_period: int = 20,
        max_period: int = 200,
    ) -> None:
        super().__init__(
            AvailabilityTrace(
                num_clients,
                rng,
                mean_on_fraction=mean_on_fraction,
                min_period=min_period,
                max_period=max_period,
                dropout_prob=0.0,
            )
        )

    def schedule(self, population, queue) -> None:
        if self.trace is None:
            raise RuntimeError(
                "this DutyCycleTrace already scheduled a population: its "
                "draws live in that population's flip wheels now"
            )
        # stored as narrow as a period is; so is everything below
        period, phase = self.trace._period, self.trace._phase
        on_fraction = self.trace._on_fraction
        self.trace = None  # these locals are the draws' last references
        n = len(period)
        # each flipping client's id and (period, opens, closes) residues
        flips = np.empty(n, dtype=np.min_scalar_type(-n))
        edges = np.empty((3, n), dtype=period.dtype)
        kept = 0
        for lo in range(0, n, CHUNK_IDS):
            hi = lo + CHUNK_IDS
            p = period[lo:hi]
            # integer on-window length: pos < frac·P  ⟺  pos < ceil(frac·P)
            length = on_fraction[lo:hi] * p
            np.ceil(length, out=length)
            np.clip(length, 0, p, out=length)
            length = length.astype(p.dtype)
            # round 0: the wrapped trace's pos = phase % P, in its window
            np.less(phase[lo:hi] % p, length, out=population.available[lo:hi])
            local = np.flatnonzero((length > 0) & (length < p))
            p, length = p[local], length[local]
            end = kept + len(local)
            flips[kept:end] = local + lo
            flip_period, opens, closes = edges[:, kept:end]
            flip_period[:] = p
            # the window opens at rounds ≡ −phase and closes at ≡ length −
            # phase (mod period); written so no intermediate leaves [0,
            # period] — the unsigned storage type holds neither a negative
            # nor 2·period
            np.subtract(p, phase[lo:hi][local] % p, out=opens)
            gap = p - length
            closes[:] = np.where(opens >= gap, opens - gap, opens + length)
            kept = end
        del period, phase, on_fraction
        flips, (period, opens, closes) = flips[:kept], edges[:, :kept]
        queue.schedule_periodic(flips, period, opens, True)
        queue.schedule_periodic(flips, period, closes, False)


class DiurnalTrace(ExternalAvailabilityTrace):
    """Day/night availability — the population-column port of
    :class:`~repro.traces.diurnal.DiurnalAvailabilityTrace`.

    Without jitter each client's window is a circular
    interval of the ``rounds_per_day`` positions, so each client is two
    entries on the queue's flip wheel (period ``rounds_per_day``, the
    residues its window opens and closes at) and whole timezone groups
    flip together.  With jitter the per-round counter-seeded
    flip draw is inherently O(N), so the trace registers a recurring
    diff-apply that makes the identical draw and writes only changes.
    """

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        rounds_per_day: int = 48,
        window_hours: float = 8.0,
        jitter_prob: float = 0.05,
    ) -> None:
        super().__init__(
            DiurnalAvailabilityTrace(
                num_clients,
                rng,
                rounds_per_day=rounds_per_day,
                window_hours=window_hours,
                jitter_prob=jitter_prob,
                dropout_prob=0.0,
            )
        )

    def schedule(self, population, queue) -> None:
        t = self.trace
        if t.jitter_prob > 0.0:
            super().schedule(population, queue)
            return
        rounds_per_day = int(t.rounds_per_day)
        population.available[:] = t.online(0)
        on, off = [], []  # per day position: the ids whose window opens/closes
        prev = t.online(rounds_per_day - 1)  # position 0 wraps to the last
        for pos in range(rounds_per_day):
            cur = t.online(pos)
            on.append(np.flatnonzero(cur & ~prev))
            off.append(np.flatnonzero(prev & ~cur))
            prev = cur
        day = np.arange(rounds_per_day, dtype=np.int64)
        for value, edges in ((True, on), (False, off)):
            queue.schedule_periodic(
                np.concatenate(edges, dtype=np.int64),
                rounds_per_day,
                np.repeat(day, [len(ids) for ids in edges]),
                value,
            )


class DeviceClassTrace(DeviceTrace):
    """Phone / tablet / silo device classes (~70 / 20 / 10 % of clients).

    Each class gets its own availability rate, connectivity, completeness,
    and responsiveness — phones are flaky, slow, and often unable to run
    the full local workload; silos are datacenter-grade.  Completeness is
    floored at ``min_completeness`` and responsiveness capped at
    ``max_responsiveness`` (the ``population_min_completeness`` /
    ``population_max_responsiveness`` config knobs).

    The per-round Bernoulli redraw is inherently O(N) (the model *is* an
    independent draw per client per round), so the trace registers a
    recurring action that makes the draw on the shared stream and writes
    only the flipped indices.
    """

    #: per-class (share, online_prob, connectivity, completeness,
    #: responsiveness)
    CLASSES = (
        ("phone", 0.7, 0.70, 0.90, 0.6, 2.0),
        ("tablet", 0.2, 0.80, 0.95, 0.9, 1.3),
        ("silo", 0.1, 0.995, 1.0, 1.0, 1.0),
    )

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        *,
        min_completeness: float = 0.25,
        max_responsiveness: float = 8.0,
    ) -> None:
        shares = np.array([c[1] for c in self.CLASSES])
        self.class_of = rng.choice(
            len(self.CLASSES), size=num_clients, p=shares / shares.sum()
        )
        self._rng = rng
        self.min_completeness = min_completeness
        self.max_responsiveness = max_responsiveness

    def bind(self, population) -> None:
        online_p = np.array([c[2] for c in self.CLASSES])[self.class_of]
        conn = np.array([c[3] for c in self.CLASSES])[self.class_of]
        comp = np.array([c[4] for c in self.CLASSES])[self.class_of]
        resp = np.array([c[5] for c in self.CLASSES])[self.class_of]
        self._online_p = online_p
        population.writable("connectivity")[:] = conn
        population.writable("completeness")[:] = np.clip(
            comp, self.min_completeness, 1.0
        )
        population.writable("responsiveness")[:] = np.clip(
            resp, 1.0, self.max_responsiveness
        )

    def schedule(self, population, queue) -> None:
        queue.add_recurring(self._redraw)

    def _redraw(self, population, fire_round: int) -> None:
        new = self._rng.random(population.num_clients) < self._online_p
        diff = np.flatnonzero(population.available != new)
        if len(diff):
            population.available[diff] = new[diff]
            population.note_available_changed(diff)


class ChurnStormTrace(DeviceTrace):
    """Periodic churn storms over any base availability trace.

    Every ``burst_every``-th round (rounds are 1-based, so the first storm
    lands at round ``burst_every`` — round 1 is never a burst unless
    ``burst_every == 1``) the trace multiplies connectivity by
    ``1 − burst_dropout`` and slows a ``straggler_fraction`` of clients by
    ``straggler_slowdown``×; calm rounds restore the population baselines.
    ``scheduler="failure"`` runs on this trace (the ``"storm"`` preset)
    and reads ``is_burst`` to flag burst rounds.

    The base trace's events keep driving ``available`` while a recurring
    storm action handles bursts.  Calm → calm rounds cost nothing — the
    restore (an exact copy from the population's baseline snapshots,
    never a multiplicative undo) runs only on the round after a burst,
    and the straggler draw comes after the base trace's own draws on the
    shared RNG stream.
    """

    def __init__(
        self,
        base: Optional[DeviceTrace] = None,
        *,
        burst_every: int = 5,
        burst_dropout: float = 0.75,
        straggler_fraction: float = 0.3,
        straggler_slowdown: float = 4.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if burst_every < 0:
            raise ValueError("burst_every must be >= 0")
        self.base = base
        self.burst_every = burst_every
        self.burst_dropout = burst_dropout
        self.straggler_fraction = straggler_fraction
        self.straggler_slowdown = straggler_slowdown
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._bursted = False
        self._hit_ids: Optional[np.ndarray] = None

    def bind(self, population) -> None:
        if self.base is not None:
            self.base.bind(population)

    def is_burst(self, round_idx: int) -> bool:
        """True on storm rounds (``round_idx % burst_every == 0``)."""
        return bool(self.burst_every) and round_idx % self.burst_every == 0

    def schedule(self, population, queue) -> None:
        if self.base is not None:
            self.base.schedule(population, queue)
        self._bursted = False
        self._hit_ids = None
        queue.add_recurring(self._storm_step)

    def _storm_step(self, population, fire_round: int) -> None:
        if self._hit_ids is not None:
            population.writable("responsiveness")[self._hit_ids] = (
                population.base_responsiveness[self._hit_ids]
            )
            self._hit_ids = None
        if self._bursted:
            population.writable("connectivity")[:] = (
                population.base_connectivity
            )
            self._bursted = False
        if not self.is_burst(fire_round):
            return
        connectivity = population.writable("connectivity")
        connectivity *= 1.0 - self.burst_dropout
        self._bursted = True
        if self.straggler_fraction >= 1.0:
            hit = np.ones(population.num_clients, dtype=bool)
        elif self.straggler_fraction > 0.0:
            hit = (
                self._rng.random(population.num_clients)
                < self.straggler_fraction
            )
        else:
            return
        hit_ids = np.flatnonzero(hit)
        responsiveness = population.writable("responsiveness")
        responsiveness[hit_ids] *= self.straggler_slowdown
        self._hit_ids = hit_ids


def build_population(
    preset: str,
    num_clients: int,
    rng: np.random.Generator,
    *,
    config,
):
    """Build the population ``RunConfig.population_preset`` names.

    The base availability comes from the config's classic availability
    knobs — an explicit ``availability_trace`` is adapted column-wise,
    ``always_available`` keeps everyone on, otherwise a duty-cycle trace
    is drawn — and the preset layers its dynamics on top:

    * ``"none"`` — just the base availability (plus baseline connectivity
      ``1 − dropout_prob``);
    * ``"diurnal"`` — day/night windows (:class:`DiurnalTrace`);
    * ``"device-classes"`` — phone/tablet/silo population
      (:class:`DeviceClassTrace`);
    * ``"storm"`` — periodic churn storms over the base availability,
      parameterized by the ``failure_*`` knobs (:class:`ChurnStormTrace`).

    ``scheduler="failure"`` wraps whichever preset it is combined with in
    the same storm trace, so its population always answers ``is_burst``.

    ``config.population_scalable_sampling`` marks the population for
    O(idle) pool-based sampler draws.
    """
    from repro.population.population import DeviceStatePopulation

    if preset not in POPULATION_PRESETS:
        raise ValueError(
            f"unknown population preset {preset!r}; "
            f"expected {POPULATION_PRESETS}"
        )

    def base_trace() -> Optional[DeviceTrace]:
        if config.availability_trace is not None:
            return ExternalAvailabilityTrace(config.availability_trace)
        if config.always_available:
            return None
        return DutyCycleTrace(
            num_clients, rng, mean_on_fraction=config.mean_on_fraction
        )

    dropout = 0.0 if config.always_available else config.dropout_prob
    if preset in ("none", "storm"):
        trace = base_trace() or StaticTrace()
    elif preset == "diurnal":
        trace = DiurnalTrace(num_clients, rng)
    else:  # "device-classes"
        trace = DeviceClassTrace(
            num_clients,
            rng,
            min_completeness=config.population_min_completeness,
            max_responsiveness=config.population_max_responsiveness,
        )
    if preset == "storm" or config.scheduler == "failure":
        trace = ChurnStormTrace(
            trace,
            burst_every=config.failure_burst_every,
            burst_dropout=config.failure_burst_dropout,
            straggler_fraction=config.failure_straggler_fraction,
            straggler_slowdown=config.failure_straggler_slowdown,
            rng=rng,
        )
    return DeviceStatePopulation(
        num_clients,
        rng,
        trace,
        dropout_prob=dropout,
        dropped_cooldown=config.population_dropped_cooldown,
        scalable_sampling=config.population_scalable_sampling,
    )
