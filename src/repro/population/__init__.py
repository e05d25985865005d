"""Vectorized device-state population + fault-injection traces.

:class:`DeviceStatePopulation` models every client as rows in numpy state
columns (availability, connectivity, completeness, responsiveness, plus an
idle/working/offline/dropped state machine) — no per-client Python
objects, so federations scale to 10⁵–10⁶ clients.  It duck-types the
classic availability-trace protocol, so the server plugs it in as its
availability model unchanged; :mod:`repro.population.traces` provides the
per-round dynamics (duty-cycle, diurnal, device classes, churn storms) and
the ``population_preset`` registry.

Populations advance by draining the transition events their trace
scheduled on a :class:`~repro.population.events.PopulationEventQueue`,
touching only the clients that actually change state, and expose
:class:`~repro.population.population.IdlePool` for O(idle) sampler draws at
fleet scale.
"""

from repro.population.events import PopulationEventQueue
from repro.population.population import (
    DROPPED,
    IDLE,
    OFFLINE,
    WORKING,
    DeviceStatePopulation,
    IdlePool,
)
from repro.population.traces import (
    POPULATION_PRESETS,
    ChurnStormTrace,
    DeviceClassTrace,
    DeviceTrace,
    DiurnalTrace,
    DutyCycleTrace,
    ExternalAvailabilityTrace,
    StaticTrace,
    build_population,
)

__all__ = [
    "DeviceStatePopulation",
    "IdlePool",
    "PopulationEventQueue",
    "IDLE",
    "WORKING",
    "OFFLINE",
    "DROPPED",
    "DeviceTrace",
    "StaticTrace",
    "DutyCycleTrace",
    "DiurnalTrace",
    "DeviceClassTrace",
    "ChurnStormTrace",
    "ExternalAvailabilityTrace",
    "POPULATION_PRESETS",
    "build_population",
]
