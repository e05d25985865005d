"""Storm populations with a burst schedule of the test's choosing.

``population_preset="storm"`` wraps the base availability in a
:class:`~repro.population.ChurnStormTrace` with its default schedule; a
test that needs another schedule passes this population as
``RunConfig.population`` instead.  It is built the way
``build_population("storm", ...)`` builds the preset, from the same
``RngFactory(seed)("population")`` stream the server would hand the
preset, so a sync run over it replays the preset's run bit for bit.
"""

from __future__ import annotations

from repro.population import (
    ChurnStormTrace,
    DeviceStatePopulation,
    DutyCycleTrace,
)
from repro.utils.rng import RngFactory


def storm_population(
    num_clients: int,
    seed: int,
    *,
    always_available: bool = False,
    mean_on_fraction: float = 0.9,
    dropout_prob: float = 0.05,
    **storm,
) -> DeviceStatePopulation:
    """The ``"storm"`` preset a ``RunConfig(seed=seed)`` with these
    classic availability knobs would build, with ``storm`` as the
    :class:`ChurnStormTrace` keywords (``burst_every``, ``burst_dropout``,
    ``straggler_fraction``, ``straggler_slowdown``)."""
    rng = RngFactory(seed)("population")
    base = (
        None
        if always_available
        else DutyCycleTrace(num_clients, rng, mean_on_fraction=mean_on_fraction)
    )
    return DeviceStatePopulation(
        num_clients,
        rng,
        ChurnStormTrace(base, rng=rng, **storm),
        dropout_prob=0.0 if always_available else dropout_prob,
    )
