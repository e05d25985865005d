"""Shared utilities: deterministic RNG fan-out and registries."""

from repro.utils.rng import RngFactory, child_rng
from repro.utils.registry import Registry

__all__ = ["RngFactory", "child_rng", "Registry"]
