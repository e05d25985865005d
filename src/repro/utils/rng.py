"""Deterministic random-number-generator fan-out.

A federated-learning simulation has many independent sources of randomness:
client sampling, per-client mini-batch order, bandwidth assignment,
availability, model initialization, and so on.  To keep runs reproducible
*and* to keep those sources independent (changing the number of local steps
must not perturb which clients get sampled), every consumer derives its own
:class:`numpy.random.Generator` from a single root seed and a stable string
name.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["child_rng", "RngFactory"]


def _seed_from(root_seed: int, name: str) -> int:
    """Map ``(root_seed, name)`` to a stable 64-bit seed.

    Uses BLAKE2b so that the mapping is stable across Python processes and
    platform hash randomization (``hash(str)`` is salted per process and
    must not be used here).
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def child_rng(root_seed: int, name: str) -> np.random.Generator:
    """Return an independent, deterministic generator for ``name``.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    name:
        A stable label for the randomness consumer, e.g. ``"sampler"`` or
        ``"client/42/batches"``.
    """
    return np.random.default_rng(_seed_from(root_seed, name))


class RngFactory:
    """Factory bound to one root seed, handing out named child generators.

    Examples
    --------
    >>> rngs = RngFactory(seed=7)
    >>> a = rngs("sampler").integers(0, 100)
    >>> b = RngFactory(seed=7)("sampler").integers(0, 100)
    >>> bool(a == b)
    True
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def __call__(self, name: str) -> np.random.Generator:
        return child_rng(self.seed, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed})"
