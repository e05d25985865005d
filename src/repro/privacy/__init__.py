"""Privacy-aware compression: clipping, Gaussian noise, RDP accounting.

GlueFL's sticky masks reveal exactly which coordinates each client deems
important; this subsystem makes the privacy counter-measures expressible
on the same compression seam the schedulers already share:

- :mod:`repro.privacy.clipping` — per-client L2 clipping (the sensitivity
  bound);
- :mod:`repro.privacy.mechanisms` — the Gaussian mechanism over
  transmitted values only (byte counts stay exact);
- :mod:`repro.privacy.accountant` — an RDP/moments accountant for the
  sampled Gaussian mechanism, plus noise calibration from a target ε;
- :mod:`repro.privacy.strategy` — :class:`PrivateStrategy`, the wrapper
  that composes all of it with any
  :class:`~repro.compression.base.CompressionStrategy`, and the
  ``random_defense`` mode (Kim & Park, 2024).

Privatize a run by wrapping its strategy — the only way in — under
quantization when the run quantizes:
``RunConfig(strategy=QuantizedStrategy(PrivateStrategy(inner, epsilon=8.0,
clip_norm=2.0), bits=8), ...)``.  The server hands the wrapper the run's
rounds and the sampler's accounting rate before setup, so ε is calibrated
against the sampling the run really does.  Strategies whose clients
choose their own transmitted coordinates (STC, the GlueFL mask) release a
data-dependent index set that value noise cannot cover, so noising them
requires the explicit ``values_only`` waiver (the reported ε then covers
the released values only):

>>> from repro.compression import STCStrategy
>>> from repro.privacy import PrivateStrategy
>>> PrivateStrategy(STCStrategy(q=0.2), clip_norm=1.0,
...                 epsilon=8.0)   # doctest: +ELLIPSIS
Traceback (most recent call last):
ValueError: strategy 'stc' selects its transmitted coordinates...
>>> import warnings
>>> with warnings.catch_warnings():        # the waiver warns
...     warnings.simplefilter("ignore")
...     private = PrivateStrategy(STCStrategy(q=0.2), clip_norm=1.0,
...                               epsilon=8.0, values_only=True)
>>> private.name
'stc+dp'
"""

from repro.privacy.accountant import (
    DEFAULT_ORDERS,
    RdpAccountant,
    calibrate_noise_multiplier,
    gaussian_rdp,
    rdp_to_epsilon,
    sampled_gaussian_rdp,
)
from repro.privacy.clipping import clip_by_l2, clip_factor
from repro.privacy.mechanisms import add_gaussian_noise, gaussian_noise_std
from repro.privacy.strategy import DEFAULT_DEFENSE_FRACTION, PrivateStrategy

__all__ = [
    "DEFAULT_DEFENSE_FRACTION",
    "PrivateStrategy",
    "RdpAccountant",
    "DEFAULT_ORDERS",
    "gaussian_rdp",
    "sampled_gaussian_rdp",
    "rdp_to_epsilon",
    "calibrate_noise_multiplier",
    "clip_by_l2",
    "clip_factor",
    "gaussian_noise_std",
    "add_gaussian_noise",
]
