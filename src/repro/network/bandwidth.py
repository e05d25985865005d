"""Client bandwidth distributions.

Stand-ins for the paper's three network environments:

* **NDT-like** (Fig. 1, M-Lab NDT, North America June 2022): heavy-tailed
  consumer links.  The paper quotes "around 20% of devices have a download
  bandwidth of at most 10 Mbps"; we calibrate a log-normal to hit that
  quantile with a realistic median, and give uploads a correlated
  sub-unity ratio (uploads are slower than downloads on consumer links —
  §5.4 says FedAvg clients spend ~70% more time uploading).
* **5G** (Narayanan et al. 2021): hundreds of Mbps down, tens up.
* **Datacenter** (Mok et al. 2021): multi-Gbps symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BandwidthSample",
    "ndt_like_bandwidth",
    "five_g_bandwidth",
    "datacenter_bandwidth",
]


@dataclass
class BandwidthSample:
    """Per-client link rates in Mbps."""

    down_mbps: np.ndarray
    up_mbps: np.ndarray

    def __post_init__(self) -> None:
        if self.down_mbps.shape != self.up_mbps.shape:
            raise ValueError("down/up shape mismatch")
        if (self.down_mbps <= 0).any() or (self.up_mbps <= 0).any():
            raise ValueError("bandwidths must be positive")

    @property
    def n(self) -> int:
        return len(self.down_mbps)

    def fraction_below(self, mbps: float, direction: str = "down") -> float:
        arr = self.down_mbps if direction == "down" else self.up_mbps
        return float((arr <= mbps).mean())


# NDT-like calibration: median 40 Mbps down and P(down <= 10) ≈ 0.20
# ⇒ sigma = ln(40/10) / z_{0.80} = ln(4) / 0.8416.
_NDT_DOWN_MEDIAN = 40.0
_NDT_DOWN_SIGMA = float(np.log(4.0) / 0.8416)
_NDT_RATIO_MEDIAN = 0.45  # upload/download ratio
_NDT_RATIO_SIGMA = 0.7


def _log_normal(
    rng: np.random.Generator, n: int, median: float, sigma: float
) -> np.ndarray:
    """``median · exp(sigma · z)`` over ``n`` standard normals, computed in
    the draw's own buffer (multiplication commutes exactly, so the values
    are those of the expression written out)."""
    out = rng.standard_normal(n)
    out *= sigma
    np.exp(out, out=out)
    out *= median
    return out


def ndt_like_bandwidth(n: int, rng: np.random.Generator) -> BandwidthSample:
    """Sample consumer-grade link rates (the paper's end-user environment)."""
    down = _log_normal(rng, n, _NDT_DOWN_MEDIAN, _NDT_DOWN_SIGMA)
    up = _log_normal(rng, n, _NDT_RATIO_MEDIAN, _NDT_RATIO_SIGMA)
    np.clip(up, 0.02, 1.2, out=up)
    up *= down  # the clipped up/down ratio times the unclipped download
    np.clip(down, 0.5, 3000.0, out=down)
    np.clip(up, 0.1, 2000.0, out=up)
    return BandwidthSample(down_mbps=down, up_mbps=up)


def five_g_bandwidth(n: int, rng: np.random.Generator) -> BandwidthSample:
    """Sample commercial-5G link rates (hundreds of Mbps down)."""
    down = _log_normal(rng, n, 600.0, 0.5)
    up = _log_normal(rng, n, 60.0, 0.5)
    np.clip(down, 50.0, 4000.0, out=down)
    np.clip(up, 5.0, 500.0, out=up)
    return BandwidthSample(down_mbps=down, up_mbps=up)


def datacenter_bandwidth(n: int, rng: np.random.Generator) -> BandwidthSample:
    """Sample intra-datacenter link rates (multi-Gbps, near symmetric)."""
    down = _log_normal(rng, n, 8000.0, 0.2)
    up = _log_normal(rng, n, 7000.0, 0.2)
    np.clip(down, 1000.0, 32000.0, out=down)
    np.clip(up, 1000.0, 32000.0, out=up)
    return BandwidthSample(down_mbps=down, up_mbps=up)
