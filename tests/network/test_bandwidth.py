import numpy as np
import pytest

from repro.network.bandwidth import (
    BandwidthSample,
    datacenter_bandwidth,
    five_g_bandwidth,
    ndt_like_bandwidth,
)
from repro.network.profiles import NETWORK_PROFILES, get_profile
from repro.network.transfer import ClientLinks, transfer_seconds


def test_ndt_matches_paper_quantile(rng):
    """~20% of devices at <= 10 Mbps download (paper §2.2 / Fig. 1)."""
    sample = ndt_like_bandwidth(20_000, rng)
    frac = sample.fraction_below(10.0, "down")
    assert 0.15 < frac < 0.25


def test_ndt_upload_slower_than_download_on_average(rng):
    sample = ndt_like_bandwidth(5000, rng)
    assert np.median(sample.up_mbps) < np.median(sample.down_mbps)


def test_five_g_faster_than_ndt(rng):
    ndt = ndt_like_bandwidth(2000, rng)
    g5 = five_g_bandwidth(2000, rng)
    assert np.median(g5.down_mbps) > 5 * np.median(ndt.down_mbps)


def test_datacenter_fastest_and_symmetric(rng):
    dc = datacenter_bandwidth(2000, rng)
    assert np.median(dc.down_mbps) > 1000
    ratio = np.median(dc.up_mbps) / np.median(dc.down_mbps)
    assert 0.5 < ratio < 1.5


def test_bandwidth_sample_validation():
    with pytest.raises(ValueError):
        BandwidthSample(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        BandwidthSample(np.array([0.0]), np.array([1.0]))


def test_profiles_registered():
    assert set(NETWORK_PROFILES) == {"5g", "datacenter", "ndt"}
    assert get_profile("ndt").name == "ndt"


def test_profile_sampling_deterministic():
    a = get_profile("5g").sample(10, np.random.default_rng(1))
    b = get_profile("5g").sample(10, np.random.default_rng(1))
    np.testing.assert_array_equal(a.down_mbps, b.down_mbps)


def test_transfer_seconds():
    # 1 MB over 8 Mbps = 1 second
    assert transfer_seconds(1e6, 8.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        transfer_seconds(1e6, 0.0)


def test_client_links_scalar_and_vector_agree(rng):
    links = ClientLinks(ndt_like_bandwidth(20, rng))
    ids = np.arange(5)
    sizes = np.full(5, 1e6)
    vec = links.download_seconds_many(ids, sizes)
    for i in ids:
        assert vec[i] == pytest.approx(links.download_seconds(i, 1e6))
    vec_up = links.upload_seconds_many(ids, sizes)
    for i in ids:
        assert vec_up[i] == pytest.approx(links.upload_seconds(i, 1e6))


# -- the samplers against the expressions they replaced ----------------------------
# Each sampler draws in its own buffers; these are the whole-array
# expressions it was written out as before, kept as the reference.


def reference_ndt(n, rng):
    down = 40.0 * np.exp(np.log(4.0) / 0.8416 * rng.standard_normal(n))
    ratio = 0.45 * np.exp(0.7 * rng.standard_normal(n))
    up = down * np.clip(ratio, 0.02, 1.2)
    return np.clip(down, 0.5, 3000.0), np.clip(up, 0.1, 2000.0)


def reference_five_g(n, rng):
    down = 600.0 * np.exp(0.5 * rng.standard_normal(n))
    up = 60.0 * np.exp(0.5 * rng.standard_normal(n))
    return np.clip(down, 50.0, 4000.0), np.clip(up, 5.0, 500.0)


def reference_datacenter(n, rng):
    down = 8000.0 * np.exp(0.2 * rng.standard_normal(n))
    up = 7000.0 * np.exp(0.2 * rng.standard_normal(n))
    return np.clip(down, 1000.0, 32000.0), np.clip(up, 1000.0, 32000.0)


@pytest.mark.parametrize(
    "sampler, reference",
    (
        (ndt_like_bandwidth, reference_ndt),
        (five_g_bandwidth, reference_five_g),
        (datacenter_bandwidth, reference_datacenter),
    ),
)
@pytest.mark.parametrize("seed", (0, 7))
def test_in_place_samplers_equal_the_whole_array_expressions(
    sampler, reference, seed
):
    got = sampler(50_000, np.random.default_rng(seed))
    down, up = reference(50_000, np.random.default_rng(seed))
    np.testing.assert_array_equal(got.down_mbps, down)
    np.testing.assert_array_equal(got.up_mbps, up)
