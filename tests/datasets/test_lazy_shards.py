"""The lazy federation's shard draw equals the ``rng.choice(p=)`` build.

``lazy_synthetic_federation`` draws a shard's labels with the inverse-CDF
step ``Generator.choice`` performs for a ``p=`` draw, without its
argument checks.  The oracle here keeps the ``choice`` construction, so a
numpy release that changes ``Generator.choice``'s stream fails this test
instead of silently changing every lazy fleet's data.
"""

import numpy as np
import pytest

from repro.datasets import lazy_synthetic_federation
from repro.datasets.base import ClientDataset
from repro.datasets.synthetic import image_prototypes, sample_from_prototypes


def choice_shard(seed, cid, protos, *, num_classes, alpha, samples, noise):
    """A shard built with ``rng.choice(num_classes, size=…, p=prefs)``."""
    rng = np.random.default_rng([seed, cid])
    prefs = rng.dirichlet(np.full(num_classes, alpha))
    labels = rng.choice(num_classes, size=samples, p=prefs)
    x = sample_from_prototypes(protos, labels, rng, noise=noise)
    return ClientDataset(x=x, y=labels, client_id=cid)


@pytest.mark.parametrize("seed", [0, 12345])
def test_lazy_shards_equal_the_choice_construction(seed):
    num_clients, num_classes, alpha, samples, noise = 1_200, 4, 0.5, 8, 1.0
    fed = lazy_synthetic_federation(
        num_clients=num_clients, num_classes=num_classes, image_size=6,
        samples_per_client=samples, alpha=alpha, noise=noise, seed=seed,
        cache_size=8,
    )
    # the prototypes are the first draws of the federation's root stream
    protos = image_prototypes(num_classes, 1, 6, np.random.default_rng(seed))
    for cid in range(num_clients):
        got = fed.clients[cid]
        want = choice_shard(
            seed, cid, protos, num_classes=num_classes, alpha=alpha,
            samples=samples, noise=noise,
        )
        assert got.y.dtype == want.y.dtype
        np.testing.assert_array_equal(got.y, want.y)
        np.testing.assert_array_equal(got.x, want.x)
        assert got.x.dtype == want.x.dtype
