"""Test oracle: the whole-array synthetic federation build.

``src/`` fills a federation's features in row chunks into one block and
reorders that block in place by client, so each shard is a view of it.
This is the build it replaced, kept as the reference those shards are
compared against bit for bit: the features in one expression with
full-size temporaries, and every shard copied out with ``x[idx]``.  It
shares only the prototype generators, the partitioner and the
``min_samples`` filter with ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import ClientDataset, FederatedDataset
from repro.datasets.filters import filter_min_samples
from repro.datasets.partition import dirichlet_partition
from repro.datasets.synthetic import image_prototypes, spectrogram_prototypes


def sample_from_prototypes(
    prototypes, labels, rng, noise=1.0, amplitude_jitter=0.25
):
    n = len(labels)
    amps = 1.0 + amplitude_jitter * rng.normal(size=(n, 1, 1, 1))
    x = amps * prototypes[labels]
    x += noise * rng.normal(size=x.shape)
    return x


def synthetic_federation(
    *,
    name,
    num_clients,
    num_classes,
    in_channels,
    image_size,
    samples_per_client,
    alpha,
    noise,
    rng,
    prototype_kind="image",
    test_samples=512,
    min_samples=None,
):
    make = {"image": image_prototypes, "spectrogram": spectrogram_prototypes}
    protos = make[prototype_kind](num_classes, in_channels, image_size, rng)
    labels = rng.integers(0, num_classes, size=num_clients * samples_per_client)
    x = sample_from_prototypes(protos, labels, rng, noise=noise)
    parts = dirichlet_partition(labels, num_clients, alpha, rng)
    clients = [
        ClientDataset(x=x[idx], y=labels[idx], client_id=cid)
        for cid, idx in enumerate(parts)
    ]
    test_y = rng.integers(0, num_classes, size=test_samples)
    test_x = sample_from_prototypes(protos, test_y, rng, noise=noise)
    dataset = FederatedDataset(
        clients=clients,
        test_x=test_x,
        test_y=test_y,
        num_classes=num_classes,
        in_channels=in_channels,
        image_size=image_size,
        name=name,
    )
    if min_samples is not None:
        dataset = filter_min_samples(dataset, min_samples)
    return dataset


def lazy_shards(
    *,
    num_clients,
    num_classes=4,
    in_channels=1,
    image_size=8,
    samples_per_client=8,
    alpha=0.5,
    noise=1.0,
    seed=0,
    test_samples=128,
):
    """``(test_x, test_y, [(x, y) per client])`` of a lazy federation."""
    root = np.random.default_rng(seed)
    protos = image_prototypes(num_classes, in_channels, image_size, root)
    test_y = root.integers(0, num_classes, size=test_samples)
    test_x = sample_from_prototypes(protos, test_y, root, noise=noise)
    shards = []
    for cid in range(num_clients):
        rng = np.random.default_rng([seed, cid])
        prefs = rng.dirichlet(np.full(num_classes, alpha))
        labels = rng.choice(num_classes, size=samples_per_client, p=prefs)
        x = sample_from_prototypes(protos, labels, rng, noise=noise)
        shards.append((x, labels))
    return test_x, test_y, shards
