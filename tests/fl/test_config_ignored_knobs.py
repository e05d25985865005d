"""RunConfig.validate rejects a knob the configured run would ignore.

A set knob that changes nothing is a silent misconfiguration, so each
one is rejected off the component that reads it (the rule in the
``repro.analysis.config_coverage`` docstring).
"""

import pytest

from repro.compression import FedAvgStrategy
from repro.datasets import femnist_like
from repro.fl import RunConfig, UniformSampler


@pytest.fixture(scope="module")
def dataset():
    return femnist_like(
        num_clients=20, num_classes=4, image_size=8,
        samples_per_client=16, min_samples=4, seed=1,
    )


def make(dataset, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(4),
        rounds=5,
    )
    params.update(overrides)
    return RunConfig(**params)


def test_backend_workers_needs_the_process_backend(dataset):
    """Only the process backend has a pool to size; the serial backend
    never sees ``backend_workers``."""
    with pytest.raises(ValueError, match="^backend_workers sizes the process"):
        make(dataset, backend_workers=2).validate()
    make(dataset, backend_workers=2, execution_backend="process").validate()


@pytest.mark.parametrize("scheduler", ["sync", "semiasync"])
def test_async_buffer_size_needs_the_async_scheduler(dataset, scheduler):
    """Only the async scheduler flushes a buffer; a non-default size
    elsewhere is rejected, the default is not."""
    with pytest.raises(ValueError, match="^async_buffer_size sizes the async"):
        make(dataset, scheduler=scheduler, async_buffer_size=3).validate()
    make(dataset, scheduler=scheduler).validate()
    make(dataset, scheduler="async", async_buffer_size=3).validate()
