"""GlueFL reproduction (MLSys 2023).

Headline API (re-exported here for convenience)::

    from repro import make_gluefl, RunConfig, run_training
    from repro.datasets import femnist_like

    dataset = femnist_like(num_clients=150, seed=0)
    strategy, sampler = make_gluefl(num_to_sample=10)
    result = run_training(RunConfig(dataset=dataset, model_name="mlp",
                                    strategy=strategy, sampler=sampler,
                                    rounds=100))

Subpackages:

- :mod:`repro.core` — the GlueFL strategy (sticky sampling + mask shifting).
- :mod:`repro.fl` — the federated-learning simulation engine.
- :mod:`repro.engine` — the round's step functions + scheduler policies.
- :mod:`repro.runtime` — execution backends and the dtype policy.
- :mod:`repro.compression` — STC, APF, GlueFL masking, error compensation.
- :mod:`repro.privacy` — clipping, Gaussian mechanism, RDP accounting.
- :mod:`repro.nn` — the numpy neural-network substrate.
- :mod:`repro.datasets` — synthetic non-IID federated datasets.
- :mod:`repro.network` / :mod:`repro.traces` — bandwidth, compute, availability.
- :mod:`repro.theory` — Appendix A sampling analysis, Theorem 2 helpers.
- :mod:`repro.experiments` — the table/figure reproduction harness.

See ``README.md`` for the capability matrix and ``docs/architecture.md``
for the subsystem map.
"""

from repro.core import make_gluefl, make_sticky_fedavg
from repro.fl import FLServer, RunConfig, RunResult, run_training

__version__ = "1.0.0"

__all__ = [
    "make_gluefl",
    "make_sticky_fedavg",
    "RunConfig",
    "RunResult",
    "FLServer",
    "run_training",
    "__version__",
]
