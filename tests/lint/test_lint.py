"""Every lint rule is clean on this checkout, up to the one allow-list.

Each rule is a plain function from the :func:`~tests.lint.index.repo_index`
to a set of finding keys (``tests/lint/discipline.py``,
``config_fields.py``, ``registry.py``, ``reach.py`` say what each one
checks and what its keys look like).  A key stays only as an entry of
:data:`ALLOWED`, with a one-line reason; an entry that no longer matches
a finding fails too, so the list never outlives what it excuses.
"""

from __future__ import annotations

import pytest

from tests.lint import config_fields, discipline, reach, registry
from tests.lint.index import repo_index

RULES = {
    "determinism": discipline.determinism,
    "bare-dtype": discipline.bare_dtype,
    "lifecycle-pairing": discipline.lifecycle_pairing,
    "config-validated": config_fields.config_validated,
    "config-documented": config_fields.config_documented,
    "config-set": config_fields.config_set,
    "config-read": config_fields.config_read,
    "golden-coverage": registry.golden_coverage,
    "readme-backends": registry.readme_backends,
    "quickstart-backends": registry.quickstart_backends,
    "readme-schedulers": registry.readme_schedulers,
    "architecture-schedulers": registry.architecture_schedulers,
    "public-names": reach.public_names,
    "public-methods": reach.public_methods,
    "switch-callers": reach.switch_callers,
    "call-keywords": reach.call_keywords,
    "doc-paths": reach.doc_paths,
    "doc-names": reach.doc_names,
}

#: rule -> {finding key: why it stays}
ALLOWED = {
    "public-names": {
        "PoissonSampler": "the only sampler with dp_sample_rate < 1: without "
        "it the accountant's sampled-Gaussian branch cannot run",
        "softmax": "oracle for CrossEntropyLoss's gradient in "
        "tests/nn/test_loss_optim.py and tests/properties/test_props.py",
    },
    "public-methods": {
        "SimClock.advance_by": "benchmarks/ledger/tracer.py wraps it by name "
        "for its engine.clock probe, and Tracer.attach raises on a missing one",
        "StalenessTracker.mean_staleness_fraction": "benchmarks/ledger/tracer.py "
        "wraps it by name for its fl.staleness probe",
        "RunResult.time_to_target_s": "docs/architecture.md documents it as "
        "the way to cut a run's clock at a target accuracy",
        "Module.state_dict": "ROADMAP direction 7's resumable snapshot may "
        "need it",
        "Module.load_state_dict": "ROADMAP direction 7's resumable snapshot "
        "may need it",
        "GlueFLMaskStrategy.is_regen_round": "test seam: the scheduler and "
        "delta-lifetime tests watch sticky-mask regeneration through it",
        "LazyClientList.cached_ids": "test seam: the lazy-materialization "
        "tests and the module doctest watch the shard LRU through it",
        "PopulationEventQueue.periodic_ids": "test seam: the flip-wheel "
        "tests and the module doctest watch wheel membership through it",
    },
    "config-set": {
        "availability_trace": "classic availability knob; ROADMAP 11(d) decides "
        "whether the classic trace folds into population presets",
        "mean_on_fraction": "classic availability knob (callers set only the "
        "traces' own parameter); ROADMAP 11(d) folds it into a population preset",
        "dropout_prob": "classic availability knob (callers set only the "
        "population's own parameter); ROADMAP 11(d) folds it into a population "
        "preset",
    },
}


@pytest.mark.parametrize("rule", RULES)
def test_rule(rule):
    unexcused = RULES[rule](repo_index()) - set(ALLOWED.get(rule, {}))
    assert not unexcused, (
        f"[{rule}] fix these, or allow-list each with a reason "
        "(see the rule's module docstring):\n" + "\n".join(sorted(unexcused))
    )


@pytest.mark.parametrize("rule", RULES)
def test_allow_list_is_not_stale(rule):
    stale = set(ALLOWED.get(rule, {})) - RULES[rule](repo_index())
    assert not stale, (
        f"[{rule}] allow-list entries that match no finding; drop them:\n"
        + "\n".join(sorted(stale))
    )


def test_allowed_names_rules():
    assert set(ALLOWED) <= set(RULES)


#: scan -> a floor on what it sees of this checkout; a scan that finds
#: nothing would let its rule pass vacuously
SCANS = {
    "tree": lambda index: len(index.package()) > 80
    and len(index.under("benchmarks/")) > 10,
    "public-surface": lambda index: len(reach.exported(index)) > 200,
    "callers": lambda index: {"scheduler", "execution_backend", "rounds", "eval_top_k"}
    <= config_fields.set_names(index),
    "readers": lambda index: {"scheduler", "execution_backend", "rounds"}
    <= config_fields.read_names(index),
    "switches": lambda index: {"Conv2d.bias", "PrivateStrategy.values_only"}
    <= set(reach.switches(index)),
    "calls": lambda index: len(reach.keyword_calls(index)) >= 50,
    "doc-paths": lambda index: len(reach.references(index)) > 50,
}


@pytest.mark.parametrize("scan", SCANS)
def test_scans_see_the_tree(scan):
    assert SCANS[scan](repo_index())
