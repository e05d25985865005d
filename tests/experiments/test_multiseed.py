import pytest

from repro.experiments import get_scenario, run_strategy_seeds


@pytest.fixture(scope="module")
def tiny_scenario():
    return get_scenario("femnist-tiny").with_(rounds=8, eval_every=2)


def test_seed_summary_fields(tiny_scenario):
    summary = run_strategy_seeds(tiny_scenario, "fedavg", seeds=(0, 1))
    assert summary.strategy == "fedavg"
    assert summary.seeds == [0, 1]
    assert len(summary.results) == 2
    assert 0.0 <= summary.final_accuracy_mean <= 1.0
    assert summary.dv_gb_mean > 0
    assert summary.final_accuracy_std >= 0
    assert "acc=" in summary.as_row()


def test_seeds_produce_different_runs(tiny_scenario):
    summary = run_strategy_seeds(tiny_scenario, "fedavg", seeds=(0, 1))
    a, b = summary.results
    assert a.series("round_seconds").tolist() != b.series("round_seconds").tolist()


def test_compare_strategies(tiny_scenario):
    table = {
        name: run_strategy_seeds(tiny_scenario, name, seeds=(0, 1))
        for name in ("fedavg", "gluefl")
    }
    # GlueFL's downstream advantage survives seed averaging
    glue_down = [
        r.cumulative_down_bytes()[-1] for r in table["gluefl"].results
    ]
    fed_down = [
        r.cumulative_down_bytes()[-1] for r in table["fedavg"].results
    ]
    assert sum(glue_down) < sum(fed_down)


def test_empty_seed_list_rejected(tiny_scenario):
    with pytest.raises(ValueError):
        run_strategy_seeds(tiny_scenario, "fedavg", seeds=())


def test_top_level_api_imports():
    import repro

    assert callable(repro.make_gluefl)
    assert callable(repro.run_training)
    assert repro.__version__ == "1.0.0"
