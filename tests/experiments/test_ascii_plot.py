import pytest

from repro.experiments.ascii_plot import ascii_plot
from repro.experiments.report import format_series


def demo_series():
    return {
        "FedAvg": [(0.01 * i, 0.4 + 0.04 * i) for i in range(1, 10)],
        "GlueFL": [(0.006 * i, 0.4 + 0.045 * i) for i in range(1, 10)],
    }


def test_plot_contains_glyphs_and_legend():
    text = ascii_plot(demo_series(), width=40, height=8)
    assert "o = FedAvg" in text
    assert "x = GlueFL" in text
    assert "o" in text.splitlines()[0] or any(
        "o" in line for line in text.splitlines()
    )


def test_plot_axis_labels():
    text = ascii_plot(demo_series(), width=40, height=8, y_label="top-1")
    assert "cumulative downstream GB" in text
    assert "(y: top-1)" in text


def test_plot_extremes_on_axis():
    text = ascii_plot(demo_series(), width=40, height=8)
    lines = text.splitlines()
    # y-axis annotations carry the data range
    assert lines[0].strip().startswith("0.8")
    assert lines[7].strip().startswith("0.4")


def test_plot_handles_single_point():
    text = ascii_plot({"a": [(1.0, 0.5)]}, width=20, height=5)
    assert "a" in text


def test_plot_validation():
    with pytest.raises(ValueError):
        ascii_plot({})
    with pytest.raises(ValueError):
        ascii_plot({"a": []})
    with pytest.raises(ValueError):
        ascii_plot(demo_series(), width=4, height=2)


def test_format_series_embeds_plot():
    text = format_series("t", demo_series())
    assert "o = FedAvg" in text
