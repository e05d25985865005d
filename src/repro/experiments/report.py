"""Paper-style formatting of experiment outputs.

These printers emit the same row/series labels the paper's tables and
figures use, so a bench run can be visually compared against the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fl.metrics import BandwidthReport, RunResult

__all__ = [
    "common_target_accuracy",
    "table2_rows",
    "format_table",
    "format_series",
]


def common_target_accuracy(
    results: Dict[str, RunResult], window: int = 5, slack: float = 0.002
) -> float:
    """The paper's Table 2 rule: 'the highest accuracy achievable by all
    approaches' — the minimum over strategies of each run's best smoothed
    accuracy, minus a small slack so every run crosses it."""
    if not results:
        raise ValueError("no results")
    return min(r.best_accuracy(window) for r in results.values()) - slack


def table2_rows(
    results: Dict[str, RunResult],
    target_accuracy: Optional[float] = None,
    window: int = 5,
) -> Dict[str, BandwidthReport]:
    """DV/TV/DT/TT per strategy at a shared target accuracy."""
    if target_accuracy is None:
        target_accuracy = common_target_accuracy(results, window)
    return {
        name: result.report(target_accuracy, window)
        for name, result in results.items()
    }


def format_table(
    title: str,
    rows: Dict[str, BandwidthReport],
    extra: Optional[Dict[str, str]] = None,
) -> str:
    """Render Table-2-style rows as aligned text."""
    lines = [title, "-" * len(title)]
    for name, report in rows.items():
        suffix = f"  {extra[name]}" if extra and name in extra else ""
        lines.append(report.as_row(name) + suffix)
    return "\n".join(lines)


def format_series(
    title: str,
    series: Dict[str, Sequence[Tuple[float, float]]],
    x_label: str = "down_GB",
    y_label: str = "acc",
    max_points: int = 12,
) -> str:
    """Render figure-style (x, y) series as aligned text columns, followed
    by an ASCII chart of the curves that approximates the paper's figure
    in the terminal."""
    lines = [title, "-" * len(title)]
    for name, points in series.items():
        pts: List[Tuple[float, float]] = list(points)
        if len(pts) > max_points:
            step = max(1, len(pts) // max_points)
            pts = pts[::step] + ([pts[-1]] if pts[-1] not in pts[::step] else [])
        body = "  ".join(f"({x:.3g},{y:.3f})" for x, y in pts)
        lines.append(f"{name:<24} {x_label}/{y_label}: {body}")
    if any(len(list(pts)) for pts in series.values()):
        from repro.experiments.ascii_plot import ascii_plot

        lines.append("")
        lines.append(ascii_plot(series))
    return "\n".join(lines)
