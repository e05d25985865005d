"""Compare two ledger result files (``run.py --out``), metric by metric.

    python3 benchmarks/ledger/compare.py base.json candidate.json

One row per workload x end-to-end metric: base and candidate medians, the
ratio candidate/base, the metric's bound, both within-set spreads, and a
verdict:

``better``      every candidate run reads better than every base run
``no-worse``    the candidate's median is within the bound of the base's
``worse``       the candidate's median is worse by more than the bound
``unresolved``  a spread is wider than the bound and the two sets of runs
                interleave (or the file marks the metric unresolved, as
                on a host with fewer CPUs than pool workers)

Exits non-zero on any ``worse`` and on any rise in ``failed_op_share``;
notes (without failing) when a workload's model digest differs, i.e. the
candidate simulates something else.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

__all__ = ["compare", "verdict"]


def verdict(base: dict, cand: dict) -> str:
    """Verdict for one metric; ``base``/``cand`` are its ledger entries."""
    if "unresolved" in (base.get("status"), cand.get("status")):
        return "unresolved"
    # work in "badness": sign-flipped so that lower is always better
    sign = 1.0 if base["better"] == "lower" else -1.0
    b = [sign * v for v in base["values"]]
    c = [sign * v for v in cand["values"]]
    worse_by = sign * (cand["median"] - base["median"]) / abs(base["median"])
    if max(c) < min(b):
        return "better"
    interleave = min(c) <= max(b)
    if max(base["spread"], cand["spread"]) > base["bound"] and interleave:
        return "unresolved"
    return "worse" if worse_by > base["bound"] else "no-worse"


def compare(base: dict, cand: dict) -> Tuple[List[tuple], List[str], List[str]]:
    """Rows ``(workload, metric, base, cand, ratio, bound, spread_a,
    spread_b, verdict)``, the blocking problems, and informational notes."""
    rows, problems, notes = [], [], []
    for name, wb in base["workloads"].items():
        wc = cand["workloads"].get(name)
        if wc is None:
            problems.append(f"{name}: missing from candidate")
            continue
        for metric, mb in wb["end_to_end"].items():
            mc = wc["end_to_end"][metric]
            outcome = verdict(mb, mc)
            rows.append((
                name, metric, mb["median"], mc["median"],
                mc["median"] / mb["median"], mb["bound"], mb["spread"],
                mc["spread"], outcome,
            ))
            if outcome == "worse":
                problems.append(f"{name}.{metric}: worse")
        if wc["digest"] != wb["digest"]:
            # not a failure: a change may mean to alter what is simulated
            notes.append(f"{name}: simulated results differ (model digest)")
        if wc["failed_op_share"] > wb["failed_op_share"]:
            problems.append(
                f"{name}: failed_op_share rose "
                f"{wb['failed_op_share']} -> {wc['failed_op_share']}"
            )
    return rows, problems, notes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, cand = (json.load(open(path)) for path in argv)
    rows, problems, notes = compare(base, cand)
    print(
        f"{'workload':<22}{'metric':<24}{'base':>12}{'candidate':>12}"
        f"{'cand/base':>10}{'bound':>7}{'spr.a':>7}{'spr.b':>7}  verdict"
    )
    for name, metric, b, c, ratio, bound, sa, sb, outcome in rows:
        print(
            f"{name:<22}{metric:<24}{b:>12.5g}{c:>12.5g}{ratio:>10.4f}"
            f"{bound:>7.2f}{sa:>7.3f}{sb:>7.3f}  {outcome}"
        )
    for note in notes:
        print(f"NOTE {note}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
