"""Compare sets of benchmark runs, or report one set's run-to-run spread.

Usage::

    python3 perfbench/compare.py RUNS_A            # spread of one set
    python3 perfbench/compare.py RUNS_A RUNS_B     # B against A

Each argument is a directory (searched recursively) of records written
by ``run.py --out``, one run per seed::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload query --seed $seed \
            --seconds 20 --trace 0 --out DIR/query-$seed.json
    done

For every workload and end-to-end metric it prints the sample count,
median and quartiles (``statistics.quantiles(values, n=4)``) of each
set.  The spread is the interquartile distance as a share of the
median.  Against a baseline, a metric whose median got worse by more
than its bound is flagged ``REGRESSION`` and one whose spread on either
side exceeds the bound is ``unresolved``: the runs cannot tell a change
of that size from noise (unless every run of B reads better than every
run of A).  Bounds come from ``BENCHMARK.json`` only.  The unbounded
figures in each record's ``detail.extra`` (wall-clock rates and
latencies, restore time, bytes on disk) are printed the same way, with
no verdict.  No gain is ever claimed here.  Exit status 1 means a
regression was flagged.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def _spec() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` for BENCHMARK.json's end-to-end set."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def _extras(runs, metrics) -> List[str]:
    """Names of the unbounded figures, in first-seen order."""
    names: List[str] = []
    for per in runs.values():
        names += [n for n in per if n not in metrics and n not in names]
    return names


def load(directory: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` from untraced records."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as handle:
            record = json.load(handle)
        detail, result = record["detail"], record["result"]
        if detail["trace"]:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values.update(detail["extra"])
        per = runs.setdefault(detail["workload"], {})
        for name, value in values.items():
            per.setdefault(name, []).append(value)
    return runs


def summary(values: List[float]) -> Tuple[int, float, float, float, float]:
    """``(n, median, q1, q3, spread)``; spread is IQR over the median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return len(values), med, q1, q3, spread


def _row(values: List[float]) -> str:
    n, med, q1, q3, spread = summary(values)
    return f"n={n:<3} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:6.1%}"


def report_spread(runs) -> int:
    metrics = _spec()
    extras = _extras(runs, metrics)
    for workload in sorted(runs):
        print(f"== {workload}")
        for name, (better, bound) in metrics.items():
            values = runs[workload].get(name)
            if not values:
                continue
            spread = summary(values)[4]
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "NOISY")
            print(f"  {name:<22} {_row(values)}  bound={bound:.0%}  {verdict}")
        for name in extras:
            values = runs[workload].get(name)
            if values:
                print(f"  {name:<22} {_row(values)}  (unbounded)")
    return 0


def report_compare(base, new) -> int:
    metrics = _spec()
    regressions = 0
    for workload in sorted(set(base) | set(new)):
        print(f"== {workload}")
        for name, (better, bound) in metrics.items():
            a, b = base.get(workload, {}).get(name), new.get(workload, {}).get(name)
            if not a or not b:
                continue
            _, med_a, *_, spread_a = summary(a)
            _, med_b, *_, spread_b = summary(b)
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            worse = change if better == "lower" else -change
            if max(spread_a, spread_b) > bound:
                # Too noisy to resolve, unless the sets do not overlap.
                b_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
                verdict = "ok (every B run better)" if b_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"  {name:<22} bound={bound:.0%} change={change:+.1%} {verdict}")
            print(f"    A {_row(a)}")
            print(f"    B {_row(b)}")
        for name in _extras({**base, **new}, metrics):
            a, b = base.get(workload, {}).get(name), new.get(workload, {}).get(name)
            if not a or not b:
                continue
            med_a, med_b = summary(a)[1], summary(b)[1]
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            print(f"  {name:<22} (unbounded) change={change:+.1%}")
            print(f"    A {_row(a)}")
            print(f"    B {_row(b)}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    if not any(sets[0].values()):
        print(f"no untraced records in {argv[0]}", file=sys.stderr)
        return 2
    if len(sets) == 1:
        return report_spread(sets[0])
    return report_compare(*sets)


if __name__ == "__main__":
    sys.exit(main())
