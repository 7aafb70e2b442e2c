"""Compare two result sets written by `run.py --out`.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

For every workload and end-to-end metric it prints each side's median and
quartiles, the pair wins of NEW over BASE (the i-th runs of a workload are
paired; ties count for neither) and a verdict, with the bounds taken from
BENCHMARK.json:

* improved: NEW wins at least 9 of 10 pairs and the medians differ by more
  than BASE's own quartile distance, or every NEW run beats every BASE run;
* unresolved: either side's quartile distance, as a share of its median,
  is wider than the bound;
* regressed: NEW's median is worse than BASE's by more than the bound;
* within bound: otherwise.

For traced runs it prints the per-layer medians and, for runs of the same
workload and seed, every per-item work counter that differs.  Exits 1 when
any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, lower_better: bool, bound: float):
    """(verdict, pair wins, pairs) for two lists of one metric's values."""
    better = (lambda a, b: a < b) if lower_better else (lambda a, b: a > b)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    all_better = all(better(n, b) for n in new for b in base)
    if all_better or (pairs and wins >= 0.9 * len(pairs) and better(nmed, bmed) and abs(nmed - bmed) > bq3 - bq1):
        return "improved", wins, len(pairs)
    if max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (nq3 - nq1) / abs(nmed) if nmed else 0.0) > bound:
        return "unresolved", wins, len(pairs)
    worse = (nmed - bmed) if lower_better else (bmed - nmed)
    if bmed and worse / abs(bmed) > bound:
        return "regressed", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(argv[0]), load(argv[1])
    regressed = False
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        b_runs = [r for r in base if r["workload"] == w and r["trace"] == 0]
        n_runs = [r for r in new if r["workload"] == w and r["trace"] == 0]
        if not b_runs or not n_runs:
            continue
        print(f"== {w}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        print(f"   {'metric':18s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s}  wins   verdict")
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b_runs]
            nv = [r["metrics"][m["name"]]["value"] for r in n_runs]
            v, wins, pairs = verdict(bv, nv, m["better"] == "lower", m["bound"])
            regressed |= v == "regressed"
            fmt = lambda xs: "/".join(f"{x:.4g}" for x in quartiles(xs))  # noqa: E731
            print(f"   {m['name']:18s} {fmt(bv):>32s} {fmt(nv):>32s}  {wins:2d}/{pairs:<2d}  {v}")

    for w in workloads:
        b_runs = [r for r in base if r["workload"] == w and r["trace"] == 1]
        n_runs = [r for r in new if r["workload"] == w and r["trace"] == 1]
        if not b_runs or not n_runs:
            continue
        print(f"== {w} traced: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for m in spec["per_layer"]:
            bmed = statistics.median(r["metrics"][m["name"]]["value"] for r in b_runs)
            nmed = statistics.median(r["metrics"][m["name"]]["value"] for r in n_runs)
            if bmed or nmed:
                print(f"   {m['name']:34s} {bmed:12.6g} -> {nmed:12.6g} {m['unit']}")
        diffs = 0
        for br in b_runs:
            for nr in (r for r in n_runs if r["seed"] == br["seed"]):
                for item, counts in sorted(br["per_item"].items()):
                    other = nr["per_item"].get(item, {})
                    for k, v in counts.items():
                        if other.get(k) != v:
                            diffs += 1
                            print(f"   counter diff seed {br['seed']} {item} {k}: {v} -> {other.get(k)}")
                break
        print(f"   {diffs} per-item counter differences")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
