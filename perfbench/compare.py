"""Diff two sets of benchmark results, metric by metric and workload by workload.

Usage, from the root of the repository:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*-trace0.json`` records that ``perfbench/run.py``
writes, one per run (typically ten seeds per workload).  For each workload
and end-to-end metric the table gives both medians with their quartiles and
run counts, the ratio change / parent with the parent median as its base, and
one verdict:

  improved    better by more than the parent's own quartile spread, and
              (when both sides ran the same seeds) better in at least nine
              tenths of the seed pairs;
  worse       worse by more than the metric's bound from BENCHMARK.json;
  unresolved  a side's quartile spread is wider than the bound, unless every
              change run beats every parent run;
  unchanged   otherwise.

``gap_rel`` and ``failed_frac`` are deterministic and get a bound of zero:
any increase is worse.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ({"name": "gap_rel", "unit": "ratio", "better": "lower", "bound": 0.0},
         {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0})


def load(directory) -> dict:
    """{workload: {seed: record}} from the untraced records in a directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def value(rec, name) -> float:
    if name in rec["metrics"]:
        return float(rec["metrics"][name]["value"])
    return float(rec["stats"][name]["median"])


def quartiles(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    return values[0], values[0], values[0]


def verdict(metric, parent: dict, change: dict) -> tuple:
    """(verdict, parent quartiles, change quartiles, ratio) for one metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pv, cv = list(parent.values()), list(change.values())
    pm, pq1, pq3 = quartiles(pv)
    cm, cq1, cq3 = quartiles(cv)
    ratio = cm / pm if pm else float("inf") if cm else 1.0

    def share(delta, base):
        return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))

    worse_by = share(cm - pm, pm) if lower else share(pm - cm, pm)
    spread = max(share(pq3 - pq1, pm), share(cq3 - cq1, cm))

    def beats(c, p):
        return c < p if lower else c > p

    all_better = all(beats(c, p) for c in cv for p in pv)
    same_seeds = set(parent) == set(change)
    wins = sum(beats(change[s], parent[s]) for s in parent) if same_seeds else 0
    pairs_ok = not same_seeds or wins >= 0.9 * len(parent)

    if bound and spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif -worse_by > share(pq3 - pq1, pm) and pairs_ok:
        v = "improved"
    else:
        v = "unchanged"
    return v, (pm, pq1, pq3, len(pv)), (cm, cq1, cq3, len(cv)), ratio


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Diff two benchmark result directories.")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"] + list(EXACT)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: no *-trace0.json records in one of the directories", file=sys.stderr)
        return 1

    def fmt(q):
        return f"{q[0]:.6g} [{q[1]:.6g}, {q[2]:.6g}] n={q[3]}"

    header = f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<36} " \
             f"{'change median [q1, q3]':<36} {'ratio (base: parent median)':<34} verdict"
    print(header)
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<14} missing on one side")
            continue
        for m in metrics:
            pvals = {s: value(r, m["name"]) for s, r in parent[workload].items()}
            cvals = {s: value(r, m["name"]) for s, r in change[workload].items()}
            v, pq, cq, ratio = verdict(m, pvals, cvals)
            base = f"{ratio:.4f} (base {pq[0]:.6g} {m['unit']})"
            print(f"{workload:<14} {m['name']:<12} {fmt(pq):<36} {fmt(cq):<36} {base:<34} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
