"""Compare two sets of untraced benchmark runs: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--json OUT]

Each directory holds the records ``run.py --out-dir DIR`` writes
(``<workload>-seed<N>-trace0.json``).  For every workload and every
end-to-end metric of BENCHMARK.json it reports each side's median and
quartiles with the run count, the share of seed-matched pairs the change
wins (ties count for neither side), and a verdict:

  failed      a larger share of the change's checked operations failed
              than of the parent's; no gain counts then
  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the quartile spread of either side exceeds the bound, and
              not every change run beats every parent run
  unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: {seed: record}} from one directory of records."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], {})[
            record["provenance"]["seed"]] = record
    return runs


def failed_frac(records):
    """Failed over attempted checks, summed over a side's runs."""
    return (sum(r["failed"] for r in records)
            / sum(r["attempted"] for r in records))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent, change, better, bound, more_failures=False):
    """Verdict for one metric; ``parent``/``change`` map seed -> value.

    ``more_failures``: the change failed a larger share of its checks.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    share = wins / len(seeds) if seeds else 0.0
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    worse_by = -sign * (cm - pm) / abs(pm)
    all_better = min(sign * v for v in c) > max(sign * v for v in p)
    if more_failures:
        verdict = "failed"
    elif share >= WIN_SHARE and sign * (cm - pm) > (p3 - p1):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"parent": {"median": pm, "q1": p1, "q3": p3, "n": len(p)},
            "change": {"median": cm, "q1": c1, "q3": c3, "n": len(c)},
            "pairs": len(seeds), "change_wins": wins, "win_share": share,
            "spread": spread, "worse_by": worse_by, "bound": bound,
            "within_bound": worse_by <= bound, "verdict": verdict}


def compare(parent_dir, change_dir, spec):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    report = {}
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        fracs = {"parent": failed_frac(p.values()),
                 "change": failed_frac(c.values())}
        more_failures = fracs["change"] > fracs["parent"]
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows[name] = judge(
                {s: r["metrics"][name]["value"] for s, r in p.items()},
                {s: r["metrics"][name]["value"] for s, r in c.items()},
                metric["better"], metric["bound"], more_failures)
            rows[name]["failed_frac"] = fracs
        report[workload] = rows
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = compare(args.parent, args.change, spec)
    if not report:
        print("compare: no workload has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<10} {'metric':<13} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload, rows in report.items():
        fracs = next(iter(rows.values()))["failed_frac"]
        print(f"{workload:<10} failed_frac parent {fracs['parent']:g}, "
              f"change {fracs['change']:g}")
        for name, r in rows.items():
            p, c = r["parent"], r["change"]
            print(f"{workload:<10} {name:<13} "
                  f"{p['median']:>10.5g} [{p['q1']:.5g}, {p['q3']:.5g}] n={p['n']:<2} "
                  f"{c['median']:>10.5g} [{c['q1']:.5g}, {c['q3']:.5g}] n={c['n']:<2} "
                  f"{r['change_wins']:>3}/{r['pairs']:<3} {r['spread']:>7.3f} "
                  f"{r['bound']:>6.2f}  {r['verdict']}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
