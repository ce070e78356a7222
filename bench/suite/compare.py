#!/usr/bin/env python3
"""Compare two groups of pgssi_bench result files (stdlib only).

    compare.py BASE_FILE... --vs NEW_FILE...   # verdict per workload x metric
    compare.py FILE...                         # one group: median, quartiles, spread

Result files are the JSON-lines files bench/suite/run.sh writes under
build-bench/results/: a {"meta": ...} header, then one
{"workload", "samples", "result"} record per workload. Only the
end-to-end metrics named in BENCHMARK.json are compared.

Verdicts, per workload and metric (the new group against the base):
  better      the new side wins at least 9 of 10 pairs (files are paired
              in the order given) and the medians differ by more than the
              base's interquartile range;
  worse       the new median is worse than the base median by more than
              the bound;
  unresolved  either group's spread (IQR / median) is wider than the
              bound, unless every new run beats every base run;
  within      otherwise.
Exits 1 when any verdict is "worse" or any run failed its correctness gates.
"""

import argparse
import json
import pathlib
import statistics
import sys

DEFAULT_BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_group(paths):
    """Returns ({(workload, metric): [values in file order]}, n_incorrect)."""
    values, incorrect = {}, 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if "meta" in rec:
                    continue
                res = rec["result"]
                if not res["correct"]:
                    incorrect += 1
                    print(f"{path}: {rec['workload']} failed its correctness gates",
                          file=sys.stderr)
                for name, m in res["metrics"].items():
                    values.setdefault((rec["workload"], name), []).append(m["value"])
    return values, incorrect


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else float("inf")


def is_better(x, y, higher):
    """True when x is strictly better than y."""
    return x > y if higher else x < y


def verdict(base, new, higher, bound):
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    all_better = all(is_better(n, b, higher) for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if all_better else "unresolved"
    worse_gap = (nmed - bmed) / abs(bmed) * (-1 if higher else 1) if bmed else 0
    if worse_gap > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(is_better(n, b, higher) for b, n in pairs)
    if (pairs and wins >= 0.9 * len(pairs) and is_better(nmed, bmed, higher)
            and abs(nmed - bmed) > bq3 - bq1):
        return "better"
    return "within"


def fmt(v):
    q1, med, q3 = quartiles(v)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", nargs="+", help="result files of the base group")
    ap.add_argument("--vs", nargs="+", default=None, help="result files of the new group")
    ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = ap.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    base, bad = load_group(args.base)
    new, bad_new = (load_group(args.vs) if args.vs else ({}, 0))
    bad += bad_new
    worse = False
    if args.vs:
        print(f"{'workload':<12} {'metric':<18} {'base median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'bound':>6}  verdict")
    else:
        print(f"{'workload':<12} {'metric':<18} {'median [q1, q3]':<34} "
              f"{'n':>3} {'IQR/med':>8} {'bound':>6}  steady (<= bound/3)")
    for w in workloads:
        for m in metrics:
            key = (w, m["name"])
            if key not in base:
                continue
            higher = m["better"] == "higher"
            if args.vs:
                if key not in new:
                    continue
                v = verdict(base[key], new[key], higher, m["bound"])
                worse |= v == "worse"
                print(f"{w:<12} {m['name']:<18} {fmt(base[key]):<34} "
                      f"{fmt(new[key]):<34} {m['bound']:>6.3f}  {v}")
            else:
                s = spread(base[key])
                steady = "yes" if s <= m["bound"] / 3 else "NO"
                print(f"{w:<12} {m['name']:<18} {fmt(base[key]):<34} "
                      f"{len(base[key]):>3} {s:>8.4f} {m['bound']:>6.3f}  {steady}")
    return 1 if worse or bad else 0


if __name__ == "__main__":
    sys.exit(main())
