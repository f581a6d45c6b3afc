#!/usr/bin/env python3
"""Reads ledger results and compares two sets of them (Python 3 stdlib only).

Results are the JSON lines `carbonedge_ledger --out FILE` (or
`run.sh --out FILE`) appends, one per run:

  {"workload": ..., "seed": ..., "trace": 0|1, ..., "result": {"correct": ...,
   "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}}

Subcommands:

  compare.py summary FILE...
      Per (workload, metric): run count, median, quartiles, and the spread
      (quartile distance over median) against the metric's bound.
  compare.py compare --base FILE... --cand FILE...
      One row per (workload, metric): each side's median and quartiles, the
      ratio cand/base with its base, and a verdict (see verdict()).
  compare.py check BENCHMARK.json FILE...
      Validates each result against the schema in BENCHMARK.json.

Bounds and directions come from BENCHMARK.json at the repository root
(--benchmark overrides the path).
"""

import argparse
import json
import math
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark(path):
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            specs[m["name"]] = dict(m, kind=kind)
    return bench, specs


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    run = json.loads(line)
                except json.JSONDecodeError as e:
                    sys.exit(f"{path}:{number}: not JSON: {e}")
                run["_where"] = f"{path}:{number}"
                runs.append(run)
    return runs


def series(runs):
    """{(workload, metric): [(seed, value), ...]} in file order."""
    out = defaultdict(list)
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            out[(run["workload"], name)].append((run.get("seed"), metric["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Quartile distance as a share of the median (0 when the median is 0)."""
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pairs(base, cand):
    """Pairs runs by seed, then by order of appearance within a seed."""
    by_seed = defaultdict(list)
    for seed, value in cand:
        by_seed[seed].append(value)
    used = defaultdict(int)
    out = []
    for seed, value in base:
        k = used[seed]
        if k < len(by_seed[seed]):
            out.append((value, by_seed[seed][k]))
            used[seed] += 1
    return out


def verdict(spec, base, cand):
    """better / worse / unresolved / ok for one (workload, metric).

    better:     the paired rule holds for the candidate: at least 10 pairs,
                it wins at least 9 in 10 of them (ties count for neither),
                and the medians differ by more than the base's quartile
                distance.
    worse:      the candidate's median is worse than the base's by more than
                the metric's bound. Per-layer metrics have no bound; for them
                worse is the paired rule holding for the base.
    unresolved: the base's own spread is wider than the bound, so a change
                of that size cannot be told from noise, and not every
                candidate run beats every base run.
    ok:         none of the above.
    """
    b = [v for _, v in base]
    c = [v for _, v in cand]
    lower = spec["better"] == "lower"
    mb, mc = statistics.median(b), statistics.median(c)
    q1, q3 = quartiles(b)

    def beats(x, y):
        return x < y if lower else x > y

    def paired_rule(winner):  # winner 1 = candidate, 0 = base
        paired = pairs(base, cand)
        won = sum(1 for p in paired if beats(p[winner], p[1 - winner]))
        medians = (mb, mc)
        return (len(paired) >= 10 and won >= 0.9 * len(paired)
                and beats(medians[winner], medians[1 - winner]) and abs(mc - mb) > q3 - q1)

    if paired_rule(1):
        return "better"
    bound = spec.get("bound")
    if bound is None:
        return "worse" if paired_rule(0) else "ok"
    if spread(b) > bound:
        return "ok" if all(beats(y, x) for x in b for y in c) else "unresolved"
    worse_by = (mc - mb) / abs(mb) if lower else (mb - mc) / abs(mb)
    return "worse" if mb and worse_by > bound else "ok"


def fmt(x):
    return f"{x:.6g}"


def cmd_summary(args):
    _, specs = load_benchmark(args.benchmark)
    data = series(load_runs(args.files))
    print(f"{'workload':<13} {'metric':<26} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    loose = 0
    for (workload, name), values in sorted(data.items()):
        v = [x for _, x in values]
        q1, q3 = quartiles(v)
        bound = specs.get(name, {}).get("bound")
        s = spread(v)
        flag = ""
        if bound is not None and name != "setup_s" and s > bound / 3:
            flag = "  > bound/3"
            loose += 1
        print(f"{workload:<13} {name:<26} {len(v):>3} {fmt(statistics.median(v)):>12} "
              f"{fmt(q1):>12} {fmt(q3):>12} {s:>8.4f} "
              f"{'-' if bound is None else fmt(bound):>6}{flag}")
    return 1 if loose else 0


def cmd_compare(args):
    _, specs = load_benchmark(args.benchmark)
    base = series(load_runs(args.base))
    cand = series(load_runs(args.cand))
    print(f"{'workload':<13} {'metric':<26} {'base median [q1, q3]':>36} "
          f"{'cand median [q1, q3]':>36} {'ratio':>8}  verdict")
    worse = 0
    for key in sorted(set(base) & set(cand)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        b = [v for _, v in base[key]]
        c = [v for _, v in cand[key]]
        mb, mc = statistics.median(b), statistics.median(c)
        bq, cq = quartiles(b), quartiles(c)
        v = verdict(spec, base[key], cand[key])
        worse += v == "worse"
        ratio = f"{mc / mb:.4f}" if mb else "-"
        print(f"{workload:<13} {name:<26} "
              f"{fmt(mb) + ' [' + fmt(bq[0]) + ', ' + fmt(bq[1]) + ']':>36} "
              f"{fmt(mc) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[1]) + ']':>36} "
              f"{ratio:>8}  {v} (base {fmt(mb)} {spec['unit']}, n={len(b)}/{len(c)})")
    return 1 if worse else 0


def cmd_check(args):
    bench, specs = load_benchmark(args.benchmark_file)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = {w["name"] for w in bench["workloads"]}
    problems = []
    runs = load_runs(args.files)
    for run in runs:
        where = run["_where"]
        result = run["result"]
        if set(result) != RESULT_KEYS:
            problems.append(f"{where}: result keys {sorted(result)}")
            continue
        if run["workload"] not in workloads:
            problems.append(f"{where}: unknown workload {run['workload']}")
        if result["correct"] is not True or result["failed"] != 0:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
        if not isinstance(result["attempted"], int) or result["attempted"] < 1:
            problems.append(f"{where}: attempted={result['attempted']}")
        want = expected[run["trace"]]
        got = result["metrics"]
        if set(got) != set(want):
            problems.append(f"{where}: metrics differ: missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}")
        for name, metric in got.items():
            value = metric.get("value")
            if name in want and metric.get("unit") != want[name]:
                problems.append(f"{where}: {name} unit {metric.get('unit')} != {want[name]}")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{where}: {name} value {value!r}")
            elif run["trace"] == 0 and value == 0:
                problems.append(f"{where}: end-to-end metric {name} is 0")
    for p in problems:
        print(p)
    print(f"checked {len(runs)} result(s): {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems or not runs else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary")
    p.add_argument("files", nargs="+")
    p.set_defaults(run=cmd_summary)
    p = sub.add_parser("compare")
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--cand", nargs="+", required=True)
    p.set_defaults(run=cmd_compare)
    p = sub.add_parser("check")
    p.add_argument("benchmark_file")
    p.add_argument("files", nargs="+")
    p.set_defaults(run=cmd_check)
    args = parser.parse_args()
    sys.exit(args.run(args))


if __name__ == "__main__":
    main()
