#!/usr/bin/env python3
"""Compare two sets of perfbench runs, for example a parent commit and a change.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]
    python3 perfbench/compare.py --overhead UNTRACED TRACED

BASE and CHANGE are directories of files, each holding the standard output of
one `perfbench/run.py` run (its context line and its result line). Runs are
grouped by the workload their context line names and paired by seed (in
seed order when the two sets share no seed).

For each workload and end-to-end metric in BENCHMARK.json it prints both
sides' medians and quartiles and a verdict:
  better      the change wins at least 9 of every 10 pairs and the medians
              differ by more than the base runs' interquartile range;
  worse       the change's median is worse than the base median by more than
              the metric's bound;
  unresolved  either side spreads wider than the bound, unless every change
              run reads better than every base run;
  within      none of the above: no regression beyond the bound, no gain.
It also prints each side's share of failed operations.

--overhead pairs untraced and traced runs of the same seeds and prints, for
each end-to-end figure the traced run reports, how far tracing moved it.

Uses only the Python standard library.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    """Returns {workload: {seed: {"result": ..., "context": ...}}}."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if len(lines) < 2:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        try:
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
        except (ValueError, KeyError):
            print(f"skipping {path}: not a perfbench run", file=sys.stderr)
            continue
        runs.setdefault(context["workload"], {})[context["seed"]] = {
            "result": result, "context": context}
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """`base`/`change` map seed -> value; `better` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    b = list(base.values())
    c = list(change.values())
    b1, bmed, b3 = quartiles(b)
    c1, cmed, c3 = quartiles(c)
    # Pair runs of the same seed; sets run on different seeds pair in order.
    seeds = sorted(set(base) & set(change))
    pairs = ([(base[s], change[s]) for s in seeds] if seeds else
             list(zip([base[s] for s in sorted(base)],
                      [change[s] for s in sorted(change)])))
    wins = sum(1 for b_val, c_val in pairs if sign * (c_val - b_val) > 0)
    if pairs and wins * 10 >= 9 * len(pairs) and sign * (cmed - bmed) > (b3 - b1):
        return "better", wins, len(pairs)
    if sign * (bmed - cmed) > bound * abs(bmed):
        return "worse", wins, len(pairs)
    dominated = min(c) > max(b) if sign > 0 else max(c) < min(b)
    spread = max((b3 - b1) / abs(bmed) if bmed else 0,
                 (c3 - c1) / abs(cmed) if cmed else 0)
    if spread > bound and not dominated:
        return "unresolved", wins, len(pairs)
    return "within", wins, len(pairs)


def failed_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs.values())
    failed = sum(r["result"]["failed"] for r in runs.values())
    return f"{failed}/{attempted}"


def compare(base_dir, change_dir, benchmark):
    spec = json.loads(Path(benchmark).read_text())
    base, change = load_runs(base_dir), load_runs(change_dir)
    print(f"{'workload':15} {'metric':28} {'base q1/median/q3':>34} "
          f"{'change q1/median/q3':>34} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            print(f"{workload:15} (missing runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: r["result"]["metrics"][name]["value"]
                 for s, r in base[workload].items()
                 if name in r["result"]["metrics"]}
            c = {s: r["result"]["metrics"][name]["value"]
                 for s, r in change[workload].items()
                 if name in r["result"]["metrics"]}
            if not b or not c:
                continue
            v, wins, pairs = verdict(b, c, metric["better"], metric["bound"])
            bq = "/".join(f"{x:.4g}" for x in quartiles(list(b.values())))
            cq = "/".join(f"{x:.4g}" for x in quartiles(list(c.values())))
            print(f"{workload:15} {name:28} {bq:>34} {cq:>34} "
                  f"{wins:>3}/{pairs:<2}  {v}")
        print(f"{workload:15} {'failed share':28} "
              f"{failed_share(base[workload]):>34} "
              f"{failed_share(change[workload]):>34}")


def overhead(untraced_dir, traced_dir):
    untraced, traced = load_runs(untraced_dir), load_runs(traced_dir)
    for workload, runs in sorted(traced.items()):
        diffs = {}
        for seed, run in runs.items():
            plain = untraced.get(workload, {}).get(seed)
            if plain is None:
                continue
            for name, value in run["context"].get("traced_end_to_end", {}).items():
                metric = plain["result"]["metrics"].get(name)
                if metric is None:
                    plain_value = plain["context"].get(name)
                else:
                    plain_value = metric["value"]
                if isinstance(plain_value, (int, float)) and plain_value:
                    diffs.setdefault(name, []).append(value / plain_value - 1)
        for name, values in sorted(diffs.items()):
            print(f"{workload:15} {name:28} traced vs untraced: median "
                  f"{statistics.median(values):+.2%} over {len(values)} seeds")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=str(Path(__file__).resolve().parent.parent /
                                    "BENCHMARK.json"))
    parser.add_argument("--overhead", action="store_true",
                        help="BASE is untraced runs, CHANGE traced runs")
    args = parser.parse_args()
    if args.overhead:
        overhead(args.base, args.change)
    else:
        compare(args.base, args.change, args.benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
