#!/usr/bin/env python3
"""Compare two run.py result files, parent (BASE) against change (NEW).

    compare.py BASE.json NEW.json

For every workload and every end-to-end metric of BENCHMARK.json, with
runs paired by seed (run both sides with the same --seed-base, and
alternate which side runs first when collecting them), the first of these
verdicts that applies:

  gain        at least 10 pairs, NEW wins at least 9 in 10 of them (ties
              count for neither side), and the medians differ in NEW's
              favour by more than BASE's interquartile range;
  ok          the medians differ by less than the metric's floor (25 ms
              for setup_s, 2 MB for peak_rss_mb), below which a
              difference is allocator and page-cache noise;
  better      BASE's own spread (IQR / median) exceeds the bound, and
              every NEW run beats every BASE run;
  REGRESSION  NEW's median is worse than BASE's by more than the bound,
              and, when BASE's spread exceeds the bound, every NEW run is
              also worse than every BASE run;
  unresolved  BASE's spread exceeds the bound and neither of the above;
  ok          otherwise (within the bound).

It also fails when any (workload, seed) has a different simulated-output
fingerprint on the two sides (a speed-only change must leave every
simulated statistic identical), when a workload has no seed run on both
sides (nothing to pair), or when NEW's failed fraction (failed /
attempted points) is higher than BASE's. Files recorded from a
non-Release build are refused, as perf_compare.py refuses them.

Exit status: 0 no regression and every metric resolved, 1 a check
failed, 2 usage error, 3 no check failed but some metric is unresolved
(collect more pairs, or rerun in a calmer period).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True
from perf_compare import check_build_type  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Absolute median differences below these are ok whatever the bound.
FLOORS = {"setup_s": 0.025, "peak_rss_mb": 2.0}
EXIT_UNRESOLVED = 3


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"compare: cannot read {path}: {e}")
    check_build_type(doc, path, False)
    return [r for r in doc.get("runs", []) if r.get("mode") == "untraced"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(metric, base, new, pairs):
    """Verdict for one metric on one workload; returns (verdict, text)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    floor = FLOORS.get(metric["name"], 0.0)
    mb, mn = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    gain = (mb - mn) if lower else (mn - mb)
    worse = -gain / mb
    wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > iqr):
        verdict = "gain"
    elif abs(mn - mb) < floor:
        verdict = "ok"
    elif iqr / mb > bound:
        beats_all = (max(new) < min(base)) if lower else \
            (min(new) > max(base))
        loses_all = (min(new) > max(base)) if lower else \
            (max(new) < min(base))
        if beats_all:
            verdict = "better"
        elif loses_all and worse > bound:
            verdict = "REGRESSION"
        else:
            verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    nq1, nq3 = quartiles(new)
    text = (f"{metric['name']}: base {mb:.4g} [{q1:.4g}, {q3:.4g}] -> new "
            f"{mn:.4g} [{nq1:.4g}, {nq3:.4g}] {metric['unit']}, "
            f"median {(mn - mb) / mb:+.1%}, wins {wins}/{len(pairs)}, "
            f"bound {bound:.0%}"
            + (f", floor {floor:g} {metric['unit']}" if floor else "")
            + f": {verdict}")
    return verdict, text


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    base = load(args.base)
    new = load(args.new)

    failed = unresolved = False
    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in new})
    if not workloads:
        sys.exit("compare: no workload measured on both sides")
    details = []
    print(f"{'workload':<18} " +
          " ".join(f"{m['name']:>17}" for m in metrics) +
          f" {'failed_frac':>13}  fingerprint")
    for w in workloads:
        b_runs = [r for r in base if r["workload"] == w]
        n_runs = [r for r in new if r["workload"] == w]
        by_seed = {}
        for r in b_runs:
            by_seed.setdefault(r["seed"], [[], []])[0].append(r)
        for r in n_runs:
            by_seed.setdefault(r["seed"], [[], []])[1].append(r)
        run_pairs = [(b, n) for bs, ns in by_seed.values()
                     for b, n in zip(bs, ns)]

        cells = []
        for m in metrics:
            name = m["name"]
            verdict, text = judge(
                m, [r["metrics"][name]["value"] for r in b_runs],
                [r["metrics"][name]["value"] for r in n_runs],
                [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                 for b, n in run_pairs])
            failed |= verdict == "REGRESSION"
            unresolved |= verdict == "unresolved"
            cells.append(verdict)
            details.append(f"  {w}: {text}")

        def frac(runs):
            return (sum(r["failed"] for r in runs) /
                    max(1, sum(r["attempted"] for r in runs)))
        fb, fn = frac(b_runs), frac(n_runs)
        frac_cell = f"{fb:.3g}->{fn:.3g}"
        if fn > fb:
            frac_cell += " WORSE"
            failed = True

        mismatched = sorted({b["seed"] for bs, ns in by_seed.values()
                             for b in bs for n in ns
                             if b["fingerprint"] != n["fingerprint"]})
        if not run_pairs:
            fp_cell = "NO PAIRED SEEDS (use the same --seed-base)"
        elif mismatched:
            fp_cell = f"DIFFERS (seeds {mismatched})"
        else:
            fp_cell = "same"
        failed |= bool(mismatched) or not run_pairs
        print(f"{w:<18} " + " ".join(f"{c:>17}" for c in cells) +
              f" {frac_cell:>13}  {fp_cell}")
    print()
    print("\n".join(details))
    if failed:
        return 1
    return EXIT_UNRESOLVED if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
