#!/usr/bin/env python3
"""Build and run the oenet end-to-end benchmark.

One run (the benchmark command; prints one JSON object as its last
stdout line):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

  --trace 0 reports the end-to-end metrics of untraced passes; --trace 1
  reports the per-layer metrics of the traced re-drive and writes its
  Chrome trace under build-e2e/layers/.

Many runs (one process per run, workload order alternating per round):

    python3 bench/e2e/run.py --runs 10 [--workloads a,b] [--seed-base 1]
                             [--seconds 15] [--out results.json [--append]]
                             [--layers DIR]

  Writes every run's record plus the context stamp and `git rev-parse
  HEAD` to --out. With --layers DIR each run is traced instead, its
  Chrome trace is written to DIR/<workload>.json, and the top self-time
  spans are printed.

Either form first configures (once) and builds oenet_e2e into
build-e2e/ at the repository root; build output goes to stderr.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "oenet_e2e"
SCRATCH = BUILD / "scratch"
WORKLOADS = ["splash_fig7", "uniform_heavy", "mesh32_leakage",
             "faulted_westfirst", "sweep_grid"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j2",
                  "--target", "oenet_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def run_once(workload, seed, seconds, layers=None):
    """One oenet_e2e process; returns its JSON record."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", str(SCRATCH)]
    if layers:
        Path(layers).parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--layers", str(layers)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: {workload} exited {proc.returncode} "
                 f"without a record")
    return json.loads(lines[-1])


def self_times(spans):
    """Per span id: duration minus the union of its children's extent."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["dur"] - covered
    return out


def profile_summary(path, top=8):
    """Top self-time spans inside the traced passes, and the share of
    each traced pass its child spans account for."""
    with open(path) as f:
        doc = json.load(f)
    spans = [dict(e["args"], name=e["name"], ts=e["ts"], dur=e["dur"])
             for e in doc["traceEvents"] if e["ph"] == "X"]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def in_traced_pass(s):
        while s["parent"]:
            s = by_id[s["parent"]]
        return s["name"] == "pass.traced"

    totals = {}
    for s in spans:
        if in_traced_pass(s):
            totals[s["name"]] = totals.get(s["name"], 0.0) + selfs[s["id"]]
    passes = [s for s in spans if s["name"] == "pass.traced"]
    wall = sum(s["dur"] for s in passes)
    attributed = min(1.0 - selfs[s["id"]] / s["dur"] for s in passes)
    return {"traced_wall_s": wall / 1e6, "attributed_frac": attributed,
            "top_self_s": sorted(((n, t / 1e6) for n, t in totals.items()),
                                 key=lambda kv: -kv[1])[:top]}


def git_head():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def contract_run(args):
    build()
    layers = None
    if args.trace:
        layers = BUILD / "layers" / f"{args.workload}-{args.seed}.json"
    rec = run_once(args.workload, args.seed, args.seconds, layers)
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))


def batch_run(args):
    build()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        if w not in WORKLOADS:
            sys.exit(f"run.py: unknown workload '{w}'")
    doc = {"git_head": git_head(), "seconds": args.seconds, "runs": []}
    if args.append and args.out and Path(args.out).exists():
        with open(args.out) as f:
            doc = json.load(f)
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.seed_base + r
            layers = Path(args.layers) / f"{w}.json" if args.layers else None
            rec = run_once(w, seed, args.seconds, layers)
            doc["runs"].append(rec)
            doc.setdefault("context", rec["context"])
            vals = "  ".join(f"{k}={v['value']:.4g}{v['unit']}"
                             for k, v in list(rec["metrics"].items())[:4])
            print(f"{w:<18} seed={seed:<4} correct={rec['correct']} "
                  f"failed={rec['failed']}/{rec['attempted']} "
                  f"fp={rec['fingerprint']}  {vals}", flush=True)
            if layers:
                summary = profile_summary(layers)
                print(f"  traced wall {summary['traced_wall_s']:.2f} s, "
                      f"child spans cover >= "
                      f"{summary['attributed_frac']:.1%} of each pass; "
                      f"top self time:")
                for name, secs in summary["top_self_s"]:
                    print(f"    {name:<22} {secs:8.3f} s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    bad = [r for r in doc["runs"] if not r["correct"] or r["failed"]]
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one run of this workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, help="batch: rounds to run")
    ap.add_argument("--workloads", help="batch: comma-separated subset")
    ap.add_argument("--seed-base", type=int, default=1,
                    help="batch: round r uses seed SEED_BASE + r")
    ap.add_argument("--out", help="batch: results JSON to write")
    ap.add_argument("--append", action="store_true",
                    help="batch: add to an existing --out file")
    ap.add_argument("--layers", help="batch: trace every run, profiles "
                                     "to this directory")
    args = ap.parse_args()
    if args.workload and args.runs is None:
        if args.workload not in WORKLOADS:
            sys.exit(f"run.py: unknown workload '{args.workload}'")
        contract_run(args)
        return 0
    if args.runs is None or args.runs < 1:
        ap.error("give --workload for one run or --runs N for a batch")
    return batch_run(args)


if __name__ == "__main__":
    sys.exit(main())
