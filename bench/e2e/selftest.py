#!/usr/bin/env python3
"""Smoke self-test of oenet_e2e (one ctest case per workload).

    selftest.py --bin build-e2e/oenet_e2e --workload NAME --scratch DIR

Runs the workload at --smoke length untraced and traced and asserts that
both records are correct, that no point failed (failed_frac == 0), and
that the traced re-drive reproduced the untraced fingerprint. For
sweep_grid it also asserts the fingerprint is the same at --jobs 1 and 2.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run(binary, workload, scratch, *extra):
    cmd = [binary, "--workload", workload, "--smoke", "--seconds", "0",
           "--scratch", scratch, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()
    Path(args.scratch).mkdir(parents=True, exist_ok=True)

    untraced = run(args.bin, args.workload, args.scratch)
    traced = run(args.bin, args.workload, args.scratch, "--layers",
                 str(Path(args.scratch) / f"{args.workload}.json"))
    problems = []
    for rec in (untraced, traced):
        if not rec["correct"]:
            problems.append(f"{rec['mode']}: {rec['errors']}")
        if rec["failed"]:
            problems.append(f"{rec['mode']}: failed {rec['failed']} of "
                            f"{rec['attempted']} points")
    if traced["fingerprint"] != untraced["fingerprint"]:
        problems.append(f"traced fingerprint {traced['fingerprint']} != "
                        f"untraced {untraced['fingerprint']}")
    if args.workload == "sweep_grid":
        serial = run(args.bin, args.workload, args.scratch, "--jobs", "1")
        if serial["fingerprint"] != untraced["fingerprint"]:
            problems.append(f"--jobs 1 fingerprint {serial['fingerprint']}"
                            f" != --jobs 2 {untraced['fingerprint']}")
    for p in problems:
        print(f"selftest {args.workload}: {p}", file=sys.stderr)
    if not problems:
        print(f"selftest {args.workload}: ok, fingerprint "
              f"{untraced['fingerprint']}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
