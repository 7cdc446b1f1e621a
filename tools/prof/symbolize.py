#!/usr/bin/env python3
"""Symbolize a tools/prof/sampler.cc profile.

    python3 tools/prof/symbolize.py PROFILE [PROFILE...] [--top N]
                                    [--function NAME]

Prints self time by outermost function: inlined callees count toward the
function they were inlined into, as the machine code lies there. With
--function, also prints the 15 hottest source lines (LINES_PER_FUNCTION)
within every function whose name contains NAME, each line being the one
in that function's own body (the call site, for code inlined from
elsewhere). Line numbers need a program built with -g. Several profiles
(say, one per run) add up.

Each address is mapped through the profile's copy of /proc/self/maps to
its object file and resolved with `addr2line -i -f -C -a`. Samples
outside any file-backed mapping are reported as `[unmapped]`.
"""

import argparse
import collections
import re
import subprocess
import sys
from pathlib import Path

LINES_PER_FUNCTION = 15


def parse(path):
    """(list of sample addresses, list of executable file mappings)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split()
    if header[0] != "samples":
        sys.exit(f"symbolize.py: {path} is not a sampler profile")
    kept, taken = int(header[1]), int(header[2])
    if taken > kept:
        print(f"# {path}: {taken - kept} samples past the buffer dropped",
              file=sys.stderr)
    addrs = [int(x, 16) for x in lines[1:1 + kept]]
    if lines[1 + kept] != "maps":
        sys.exit(f"symbolize.py: {path} has no maps section")
    maps = []
    for line in lines[2 + kept:]:
        f = line.split(maxsplit=5)
        if len(f) < 6 or "x" not in f[1] or not f[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5]))
    return addrs, maps


_load_segments = {}


def load_segments(obj):
    """PT_LOAD (file offset, virtual address, file size) of an ELF."""
    if obj not in _load_segments:
        out = subprocess.run(["readelf", "-lW", obj], capture_output=True,
                             text=True).stdout
        segs = []
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
        _load_segments[obj] = segs
    return _load_segments[obj]


def elf_address(obj, file_off):
    """The link-time address addr2line expects for a file offset."""
    for off, vaddr, size in load_segments(obj):
        if off <= file_off < off + size:
            return file_off - off + vaddr
    return file_off


def resolve(obj, addrs):
    """Address -> list of (function, file:line), innermost first."""
    out = subprocess.run(
        ["addr2line", "-i", "-f", "-C", "-a", "-e", obj]
        + [hex(a) for a in addrs],
        capture_output=True, text=True).stdout.splitlines()
    frames, current, i = {}, None, 0
    while i < len(out):
        if re.fullmatch(r"0x[0-9a-f]+", out[i]):
            current = int(out[i], 16)
            frames[current] = []
            i += 1
            continue
        loc = out[i + 1] if i + 1 < len(out) else "??:0"
        frames[current].append((out[i], loc.split(" (discriminator")[0]))
        i += 2
    return frames


def symbolize(addrs, maps):
    """Per sample: (outermost function, its file:line, object name)."""
    maps = sorted(maps)
    by_obj = collections.defaultdict(set)
    placed = []
    for a in addrs:
        hit = None
        for lo, hi, off, obj in maps:
            if lo <= a < hi:
                hit = (obj, elf_address(obj, a - lo + off))
                break
        placed.append(hit)
        if hit:
            by_obj[hit[0]].add(hit[1])
    frames = {obj: resolve(obj, sorted(s)) for obj, s in by_obj.items()}
    result = []
    for hit in placed:
        if hit is None:
            result.append(("[unmapped]", "??:0", "?"))
            continue
        obj, a = hit
        chain = frames[obj].get(a) or [("??", "??:0")]
        func, loc = chain[-1]
        name = Path(obj).name
        if func == "??":
            func = f"?? ({name})"
        result.append((func, loc, name))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--top", type=int, default=20,
                    help="functions to list (default 20)")
    ap.add_argument("--function",
                    help="also list lines of functions containing this")
    args = ap.parse_args()

    samples = []
    for path in args.profiles:
        samples += symbolize(*parse(path))
    total = len(samples)
    if total == 0:
        sys.exit("symbolize.py: no samples")
    print(f"# {total} samples")
    print("# self %  samples  function")
    funcs = collections.Counter(s[0] for s in samples)
    for func, n in funcs.most_common(args.top):
        print(f"{100 * n / total:7.1f} {n:8d}  {func}")
    if args.function:
        want = args.function
        picked = [s for s in samples if want in s[0]]
        print(f"\n# lines of functions matching '{want}': "
              f"{len(picked)} samples, {100 * len(picked) / total:.1f} %")
        print("# self %  samples  file:line  function")
        lines = collections.Counter((s[1], s[0]) for s in picked)
        for (loc, func), n in lines.most_common(LINES_PER_FUNCTION):
            short = f"{Path(loc.split(':')[0]).name}:{loc.split(':')[-1]}"
            print(f"{100 * n / total:7.1f} {n:8d}  {short}  {func}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
