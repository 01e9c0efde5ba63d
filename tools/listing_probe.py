#!/usr/bin/env python3
"""Time the command-line Delzant listing per member, and its peak memory.

    python3 tools/listing_probe.py [--src DIR] [--m 8,10,12,14]

For each m, one process runs ``semitoric presentations FILE --delzant-only``
on the focus ladder of m columns of one unit mark each (the ``focus_ladder([1]
* m)`` of ``tests/conftest.py``: every one of its 2^m sign vectors gives a
distinct Delzant member), with the package imported from DIR (default: the
``src/`` beside this tool).  The stdout rows are counted as they arrive and
not kept.  Printed per m: the wall time, the members listed, the wall time
per member and the process's peak resident set size; then one JSON line.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROW = b'{"polygon":'


def ladder(m: int) -> str:
    """The polygon file of ``focus_ladder([1] * m)``: the bottom's slope rises by one at each of the joints
    x = 1..m, each carrying one unit mark cut down to it, under a flat top one unit above the highest point."""
    bottom, slope = [(0, 0)], 0
    for _ in range(m + 1):
        x, y = bottom[-1]
        bottom.append((x + 1, y + slope))
        slope += 1
    height = bottom[-1][1] + 1
    vertices = bottom + [(m + 1, height), (0, height)]
    marks = [{"x": str(x), "y": str(y + Fraction(height - y, 2)), "multiplicity": 1, "cut": -1} for x, y in bottom[1:-1]]
    return json.dumps({"vertices": [[str(x), str(y)] for x, y in vertices], "marked_points": marks})


def run_one(src: str, path: str) -> dict:
    """One CLI process on the file: its wall time, rows listed and peak RSS."""
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "semitoric.cli", "presentations", path, "--delzant-only"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env) as process:
        rows, tail = 0, b""
        for chunk in iter(lambda: process.stdout.read(1 << 16), b""):
            block = tail + chunk
            rows += block.count(ROW)
            tail = block[-(len(ROW) - 1) :]  # a row marker split across two chunks is counted once
        _, status, usage = os.wait4(process.pid, 0)  # the child's own resource usage, peak RSS included
        process.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if process.returncode:
        raise SystemExit(f"{' '.join(argv)} exited with code {process.returncode}")
    return {"seconds": round(seconds, 4), "members": rows, "ms_per_member": round(1000 * seconds / max(rows, 1), 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}  # ru_maxrss is in kB on Linux


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    parser.add_argument("--m", default="8,10,12,14", help="comma-separated ladder sizes")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    results = {}
    with tempfile.TemporaryDirectory() as work:
        for m in map(int, args.m.split(",")):
            path = os.path.join(work, f"ladder{m}.json")
            with open(path, "w") as handle:
                handle.write(ladder(m))
            results[m] = found = run_one(src, path)
            print(f"m={m:3d}  {found['seconds']:8.3f} s  {found['members']:7d} members  "
                  f"{found['ms_per_member']:7.3f} ms/member  {found['peak_rss_mb']:7.1f} MB peak RSS", flush=True)
    print(json.dumps({"src": src, "listing": results}))


if __name__ == "__main__":
    main()
