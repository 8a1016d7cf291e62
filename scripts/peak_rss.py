#!/usr/bin/env python3
"""Run a command and report the largest resident set size among its processes.

Usage: python scripts/peak_rss.py REPORT COMMAND [ARG ...]

Runs COMMAND with its standard streams passed through, then writes one line,
"peak RSS <x> MiB", to the file REPORT and exits with COMMAND's status.  The
figure is getrusage(RUSAGE_CHILDREN).ru_maxrss: the peak of the largest
single process among COMMAND and the descendants it waited for (Linux counts
it in KiB).
"""
import resource
import subprocess
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    status = subprocess.call(sys.argv[2:])
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(sys.argv[1]).write_text(f"peak RSS {peak_kib / 1024:.1f} MiB\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
