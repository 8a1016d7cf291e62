#!/usr/bin/env python3
"""Run every pinned figure pipeline and report the checks and wall times.

Usage: python scripts/reproduce_all.py [OUTDIR]

Writes the plot-ready CSVs and JSON summaries for fig3a..fig8 under OUTDIR
(default ./reproduction), prints each figure's wall time (pipeline plus
output files) and the total, and exits nonzero if any check fails.
"""
import sys
import time
from pathlib import Path

from epqed.cli import run_reproduce
from epqed.figures import PIPELINES


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("reproduction")
    failed, times = [], {}
    for figure in sorted(PIPELINES):
        print(f"== {figure} ==")
        start = time.perf_counter()
        if not run_reproduce(figure, out / figure):
            failed.append(figure)
        times[figure] = time.perf_counter() - start
    print("wall time: " + ", ".join(f"{f} {t:.2f} s" for f, t in times.items())
          + f"; total {sum(times.values()):.2f} s")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 4
    print(f"all {len(PIPELINES)} figure pipelines passed; outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
