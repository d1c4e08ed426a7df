"""Repeat criterion 5's approx/cFFS ratio and summarize the runs.

    python3 tools/crit5_ratio.py [--runs N]

Runs ``criterion_5_dense_ratio`` from this checkout's
``tests/test_acceptance.py`` (criterion 5's dense 523-bucket
``_paired_ratio(approx, cffs)``, 300 paired drains) N times (default 10),
each in a fresh process against this checkout's ``src``, as the tier-1
test runs it once per process. To measure another checkout, run that
checkout's own copy of this script. Prints each ratio, then their median
and minimum and how many runs fall inside the criterion's band. Exits 0
when every run does, 1 otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_ONE_RUN = """
import sys
sys.path[:0] = [{tests!r}, {src!r}]
import test_acceptance
print(test_acceptance.criterion_5_dense_ratio())
print(*test_acceptance.CRITERION_5_BAND)
"""


def run_once() -> tuple[float, tuple[float, float]]:
    """One ratio, and the band, from a fresh process."""
    code = _ONE_RUN.format(tests=str(ROOT / "tests"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    ratio, band = proc.stdout.splitlines()[-2:]
    low, high = map(float, band.split())
    return float(ratio), (low, high)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    ratios = []
    for i in range(args.runs):
        ratio, (low, high) = run_once()
        ratios.append(ratio)
        print(f"run {i + 1}: approx/cffs {ratio:.3f}", flush=True)
    inside = sum(low <= r <= high for r in ratios)
    print(f"median {statistics.median(ratios):.3f}, minimum {min(ratios):.3f}, "
          f"{inside} of {len(ratios)} inside [{low}, {high}]")
    return 0 if inside == len(ratios) else 1


if __name__ == "__main__":
    sys.exit(main())
