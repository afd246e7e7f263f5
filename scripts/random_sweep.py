#!/usr/bin/env python3
"""Seeded random sweeps over pattern systems.

Checks three identities on each sampled system:
  counting   family size equals down-set size iff extremal with that down-set
  defect     the per-size partial sums of the inclusion-exclusion defect equal
             the 2^N index-set expansion of tests/helpers.py (the total,
             |down-set| - |family|, holds by construction of the fast kernel)
  groebner   basis criterion agrees with the counting test (smaller sample)

Run from the repository root with the package on the path and hypothesis
installed (tests/helpers.py imports it):

    PYTHONPATH=src python3 scripts/random_sweep.py

Any violation is printed and counted; the exit code is the violation count,
capped at 255 (exit statuses wrap modulo 256).
"""

import argparse
import sys
import time
from pathlib import Path

from shatterlab import (
    LexOrder,
    SplitMix64,
    extremality_defect_by_size,
    extremality_groebner_report,
    random_system,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import brute_defect_by_size  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--groebner-count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--max-members", type=int, default=6)
    args = parser.parse_args()

    rng = SplitMix64(args.seed)
    violations = 0
    start = time.monotonic()

    for k in range(args.count):
        n = 1 + rng.below(args.max_n)
        system = random_system(rng, n, args.max_members)
        fam = system.family()
        down = system.up_complement()
        shattered = fam.shattered_sets()
        counting = len(fam) == len(down)
        extremal = len(shattered) == len(fam) and shattered == down
        if counting != extremal:
            violations += 1
            print(f"[{k}] counting mismatch: {system.members}")
        if extremality_defect_by_size(system) != brute_defect_by_size(system):
            violations += 1
            print(f"[{k}] defect mismatch: {system.members}")

    for k in range(args.groebner_count):
        n = 1 + rng.below(min(args.max_n, 6))
        system = random_system(rng, n, min(args.max_members, 4))
        report = extremality_groebner_report(system, LexOrder.standard(n))
        if not report.equivalence_holds:
            violations += 1
            print(f"[g{k}] basis/counting mismatch: {system.members}")
        if report.counting_equal and not report.rank_full:
            violations += 1
            print(f"[g{k}] rank not full on balanced system: {system.members}")

    elapsed = time.monotonic() - start
    print(f"checked {args.count} systems + {args.groebner_count} basis reports, "
          f"{violations} violations")
    print(f"({elapsed:.2f}s)", file=sys.stderr)
    return min(violations, 255)


if __name__ == "__main__":
    raise SystemExit(main())
