"""Sweep generator bounds and cross-validate both acceptance routes.

For every (temporal depth, quantifier count) cell the script runs a
seeded fuzz corpus, compares the automaton route against the brute
force oracle, and prints one table row with agreement and automaton size
statistics.  Any disagreement makes the run exit nonzero, so the sweep
doubles as a long-form self check.

Usage:
    python scripts/fuzz_sweep.py --seed 42 --count 100
    python scripts/fuzz_sweep.py --depths 2 3 4 --quants 1 2 3
"""
import argparse
import sys

from foltl.acceptance import fuzz_compare
from foltl.gen import GenBounds

HEADER = f"{'depth':>5} {'quant':>5} {'agree':>9} {'states(min/mean/max)':>22} {'time':>8}"


def run_cell(seed: int, count: int, depth: int, quantifiers: int) -> tuple[bool, str]:
    bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
    report = fuzz_compare(seed, count, bounds)
    states = [case.state_count for case in report.cases]
    mean = sum(states) / len(states)
    sizes = f"{min(states)}/{mean:.1f}/{max(states)}"
    row = (
        f"{depth:>5} {quantifiers:>5} {report.agreements:>5}/{len(report.cases):<3}"
        f" {sizes:>22} {report.total_seconds:>7.2f}s"
    )
    clean = not report.failures and not report.limits
    if not clean:
        row += "  <- disagreement" if report.failures else "  <- over the state limit"
    return clean, row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--count", type=int, default=100, help="cases per cell")
    parser.add_argument("--depths", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--quants", type=int, nargs="+", default=[0, 1, 2, 3])
    args = parser.parse_args()

    print(HEADER)
    all_clean = True
    for depth in args.depths:
        for quantifiers in args.quants:
            clean, row = run_cell(args.seed, args.count, depth, quantifiers)
            all_clean = all_clean and clean
            print(row, flush=True)
    if not all_clean:
        print("disagreements found, rerun the cell with foltl fuzz for details", file=sys.stderr)
    return 0 if all_clean else 1


if __name__ == "__main__":
    sys.exit(main())
