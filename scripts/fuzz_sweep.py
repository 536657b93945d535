"""Sweep generator bounds and cross-validate both acceptance routes.

For every (temporal depth, quantifier count) cell the script runs a
seeded fuzz corpus, compares the automaton route against the brute
force oracle, and prints one table row with agreement and automaton size
statistics.  Like foltl fuzz, the run exits 1 on any disagreement, else
3 if any case hit the state limit, so the sweep doubles as a long-form
self check.

Usage:
    python scripts/fuzz_sweep.py --seed 42 --count 100
    python scripts/fuzz_sweep.py --depths 2 3 4 --quants 1 2 3
"""
import argparse
import sys
import time

from foltl import cli
from foltl.acceptance import fuzz_compare
from foltl.gen import GenBounds

HEADER = f"{'depth':>5} {'quant':>5} {'agree':>9} {'states(min/mean/max)':>22} {'time':>8}"


def run_cell(seed: int, count: int, depth: int, quantifiers: int) -> tuple[cli.ExitStatus, str]:
    bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
    started = time.perf_counter()
    cases = fuzz_compare(seed, count, bounds)
    elapsed = time.perf_counter() - started
    states = [case.state_count for case in cases]
    # An empty corpus has no sizes, as foltl fuzz then prints no STATES line.
    sizes = f"{min(states)}/{sum(states) / len(states):.1f}/{max(states)}" if states else "-"
    agreements = sum(case.agree for case in cases)
    row = (
        f"{depth:>5} {quantifiers:>5} {agreements:>5}/{len(cases):<3}"
        f" {sizes:>22} {elapsed:>7.2f}s"
    )
    status = cli.fuzz_status(cases)
    if status is cli.ExitStatus.FALSE:
        row += "  <- disagreement"
    elif status is cli.ExitStatus.ERROR:
        row += "  <- over the state limit"
    return status, row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--count", type=cli.count, default=100, help="cases per cell")
    parser.add_argument("--depths", type=cli.count, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--quants", type=cli.count, nargs="+", default=[0, 1, 2, 3])
    args = parser.parse_args()

    print(HEADER)
    statuses = set()
    for depth in args.depths:
        for quantifiers in args.quants:
            status, row = run_cell(args.seed, args.count, depth, quantifiers)
            statuses.add(status)
            print(row, flush=True)
    if cli.ExitStatus.FALSE in statuses:
        print("disagreements found, rerun the cell with foltl fuzz for details", file=sys.stderr)
        return cli.ExitStatus.FALSE
    if cli.ExitStatus.ERROR in statuses:
        print("cases over the state limit, rerun the cell with foltl fuzz for details", file=sys.stderr)
        return cli.ExitStatus.ERROR
    return cli.ExitStatus.TRUE


if __name__ == "__main__":
    sys.exit(main())
