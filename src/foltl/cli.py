"""Command line front end: compile, monitor, accept, oracle, fuzz."""
from __future__ import annotations

import argparse
import sys
from enum import IntEnum

from .acceptance import (
    DEFAULT_STATE_LIMIT,
    ResourceLimitError,
    fuzz_compare,
    lasso_accepts,
    oracle_eval,
)
from .automaton import EMPTY_VALUATION, build_automaton
from .events import (
    EmptyLoopError,
    MalformedInputError,
    iter_messages,
    load_lasso,
)
from .formula import Formula, FormulaError, parse, temporal_depth, to_nnf
from .gen import GenBounds
from .monitor import Verdict, initial_configuration, step, verdict


class ExitStatus(IntEnum):
    TRUE = 0
    FALSE = 1
    INCONCLUSIVE = 2
    ERROR = 3


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for INCONCLUSIVE, so usage errors exit 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ExitStatus.ERROR, f"{self.prog}: error: {message}\n")


def load_formula(path: str) -> Formula:
    """One formula per file; lines whose first character is # are comments."""
    with open(path, encoding="utf-8") as handle:
        lines = [
            line
            for line in handle.read().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
    return parse(" ".join(lines))


def _verdict_status(value: Verdict) -> ExitStatus:
    return ExitStatus[value.name]


def cmd_compile(args) -> ExitStatus:
    automaton = build_automaton(to_nnf(load_formula(args.formula)))
    if args.dot:
        print(automaton.to_dot())
    else:
        for ref in range(len(automaton.states)):
            markers = (">" if ref == automaton.initial[1] else "") + (
                "*" if ref in automaton.accepting else ""
            )
            print(f"{ref}\t{markers}\t{automaton.state_label(ref)}")
    if args.stats:
        print(f"states {len(automaton.states)}")
        print(f"accepting {len(automaton.accepting)}")
        print(f"temporal-depth {temporal_depth(automaton.source)}")
        print(f"variables {len(automaton.variables)}")
    return ExitStatus.TRUE


def cmd_monitor(args) -> ExitStatus:
    automaton = build_automaton(to_nnf(load_formula(args.formula)))
    configuration = initial_configuration(automaton)
    current = Verdict.INCONCLUSIVE
    with open(args.trace, encoding="utf-8") as handle:
        for index, message in enumerate(iter_messages(handle)):
            configuration = step(automaton, configuration, message)
            current = verdict(configuration)
            print(f"{index}\t{current}")
    print(f"RESULT {current}")
    return _verdict_status(current)


def _load_lasso_file(path: str):
    with open(path, encoding="utf-8") as handle:
        return load_lasso(handle.read())


def cmd_accept(args) -> ExitStatus:
    automaton = build_automaton(to_nnf(load_formula(args.formula)))
    accepted = lasso_accepts(automaton, _load_lasso_file(args.lasso), args.state_limit)
    print(f"RESULT {'TRUE' if accepted else 'FALSE'}")
    return ExitStatus.TRUE if accepted else ExitStatus.FALSE


def cmd_oracle(args) -> ExitStatus:
    # The semantics-direct route; takes the formula as written, without
    # normal-form rewriting, so it shares nothing with cmd_accept.
    holds = oracle_eval(EMPTY_VALUATION, load_formula(args.formula), _load_lasso_file(args.lasso))
    print(f"RESULT {'TRUE' if holds else 'FALSE'}")
    return ExitStatus.TRUE if holds else ExitStatus.FALSE


def cmd_fuzz(args) -> ExitStatus:
    bounds = GenBounds(max_depth=args.max_depth, max_quantifiers=args.max_quant)
    report = fuzz_compare(args.seed, args.count, bounds, args.state_limit)
    for line in report.report_lines():
        print(line)
    for line in report.stats_lines():
        print(line, file=sys.stderr)
    return ExitStatus.TRUE if report.agreements == len(report.cases) else ExitStatus.FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="foltl", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser("compile", help="compile a formula and list the automaton")
    compile_cmd.add_argument("--formula", required=True, metavar="FILE")
    compile_cmd.add_argument("--dot", action="store_true", help="emit Graphviz instead of the table")
    compile_cmd.add_argument("--stats", action="store_true", help="append size statistics")
    compile_cmd.set_defaults(handler=cmd_compile)

    monitor_cmd = commands.add_parser("monitor", help="stream verdicts over a JSON Lines trace")
    monitor_cmd.add_argument("--formula", required=True, metavar="FILE")
    monitor_cmd.add_argument("--trace", required=True, metavar="FILE")
    monitor_cmd.set_defaults(handler=cmd_monitor)

    accept_cmd = commands.add_parser("accept", help="decide acceptance of a lasso trace")
    accept_cmd.add_argument("--formula", required=True, metavar="FILE")
    accept_cmd.add_argument("--lasso", required=True, metavar="FILE")
    accept_cmd.add_argument("--state-limit", type=int, default=DEFAULT_STATE_LIMIT, metavar="N")
    accept_cmd.set_defaults(handler=cmd_accept)

    oracle_cmd = commands.add_parser("oracle", help="decide the same question by brute force")
    oracle_cmd.add_argument("--formula", required=True, metavar="FILE")
    oracle_cmd.add_argument("--lasso", required=True, metavar="FILE")
    oracle_cmd.set_defaults(handler=cmd_oracle)

    fuzz_cmd = commands.add_parser("fuzz", help="cross-validate both routes on a random corpus")
    fuzz_cmd.add_argument("--seed", type=int, default=42, metavar="N")
    fuzz_cmd.add_argument("--count", type=int, default=200, metavar="N")
    fuzz_cmd.add_argument("--max-depth", type=int, default=GenBounds().max_depth, metavar="N")
    fuzz_cmd.add_argument("--max-quant", type=int, default=GenBounds().max_quantifiers, metavar="N")
    fuzz_cmd.add_argument("--state-limit", type=int, default=DEFAULT_STATE_LIMIT, metavar="N")
    fuzz_cmd.set_defaults(handler=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.handler(args))
    except (
        FormulaError,
        MalformedInputError,
        EmptyLoopError,
        ResourceLimitError,
        OSError,
        UnicodeDecodeError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return int(ExitStatus.ERROR)


def entry() -> None:
    sys.exit(main())
