"""Command line front end: compile, monitor, accept, oracle, fuzz."""
from __future__ import annotations

import argparse
import sys
import time
from enum import IntEnum
from pathlib import Path

from .acceptance import (
    DEFAULT_STATE_LIMIT,
    FuzzCase,
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
    lasso_to_json,
    load_lasso,
)
from .formula import Exists, Forall, Formula, FormulaError, format_formula, parse, temporal_depth
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


def count(text: str) -> int:
    """argparse type for counts and limits: an int, and a usage error below zero."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count of 0 or more, got {value}")
    return value


def load_formula(path: str) -> Formula:
    """One formula per file, in the language parse reads, comment lines included."""
    return parse(Path(path).read_text(encoding="utf-8"))


def cmd_compile(args) -> ExitStatus:
    automaton = build_automaton(load_formula(args.formula))
    if args.dot:
        print(automaton.to_dot())
    else:
        for ref, state in enumerate(automaton.states):
            markers = (">" if ref == automaton.initial[1] else "") + (
                "*" if ref in automaton.accepting else ""
            )
            print(f"{ref}\t{markers}\t{format_formula(state)}")
    if args.stats:
        print(f"states {len(automaton.states)}")
        print(f"accepting {len(automaton.accepting)}")
        print(f"temporal-depth {temporal_depth(automaton.states[0])}")
        quantifiers = [f for f in automaton.states if isinstance(f, (Exists, Forall))]
        print(f"variables {len({f.var for f in quantifiers})}")
    return ExitStatus.TRUE


def cmd_monitor(args) -> ExitStatus:
    automaton = build_automaton(load_formula(args.formula))
    configuration = initial_configuration(automaton)
    current = Verdict.INCONCLUSIVE
    with open(args.trace, encoding="utf-8") as handle:
        for index, message in enumerate(iter_messages(handle)):
            configuration = step(automaton, configuration, message)
            current = verdict(configuration)
            print(f"{index}\t{current}")
    print(f"RESULT {current}")
    return ExitStatus[current.name]


def cmd_accept(args) -> ExitStatus:
    automaton = build_automaton(load_formula(args.formula))
    lasso = load_lasso(Path(args.lasso).read_text(encoding="utf-8"))
    accepted = lasso_accepts(automaton, lasso, args.state_limit)
    print(f"RESULT {'TRUE' if accepted else 'FALSE'}")
    return ExitStatus.TRUE if accepted else ExitStatus.FALSE


def cmd_oracle(args) -> ExitStatus:
    # The semantics-direct route, on the formula as written; its scope
    # check runs the lowering walk but reads none of its output.
    lasso = load_lasso(Path(args.lasso).read_text(encoding="utf-8"))
    holds = oracle_eval(EMPTY_VALUATION, load_formula(args.formula), lasso)
    print(f"RESULT {'TRUE' if holds else 'FALSE'}")
    return ExitStatus.TRUE if holds else ExitStatus.FALSE


def fuzz_report_lines(cases: list[FuzzCase]) -> list[str]:
    """Deterministic report: FAIL and LIMIT lines in case order, then AGREE over decided cases."""
    lines = []
    for case in cases:
        if case.agree:
            continue
        text = f"{case.index} {format_formula(case.formula)} {lasso_to_json(case.trace)}"
        if case.limit_states:
            lines.append(f"LIMIT {text} states={case.limit_states}")
        else:
            lines.append(
                f"FAIL {text} automaton={str(case.automaton_result).lower()}"
                f" oracle={str(case.oracle_result).lower()}"
            )
    decided = [case for case in cases if not case.limit_states]
    lines.append(f"AGREE {sum(case.agree for case in decided)}/{len(decided)}")
    return lines


def fuzz_status(cases: list[FuzzCase]) -> ExitStatus:
    """FALSE on any disagreement, else ERROR if any case hit the state limit, else TRUE."""
    if any(not case.agree and not case.limit_states for case in cases):
        return ExitStatus.FALSE
    return ExitStatus.ERROR if any(case.limit_states for case in cases) else ExitStatus.TRUE


def cmd_fuzz(args) -> ExitStatus:
    bounds = GenBounds(max_depth=args.max_depth, max_quantifiers=args.max_quant)
    started = time.perf_counter()
    cases = fuzz_compare(args.seed, args.count, bounds, args.state_limit)
    for line in fuzz_report_lines(cases):
        print(line)
    states = [case.state_count for case in cases]
    if states:
        mean = sum(states) / len(states)
        print(f"STATES min={min(states)} max={max(states)} mean={mean:.2f}", file=sys.stderr)
    print(f"TIME total={time.perf_counter() - started:.3f}s", file=sys.stderr)
    return fuzz_status(cases)


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
    accept_cmd.add_argument("--state-limit", type=count, default=DEFAULT_STATE_LIMIT, metavar="N")
    accept_cmd.set_defaults(handler=cmd_accept)

    oracle_cmd = commands.add_parser("oracle", help="decide the same question by brute force")
    oracle_cmd.add_argument("--formula", required=True, metavar="FILE")
    oracle_cmd.add_argument("--lasso", required=True, metavar="FILE")
    oracle_cmd.set_defaults(handler=cmd_oracle)

    fuzz_cmd = commands.add_parser("fuzz", help="cross-validate both routes on a random corpus")
    fuzz_cmd.add_argument("--seed", type=int, default=42, metavar="N")
    fuzz_cmd.add_argument("--count", type=count, default=200, metavar="N")
    fuzz_cmd.add_argument("--max-depth", type=count, default=GenBounds().max_depth, metavar="N")
    fuzz_cmd.add_argument("--max-quant", type=count, default=GenBounds().max_quantifiers, metavar="N")
    fuzz_cmd.add_argument("--state-limit", type=count, default=DEFAULT_STATE_LIMIT, metavar="N")
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return int(ExitStatus.ERROR)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
