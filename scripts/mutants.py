"""Mutation table: each row breaks the package on purpose, and the tests
it names must catch the break.

For each row the script copies src/, tests/ and pyproject.toml to a
temporary directory, replaces the row's old text in its file by the new
text, and runs the row's pytest ids, and its foltl command if it has
one, against the copy.  A row is KILLED when a test fails or the command
exits non-zero, SURVIVED when everything passes, and STALE when its old
text is not found exactly once, so a row whose code has moved is
reported rather than silently skipped.  Before any row, every test and
command of the table runs once on the unmutated copy and must pass; a
test id that does not exist fails there.

The run exits 0 when every row is KILLED, 1 on any SURVIVED or STALE
row, and 2 when the unmutated copy fails.

Usage:
    python scripts/mutants.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# file is relative to src/foltl; tests are pytest ids relative to the
# root; command, if any, is the argument list of python -m foltl.cli.
Mutant = namedtuple("Mutant", "name file old new tests command", defaults=((),))

MUTANTS = (
    Mutant(
        "finally-discharges-at-once",
        "automaton.py",
        "second(p, m) | {frozenset({(p, ref)})}",
        "second(p, m) | {frozenset()}",
        ("tests/test_automaton.py::TestFusedTemporalRules::test_pending_finally_holds_itself_again",),
    ),
    Mutant(
        "globally-forgets-itself",
        "automaton.py",
        "frozenset([c | {(p, ref)} for c in second(p, m)])",
        "frozenset([c for c in second(p, m)])",
        ("tests/test_automaton.py::TestFusedTemporalRules::test_globally_that_holds_stays_pending",),
    ),
    Mutant(
        "normalize-skips-two-conjuncts",
        "automaton.py",
        "if len(conjuncts) < 2:",
        "if len(conjuncts) < 3:",
        ("tests/test_automaton.py::TestNormalize::test_subsumed_conjunct_is_removed_from_several",),
    ),
    Mutant(
        "delta-not-normalized",
        "automaton.py",
        "return _normalize((self._rules[state] or self._rule(state))(valuation, message))",
        "return (self._rules[state] or self._rule(state))(valuation, message)",
        ("tests/test_gen.py::test_seed_42_delta_calls_are_unchanged",),
    ),
    Mutant(
        "stale-domain-memo",
        "automaton.py",
        "if seen is not m:",
        "if seen is None:",
        ("tests/test_automaton.py::TestDelta::test_domains_are_those_of_the_message_passed",),
    ),
    Mutant(
        "monitor-true-check-inverted",
        "monitor.py",
        "if frozenset() in conjuncts:",
        "if frozenset() not in conjuncts:",
        ("tests/test_monitor.py::TestConfigurations::test_verdict_of_decided_configurations",),
    ),
    Mutant(
        "monitor-never-says-false",
        "monitor.py",
        "    if not conjuncts:\n        return Verdict.FALSE\n",
        "",
        ("tests/test_monitor.py::TestNegationDuality",),
    ),
    Mutant(
        "true-once-only-releases-pend",
        "monitor.py",
        "    return Configuration(Disjunction(dnf_or(branches)))\n",
        "    result = dnf_or(branches)\n"
        "    if result and all(o[1] in automaton.accepting for c in result for o in c):\n"
        "        result = frozenset({frozenset()})\n"
        "    return Configuration(Disjunction(result))\n",
        ("tests/test_monitor.py::TestDecidedVerdictExtensions",),
    ),
    Mutant(
        "duplicate-key-error-rewrapped",
        "events.py",
        "    except MalformedInputError:\n        raise\n",
        "",
        ("tests/test_cli.py::TestMonitor::test_duplicate_key_is_an_error_exit",),
    ),
    Mutant(
        "dom-drops-array-items",
        "events.py",
        "reached.extend(child)",
        "reached.extend(child[:1])",
        ("tests/test_events.py::TestDom",),
    ),
    Mutant(
        "finally-lowered-to-its-body",
        "formula.py",
        "Finally: lambda body: Until(TRUE_ATOM, body),",
        "Finally: lambda body: body,",
        (),
        ("fuzz", "--seed", "42", "--count", "1000", "--max-depth", "4", "--max-quant", "3"),
    ),
    Mutant(
        "record-equality-ignores-kind",
        "formula.py",
        "return type(self) is type(other) and tuple.__eq__(self, other)",
        "return tuple.__eq__(self, other)",
        ("tests/test_formula.py::TestRecords::test_equal_only_to_their_own_kind",),
    ),
    Mutant(
        "record-inequality-is-tuples",
        "formula.py",
        "    __ne__ = object.__ne__  # the negation of __eq__, not tuple's\n",
        "",
        ("tests/test_formula.py::TestRecords::test_equal_only_to_their_own_kind",),
    ),
    Mutant(
        "binder-check-dropped",
        "formula.py",
        "            if not _is_name(f.var):\n",
        "            if False:\n",
        ("tests/test_automaton.py::TestConstruction::test_scope_errors_in_text_order",),
    ),
    Mutant(
        "revisit-always-won",
        "acceptance.py",
        "verdict = obligation[1] in automaton.accepting",
        "verdict = True",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "undecodable-file-not-an-error",
        "cli.py",
        "        UnicodeDecodeError,\n",
        "",
        ("tests/test_cli.py::TestMonitor::test_trace_not_utf8_is_an_error_exit",),
    ),
    Mutant(
        "comment-blanked-to-nothing",
        "cli.py",
        'm[0] if m[0][0] == \'"\' else " " * len(m[0])',
        'm[0] if m[0][0] == \'"\' else ""',
        ("tests/test_cli.py::TestLoadFormula::test_syntax_error_offset_counts_from_the_file",),
    ),
)


def _copy(workdir: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", workdir)


def _passes(workdir: Path, tests, command) -> bool:
    """Whether the tests pass and the command exits 0, run against the copy."""
    # No bytecode is written, so a mutant of the same size and mtime as
    # the original can never be read back from a stale cache.
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL, "cwd": workdir, "env": env}
    if tests:
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        if subprocess.run(argv, **quiet).returncode != 0:
            return False
    return not command or subprocess.run([sys.executable, "-m", "foltl.cli", *command], **quiet).returncode == 0


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _copy(workdir)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        commands = sorted({m.command for m in MUTANTS if m.command})
        if not _passes(workdir, tests, ()) or not all(_passes(workdir, (), c) for c in commands):
            print("BASELINE the unmutated copy fails a row's tests or command", file=sys.stderr)
            return 2
        failed = 0
        for m in MUTANTS:
            target = workdir / "src" / "foltl" / m.file
            original = target.read_text(encoding="utf-8")
            began = time.perf_counter()
            if original.count(m.old) != 1:
                outcome = "STALE"
            else:
                target.write_text(original.replace(m.old, m.new), encoding="utf-8")
                try:
                    outcome = "SURVIVED" if _passes(workdir, m.tests, m.command) else "KILLED"
                finally:
                    target.write_text(original, encoding="utf-8")
            failed += outcome != "KILLED"
            print(f"{outcome:<8} {m.name} ({m.file}) {time.perf_counter() - began:.1f}s", flush=True)
    print(f"TIME total={time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
