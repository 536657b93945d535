"""Smoke tests for scripts/: each runs in-process as its own __main__."""
import pathlib
import runpy
import sys

import pytest

from foltl import acceptance

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def _run(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as done:
        return done.code
    return 0


def test_fuzz_sweep_prints_one_row_per_cell(monkeypatch, capsys):
    code = _run(
        monkeypatch, "fuzz_sweep.py", "--seed", "42", "--count", "5", "--depths", "1", "2", "--quants", "0", "1"
    )
    assert code == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["depth", "quant", "agree", "states(min/mean/max)", "time"]
    assert [row.split()[:3] for row in rows] == [
        ["1", "0", "5/5"],
        ["1", "1", "5/5"],
        ["2", "0", "5/5"],
        ["2", "1", "5/5"],
    ]


def test_fuzz_sweep_empty_corpus_prints_a_row_without_sizes(monkeypatch, capsys):
    code = _run(monkeypatch, "fuzz_sweep.py", "--count", "0", "--depths", "1", "--quants", "0")
    assert code == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split()[:4] == ["1", "0", "0/0", "-"]


def test_fuzz_sweep_state_limit_is_not_a_disagreement(monkeypatch, capsys):
    # Like foltl fuzz: exit 3, not 1, when cases only hit the state limit.
    fuzz_compare = acceptance.fuzz_compare
    monkeypatch.setattr(
        acceptance, "fuzz_compare", lambda seed, count, bounds: fuzz_compare(seed, count, bounds, state_limit=0)
    )
    code = _run(monkeypatch, "fuzz_sweep.py", "--count", "3", "--depths", "1", "--quants", "0")
    assert code == 3
    captured = capsys.readouterr()
    header, row = captured.out.splitlines()
    assert row.split()[:3] == ["1", "0", "0/3"]
    assert row.endswith("  <- over the state limit")
    assert captured.err == "cases over the state limit, rerun the cell with foltl fuzz for details\n"


@pytest.mark.parametrize("flag", ["--count", "--depths", "--quants"])
def test_fuzz_sweep_negative_count_is_a_usage_error(monkeypatch, capsys, flag):
    args = {"--count": "1", "--depths": "1", "--quants": "0"} | {flag: "-5"}
    code = _run(monkeypatch, "fuzz_sweep.py", *[item for pair in args.items() for item in pair])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a count of 0 or more, got -5" in captured.err


def test_demo_runs(monkeypatch, capsys):
    assert _run(monkeypatch, "demo_request_ack.py") == 0
    out = capsys.readouterr().out
    assert "lasso discharged automaton=True oracle=True" in out
    assert "lasso dropped    automaton=False oracle=False" in out


def test_every_mutant_row_applies_exactly_once():
    # What scripts/mutants.py reports as STALE, caught by the suite too.
    table = runpy.run_path(str(SCRIPTS / "mutants.py"))
    source = SCRIPTS.parent / "src" / "foltl"
    for mutant in table["MUTANTS"]:
        assert (source / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name


def test_mutants_reports_a_stale_row_and_exits_one(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "mutants.py"))["main"]
    stale = main.__globals__["Mutant"]("stale", "cli.py", "text found nowhere", "", ())
    monkeypatch.setitem(main.__globals__, "MUTANTS", (stale,))
    assert main() == 1
    assert capsys.readouterr().out.startswith("STALE    stale (cli.py)")
