import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from conftest import DATA
from foltl import acceptance, cli
from foltl.acceptance import fuzz_compare, oracle_eval
from foltl.events import lasso_to_json
from foltl.cli import ExitStatus, build_parser, load_formula, main
from foltl.formula import MAX_NESTING, Exists, Release, format_formula, parse

REQ_ACK = str(DATA / "request_ack.ltl")
SAFETY = str(DATA / "safety.ltl")
WITNESS = str(DATA / "witness.ltl")
GOOD = str(DATA / "good.lasso.json")
BAD = str(DATA / "bad.lasso.json")
MIXED = str(DATA / "mixed.jsonl")
SRC = str(DATA.parents[1] / "src")
DEEP = '{"m":' * 1200 + '"x"' + "}" * 1200
# One digit past the default limit of int(str) conversion, which json.loads hits.
LONG_INT = "1" * 4301


class TestLoadFormula:
    def test_comments_and_continuation_lines(self):
        formula = load_formula(REQ_ACK)
        assert formula == parse('G forall x in "/m/req" : F exists y in "/m/ack" : y = x')

    def test_syntax_error_offset_counts_from_the_file(self, tmp_path, capsys):
        text = '# a comment line\n\n  G forall x "/m/a" : x = "a"\n'
        bad = tmp_path / "broken.ltl"
        bad.write_text(text)
        assert main(["compile", "--formula", str(bad)]) == 3
        offset = text.index('"/m/a"')  # where "in" is missing
        assert f"at offset {offset}:" in capsys.readouterr().err

    def test_line_break_stays_inside_a_constant(self, tmp_path, capsys):
        formula = tmp_path / "break.ltl"
        formula.write_text('exists x in "/m/a" : x = "a\nb"\n', encoding="utf-8")
        lasso = tmp_path / "break.lasso.json"
        lasso.write_text('{"prefix":[],"loop":[{"m":{"a":"a\\nb"}}]}', encoding="utf-8")
        for command in ("accept", "oracle"):
            assert main([command, "--formula", str(formula), "--lasso", str(lasso)]) == 0
            assert capsys.readouterr().out == "RESULT TRUE\n"

    def test_hash_line_inside_a_constant_is_not_a_comment(self, tmp_path, capsys):
        formula = tmp_path / "hash.ltl"
        formula.write_text('# a comment\nexists x in "/m/a" : x = "a\n #b"\n', encoding="utf-8")
        lasso = tmp_path / "hash.lasso.json"
        lasso.write_text('{"prefix":[],"loop":[{"m":{"a":"a\\n #b"}}]}', encoding="utf-8")
        for command in ("accept", "oracle"):
            assert main([command, "--formula", str(formula), "--lasso", str(lasso)]) == 0
            assert capsys.readouterr().out == "RESULT TRUE\n"

    def test_missing_file_is_an_error_exit(self, capsys):
        assert main(["compile", "--formula", "/nonexistent.ltl"]) == 3
        assert capsys.readouterr().err.startswith("error:")


class TestCompile:
    def test_state_table(self, capsys):
        assert main(["compile", "--formula", WITNESS]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split("\t") for line in lines]
        assert [r[0] for r in rows] == [str(i) for i in range(len(rows))]
        assert rows[0][1] == ">"  # the whole formula is the entry state
        marked = {r[2] for r in rows if "*" in r[1]}
        assert marked == set()  # F-formulas add no accepting loops
        assert rows[-1][2] == 'x = "b"'  # the closure is the whole table

    def test_release_state_is_marked_accepting(self, capsys):
        assert main(["compile", "--formula", SAFETY]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert rows[0][1] == ">*"

    def test_dot_output(self, capsys):
        assert main(["compile", "--formula", REQ_ACK, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph automaton {")
        assert "doublecircle" in out

    def test_stats(self, capsys):
        assert main(["compile", "--formula", REQ_ACK, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "states 7\n" in out
        assert "accepting 1\n" in out
        assert "temporal-depth 2\n" in out
        assert "variables 2\n" in out

    def test_syntax_error_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "broken.ltl"
        bad.write_text('G forall x "/m/a" : x = "a"\n')
        assert main(["compile", "--formula", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err


class TestMonitor:
    def test_violation_stream_and_exit(self, capsys):
        assert main(["monitor", "--formula", SAFETY, "--trace", MIXED]) == 1
        assert capsys.readouterr().out == (
            "0\tINCONCLUSIVE\n"
            "1\tINCONCLUSIVE\n"
            "2\tFALSE\n"
            "3\tFALSE\n"
            "RESULT FALSE\n"
        )

    def test_satisfaction_stream_and_exit(self, capsys):
        assert main(["monitor", "--formula", WITNESS, "--trace", MIXED]) == 0
        assert capsys.readouterr().out == (
            "0\tINCONCLUSIVE\n"
            "1\tTRUE\n"
            "2\tTRUE\n"
            "3\tTRUE\n"
            "RESULT TRUE\n"
        )

    def test_open_verdict_exits_two(self, capsys):
        assert main(["monitor", "--formula", REQ_ACK, "--trace", MIXED]) == 2
        assert capsys.readouterr().out.endswith("RESULT INCONCLUSIVE\n")

    def test_empty_trace_is_inconclusive(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["monitor", "--formula", WITNESS, "--trace", str(empty)]) == 2
        assert capsys.readouterr().out == "RESULT INCONCLUSIVE\n"

    def test_malformed_line_reports_its_number(self, tmp_path, capsys):
        trace = tmp_path / "broken.jsonl"
        trace.write_text('{"m":{}}\n{"m":{"a":7}}\n')
        assert main(["monitor", "--formula", WITNESS, "--trace", str(trace)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_deep_json_line_is_an_error_exit(self, tmp_path, capsys):
        trace = tmp_path / "deep.jsonl"
        trace.write_text('{"m":{}}\n' + DEEP + "\n")
        assert main(["monitor", "--formula", WITNESS, "--trace", str(trace)]) == 3
        assert capsys.readouterr().err == "error: line 2: JSON nests too deeply\n"

    def test_long_integer_line_is_an_error_exit(self, tmp_path):
        trace = tmp_path / "long.jsonl"
        trace.write_text('{"m":{}}\n{"m":' + LONG_INT + "}\n")
        argv = ["monitor", "--formula", WITNESS, "--trace", str(trace)]
        assert _assert_contract(argv) == 3

    def test_duplicate_key_is_an_error_exit(self, tmp_path, capsys):
        # Keeping the last value would make this formula TRUE on half a message.
        formula = tmp_path / "all_c.ltl"
        formula.write_text('forall x in "/m/a" : x = "c"')
        trace = tmp_path / "dup.jsonl"
        trace.write_text('{"m":{"a":"x","a":"c"}}\n')
        assert main(["monitor", "--formula", str(formula), "--trace", str(trace)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: duplicate key 'a'\n"

    def test_unicode_line_separator_stays_inside_constants(self, tmp_path, capsys):
        formula = tmp_path / "separator.ltl"
        formula.write_text('forall z in "/m/a" : z = "x\u2028y"\n', encoding="utf-8")
        trace = tmp_path / "separator.jsonl"
        trace.write_text('{"m":{"a":"x\u2028y"}}\n', encoding="utf-8")
        assert main(["monitor", "--formula", str(formula), "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == "0\tTRUE\nRESULT TRUE\n"

    def test_trace_not_utf8_is_an_error_exit(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_bytes(b'\xff\xfe{"m":{}}\n')
        assert main(["monitor", "--formula", REQ_ACK, "--trace", str(trace)]) == 3
        assert capsys.readouterr().err.startswith("error:")


class TestAcceptAndOracle:
    @pytest.mark.parametrize(
        "lasso,status,word", [(GOOD, 0, "TRUE"), (BAD, 1, "FALSE")]
    )
    def test_routes_agree_on_shipped_pairs(self, capsys, lasso, status, word):
        assert main(["accept", "--formula", REQ_ACK, "--lasso", lasso]) == status
        assert capsys.readouterr().out == f"RESULT {word}\n"
        assert main(["oracle", "--formula", REQ_ACK, "--lasso", lasso]) == status
        assert capsys.readouterr().out == f"RESULT {word}\n"

    def test_empty_loop_rejected(self, tmp_path, capsys):
        lasso = tmp_path / "empty.lasso.json"
        lasso.write_text('{"prefix":[],"loop":[]}')
        assert main(["accept", "--formula", REQ_ACK, "--lasso", str(lasso)]) == 3
        assert "loop" in capsys.readouterr().err

    def test_lasso_not_utf8_is_an_error_exit(self, tmp_path, capsys):
        lasso = tmp_path / "bad.lasso.json"
        lasso.write_bytes(b'{"prefix":[],"loop":[{"m":{"a":"\xff"}}]}')
        assert main(["accept", "--formula", REQ_ACK, "--lasso", str(lasso)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_deep_json_lasso_is_an_error_exit(self, tmp_path, capsys):
        lasso = tmp_path / "deep.lasso.json"
        lasso.write_text('{"prefix":[],"loop":[' + DEEP + "]}")
        assert main(["accept", "--formula", REQ_ACK, "--lasso", str(lasso)]) == 3
        assert capsys.readouterr().err == "error: line 0: JSON nests too deeply\n"

    def test_long_integer_lasso_is_an_error_exit(self, tmp_path):
        lasso = tmp_path / "long.lasso.json"
        lasso.write_text('{"prefix":[],"loop":[{"m":' + LONG_INT + "}]}")
        for command in ("accept", "oracle"):
            assert _assert_contract([command, "--formula", REQ_ACK, "--lasso", str(lasso)]) == 3

    def test_prefix_not_an_array_is_an_error_exit(self, tmp_path, capsys):
        lasso = tmp_path / "object-prefix.lasso.json"
        lasso.write_text('{"prefix":{},"loop":[{"m":{}}]}')
        assert main(["accept", "--formula", REQ_ACK, "--lasso", str(lasso)]) == 3
        assert capsys.readouterr().err == 'error: line 0: "prefix" and "loop" must be arrays of messages\n'

    def test_oracle_out_of_memory_is_an_error_exit(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "oracle_eval", exhausted)
        assert main(["oracle", "--formula", REQ_ACK, "--lasso", GOOD]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: out of memory\n"

    def test_tiny_state_limit_is_a_resource_error(self, capsys):
        code = main(
            ["accept", "--formula", REQ_ACK, "--lasso", GOOD, "--state-limit", "1"]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: lasso acceptance exceeded the limit of 1 (position, obligation) pairs decided\n"
        )


ATOM = '"a" = "a"'
NESTED = {
    "next": lambda n: "X " * n + ATOM,
    "and": lambda n: " & ".join([ATOM] * (n + 1)),
    "parentheses": lambda n: "(" * n + ATOM + ")" * n,
}


def _run_all_commands(tmp_path, formula_text):
    formula = tmp_path / "deep.ltl"
    formula.write_text(formula_text)
    commands = (
        ["compile", "--stats"],
        ["monitor", "--trace", MIXED],
        ["accept", "--lasso", GOOD],
        ["oracle", "--lasso", GOOD],
    )
    return [main([name, "--formula", str(formula), *rest]) for name, *rest in commands]


class TestDeepNesting:
    @pytest.mark.parametrize("shape,depth", [("next", 3000), ("and", 3000), ("parentheses", 200)])
    def test_too_deep_is_an_error_exit(self, tmp_path, capsys, shape, depth):
        assert _run_all_commands(tmp_path, NESTED[shape](depth)) == [3, 3, 3, 3]
        err = capsys.readouterr().err
        assert err.count("error:") == 4
        assert f"at most {MAX_NESTING} nested operators" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_exactly_at_the_cap_runs_every_command(self, tmp_path, capsys, shape):
        compiled, monitored, accepted, oracle = _run_all_commands(tmp_path, NESTED[shape](MAX_NESTING))
        assert compiled == 0
        assert monitored in (0, 1, 2)
        assert accepted == oracle == 0
        assert capsys.readouterr().err == ""


class TestFuzz:
    def test_agreement_run(self, capsys):
        assert main(["fuzz", "--seed", "42", "--count", "25"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "AGREE 25/25\n"
        stderr_lines = captured.err.splitlines()
        assert stderr_lines[0].startswith("STATES min=")
        assert stderr_lines[1].startswith("TIME total=")

    def test_disagreement_prints_fail_lines_and_exits_one(self, monkeypatch, capsys):
        cases = fuzz_compare(42, 5)
        # An oracle that answers every case wrongly.
        monkeypatch.setattr(acceptance, "oracle_eval", lambda *args: not oracle_eval(*args))
        assert main(["fuzz", "--seed", "42", "--count", "5"]) == 1
        *fails, agree = capsys.readouterr().out.splitlines()
        assert fails == [
            f"FAIL {case.index} {format_formula(case.formula)} {lasso_to_json(case.trace)}"
            f" automaton={str(case.automaton_result).lower()} oracle={str(not case.oracle_result).lower()}"
            for case in cases
        ]
        assert agree == "AGREE 0/5"

    def test_case_over_the_state_limit_is_reported_and_the_corpus_finishes(self, capsys):
        argv = ["fuzz", "--seed", "42", "--count", "200", "--max-depth", "4", "--max-quant", "3"]
        assert main(argv + ["--state-limit", "50"]) == 3
        *limits, agree = capsys.readouterr().out.splitlines()
        assert limits and all(re.fullmatch(r"LIMIT \d+ .+ \{.+\} states=51", line) for line in limits)
        decided = 200 - len(limits)
        assert agree == f"AGREE {decided}/{decided}"

    def test_stdout_is_bit_deterministic(self, capsys):
        assert main(["fuzz", "--seed", "9", "--count", "15"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "9", "--count", "15"]) == 0
        assert capsys.readouterr().out == first


# Bytes and tokens that break JSON or formula syntax in different ways.
TOKENS = [
    b"{", b"}", b"[", b"]", b'"', b'"m"', b":", b",", b"\\", b"\n", b"\xff", b"\x00",
    b"1e999", b"null", b"true", b"exists", b"forall", b"in", b"->", b"U", b"R", b"X",
    b"(", b")", b"=", b"!=", b"x", b'"/m/a"', b"#",
]
FORMULAS = sorted(str(path) for path in DATA.glob("*.ltl"))


@st.composite
def mutations(draw, original: bytes) -> bytes:
    """The original with a few byte ranges deleted or tokens inserted."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            del data[at : at + draw(st.integers(1, 4))]
        else:
            data[at:at] = draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3)))
    return bytes(data)


def _assert_contract(argv):
    """Exit in {0, 1, 2, 3}, returned; stderr silent on a verdict, one error line on 3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as done:  # argparse usage errors
            code = done.code
    errors = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, errors)
    assert "Traceback" not in errors
    if code == 3:
        assert sum("error:" in line for line in errors.splitlines()) == 1, errors
    else:
        assert errors == "", errors
    return code


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestExitCodeContract:
    """Mutated copies of the shipped inputs, run in-process through main."""

    @settings(max_examples=150)
    @given(st.sampled_from(FORMULAS).flatmap(lambda path: mutations(pathlib.Path(path).read_bytes())))
    def test_mutated_formula(self, scratch, text):
        formula = scratch / "mutated.ltl"
        formula.write_bytes(text)
        for command, *rest in (
            ["compile", "--stats"],
            ["monitor", "--trace", MIXED],
            ["accept", "--lasso", GOOD],
            ["oracle", "--lasso", GOOD],
        ):
            _assert_contract([command, "--formula", str(formula), *rest])

    @settings(max_examples=150)
    @given(st.sampled_from(FORMULAS), mutations(pathlib.Path(MIXED).read_bytes()))
    def test_mutated_trace(self, scratch, formula, text):
        trace = scratch / "mutated.jsonl"
        trace.write_bytes(text)
        _assert_contract(["monitor", "--formula", formula, "--trace", str(trace)])

    @settings(max_examples=150)
    @given(st.sampled_from(FORMULAS), mutations(pathlib.Path(GOOD).read_bytes()))
    def test_mutated_lasso(self, scratch, formula, text):
        lasso = scratch / "mutated.lasso.json"
        lasso.write_bytes(text)
        for command in ("accept", "oracle"):
            _assert_contract([command, "--formula", formula, "--lasso", str(lasso)])


    @settings(max_examples=100)
    @given(strategies.formulas())
    def test_random_formula_file(self, scratch, formula):
        path = scratch / "random.ltl"
        path.write_text(format_formula(formula), encoding="utf-8")
        _assert_contract(["compile", "--formula", str(path)])
        for lasso in (GOOD, BAD):
            accepted = _assert_contract(["accept", "--formula", str(path), "--lasso", lasso])
            holds = _assert_contract(["oracle", "--formula", str(path), "--lasso", lasso])
            assert accepted in (0, 1) and accepted == holds, (format_formula(formula), lasso)


class TestUsageErrors:
    def test_unknown_subcommand_exits_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 3
        capsys.readouterr()

    def test_missing_required_flag_exits_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["accept", "--formula", REQ_ACK])
        assert err.value.code == 3
        capsys.readouterr()

    def test_no_subcommand_exits_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["accept", "--formula", REQ_ACK, "--lasso", GOOD, "--state-limit", "-5"],
            ["fuzz", "--count", "-3"],
            ["fuzz", "--max-depth", "-1"],
            ["fuzz", "--max-quant", "-1"],
            ["fuzz", "--state-limit", "-1"],
        ],
    )
    def test_negative_count_exits_three(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: expected a count of 0 or more, got {argv[-1]}\n" in captured.err

    def test_counts_take_zero_and_the_seed_any_int(self, capsys):
        args = build_parser().parse_args(["fuzz", "--seed", "-4", "--count", "0", "--state-limit", "0"])
        assert (args.seed, args.count, args.state_limit) == (-4, 0, 0)
        assert main(["fuzz", "--seed", "-4", "--count", "2"]) == 0
        assert capsys.readouterr().out == "AGREE 2/2\n"

    def test_parser_builds_with_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["fuzz", "--seed", "1", "--count", "2"])
        assert args.seed == 1 and args.count == 2
        assert ExitStatus.INCONCLUSIVE == 2


class TestEntryPoint:
    def test_installed_console_script(self):
        import shutil
        import subprocess

        exe = shutil.which("foltl")
        if exe is None:
            pytest.skip("console script not on PATH")
        done = subprocess.run(
            [exe, "accept", "--formula", REQ_ACK, "--lasso", GOOD],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert done.stdout == "RESULT TRUE\n"

    @pytest.mark.parametrize("lasso,status,word", [(GOOD, 0, "TRUE"), (BAD, 1, "FALSE")])
    def test_module_runs_as_a_script(self, lasso, status, word):
        done = subprocess.run(
            [sys.executable, "-m", "foltl.cli", "accept", "--formula", REQ_ACK, "--lasso", lasso],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert (done.returncode, done.stdout, done.stderr) == (status, f"RESULT {word}\n", "")
