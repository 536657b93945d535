import pytest

from conftest import DATA
from foltl.cli import ExitStatus, build_parser, load_formula, main
from foltl.formula import Exists, Release, parse

REQ_ACK = str(DATA / "request_ack.ltl")
SAFETY = str(DATA / "safety.ltl")
WITNESS = str(DATA / "witness.ltl")
GOOD = str(DATA / "good.lasso.json")
BAD = str(DATA / "bad.lasso.json")
MIXED = str(DATA / "mixed.jsonl")


class TestLoadFormula:
    def test_comments_and_continuation_lines(self):
        formula = load_formula(REQ_ACK)
        assert formula == parse('G forall x in "/m/req" : F exists y in "/m/ack" : y = x')

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
        assert marked == {"TOP"}  # F-formulas add no accepting loops
        assert rows[-1][2] == "BOTTOM"

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
        assert "states 9\n" in out
        assert "accepting 2\n" in out
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

    def test_tiny_state_limit_is_a_resource_error(self, capsys):
        code = main(
            ["accept", "--formula", REQ_ACK, "--lasso", GOOD, "--state-limit", "1"]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestFuzz:
    def test_agreement_run(self, capsys):
        assert main(["fuzz", "--seed", "42", "--count", "25"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "AGREE 25/25\n"
        stderr_lines = captured.err.splitlines()
        assert stderr_lines[0].startswith("STATES min=")
        assert stderr_lines[1].startswith("TIME total=")

    def test_stdout_is_bit_deterministic(self, capsys):
        assert main(["fuzz", "--seed", "9", "--count", "15"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "9", "--count", "15"]) == 0
        assert capsys.readouterr().out == first


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
