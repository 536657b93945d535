import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from foltl import acceptance
from foltl.acceptance import (
    DEFAULT_STATE_LIMIT,
    FuzzCase,
    OracleEvaluator,
    ResourceLimitError,
    fuzz_compare,
    lasso_accepts,
    oracle_eval,
)
from foltl.automaton import EMPTY_VALUATION, build_automaton
from foltl.cli import fuzz_report_lines, main
from foltl.events import LassoTrace, load_lasso, parse_message
from foltl.formula import _LOWERED, Finally, Not, negate, parse, to_nnf
from foltl.gen import GenBounds

REQ_ACK = 'G forall x in "/m/req" : F exists y in "/m/ack" : y = x'
GOOD = load_lasso(
    '{"prefix":[{"m":{"req":"r1"}},{"m":{"ack":"r1","req":"r2"}}],'
    '"loop":[{"m":{"ack":"r2"}},{"m":{}}]}'
)
BAD = load_lasso('{"prefix":[{"m":{"req":"r1"}}],"loop":[{"m":{"req":"r9","ack":"r9"}}]}')

GF = 'G F exists x in "/m/a" : x = "b"'
GF_TRUE = load_lasso('{"prefix":[{"m":{"a":"a"}}],"loop":[{"m":{"a":"b"}},{"m":{"a":"a"}}]}')
GF_FALSE = load_lasso('{"prefix":[{"m":{"a":"b"}}],"loop":[{"m":{"a":"a"}}]}')


def _oracle(text, lasso, index=0):
    return oracle_eval(EMPTY_VALUATION, parse(text), lasso, index)


def _automaton(text, lasso, **kwargs):
    return lasso_accepts(build_automaton(to_nnf(parse(text))), lasso, **kwargs)


class TestOracle:
    def test_request_ack_discharged(self):
        assert _oracle(REQ_ACK, GOOD) is True

    def test_request_ack_dropped(self):
        assert _oracle(REQ_ACK, BAD) is False

    def test_recurrence(self):
        assert _oracle(GF, GF_TRUE) is True
        assert _oracle(GF, GF_FALSE) is False

    def test_start_index_shifts_the_word(self):
        text = 'exists x in "/m/a" : x = "b"'
        assert _oracle(text, GF_TRUE, index=0) is False
        assert _oracle(text, GF_TRUE, index=1) is True
        # index 3 folds into the loop: 1 + (3 - 1) % 2 = 1
        assert _oracle(text, GF_TRUE, index=3) is True

    def test_empty_domain_quantifiers(self):
        assert _oracle('G forall x in "/m/nope" : x = "v"', GF_TRUE) is True
        assert _oracle('F exists x in "/m/nope" : x = "v"', GF_TRUE) is False

    def test_literals_and_sugar_evaluate_directly(self):
        assert _oracle("true", GF_TRUE) is True
        assert _oracle("false", GF_TRUE) is False
        assert _oracle('! exists x in "/m/a" : x = "b"', GF_TRUE) is True
        assert _oracle('true -> X exists x in "/m/a" : x = "b"', GF_TRUE) is True


class TestOracleProperties:
    @given(strategies.formulas(), strategies.lassos())
    def test_normal_form_is_transparent(self, formula, lasso):
        assert oracle_eval(EMPTY_VALUATION, formula, lasso) == oracle_eval(
            EMPTY_VALUATION, to_nnf(formula), lasso
        )

    @given(strategies.formulas(), strategies.lassos())
    def test_negation_flips_the_answer(self, formula, lasso):
        positive = oracle_eval(EMPTY_VALUATION, formula, lasso)
        assert oracle_eval(EMPTY_VALUATION, Not(formula), lasso) == (not positive)
        assert oracle_eval(EMPTY_VALUATION, negate(formula), lasso) == (not positive)

    @given(strategies.formulas(), strategies.lassos(), st.integers(min_value=0, max_value=8))
    def test_next_shifts_by_one(self, formula, lasso, index):
        from foltl.formula import Next

        assert oracle_eval(EMPTY_VALUATION, Next(formula), lasso, index) == oracle_eval(
            EMPTY_VALUATION, formula, lasso, index + 1
        )

    @given(strategies.formulas(), strategies.lassos(), st.integers(min_value=0, max_value=8))
    def test_positions_fold_into_the_loop(self, formula, lasso, index):
        shifted = index + len(lasso.loop)
        if index >= len(lasso.prefix):
            assert oracle_eval(EMPTY_VALUATION, formula, lasso, index) == oracle_eval(
                EMPTY_VALUATION, formula, lasso, shifted
            )


class _CountingEvaluator(OracleEvaluator):
    def __init__(self, trace):
        super().__init__(trace)
        self.fixpoints = 0

    def _fixpoint(self, current, unfold):
        self.fixpoints += 1
        return super()._fixpoint(current, unfold)


class TestFixpointConvergence:
    def test_single_fixpoint_iteration_bound(self):
        evaluator = _CountingEvaluator(GOOD)
        evaluator.sat(to_nnf(parse('F exists x in "/m/ack" : x = "r2"')), EMPTY_VALUATION)
        assert evaluator.fixpoints == 1
        assert evaluator.iterations <= evaluator.count + 1

    @given(strategies.formulas(), strategies.lassos())
    def test_every_fixpoint_converges_within_the_position_count(self, formula, lasso):
        evaluator = _CountingEvaluator(lasso)
        evaluator.holds(EMPTY_VALUATION, formula)
        assert evaluator.iterations <= evaluator.fixpoints * (evaluator.count + 1)


class TestLassoAcceptance:
    def test_request_ack_discharged(self):
        assert _automaton(REQ_ACK, GOOD) is True

    def test_request_ack_dropped(self):
        assert _automaton(REQ_ACK, BAD) is False

    def test_recurrence(self):
        assert _automaton(GF, GF_TRUE) is True
        assert _automaton(GF, GF_FALSE) is False

    def test_decided_atoms(self):
        assert _automaton('"a" = "a"', GF_FALSE) is True
        assert _automaton('"a" = "b"', GF_FALSE) is False

    def test_next_chain_wraps_into_the_loop(self):
        lasso = load_lasso('{"prefix":[{"m":{"a":"b"}}],"loop":[{"m":{"a":"a"}}]}')
        assert _automaton('X X X exists x in "/m/a" : x = "a"', lasso) is True
        assert _automaton('X X X exists x in "/m/a" : x = "b"', lasso) is False

    def test_state_limit_trips(self):
        with pytest.raises(ResourceLimitError) as err:
            _automaton(GF, GF_TRUE, state_limit=1)
        assert err.value.states > 1

    def test_default_state_limit_is_roomy(self):
        assert DEFAULT_STATE_LIMIT >= 100_000

    @given(strategies.formulas(), strategies.lassos())
    def test_agrees_with_the_oracle(self, formula, lasso):
        normal = to_nnf(formula)
        automaton = build_automaton(normal)
        assert lasso_accepts(automaton, lasso) == oracle_eval(
            EMPTY_VALUATION, normal, lasso
        )


class TestFuzz:
    def test_small_corpus_agrees(self):
        cases = fuzz_compare(42, 30)
        assert len(cases) == 30
        assert sum(case.agree for case in cases) == 30
        assert fuzz_report_lines(cases) == ["AGREE 30/30"]

    def test_deeper_corpus_agrees(self):
        cases = fuzz_compare(42, 200, GenBounds(max_depth=5, max_quantifiers=3))
        assert sum(case.agree for case in cases) == 200

    def test_long_lassos_decide_within_a_small_state_limit(self):
        # Acceptance decides at most |positions| x |obligations| pairs,
        # so 1000 is room enough for lassos of up to 14 messages.
        bounds = GenBounds(max_depth=4, max_quantifiers=3, max_prefix=8, max_loop=6)
        cases = fuzz_compare(42, 300, bounds, state_limit=1000)
        assert not any(case.limit_states for case in cases)
        assert sum(case.agree for case in cases) == 300

    def test_report_is_deterministic(self):
        first = fuzz_compare(7, 10)
        second = fuzz_compare(7, 10)
        assert fuzz_report_lines(first) == fuzz_report_lines(second)
        assert [c.formula for c in first] == [c.formula for c in second]
        assert [c.trace for c in first] == [c.trace for c in second]

    def test_broken_normal_form_shows_as_disagreement(self, monkeypatch):
        # The oracle reads each formula as generated, so a lowering that
        # turns F phi into phi reaches the automaton route alone.
        def broken(formula):
            with monkeypatch.context() as patch:
                patch.setitem(_LOWERED, Finally, lambda body: body)
                return to_nnf(formula)

        monkeypatch.setattr(acceptance, "to_nnf", broken)
        cases = fuzz_compare(42, 200)
        assert any(not case.agree and not case.limit_states for case in cases)

    def test_seeds_vary_the_corpus(self):
        first = fuzz_compare(1, 10)
        second = fuzz_compare(2, 10)
        assert [c.formula for c in first] != [c.formula for c in second]

    def test_failure_line_format(self):
        trace = LassoTrace((), (parse_message('{"m":{}}'),))
        disagreeing = FuzzCase(
            index=3,
            formula=parse("true"),
            trace=trace,
            automaton_result=True,
            oracle_result=False,
            state_count=3,
        )
        agreeing = FuzzCase(
            index=4,
            formula=parse("false"),
            trace=trace,
            automaton_result=False,
            oracle_result=False,
            state_count=3,
        )
        limited = FuzzCase(
            index=5,
            formula=parse("true"),
            trace=trace,
            automaton_result=None,
            oracle_result=None,
            state_count=3,
            limit_states=51,
        )
        assert not disagreeing.agree and agreeing.agree and not limited.agree
        assert fuzz_report_lines([disagreeing, agreeing, limited]) == [
            'FAIL 3 true {"prefix":[],"loop":[{"m":{}}]} automaton=true oracle=false',
            'LIMIT 5 true {"prefix":[],"loop":[{"m":{}}]} states=51',
            "AGREE 1/2",
        ]

    def test_stats_shapes(self, capsys):
        assert main(["fuzz", "--count", "5"]) == 0
        stats = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"STATES min=\d+ max=\d+ mean=\d+\.\d\d", stats[0])
        assert re.fullmatch(r"TIME total=\d+\.\d\d\ds", stats[1])
