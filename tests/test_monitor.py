import itertools

from hypothesis import given

import strategies
from foltl.automaton import FALSE_DNF, TRUE_DNF, build_automaton
from foltl.events import Trace, load_trace
from foltl.formula import parse, to_nnf
from foltl.monitor import (
    Configuration,
    Verdict,
    initial_configuration,
    monitor_trace,
    step,
    verdict,
)

MIXED = load_trace(
    "\n".join(
        [
            '{"m":{"a":"a"}}',
            '{"m":{"a":["a","b"]}}',
            '{"m":{"a":"c"}}',
            '{"m":{"a":"a"}}',
        ]
    )
)


def _verdict_names(formula_text, trace):
    return [v.value for v in monitor_trace(parse(formula_text), trace)]


class TestVerdictSequences:
    def test_safety_violation_detected_and_kept(self):
        got = _verdict_names('G forall x in "/m/a" : x != "c"', MIXED)
        assert got == ["INCONCLUSIVE", "INCONCLUSIVE", "FALSE", "FALSE"]

    def test_witness_satisfaction_detected_and_kept(self):
        got = _verdict_names('F exists x in "/m/a" : x = "b"', MIXED)
        assert got == ["INCONCLUSIVE", "TRUE", "TRUE", "TRUE"]

    def test_immediate_decision_on_first_message(self):
        # The formula constrains position zero only, so the verdict is
        # decided by the first message and kept from then on.
        assert _verdict_names('exists x in "/m/a" : x = "a"', MIXED) == ["TRUE"] * 4
        assert _verdict_names('exists x in "/m/a" : x = "z"', MIXED) == ["FALSE"] * 4

    def test_request_ack_stays_open(self):
        text = 'G forall x in "/m/req" : F exists y in "/m/ack" : y = x'
        trace = load_trace('{"m":{"req":"r1"}}\n{"m":{"ack":"r1"}}')
        assert _verdict_names(text, trace) == ["INCONCLUSIVE", "INCONCLUSIVE"]

    def test_empty_trace_yields_no_verdicts(self):
        assert monitor_trace(parse("true"), Trace(())) == []


class TestConfigurations:
    def test_initial_holds_exactly_the_initial_obligation(self):
        auto = build_automaton(to_nnf(parse('X "a" = "a"')))
        config = initial_configuration(auto)
        assert config.dnf.conjuncts == frozenset({frozenset({auto.initial})})
        assert verdict(config) is Verdict.INCONCLUSIVE

    def test_verdict_of_decided_configurations(self):
        assert verdict(Configuration(TRUE_DNF)) is Verdict.TRUE
        assert verdict(Configuration(FALSE_DNF)) is Verdict.FALSE

    def test_decided_configurations_are_fixed_points(self):
        auto = build_automaton(to_nnf(parse('G exists x in "/m/a" : x = "a"')))
        for message in MIXED.messages:
            assert step(auto, Configuration(TRUE_DNF), message).dnf == TRUE_DNF
            assert step(auto, Configuration(FALSE_DNF), message).dnf == FALSE_DNF

    def test_verdict_string_form(self):
        assert str(Verdict.TRUE) == "TRUE"
        assert str(Verdict.FALSE) == "FALSE"
        assert str(Verdict.INCONCLUSIVE) == "INCONCLUSIVE"


class TestProperties:
    @given(strategies.formulas(), strategies.traces())
    def test_decided_verdicts_are_final(self, formula, trace):
        verdicts = monitor_trace(formula, trace)
        for before, after in zip(verdicts, verdicts[1:]):
            if before is not Verdict.INCONCLUSIVE:
                assert after is before

    @given(strategies.formulas(), strategies.traces())
    def test_deterministic(self, formula, trace):
        assert monitor_trace(formula, trace) == monitor_trace(formula, trace)

    @given(strategies.nnf_formulas(), strategies.traces())
    def test_configurations_stay_antichains(self, formula, trace):
        auto = build_automaton(formula)
        config = initial_configuration(auto)
        for message in trace.messages:
            config = step(auto, config, message)
            for left, right in itertools.combinations(config.dnf.conjuncts, 2):
                assert not (left <= right or right <= left)

    @given(strategies.formulas(), strategies.traces(max_length=3))
    def test_prefix_verdicts_agree(self, formula, trace):
        # Monitoring a longer trace never rewrites the verdicts already
        # issued for its prefix.
        full = monitor_trace(formula, trace)
        for cut in range(len(trace.messages)):
            prefix = Trace(trace.messages[:cut])
            assert monitor_trace(formula, prefix) == full[:cut]
