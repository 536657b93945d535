import gc
import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given

import strategies
from foltl.acceptance import lasso_accepts, oracle_eval
from foltl.automaton import EMPTY_VALUATION, FALSE_DNF, TRUE_DNF, build_automaton
from foltl.events import LassoTrace, load_trace, message_from_obj
from foltl.formula import Not, format_formula, parse, to_nnf
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso
from foltl.monitor import (
    Configuration,
    Disjunction,
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
        assert monitor_trace(parse("true"), ()) == []


class TestConfigurations:
    def test_initial_holds_exactly_the_initial_obligation(self):
        auto = build_automaton(to_nnf(parse('X "a" = "a"')))
        config = initial_configuration(auto)
        assert config.dnf.conjuncts == frozenset({frozenset({auto.initial})})
        assert verdict(config) is Verdict.INCONCLUSIVE

    def test_verdict_of_decided_configurations(self):
        assert verdict(Configuration(Disjunction(TRUE_DNF))) is Verdict.TRUE
        assert verdict(Configuration(Disjunction(FALSE_DNF))) is Verdict.FALSE

    def test_decided_configurations_are_fixed_points(self):
        auto = build_automaton(to_nnf(parse('G exists x in "/m/a" : x = "a"')))
        for message in MIXED:
            assert step(auto, Configuration(Disjunction(TRUE_DNF)), message).dnf.conjuncts == TRUE_DNF
            assert step(auto, Configuration(Disjunction(FALSE_DNF)), message).dnf.conjuncts == FALSE_DNF

    def test_conjuncts_sharing_an_obligation_each_rewrite_it(self):
        # State 2 is F exists y in "/m/ack" : y = x.  Requests r1 and r2
        # pend in one conjunct, r2 and r3 in the other.  An ack discharges
        # its request wherever it pends and leaves the rest pending, and
        # a conjunct that another one contains is dropped.
        auto = build_automaton(parse('G forall x in "/m/req" : F exists y in "/m/ack" : y = x'))
        assert format_formula(auto.states[2]) == 'F exists y in "/m/ack" : y = x'

        def pending(*values):
            return frozenset({(frozenset({("x", value)}), 2) for value in values})

        config = Configuration(Disjunction(frozenset({pending("r1", "r2"), pending("r2", "r3")})))
        expected = {
            "r1": {pending("r2")},  # {r2} subsumes {r2, r3}
            "r2": {pending("r1"), pending("r3")},
            "r3": {pending("r2")},  # {r2} subsumes {r1, r2}
            "r4": {pending("r1", "r2"), pending("r2", "r3")},
        }
        for ack, conjuncts in expected.items():
            got = step(auto, config, message_from_obj({"m": {"ack": ack}}))
            assert got.dnf.conjuncts == frozenset(conjuncts), ack

    def test_memory_held_does_not_grow_with_distinct_messages(self):
        # Each message requests a fresh id and acknowledges the one
        # requested five messages earlier, so five requests stay pending.
        # Nothing a step caches may outlive the next message: 2000 more
        # distinct ids must not leave more memory held than 200 did.
        auto = build_automaton(to_nnf(parse(
            '(G forall x in "/m/req" : F exists y in "/m/ack" : y = x) '
            '& G forall z in "/m/a" : z != "c"'
        )))

        def messages(start, stop):
            for i in range(start, stop):
                body = {"req": f"{i:08x}", "a": "b"}
                if i >= 5:
                    body["ack"] = f"{i - 5:08x}"
                yield message_from_obj({"m": body})

        config = initial_configuration(auto)
        held = []
        tracemalloc.start()
        try:
            for start, stop in ((0, 200), (200, 2200)):
                for message in messages(start, stop):
                    config = step(auto, config, message)
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert verdict(config) is Verdict.INCONCLUSIVE
        assert abs(held[1] - held[0]) < 64 * 1024

    def test_verdict_string_form(self):
        assert str(Verdict.TRUE) == "TRUE"
        assert str(Verdict.FALSE) == "FALSE"
        assert str(Verdict.INCONCLUSIVE) == "INCONCLUSIVE"


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Thirty requests stay pending, then a message carries the forbidden
# "c": its conjunct is refuted by one obligation among thirty-two.
_COUNT_DELTA_CALLS = """
from foltl.automaton import Automaton
from foltl.events import message_from_obj
from foltl.formula import parse
from foltl.monitor import initial_configuration, step, verdict

calls = 0
delta = Automaton.delta


def counting(self, *args):
    global calls
    calls += 1
    return delta(self, *args)


Automaton.delta = counting
auto = Automaton(parse(
    '(G forall x in "/m/req" : F exists y in "/m/ack" : y = x) '
    '& G forall z in "/m/a" : z != "c"'
))
config = initial_configuration(auto)
for i in range(31):
    config = step(auto, config, message_from_obj({"m": {"req": f"{i:08x}", "a": "c" if i == 30 else "b"}}))
print(calls, verdict(config))
"""


def _delta_calls(hash_seed):
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_DELTA_CALLS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
        check=True,
    )
    return done.stdout


def test_delta_calls_do_not_depend_on_the_hash_seed():
    # A step that stopped conjoining at the first refuted obligation
    # would rewrite as many of the others as the set order put first.
    first = _delta_calls("0")
    assert first.endswith(" FALSE\n")
    assert _delta_calls("1") == first


def test_a_reused_message_dict_reads_as_it_holds_at_each_step():
    # A caller may refill one dict per message; the verdicts are those of fresh dicts.
    formula = parse('G forall z in "/m/a" : z != "c"')
    automaton = build_automaton(formula)
    configuration = initial_configuration(automaton)
    message = message_from_obj({"m": {"a": "b"}})
    verdicts = []
    for value in ("b", "c"):
        message["m"]["a"] = value
        configuration = step(automaton, configuration, message)
        verdicts.append(verdict(configuration))
    fresh = monitor_trace(formula, (message_from_obj({"m": {"a": "b"}}), message_from_obj({"m": {"a": "c"}})))
    assert verdicts == fresh == [Verdict.INCONCLUSIVE, Verdict.FALSE]


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
        for message in trace:
            config = step(auto, config, message)
            for left, right in itertools.combinations(config.dnf.conjuncts, 2):
                assert not (left <= right or right <= left)

    @given(strategies.formulas(), strategies.traces(max_length=3))
    def test_prefix_verdicts_agree(self, formula, trace):
        # Monitoring a longer trace never rewrites the verdicts already
        # issued for its prefix.
        full = monitor_trace(formula, trace)
        for cut in range(len(trace)):
            assert monitor_trace(formula, trace[:cut]) == full[:cut]


class TestLassoCrossCheck:
    """A lasso extends every finite prefix of its own unrolling, so a
    decided verdict on prefix + loop x 3 must equal both lasso routes."""

    @pytest.mark.parametrize("depth,quantifiers", [(3, 2), (4, 3)])
    def test_decided_verdicts_agree_with_walk_and_oracle(self, depth, quantifiers):
        bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
        decided = 0
        for index in range(300):
            # The seed-42 corpus of the fuzz command.
            rng = case_rng(42, "case", index)
            formula = gen_formula(rng, bounds)
            trace = gen_lasso(rng, bounds)
            final = monitor_trace(formula, trace.prefix + trace.loop * 3)[-1]
            if final is Verdict.INCONCLUSIVE:
                continue
            decided += 1
            holds = final is Verdict.TRUE
            assert lasso_accepts(build_automaton(to_nnf(formula)), trace) is holds, index
            assert oracle_eval(EMPTY_VALUATION, formula, trace) is holds, index
        assert decided >= 200


class TestDecidedVerdictExtensions:
    """A decided verdict after message j of u = prefix + loop claims every
    infinite extension of u[:j+1]; the oracle checks it on 8 random lassos
    u[:j+1] + v, w, drawn per decided position from the case's "ext" stream."""

    @pytest.mark.parametrize("depth,quantifiers", [(3, 2), (4, 3)])
    def test_decided_verdicts_hold_on_random_extensions(self, depth, quantifiers):
        bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
        decided = 0
        for index in range(300):
            rng = case_rng(42, "case", index)
            formula = gen_formula(rng, bounds)
            lasso = gen_lasso(rng, bounds)
            u = lasso.prefix + lasso.loop
            extensions = case_rng(42, "ext", index)
            for j, found in enumerate(monitor_trace(formula, u)):
                if found is Verdict.INCONCLUSIVE:
                    continue
                decided += 1
                for _ in range(8):
                    v, w = gen_lasso(extensions, bounds)
                    extended = LassoTrace(u[: j + 1] + v, w)
                    assert oracle_eval(EMPTY_VALUATION, formula, extended) is (found is Verdict.TRUE), (index, j)
        assert decided >= 900


class TestNegationDuality:
    """A metamorphic relation, needing no oracle: at every position the
    verdict on the negation is the verdict on the formula with TRUE and
    FALSE swapped."""

    SWAP = {Verdict.TRUE: Verdict.FALSE, Verdict.FALSE: Verdict.TRUE, Verdict.INCONCLUSIVE: Verdict.INCONCLUSIVE}

    @pytest.mark.parametrize("depth,quantifiers", [(3, 2), (4, 3)])
    def test_negation_swaps_every_verdict(self, depth, quantifiers):
        bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
        for index in range(300):
            rng = case_rng(42, "case", index)
            formula = gen_formula(rng, bounds)
            lasso = gen_lasso(rng, bounds)
            trace = lasso.prefix + lasso.loop * 3
            expected = [self.SWAP[v] for v in monitor_trace(formula, trace)]
            assert monitor_trace(to_nnf(Not(formula)), trace) == expected, index
