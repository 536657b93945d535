"""Lasso acceptance by walking each obligation along the lasso."""
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given

import strategies
from foltl.acceptance import ResourceLimitError, lasso_accepts, oracle_eval
from foltl.automaton import EMPTY_VALUATION, build_automaton
from foltl.events import LassoTrace, canonical_position, load_lasso, parse_message, position_message
from foltl.formula import FalseLit, Not, TrueLit, parse, to_nnf

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# Position 0 is the prefix; positions 1 and 2 are the loop.
LASSO = load_lasso('{"prefix":[{"m":{"a":"a"}}],"loop":[{"m":{"a":"b"}},{"m":{"a":"a"}}]}')
A = 'exists x in "/m/a" : x = "a"'
B = 'exists x in "/m/a" : x = "b"'


def _accepts(formula, lasso=LASSO, **kwargs):
    if isinstance(formula, str):
        formula = parse(formula)
    return lasso_accepts(build_automaton(to_nnf(formula)), lasso, **kwargs)


def _pairs_decided(formula, lasso):
    """The pairs one run decides: each is decided by exactly one delta call."""
    automaton = build_automaton(to_nnf(formula))
    calls = []
    delta = automaton.delta
    automaton.delta = lambda *args: calls.append(args) or delta(*args)
    lasso_accepts(automaton, lasso)
    return len(calls)


def _reachable_pairs(formula, lasso):
    """(position, obligation) pairs reachable from the initial one through
    any obligation of any conjunct, found without lasso_accepts."""
    automaton = build_automaton(to_nnf(formula))
    start = (0, automaton.initial)
    seen = {start}
    frontier = [start]
    while frontier:
        position, obligation = frontier.pop()
        after = canonical_position(lasso, position + 1)
        rewrite = automaton.delta(obligation, automaton.letter(position_message(lasso, position)))
        for conjunct in rewrite:
            for successor in conjunct:
                if (after, successor) not in seen:
                    seen.add((after, successor))
                    frontier.append((after, successor))
    return seen


def _limit_is_the_count_of_pairs_decided(formula, lasso):
    # The walk decides only reachable pairs, and the limit counts exactly those it decides.
    pairs = _pairs_decided(formula, lasso)
    assert 1 <= pairs <= len(_reachable_pairs(formula, lasso))
    assert _accepts(formula, lasso, state_limit=pairs) == _accepts(formula, lasso)
    if pairs > 1:
        with pytest.raises(ResourceLimitError) as err:
            _accepts(formula, lasso, state_limit=pairs - 1)
        assert err.value.states == pairs


class TestAgainstBruteForce:
    @given(strategies.formulas(), strategies.lassos())
    def test_same_verdict(self, formula, lasso):
        holds = oracle_eval(EMPTY_VALUATION, formula, lasso)
        assert _accepts(formula, lasso) == holds
        assert _accepts(Not(formula), lasso) == (not holds)

    @given(strategies.formulas(), strategies.lassos())
    def test_rejection_explores_every_reachable_node(self, formula, lasso):
        assume(not oracle_eval(EMPTY_VALUATION, formula, lasso))
        _limit_is_the_count_of_pairs_decided(formula, lasso)

    @given(strategies.formulas(), strategies.lassos())
    def test_acceptance_explores_every_reachable_vertex_too(self, formula, lasso):
        assume(oracle_eval(EMPTY_VALUATION, formula, lasso))
        _limit_is_the_count_of_pairs_decided(formula, lasso)


class TestHandWritten:
    """Eve's options are the conjuncts of a transition, and Adam picks
    the obligation of a conjunct at the next position: a conjunct wins
    iff every obligation in it does."""

    def test_empty_option_wins(self):
        assert _accepts(TrueLit()) is True

    def test_no_option_loses(self):
        assert _accepts(FalseLit()) is False

    def test_accepting_self_loop(self):
        # The walk of the Release comes back to position 1 still pending.
        assert _accepts(f"G ({A} | {B})") is True

    def test_non_accepting_self_loop_loses(self):
        assert _accepts('F exists x in "/m/a" : x = "c"') is False
        assert _accepts(f'({A} | {B}) U exists x in "/m/a" : x = "c"') is False

    def test_adam_picks_the_bad_target(self):
        assert _accepts(f"X {B} & X {A}") is False
        assert _accepts(f"G ({A} | {B}) & F false") is False

    def test_eve_picks_the_good_option(self):
        assert _accepts(f"X {A} | X {B}") is True
        assert _accepts(f"F G {A} | G F {A}") is True

    def test_passing_an_accepting_state_once_loses(self):
        # A settles the Release at position 0, leaving F c pending forever.
        assert _accepts(f'{A} R F exists x in "/m/a" : x = "c"') is False

    def test_accepting_vertex_on_a_longer_cycle_wins(self):
        assert _accepts(f"X G ({A} | {B})") is True
        assert _accepts(f"G F {B}") is True

    def test_until_settles_after_the_hold(self):
        assert _accepts(f"{A} U {B}") is True
        assert _accepts(f"X ({B} U {A})") is True

    def test_release_broken_on_the_loop_is_rejected(self):
        assert _accepts(f"X G {B}") is False

    def test_state_limit_exceeded(self):
        # X X A: one pair per position 0, 1 and 2.
        formula = parse(f"X X {A}")
        assert _pairs_decided(formula, LASSO) == 3
        assert _accepts(formula, state_limit=3) is True
        with pytest.raises(ResourceLimitError) as err:
            _accepts(formula, state_limit=2)
        assert err.value.states == 3

    def test_each_pair_is_decided_once(self):
        # G F B is walked over positions 0, 1 and 2.  At 0 and at 2 it
        # needs F B at position 1, which is decided once: 4 pairs.
        assert _pairs_decided(parse(f"G F {B}"), LASSO) == 4


def _fuzz_stdout(hash_seed, state_limit):
    argv = ["fuzz", "--seed", "42", "--count", "300", "--max-depth", "4", "--max-quant", "3"]
    done = subprocess.run(
        [sys.executable, "-m", "foltl.cli", *argv, "--state-limit", str(state_limit)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
    )
    assert done.returncode == 3
    return done.stdout


# A walk that stopped deciding a conjunct at its first lost obligation
# would give different LIMIT lines under the two hash seeds at limit 30.
@pytest.mark.parametrize("state_limit", [20, 30])
def test_pairs_decided_do_not_depend_on_the_hash_seed(state_limit):
    first = _fuzz_stdout("0", state_limit)
    assert b"LIMIT " in first
    assert _fuzz_stdout("1", state_limit) == first


# Counts the domains lasso_accepts extracts over the seed-42 d4q3 corpus.
_COUNT_DOM_CALLS = """
import foltl.automaton
from foltl.acceptance import lasso_accepts
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso

calls = 0
dom = foltl.automaton.dom


def counting(*args):
    global calls
    calls += 1
    return dom(*args)


foltl.automaton.dom = counting
bounds = GenBounds(max_depth=4, max_quantifiers=3)
for index in range(1000):
    rng = case_rng(42, "case", index)
    formula = gen_formula(rng, bounds)
    lasso_accepts(foltl.automaton.Automaton(formula), gen_lasso(rng, bounds))
print(calls)
"""


def _dom_calls(hash_seed):
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_DOM_CALLS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
        check=True,
    )
    return int(done.stdout)


def test_domains_extracted_do_not_depend_on_the_hash_seed():
    # A domain kept per rule with the last message it read is extracted
    # again whenever set order interleaves two positions' messages.
    first = _dom_calls("0")
    assert first > 0
    assert _dom_calls("1") == first


def _imported_by_foltl(*modules):
    """Which of the modules a fresh interpreter holds after import foltl."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, foltl; print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    return done.stdout


def test_import_pulls_in_no_networkx():
    assert _imported_by_foltl("networkx") == "[]\n"


def test_import_pulls_in_no_dataclasses_or_inspect():
    # Both cost start-up time: dataclasses pulls in inspect, ast, dis and tokenize.
    assert _imported_by_foltl("dataclasses", "inspect") == "[]\n"


def test_acceptance_is_linear_in_the_lasso_length():
    # One pending obligation walked along 50 000 positions.  The walk
    # finds a revisit in constant time, so it costs a few times what the
    # oracle's linear passes cost; a scan of the positions walked so far
    # costs about a hundred times as much.
    message = parse_message('{"m":{"a":"a"}}')
    lasso = LassoTrace(prefix=(message,) * 49_999, loop=(message,))
    formula = to_nnf(parse('G forall x in "/m/a" : x != "c"'))
    automaton = build_automaton(formula)
    started = time.perf_counter()
    assert lasso_accepts(automaton, lasso) is True
    walked = time.perf_counter() - started
    started = time.perf_counter()
    assert oracle_eval(EMPTY_VALUATION, formula, lasso) is True
    assert walked < 25 * (time.perf_counter() - started)
