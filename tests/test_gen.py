"""The seeded corpus is pinned bit for bit, and so is what the automaton does on it.

The `fuzz` command's output and the `accept_fuzz` bench workload both
replay the seed-42 corpus, so any change to the generator that draws
differently from the random stream shows up here first.  A change to
the transition function that rewrites any obligation differently shows
up in the delta digest, even where every verdict survives it.
"""
import hashlib
import json

import pytest

from foltl.acceptance import lasso_accepts
from foltl.automaton import build_automaton
from foltl.events import lasso_to_json
from foltl.formula import format_formula, to_nnf
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso

# sha256 over one "formula lasso" line per case, cases 0 to 999.
CORPUS_SHA256 = {
    (4, 3): "64f3b8488318be841c20f995e300d52c0dd0117030c4f9e47525dc17d9b0469e",
    (3, 2): "7060576b98d17b317c60d5d4198bca0df58ff77f90b9e579ee5b115448f31742",
}


@pytest.mark.parametrize("depth, quantifiers", sorted(CORPUS_SHA256))
def test_seed_42_corpus_is_unchanged(depth, quantifiers):
    bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
    digest = hashlib.sha256()
    for index in range(1000):
        rng = case_rng(42, "case", index)
        formula = gen_formula(rng, bounds)
        trace = gen_lasso(rng, bounds)
        digest.update(f"{format_formula(formula)} {lasso_to_json(trace)}\n".encode())
    assert digest.hexdigest() == CORPUS_SHA256[depth, quantifiers]


# sha256 over every delta call lasso_accepts makes on d4q3 cases 0 to
# 299: per case, one sorted line per call holding its valuation, state,
# message and resulting DNF, each in a canonical (sorted) form.
DELTA_SHA256 = "c649a84387349f03be11bc40ac802353d7eb421857277cfbde3fe0f04b5b7bcc"


def _canonical_obligation(obligation):
    valuation, state = obligation
    return [sorted(valuation), state]


def test_seed_42_delta_calls_are_unchanged():
    bounds = GenBounds(max_depth=4, max_quantifiers=3)
    digest = hashlib.sha256()
    for index in range(300):
        rng = case_rng(42, "case", index)
        formula = gen_formula(rng, bounds)
        trace = gen_lasso(rng, bounds)
        automaton = build_automaton(to_nnf(formula))
        delta, lines = automaton.delta, []

        def recording(valuation, state, message):
            result = delta(valuation, state, message)
            dnf = sorted(sorted(map(_canonical_obligation, c)) for c in result)
            lines.append(json.dumps([sorted(valuation), state, message, dnf], sort_keys=True))
            return result

        automaton.delta = recording
        accepted = lasso_accepts(automaton, trace)
        digest.update(f"{index} {accepted} {len(lines)}\n".encode())
        digest.update("".join(line + "\n" for line in sorted(lines)).encode())
    assert digest.hexdigest() == DELTA_SHA256


# sha256 over the whole state table of every automaton on cases 0 to
# 999: per case, every state's label in order and the sorted accepting
# refs.  The delta digest covers only the states its cases visit.
STATE_TABLE_SHA256 = {
    (4, 3): "d33695d512306c3ea1cdc935d0e5840a84417298598dfd1c932215d1a490dd04",
    (3, 2): "547815d82aa859a2836bcabe2d0efeb81e8e472a9817e522f5c6692f33905397",
}


@pytest.mark.parametrize("depth, quantifiers", sorted(STATE_TABLE_SHA256))
def test_seed_42_state_tables_are_unchanged(depth, quantifiers):
    bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
    digest = hashlib.sha256()
    for index in range(1000):
        automaton = build_automaton(to_nnf(gen_formula(case_rng(42, "case", index), bounds)))
        labels = [automaton.state_label(ref) for ref in range(len(automaton.states))]
        digest.update(f"{json.dumps([index, labels, sorted(automaton.accepting)])}\n".encode())
    assert digest.hexdigest() == STATE_TABLE_SHA256[depth, quantifiers]
