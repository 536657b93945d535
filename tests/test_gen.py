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
from foltl.formula import format_formula, negate, to_nnf
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso
from foltl.monitor import initial_configuration, step

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
    (4, 3): "84898b011584b00e587d451bf7916a890eafd93f6b9ed17fc8d189f28c906376",
    (3, 2): "fab4083ad0ddddeda6a0e9eb283003e5f0fc08704ab9cf2752f2e8fce3ba8119",
}


@pytest.mark.parametrize("depth, quantifiers", sorted(STATE_TABLE_SHA256))
def test_seed_42_state_tables_are_unchanged(depth, quantifiers):
    bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
    digest = hashlib.sha256()
    for index in range(1000):
        automaton = build_automaton(to_nnf(gen_formula(case_rng(42, "case", index), bounds)))
        labels = [format_formula(state) for state in automaton.states]
        digest.update(f"{json.dumps([index, labels, sorted(automaton.accepting)])}\n".encode())
    assert digest.hexdigest() == STATE_TABLE_SHA256[depth, quantifiers]


# sha256 over format_formula(to_nnf(f)) and format_formula(negate(f)),
# one line each per case: d4q3 cases 0 to 999, and 300 cases at bounds
# whose formulas reach about 60 nodes.
NNF_SHA256 = {
    (4, 3, 12, 1000): "e45c69b6d9189e203510e9d4c7eaa3e7013737cc38d001d1d50717fe73e98257",
    (8, 6, 60, 300): "a61f7de44cffd913348a82ca99bd61dbf5c49b744cec1da900dc9feb3ee4fa5b",
}


@pytest.mark.parametrize("depth, quantifiers, size, count", sorted(NNF_SHA256))
def test_seed_42_normal_forms_are_unchanged(depth, quantifiers, size, count):
    bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers, size_budget=size)
    digest = hashlib.sha256()
    for index in range(count):
        formula = gen_formula(case_rng(42, "case", index), bounds)
        digest.update(f"{format_formula(to_nnf(formula))}\n{format_formula(negate(formula))}\n".encode())
    assert digest.hexdigest() == NNF_SHA256[depth, quantifiers, size, count]


# sha256 over every monitor configuration on d4q3 cases 0 to 299, one
# line per message of prefix + loop x 3: its conjuncts, each sorted.
CONFIGURATION_SHA256 = "dad7f25da16efdb72aaf772b7c4e13d70372098cec9ddeabc37f1fef596f7881"


def test_seed_42_monitor_configurations_are_unchanged():
    bounds = GenBounds(max_depth=4, max_quantifiers=3)
    digest = hashlib.sha256()
    for index in range(300):
        rng = case_rng(42, "case", index)
        formula = gen_formula(rng, bounds)
        trace = gen_lasso(rng, bounds)
        automaton = build_automaton(to_nnf(formula))
        configuration = initial_configuration(automaton)
        for message in trace.prefix + trace.loop * 3:
            configuration = step(automaton, configuration, message)
            dnf = sorted(sorted(map(_canonical_obligation, c)) for c in configuration.dnf.conjuncts)
            digest.update(f"{json.dumps([index, dnf])}\n".encode())
    assert digest.hexdigest() == CONFIGURATION_SHA256
