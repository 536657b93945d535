"""End-to-end acceptance checks, one per shipped guarantee.

Run with -s to see one PASS/FAIL line per criterion.  Every check pins
both the behavior and a wall-clock budget, so the suite doubles as a
smoke benchmark.
"""
import time

import pytest

import strategies
from foltl.acceptance import fuzz_compare, lasso_accepts, oracle_eval
from foltl.automaton import EMPTY_VALUATION, FALSE_DNF, TRUE_DNF, build_automaton
from foltl.events import LassoTrace, dom, parse_message
from foltl.formula import (
    Finally,
    Globally,
    Implies,
    Not,
    Path,
    children,
    node_count,
    parse,
    to_nnf,
)
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso, gen_message
from foltl.monitor import Configuration, Disjunction, Verdict, initial_configuration, monitor_trace, step, verdict

STOCK = parse_message(
    '{"message":{"action":"placeBuyOrder",'
    '"stock":[{"name":"stock-1","amount":"123"},{"name":"stock-2","amount":"456"}]}}'
)


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def corpus():
    """The fuzz cases and the seconds fuzz_compare took to produce them."""
    started = time.perf_counter()
    cases = fuzz_compare(42, 200, GenBounds())
    return cases, time.perf_counter() - started


def test_criterion_1_path_extraction():
    ok = (
        dom(STOCK, Path(("message", "stock", "name"))) == {"stock-1", "stock-2"}
        and dom(STOCK, Path(("message", "action"))) == {"placeBuyOrder"}
        and dom(STOCK, Path(("message", "stock", "amount"))) == {"123", "456"}
        and dom(STOCK, Path(("message", "stock", "missing"))) == frozenset()
    )
    path = Path(("message", "stock", "name"))
    dom(STOCK, path)  # warm
    started = time.perf_counter()
    repetitions = 2000
    for _ in range(repetitions):
        dom(STOCK, path)
    mean = (time.perf_counter() - started) / repetitions
    _report(1, "path extraction", ok and mean < 0.001)


def test_criterion_2_route_agreement(corpus):
    cases, seconds = corpus
    ok = (
        len(cases) == 200
        and sum(case.agree for case in cases) == 200
        and seconds < 60.0
    )
    _report(2, "route agreement", ok)


def test_criterion_3_state_bound(corpus):
    cases, _ = corpus
    ok = all(case.state_count <= node_count(to_nnf(case.formula)) for case in cases)
    _report(3, "state bound", ok)


def _connectives(formula):
    return {type(formula)}.union(*map(_connectives, children(formula)))


def test_criterion_4_rewrite_transparency():
    started = time.perf_counter()
    bounds = GenBounds()
    seen_kinds = set()
    agreed = True
    for index in range(100):
        rng = case_rng(11, "sugar", index)
        formula = strategies.gen_sugared_formula(rng, bounds)
        seen_kinds |= _connectives(formula)
        normal = to_nnf(formula)
        for _ in range(10):
            lasso = gen_lasso(rng, bounds)
            direct = oracle_eval(EMPTY_VALUATION, formula, lasso)
            lowered = oracle_eval(EMPTY_VALUATION, normal, lasso)
            agreed = agreed and direct == lowered
    elapsed = time.perf_counter() - started
    covered = {Not, Implies, Finally, Globally} <= seen_kinds
    _report(4, "rewrite transparency", agreed and covered and elapsed < 30.0)


def test_criterion_5_negation_duality(corpus):
    started = time.perf_counter()
    ok = True
    cases, _ = corpus
    for case in cases:
        dual = build_automaton(to_nnf(Not(case.formula)))
        ok = ok and lasso_accepts(dual, case.trace) == (not case.automaton_result)
    elapsed = time.perf_counter() - started
    _report(5, "negation duality", ok and elapsed < 60.0)


def test_criterion_6_impartial_monitoring():
    started = time.perf_counter()
    bounds = GenBounds()
    decided = {Verdict.TRUE: 0, Verdict.FALSE: 0}
    consistent = True
    attempt = 0
    while sum(decided.values()) < 100 and attempt < 500:
        rng = case_rng(7, "impartial", attempt)
        formula = gen_formula(rng, bounds)
        trace = strategies.gen_finite_trace(rng)
        verdicts = monitor_trace(formula, trace)
        final = verdicts[-1] if verdicts else Verdict.INCONCLUSIVE
        if final is not Verdict.INCONCLUSIVE:
            decided[final] += 1
            automaton = build_automaton(to_nnf(formula))
            for j in range(10):
                ext_rng = case_rng(7, f"ext:{attempt}", j)
                tail = gen_lasso(ext_rng, bounds)
                extension = LassoTrace(
                    prefix=trace + tail.prefix, loop=tail.loop
                )
                consistent = consistent and lasso_accepts(automaton, extension) == (
                    final is Verdict.TRUE
                )
        attempt += 1
    elapsed = time.perf_counter() - started
    ok = (
        sum(decided.values()) == 100
        and decided[Verdict.TRUE] >= 20
        and decided[Verdict.FALSE] >= 20
        and consistent
        and elapsed < 60.0
    )
    _report(6, "impartial monitoring", ok)


def test_criterion_7_vacuous_quantification():
    started = time.perf_counter()
    loop = (parse_message('{"m":{"a":"v"}}'), parse_message('{"m":{}}'))
    lasso = LassoTrace(prefix=(), loop=loop)
    ok = True
    for index in range(10):
        universal = parse(f'G forall x in "/m/nope{index}" : x = "v{index}"')
        existential = parse(f'F exists x in "/m/nope{index}" : x = "v{index}"')
        for formula, expected in ((universal, True), (existential, False)):
            normal = to_nnf(formula)
            automaton = build_automaton(normal)
            ok = ok and lasso_accepts(automaton, lasso) is expected
            ok = ok and oracle_eval(EMPTY_VALUATION, formula, lasso) is expected
    elapsed = time.perf_counter() - started
    _report(7, "vacuous quantification", ok and elapsed < 1.0)


def test_criterion_8_verdict_finality():
    started = time.perf_counter()
    automaton = build_automaton(to_nnf(parse('G exists x in "/m/a" : x = "a"')))
    settled_true = Configuration(Disjunction(TRUE_DNF))
    settled_false = Configuration(Disjunction(FALSE_DNF))
    ok = True
    for index in range(1000):
        message = gen_message(case_rng(3, "stress", index))
        settled_true = step(automaton, settled_true, message)
        settled_false = step(automaton, settled_false, message)
        ok = ok and settled_true.dnf.conjuncts == TRUE_DNF and settled_false.dnf.conjuncts == FALSE_DNF
    elapsed = time.perf_counter() - started
    ok = ok and verdict(settled_true) is Verdict.TRUE and verdict(settled_false) is Verdict.FALSE
    _report(8, "verdict finality", ok and elapsed < 1.0)
