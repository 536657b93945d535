"""Exact acceptance on ultimately periodic traces, two independent ways.

oracle_eval decides satisfaction by brute force straight from the
temporal unfolding laws: per subformula and valuation it computes the
set of canonical positions where the formula holds, taking Until as a
least and Release as a greatest fixpoint over that finite position
space.  It shares with the automaton route only the input layer
(value_of, dom, canonical_position, position_message); its scope check
runs ensure_well_formed for its errors and ignores the normal form.

lasso_accepts decides acceptance of the compiled automaton on
(canonical position, obligation) pairs.  The automaton is very weak,
so a run that holds an obligation forever holds it in one state, and
one memoized walk per obligation along the lasso decides each pair
once.

fuzz_compare drives both over a seeded corpus, the oracle on each
formula as generated, and returns one FuzzCase per case for the CLI.
Agreement across the corpus is the package's main self-check.
"""
from __future__ import annotations

from collections import namedtuple

from .automaton import (
    EMPTY_VALUATION,
    Automaton,
    Obligation,
    Valuation,
    value_of,
)
from .events import LassoTrace, canonical_position, dom, position_message
from .formula import (
    And,
    Eq,
    Exists,
    FalseLit,
    Finally,
    Forall,
    Formula,
    Globally,
    Implies,
    Neq,
    Next,
    Not,
    Or,
    Record,
    Release,
    TrueLit,
    Until,
    ensure_well_formed,
)
from .gen import GenBounds, case_rng, gen_formula, gen_lasso

DEFAULT_STATE_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    def __init__(self, states: int):
        self.states = states
        super().__init__(f"lasso acceptance exceeded the limit of {states - 1} (position, obligation) pairs decided")


class OracleEvaluator:
    """Positionwise satisfaction sets for one lasso trace.

    Positions are canonical: the prefix plus a single loop unrolling,
    with the successor of the last position wrapping to the loop start.
    """

    def __init__(self, trace: LassoTrace):
        self.trace = trace
        self.count = len(trace.prefix) + len(trace.loop)
        self.messages = [position_message(trace, i) for i in range(self.count)]
        self.all_positions = frozenset(range(self.count))
        self.iterations = 0
        self._memo: dict[tuple[Formula, Valuation], frozenset[int]] = {}

    def holds(self, valuation: Valuation, formula: Formula, index: int = 0) -> bool:
        """Satisfaction at the position; a FormulaError unless well formed in the valuation's scope."""
        ensure_well_formed(formula, frozenset(name for name, _ in valuation))
        return canonical_position(self.trace, index) in self.sat(formula, valuation)

    def _pre(self, targets: frozenset[int]) -> frozenset[int]:
        return frozenset(p for p in self.all_positions if canonical_position(self.trace, p + 1) in targets)

    def sat(self, formula: Formula, valuation: Valuation) -> frozenset[int]:
        key = (formula, valuation)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._compute(formula, valuation)
            self._memo[key] = cached
        return cached

    def _fixpoint(self, current: frozenset[int], unfold) -> frozenset[int]:
        """Iterate unfold until stable: the least fixpoint from no position, the greatest from all."""
        while True:
            self.iterations += 1
            updated = unfold(current)
            if updated == current:
                return current
            current = updated

    def _compute(self, f: Formula, p: Valuation) -> frozenset[int]:
        match f:
            case TrueLit():
                return self.all_positions
            case FalseLit():
                return frozenset()
            case Eq(left, right):
                holds = value_of(p, left) == value_of(p, right)
                return self.all_positions if holds else frozenset()
            case Neq(left, right):
                holds = value_of(p, left) != value_of(p, right)
                return self.all_positions if holds else frozenset()
            case Not(body):
                return self.all_positions - self.sat(body, p)
            case And(left, right):
                return self.sat(left, p) & self.sat(right, p)
            case Or(left, right):
                return self.sat(left, p) | self.sat(right, p)
            case Implies(left, right):
                return (self.all_positions - self.sat(left, p)) | self.sat(right, p)
            case Next(body):
                return self._pre(self.sat(body, p))
            case Finally(body):
                base = self.sat(body, p)
                return self._fixpoint(frozenset(), lambda s: base | self._pre(s))
            case Globally(body):
                base = self.sat(body, p)
                return self._fixpoint(self.all_positions, lambda s: base & self._pre(s))
            case Until(left, right):
                hold = self.sat(left, p)
                goal = self.sat(right, p)
                return self._fixpoint(frozenset(), lambda s: goal | (hold & self._pre(s)))
            case Release(left, right):
                constraint = self.sat(right, p)
                settled = self.sat(left, p) & constraint
                return self._fixpoint(self.all_positions, lambda s: settled | (constraint & self._pre(s)))
            case Exists(var, path, body) | Forall(var, path, body):
                quantifier = any if isinstance(f, Exists) else all
                return frozenset(
                    pos
                    for pos in self.all_positions
                    if quantifier(
                        pos in self.sat(body, p | {(var, value)})
                        for value in sorted(dom(self.messages[pos], path))
                    )
                )
        raise TypeError(f"not a formula: {f!r}")


def oracle_eval(valuation: Valuation, formula: Formula, trace: LassoTrace, index: int = 0) -> bool:
    """Brute-force satisfaction of the formula on the lasso at a position."""
    return OracleEvaluator(trace).holds(valuation, formula, index)


def lasso_accepts(
    automaton: Automaton, trace: LassoTrace, state_limit: int = DEFAULT_STATE_LIMIT
) -> bool:
    """Buchi acceptance of the compiled automaton on a lasso trace.

    The automaton is very weak: every conjunct of a rewrite holds the
    obligation itself again or obligations on strict subformulas.  So
    an obligation is walked along the canonical positions while it
    stays pending.  At each position every obligation of every conjunct
    other than the walked one is decided first, at the next position.
    The walk is won where some conjunct leaves the obligation out and
    all its obligations are won, goes on where a conjunct holds it again
    and all its other obligations are won, and is lost otherwise; a walk
    that comes back to a position it visited is won iff the state is
    accepting.  Every position of a walk gets its verdict.  The trace is
    accepted iff the initial obligation is won at position 0.
    state_limit counts the (position, obligation) pairs decided, at
    most |positions| x |obligations|.
    """
    won: dict[tuple[int, Obligation], bool] = {}
    pairs = 0

    def wins(position: int, obligation: Obligation) -> bool:
        nonlocal pairs
        walk: dict[int, None] = {}  # positions in visiting order, a revisit found in O(1)
        while (verdict := won.get((position, obligation))) is None:
            if position in walk:
                verdict = obligation[1] in automaton.accepting
                break
            pairs += 1
            if pairs > state_limit:
                raise ResourceLimitError(pairs)
            walk[position] = None
            after = canonical_position(trace, position + 1)
            rewrite = automaton.delta(obligation, position_message(trace, position))
            leaves = holds = False
            for conjunct in rewrite:
                # Decide every obligation, so the pairs decided do not
                # depend on the order a set is iterated in.
                if all([wins(after, o) for o in conjunct - {obligation}]):
                    if obligation in conjunct:
                        holds = True
                    else:
                        leaves = True
            if leaves or not holds:
                verdict = leaves
                break
            position = after
        for visited in walk:
            won[visited, obligation] = verdict
        return verdict

    return wins(0, automaton.initial)


class FuzzCase(Record, namedtuple(
    "FuzzCase", "index formula trace automaton_result oracle_result state_count limit_states", defaults=(0,)
)):
    """One corpus case; limit_states > 0 marks a search stopped at the state limit.

    index, state_count, limit_states: int; formula: Formula; trace:
    LassoTrace; automaton_result, oracle_result: bool | None.
    """

    __slots__ = ()

    @property
    def agree(self) -> bool:
        return not self.limit_states and self.automaton_result == self.oracle_result


def fuzz_compare(
    seed: int,
    count: int,
    bounds: GenBounds = GenBounds(),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> list[FuzzCase]:
    """Run both routes over a seeded corpus and return its cases in order; the CLI reports them."""
    cases: list[FuzzCase] = []
    for index in range(count):
        rng = case_rng(seed, "case", index)
        formula = gen_formula(rng, bounds)
        trace = gen_lasso(rng, bounds)
        automaton = Automaton(formula)
        automaton_result = oracle_result = None
        limit_states = 0
        try:
            automaton_result = lasso_accepts(automaton, trace, state_limit)
        except ResourceLimitError as err:
            limit_states = err.states
        else:
            oracle_result = oracle_eval(EMPTY_VALUATION, formula, trace, 0)
        cases.append(
            FuzzCase(
                index=index,
                formula=formula,
                trace=trace,
                automaton_result=automaton_result,
                oracle_result=oracle_result,
                state_count=len(automaton.states),
                limit_states=limit_states,
            )
        )
    return cases
