"""Exact acceptance on ultimately periodic traces, two independent ways.

oracle_eval decides satisfaction by brute force straight from the
temporal unfolding laws: per subformula and valuation it computes the
set of canonical positions where the formula holds, taking Until as a
least and Release as a greatest fixpoint over that finite position
space.  It never touches the automaton machinery: it shares only
value_of, the lookup of a term's value under a valuation.

lasso_accepts decides acceptance of the compiled automaton as the
alternating automaton's own Buchi game on (canonical position,
obligation) pairs: Eve picks a conjunct of each rewrite, Adam picks an
obligation in it, and the trace is accepted iff Eve wins from the
initial obligation at position 0.  The game is explored in full and
solved by a nested fixpoint of worklist attractors.

fuzz_compare drives both over a seeded random corpus and returns one
FuzzCase per case; the CLI's fuzz command reports them.  Agreement
across the corpus is the package's main self-check.
"""
from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    EMPTY_VALUATION,
    Automaton,
    Obligation,
    Valuation,
    build_automaton,
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
    Release,
    TrueLit,
    Until,
    ensure_well_formed,
    to_nnf,
)
from .gen import GenBounds, case_rng, gen_formula, gen_lasso

DEFAULT_STATE_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    def __init__(self, states: int):
        self.states = states
        super().__init__(f"acceptance game exceeded {states} vertices")


class OracleEvaluator:
    """Positionwise satisfaction sets for one lasso trace.

    Positions are canonical: the prefix plus a single loop unrolling,
    with the successor of the last position wrapping to the loop start.
    """

    def __init__(self, trace: LassoTrace):
        self.trace = trace
        self.loop_start = len(trace.prefix)
        self.count = len(trace.prefix) + len(trace.loop)
        self.messages = [position_message(trace, i) for i in range(self.count)]
        self.all_positions = frozenset(range(self.count))
        self.iterations = 0
        self._memo: dict[tuple[Formula, Valuation], frozenset[int]] = {}

    def holds(self, valuation: Valuation, formula: Formula, index: int = 0) -> bool:
        """Satisfaction at the position; a FormulaError unless well formed in the valuation's scope."""
        ensure_well_formed(formula, frozenset(name for name, _ in valuation))
        return canonical_position(self.trace, index) in self.sat(formula, valuation)

    def _successor(self, position: int) -> int:
        return position + 1 if position + 1 < self.count else self.loop_start

    def _pre(self, targets: frozenset[int]) -> frozenset[int]:
        return frozenset(p for p in self.all_positions if self._successor(p) in targets)

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

    This is the alternating automaton's own acceptance game.  A vertex is
    a canonical position with one obligation; Eve picks a conjunct of
    its rewrite against that position's message, and Adam picks one
    obligation of the conjunct at the next canonical position.  The
    trace is accepted iff Eve wins from (0, initial).  state_limit counts
    the game vertices discovered, at most |positions| x |obligations|.
    """

    def moves(vertex: tuple[int, Obligation]) -> list[tuple[tuple[int, Obligation], ...]]:
        position, (valuation, state) = vertex
        after = canonical_position(trace, position + 1)
        rewrite = automaton.delta(valuation, state, position_message(trace, position))
        return [tuple((after, o) for o in conjunct) for conjunct in rewrite.conjuncts]

    return _eve_wins((0, automaton.initial), moves, lambda v: v[1][1] in automaton.accepting, state_limit)


def _eve_wins(start, moves, accepting, state_limit: int) -> bool:
    """Whether Eve wins the Buchi game from start.

    moves(vertex) lists Eve's options, each a tuple of targets of which
    Adam picks one: an empty option wins for Eve, and a vertex with no
    option loses for her.  Eve wins a play that visits accepting
    vertices infinitely often.  Her winning region is
    nu Z. mu Y. (accepting & CPre(Z)) | CPre(Y), where CPre(X) holds the
    vertices with an option inside X.  Each mu Y is a worklist attractor
    with one counter per option, so each of at most |vertices| rounds is
    linear in the size of the game.  ResourceLimitError is raised once
    more than state_limit vertices are discovered.
    """
    # Vertices are numbered as discovered, the start as 0, and the loop
    # walks the list as it grows.  options[v] lists v's options as lists
    # of target numbers; holders[t] has a (v, i) per time option i names t.
    number = {start: 0}
    vertices = [start]
    options: list[list[list[int]]] = []
    holders: list[list[tuple[int, int]]] = [[]]
    for v, vertex in enumerate(vertices):
        options.append([])
        for i, targets in enumerate(moves(vertex)):
            options[v].append([])
            for target in targets:
                t = number.get(target)
                if t is None:
                    if len(vertices) >= state_limit:
                        raise ResourceLimitError(len(vertices) + 1)
                    t = number[target] = len(vertices)
                    vertices.append(target)
                    holders.append([])
                options[v][i].append(t)
                holders[t].append((v, i))
    final = [accepting(vertex) for vertex in vertices]
    winning = [True] * len(vertices)
    while True:
        # Per option, its target entries not yet in the attractor.
        missing = [[len(option) for option in choices] for choices in options]
        work = [
            v
            for v, choices in enumerate(options)
            if any(not option or final[v] and all(winning[t] for t in option) for option in choices)
        ]
        attractor = [False] * len(vertices)
        while work:
            v = work.pop()
            if not attractor[v]:
                attractor[v] = True
                for u, i in holders[v]:
                    missing[u][i] -= 1
                    if not missing[u][i]:
                        work.append(u)
        # Attractors only shrink, so a lost start vertex stays lost.
        if not attractor[0] or attractor == winning:
            return attractor[0]
        winning = attractor


@dataclass(frozen=True)
class FuzzCase:
    """One corpus case; limit_states > 0 marks a search stopped at the state limit."""

    index: int
    formula: Formula
    trace: LassoTrace
    automaton_result: bool | None
    oracle_result: bool | None
    state_count: int
    limit_states: int = 0

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
        normal = to_nnf(formula)
        automaton = build_automaton(normal)
        automaton_result = oracle_result = None
        limit_states = 0
        try:
            automaton_result = lasso_accepts(automaton, trace, state_limit)
        except ResourceLimitError as err:
            limit_states = err.states
        else:
            oracle_result = oracle_eval(EMPTY_VALUATION, normal, trace, 0)
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
