"""Exact acceptance on ultimately periodic traces, two independent ways.

oracle_eval decides satisfaction by brute force straight from the
temporal unfolding laws: per subformula and valuation it computes the
set of canonical positions where the formula holds, taking Until as a
least and Release as a greatest fixpoint over that finite position
space.  It never touches the automaton machinery.

lasso_accepts decides acceptance of the compiled automaton through the
breakpoint (owing-set) construction for alternating automata with a
Buchi condition, searching the product of canonical positions and
breakpoint states for a reachable cycle through an accepting edge.  One
depth-first search finds the strongly connected components while it
explores the product and stops at the first accepting cycle.

fuzz_compare drives both over a seeded random corpus and reports every
disagreement; agreement across the corpus is the package's main
self-check.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .automaton import (
    EMPTY_VALUATION,
    Automaton,
    Conjunct,
    Obligation,
    Valuation,
    build_automaton,
)
from .events import LassoTrace, canonical_position, dom, lasso_to_json, position_message
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
    format_formula,
    node_count,
    to_nnf,
)
from .gen import GenBounds, case_rng, gen_formula, gen_lasso

DEFAULT_STATE_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    def __init__(self, states: int):
        self.states = states
        super().__init__(f"product search exceeded {states} states")


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
        return self.canonical(index) in self.sat(formula, valuation)

    def canonical(self, index: int) -> int:
        return canonical_position(self.trace, index)

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

    def _lfp(self, unfold) -> frozenset[int]:
        current: frozenset[int] = frozenset()
        while True:
            self.iterations += 1
            updated = unfold(current)
            if updated == current:
                return current
            current = updated

    def _gfp(self, unfold) -> frozenset[int]:
        current = self.all_positions
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
                holds = p.value_of(left) == p.value_of(right)
                return self.all_positions if holds else frozenset()
            case Neq(left, right):
                holds = p.value_of(left) != p.value_of(right)
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
                return self._lfp(lambda s: base | self._pre(s))
            case Globally(body):
                base = self.sat(body, p)
                return self._gfp(lambda s: base & self._pre(s))
            case Until(left, right):
                hold = self.sat(left, p)
                goal = self.sat(right, p)
                return self._lfp(lambda s: goal | (hold & self._pre(s)))
            case Release(left, right):
                release = self.sat(left, p)
                constraint = self.sat(right, p)
                return self._gfp(lambda s: (release & constraint) | (constraint & self._pre(s)))
            case Exists(var, path, body):
                return frozenset(
                    pos
                    for pos in self.all_positions
                    if any(
                        pos in self.sat(body, p.extend(var, value))
                        for value in sorted(dom(self.messages[pos], path))
                    )
                )
            case Forall(var, path, body):
                return frozenset(
                    pos
                    for pos in self.all_positions
                    if all(
                        pos in self.sat(body, p.extend(var, value))
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

    Nondeterminizes on the fly with the owing-set (breakpoint) record:
    a product node is (canonical position, obligations, owing subset),
    a successor picks one conjunct of each obligation's rewrite and
    unions the picks, and an edge is accepting when the owing set
    empties and restarts.  The trace is accepted iff some reachable
    cycle contains an accepting edge.  The product is explored on the
    fly and the search stops at the first such cycle, so state_limit
    counts the product nodes discovered before the verdict is known: an
    accepted lasso may be decided before the limit is reached, and
    ResourceLimitError is raised once more than state_limit nodes have
    been discovered.
    """
    count = len(trace.prefix) + len(trace.loop)
    messages = [position_message(trace, i) for i in range(count)]

    def owing(obligations: frozenset[Obligation]) -> frozenset[Obligation]:
        return frozenset(o for o in obligations if o[1] not in automaton.accepting)

    delta_cache: dict[tuple[int, Obligation], tuple[Conjunct, ...]] = {}

    def rewrites(position: int, obligation: Obligation) -> tuple[Conjunct, ...]:
        key = (position, obligation)
        hit = delta_cache.get(key)
        if hit is None:
            valuation, state = obligation
            hit = automaton.delta(valuation, state, messages[position]).conjuncts
            delta_cache[key] = hit
        return hit

    def successors(node):
        position, obligations, owed = node
        # Accumulate the choice product with early dedup so identical
        # partial unions collapse instead of multiplying out.
        partial: set[tuple[frozenset[Obligation], frozenset[Obligation]]] = {
            (frozenset(), frozenset())
        }
        for obligation in obligations:
            options = rewrites(position, obligation)
            if not options:
                return []
            tracked = obligation in owed
            partial = {
                (union | pick, (carried | owing(pick)) if tracked else carried)
                for union, carried in partial
                for pick in options
            }
        next_position = canonical_position(trace, position + 1)
        out = set()
        for union, carried in partial:
            if carried:
                out.add(((next_position, union, carried), False))
            else:
                out.add(((next_position, union, owing(union)), True))
        return out

    initial_set = frozenset({automaton.initial})
    return _accepting_cycle((0, initial_set, owing(initial_set)), successors, state_limit)


def _accepting_cycle(start, successors, state_limit: int) -> bool:
    """Whether some cycle reachable from start contains an accepting edge.

    successors(node) yields (target, accepting) pairs.  This is
    Couvreur's on-the-fly SCC search for edge-labelled Buchi acceptance
    with a single acceptance set: one iterative DFS finds the strongly
    connected components as it goes and stops at the first edge that
    closes a cycle through an accepting edge.  state_limit bounds the
    number of distinct nodes discovered before the verdict is known.
    """
    # DFS number of every node discovered; 0 once its SCC is closed.
    number = {start: 1}
    # Nodes of the SCCs still open, in DFS order.
    active = [start]
    # Roots of the open SCCs: (DFS number, whether the entering edge is
    # accepting).  No open SCC holds an accepting edge of its own yet,
    # or the search would already have stopped.
    roots = [(1, False)]
    stack = [(start, iter(successors(start)))]
    while stack:
        node, pending = stack[-1]
        for target, accepting in pending:
            seen = number.get(target)
            if seen is None:
                number[target] = len(number) + 1
                if len(number) > state_limit:
                    raise ResourceLimitError(len(number))
                active.append(target)
                roots.append((number[target], accepting))
                stack.append((target, iter(successors(target))))
                break
            if seen:
                # The edge closes a cycle: every open SCC rooted above
                # target merges into target's SCC, their entering edges
                # with it.
                while roots[-1][0] > seen:
                    accepting |= roots.pop()[1]
                if accepting:
                    return True
        else:
            stack.pop()
            if roots[-1][0] == number[node]:
                roots.pop()
                while True:
                    member = active.pop()
                    number[member] = 0
                    # node is the very object pushed on active, so
                    # identity ends the SCC without comparing tuples.
                    if member is node:
                        break
    return False


@dataclass(frozen=True)
class FuzzCase:
    """One corpus case; limit_states > 0 marks a search stopped at the state limit."""

    index: int
    formula: Formula
    trace: LassoTrace
    automaton_result: bool | None
    oracle_result: bool | None
    state_count: int
    node_count: int
    limit_states: int = 0

    @property
    def agree(self) -> bool:
        return not self.limit_states and self.automaton_result == self.oracle_result


@dataclass(frozen=True)
class FuzzReport:
    seed: int
    bounds: GenBounds
    cases: tuple[FuzzCase, ...]
    total_seconds: float

    @property
    def agreements(self) -> int:
        return sum(1 for case in self.cases if case.agree)

    @property
    def failures(self) -> tuple[FuzzCase, ...]:
        return tuple(case for case in self.cases if not case.agree and not case.limit_states)

    @property
    def limits(self) -> tuple[FuzzCase, ...]:
        return tuple(case for case in self.cases if case.limit_states)

    def report_lines(self) -> list[str]:
        """Deterministic report: FAIL and LIMIT lines in case order, then AGREE over decided cases."""
        lines = []
        for case in self.cases:
            if case.agree:
                continue
            text = f"{case.index} {format_formula(case.formula)} {lasso_to_json(case.trace)}"
            if case.limit_states:
                lines.append(f"LIMIT {text} states={case.limit_states}")
            else:
                lines.append(
                    f"FAIL {text} automaton={str(case.automaton_result).lower()}"
                    f" oracle={str(case.oracle_result).lower()}"
                )
        lines.append(f"AGREE {self.agreements}/{len(self.cases) - len(self.limits)}")
        return lines

    def stats_lines(self) -> list[str]:
        states = [case.state_count for case in self.cases]
        if not states:
            return [f"TIME total={self.total_seconds:.3f}s"]
        mean = sum(states) / len(states)
        return [
            f"STATES min={min(states)} max={max(states)} mean={mean:.2f}",
            f"TIME total={self.total_seconds:.3f}s",
        ]


def fuzz_compare(
    seed: int,
    count: int,
    bounds: GenBounds = GenBounds(),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> FuzzReport:
    """Cross-validate the automaton against the oracle on a seeded corpus."""
    started = time.perf_counter()
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
                node_count=node_count(normal),
                limit_states=limit_states,
            )
        )
    return FuzzReport(
        seed=seed,
        bounds=bounds,
        cases=tuple(cases),
        total_seconds=time.perf_counter() - started,
    )
