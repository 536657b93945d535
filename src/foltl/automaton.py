"""Compilation of normal-form formulas into alternating automata.

States are the subformula closure plus two absorbing pits, TOP and
BOTTOM; the accepting states are the Release members of the closure
plus TOP.  Construction checks scoping, then walks the formula once,
through subformulas, which also numbers the states.  A transition maps
an obligation (variable valuation, state) and a message to a positive
boolean combination of successor obligations, built directly in
disjunctive normal form: a set of conjuncts with no canonical order,
none a subset of another.  Atoms that hold become the empty conjunct
and atoms that fail the empty disjunction, so the pits never appear
inside a conjunct.  Quantifiers expand over the value domain the
current message yields for their path, so the automaton stays
finite-state while valuations live inside obligations; a reachable
obligation's valuation binds its state's free variables and none that
the state quantifies again.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Collection, Iterable

from .events import Message, dom
from .formula import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Neq,
    Next,
    Or,
    Record,
    Release,
    Term,
    Until,
    Var,
    _quote,
    ensure_well_formed,
    format_formula,
    subformulas,
)


# A valuation binds each variable in scope to a value, as a set of
# (name, value) pairs.  Scoping is checked when a formula is built, so
# binding a value is p | {(var, value)} and no name is ever bound twice.
Valuation = frozenset[tuple[str, str]]
EMPTY_VALUATION: Valuation = frozenset()


def value_of(valuation: Valuation, term: Term) -> str:
    """A constant's value, or the one the valuation binds a variable to; KeyError if none."""
    if isinstance(term, Var):
        for name, value in valuation:
            if name == term.name:
                return value
        raise KeyError(term.name)
    return term.value


Obligation = tuple[Valuation, int]
Conjunct = frozenset[Obligation]


class TransitionDnf(Record, namedtuple("TransitionDnf", "conjuncts")):  # conjuncts: frozenset[Conjunct]
    """Order-free antichain of obligation conjuncts: no conjunct is a
    subset of another, so equality is structural.  Vacuous truth is one
    empty conjunct, unsatisfiability is no conjunct at all."""

    __slots__ = ()

    def is_true(self) -> bool:
        return frozenset() in self.conjuncts

    def is_false(self) -> bool:
        return not self.conjuncts


def _normalize(conjuncts: Iterable[Conjunct]) -> list[Conjunct]:
    # Visiting by size first makes one subset pass produce the antichain.
    kept: list[Conjunct] = []
    for candidate in sorted(set(conjuncts), key=len):
        if not any(existing <= candidate for existing in kept):
            kept.append(candidate)
    return kept


def _conjoin(operands: Iterable[Collection[Conjunct]]) -> list[Conjunct]:
    """Conjunction of disjunctions of conjuncts, as an antichain.

    Operands with a single conjunct fold into one base conjunct first;
    only the operands with several conjuncts distribute over it,
    normalizing after each.  An empty operand makes the whole FALSE.
    """
    base: set[Obligation] = set()
    several: list[Collection[Conjunct]] = []
    for conjuncts in operands:
        if len(conjuncts) == 1:
            base.update(*conjuncts)
        elif conjuncts:
            several.append(conjuncts)
        else:
            return []
    acc = [frozenset(base)]
    for conjuncts in several:
        acc = _normalize(a | b for a in acc for b in conjuncts)
    return acc


TRUE_DNF = TransitionDnf(frozenset({frozenset()}))
FALSE_DNF = TransitionDnf(frozenset())


def dnf_or(dnfs: Iterable[TransitionDnf]) -> TransitionDnf:
    return TransitionDnf(frozenset(_normalize(c for d in dnfs for c in d.conjuncts)))


def dnf_and(dnfs: Iterable[TransitionDnf]) -> TransitionDnf:
    return TransitionDnf(frozenset(_conjoin(d.conjuncts for d in dnfs)))


# The pits are the only states that are not formulas, so a string will do.
TOP = "TOP"
BOTTOM = "BOTTOM"


class Automaton:
    """Alternating automaton for one normal-form formula.

    The state table holds the subformula closure in first-visit order
    followed by the TOP and BOTTOM pits; state references are indices
    into it.  Construction is pure and instances are never mutated.
    """

    def __init__(self, source: Formula):
        ensure_well_formed(source)
        self._refs = subformulas(source)
        self.source = source
        self.states: tuple[Formula | str, ...] = (*self._refs, TOP, BOTTOM)
        self.top = len(self._refs)
        self.bottom = len(self._refs) + 1
        self.accepting = frozenset(
            ref for f, ref in self._refs.items() if isinstance(f, Release)
        ) | {self.top}
        # The source is the closure's first member.
        self.initial: Obligation = (EMPTY_VALUATION, 0)

    def state_label(self, ref: int) -> str:
        state = self.states[ref]
        return state if isinstance(state, str) else format_formula(state)

    def delta(self, valuation: Valuation, state: int, message: Message) -> TransitionDnf:
        """One-step obligation rewrite against a message, normalized.

        The valuation binds the state's free variables, as it does in
        every obligation reachable from the initial one: the source is
        well formed, so no quantifier rebinds a variable.  Pure in all
        three arguments; callers that revisit the same (valuation,
        state) pair within one message should memoize.
        """
        if state == self.top:
            return TRUE_DNF
        if state == self.bottom:
            return FALSE_DNF
        target = self.states[state]
        assert isinstance(target, Formula)
        return TransitionDnf(frozenset(_normalize(self._transition(valuation, target, message))))

    def _transition(self, p: Valuation, f: Formula, m: Message) -> list[Conjunct]:
        match f:
            case Eq(left, right):
                return [frozenset()] if value_of(p, left) == value_of(p, right) else []
            case Neq(left, right):
                return [frozenset()] if value_of(p, left) != value_of(p, right) else []
            case Or(left, right):
                return self._transition(p, left, m) + self._transition(p, right, m)
            case And(left, right):
                return _conjoin((self._transition(p, left, m), self._transition(p, right, m)))
            case Next(body):
                return [frozenset({(p, self._refs[body])})]
            case Until(left, right):
                hold = _conjoin((self._transition(p, left, m), [frozenset({(p, self._refs[f])})]))
                return self._transition(p, right, m) + hold
            case Release(left, right):
                constraint = self._transition(p, right, m)
                settle = _conjoin((self._transition(p, left, m), constraint))
                hold = _conjoin((constraint, [frozenset({(p, self._refs[f])})]))
                return settle + hold
            case Exists(var, path, body):
                return [
                    conjunct
                    for value in dom(m, path)
                    for conjunct in self._transition(p | {(var, value)}, body, m)
                ]
            case Forall(var, path, body):
                return _conjoin(
                    self._transition(p | {(var, value)}, body, m) for value in dom(m, path)
                )
        raise ValueError(f"no transition rule for {f!r}")

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;", '  entry [shape=point, label=""];']
        for ref in range(len(self.states)):
            shape = "doublecircle" if ref in self.accepting else "circle"
            lines.append(f"  s{ref} [shape={shape}, label={_quote(self.state_label(ref))}];")
        lines.append(f"  entry -> s{self.initial[1]};")
        lines.append("}")
        return "\n".join(lines)


def build_automaton(formula: Formula) -> Automaton:
    """Compile a normal-form formula; states number |closure| + 2."""
    return Automaton(formula)
