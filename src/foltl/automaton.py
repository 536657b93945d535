"""Compilation of normal-form formulas into alternating automata.

States are the subformula closure plus two absorbing pits, TOP and
BOTTOM.  A transition maps an obligation (variable valuation, state)
and a message to a positive boolean combination of successor
obligations, built directly in disjunctive normal form: a set of
conjuncts with no canonical order, none a subset of another.  Atoms
that hold become the empty conjunct and atoms that fail the empty
disjunction, so the pits never appear inside a conjunct.  Quantifiers
expand over the value domain the current message yields for their
path, so the automaton stays finite-state while valuations live inside
obligations.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    Release,
    Term,
    Until,
    Var,
    format_formula,
    is_nnf,
    quantified_variables,
    subformulas,
)


class UndefinedVariableError(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value bound for variable {name!r}")


@dataclass(frozen=True)
class Valuation:
    """Immutable variable binding, canonically ordered by name."""

    bindings: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.bindings))
        names = [name for name, _ in ordered]
        if len(set(names)) != len(names):
            raise ValueError("valuation binds a variable twice")
        object.__setattr__(self, "bindings", ordered)

    def get(self, name: str) -> str | None:
        for bound, value in self.bindings:
            if bound == name:
                return value
        return None

    def extend(self, name: str, value: str) -> Valuation:
        if self.get(name) is not None:
            raise ValueError(f"variable {name!r} is already bound")
        return Valuation(self.bindings + ((name, value),))

    def value_of(self, term: Term) -> str:
        if isinstance(term, Var):
            value = self.get(term.name)
            if value is None:
                raise UndefinedVariableError(term.name)
            return value
        return term.value


EMPTY_VALUATION = Valuation()

Obligation = tuple[Valuation, int]
Conjunct = frozenset[Obligation]


@dataclass(frozen=True)
class TransitionDnf:
    """Order-free antichain of obligation conjuncts: no conjunct is a
    subset of another, so equality is structural.  Vacuous truth is one
    empty conjunct, unsatisfiability is no conjunct at all."""

    conjuncts: frozenset[Conjunct]

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


def accepting_formulas(formula: Formula) -> frozenset[Formula]:
    """States that may recur forever: every Release, nothing else.

    Atoms defer to the TOP pit (added by the builder), X and the
    quantifiers inherit from the body, binary connectives and Until
    union their operands, and Release additionally admits itself.
    """
    match formula:
        case Eq() | Neq():
            return frozenset()
        case Next(body) | Exists(_, _, body) | Forall(_, _, body):
            return accepting_formulas(body)
        case And(left, right) | Or(left, right) | Until(left, right):
            return accepting_formulas(left) | accepting_formulas(right)
        case Release(left, right):
            return accepting_formulas(left) | accepting_formulas(right) | {formula}
    raise ValueError("accepting set is defined on negation normal form only")


class _Pit:
    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return self.label


TOP = _Pit("TOP")
BOTTOM = _Pit("BOTTOM")


class Automaton:
    """Alternating automaton for one normal-form formula.

    The state table holds the subformula closure in first-visit order
    followed by the TOP and BOTTOM pits; state references are indices
    into it.  Construction is pure and instances are never mutated.
    """

    def __init__(self, source: Formula):
        if not is_nnf(source):
            raise ValueError("automaton construction requires negation normal form")
        closure = subformulas(source)
        self.source = source
        self.states: tuple[Formula | _Pit, ...] = (*closure, TOP, BOTTOM)
        self.top = len(closure)
        self.bottom = len(closure) + 1
        self._refs = {f: i for i, f in enumerate(closure)}
        self.accepting = frozenset(
            self._refs[f] for f in accepting_formulas(source)
        ) | {self.top}
        self.variables = quantified_variables(source)
        self.initial: Obligation = (EMPTY_VALUATION, self._refs[source])

    def ref_of(self, formula: Formula) -> int:
        return self._refs[formula]

    def state_label(self, ref: int) -> str:
        state = self.states[ref]
        return state.label if isinstance(state, _Pit) else format_formula(state)

    def delta(self, valuation: Valuation, state: int, message: Message) -> TransitionDnf:
        """One-step obligation rewrite against a message, normalized.

        Pure in all three arguments; callers that revisit the same
        (valuation, state) pair within one message should memoize.
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
                return [frozenset()] if p.value_of(left) == p.value_of(right) else []
            case Neq(left, right):
                return [frozenset()] if p.value_of(left) != p.value_of(right) else []
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
                    for conjunct in self._transition(p.extend(var, value), body, m)
                ]
            case Forall(var, path, body):
                return _conjoin(
                    self._transition(p.extend(var, value), body, m) for value in dom(m, path)
                )
        raise ValueError(f"no transition rule for {f!r}")

    def to_dot(self) -> str:
        def quote(text: str) -> str:
            return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph automaton {", "  rankdir=LR;", '  entry [shape=point, label=""];']
        for ref in range(len(self.states)):
            shape = "doublecircle" if ref in self.accepting else "circle"
            lines.append(f"  s{ref} [shape={shape}, label={quote(self.state_label(ref))}];")
        lines.append(f"  entry -> s{self.initial[1]};")
        lines.append("}")
        return "\n".join(lines)


def build_automaton(formula: Formula) -> Automaton:
    """Compile a normal-form formula; states number |closure| + 2."""
    return Automaton(formula)
