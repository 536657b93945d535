"""Compilation of normal-form formulas into alternating automata.

States are exactly the subformula closure, and the accepting states
are its Release members.  One walk of the formula, ensure_well_formed,
checks scoping and numbers the states.  A transition maps an obligation
(variable valuation, state) and a message to a positive boolean
combination of successor obligations, built directly in disjunctive
normal form: a plain frozenset of conjuncts, each a frozenset of
obligations, none a subset of another.  Atoms that hold become the
empty conjunct and atoms that fail the empty disjunction, so true and
false are transition formulas, never states.  Quantifiers expand over
the value domain the current message yields for their path, so the
automaton stays finite-state while valuations live inside obligations;
a reachable obligation's valuation binds its state's free variables
and none that the state quantifies again.

What a state does on a message is fixed when the automaton is built,
so each state is compiled once, when a transition first needs it, into
a rule that closes over its operands' rules, successor references,
quantified variables and paths; a transition hashes no formula.  Each
path's domain is extracted once per message.
"""
from __future__ import annotations

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
    Path,
    Release,
    Term,
    Until,
    Var,
    _DUAL,
    _quote,
    ensure_well_formed,
    format_formula,
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
# An order-free antichain of conjuncts: no conjunct is a subset of
# another, so equality is structural.  Vacuous truth is one empty
# conjunct, unsatisfiability is no conjunct at all.
Dnf = frozenset[Conjunct]


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


TRUE_DNF: Dnf = frozenset({frozenset()})
FALSE_DNF: Dnf = frozenset()


def dnf_or(dnfs: Iterable[Dnf]) -> Dnf:
    return frozenset(_normalize(c for d in dnfs for c in d))


def dnf_and(dnfs: Iterable[Dnf]) -> Dnf:
    return frozenset(_conjoin(dnfs))


# Rule results are shared, so no rule may mutate the list it gets.
_HOLDS: list[Conjunct] = [frozenset()]
_FAILS: list[Conjunct] = []


def _always(p: Valuation, m: Message) -> list[Conjunct]:
    return _HOLDS


def _never(p: Valuation, m: Message) -> list[Conjunct]:
    return _FAILS


class Automaton:
    """Alternating automaton for one normal-form formula.

    The state table is the subformula closure in first-visit order, and
    state references are indices into it.  Construction is pure and the
    table never changes.  Two caches never show in what delta returns:
    each state's rule, kept from its first use, and the domains of the
    last message, kept in one tuple with it, so that threads never mix
    two messages' domains.
    """

    def __init__(self, source: Formula):
        self._refs = ensure_well_formed(source)
        self.states: tuple[Formula, ...] = tuple(self._refs)
        # Checked after the walk, so that a scope error comes first.
        if any(type(f) not in _DUAL for f in self.states):
            raise ValueError("subformula closure is defined on negation normal form only")
        self.accepting = frozenset(ref for ref, f in enumerate(self.states) if type(f) is Release)
        # The source is the closure's first member.
        self.initial: Obligation = (EMPTY_VALUATION, 0)
        self._rules: list = [None] * len(self.states)
        self._last: tuple[Message | None, dict[Path, frozenset[str]]] = (None, {})

    def delta(self, valuation: Valuation, state: int, message: Message) -> Dnf:
        """One-step obligation rewrite against a message, normalized.

        The valuation binds the state's free variables, as it does in
        every obligation reachable from the initial one: the source is
        well formed, so no quantifier rebinds a variable.  Pure provided
        no message is mutated once delta has seen it, as each path's
        domain is extracted once per message object.
        """
        return frozenset(_normalize((self._rules[state] or self._rule(state))(valuation, message)))

    def _domain(self, message: Message, path: Path) -> frozenset[str]:
        last, domains = self._last
        if last is not message:
            domains = {}
            self._last = (message, domains)
        domain = domains.get(path)
        if domain is None:
            domain = domains[path] = dom(message, path)
        return domain

    def _rule(self, ref: int):
        """The state's rule, compiled on first use over its operands' rules."""
        rule = self._rules[ref]
        if rule is None:
            rule = self._rules[ref] = self._compile(ref)
        return rule

    def _compile(self, ref: int):
        """A rule (valuation, message) -> conjuncts; operand refs are hashed here only."""
        f = self.states[ref]
        # Exact-type dispatch: class patterns in a match cost half as much again.
        kind = type(f)
        if kind is Eq or kind is Neq:
            left, right = f
            same = kind is Eq
            if type(left) is Var or type(right) is Var:
                return lambda p, m: (
                    _HOLDS if (value_of(p, left) == value_of(p, right)) == same else _FAILS
                )
            return _always if (left.value == right.value) == same else _never
        if kind is Exists or kind is Forall:
            var, path, body = f
            body_ref = self._refs[body]

            def bodies(p: Valuation, m: Message) -> list[list[Conjunct]]:
                # The body is needed, and so compiled, once a value binds.
                values = self._domain(m, path)
                if not values:
                    return []
                body_rule = self._rules[body_ref] or self._rule(body_ref)
                return [body_rule(p | {(var, value)}, m) for value in values]

            if kind is Exists:
                return lambda p, m: [c for conjuncts in bodies(p, m) for c in conjuncts]
            return lambda p, m: _conjoin(bodies(p, m))
        if kind is Next:
            later = self._refs[f.body]
            return lambda p, m: [frozenset({(p, later)})]
        # The closure holds normal-form kinds only, so what is left is binary.
        first, second = (self._rule(self._refs[g]) for g in f)
        if kind is Or:
            return lambda p, m: first(p, m) + second(p, m)
        if kind is And:
            return lambda p, m: _conjoin((first(p, m), second(p, m)))
        # Conjoining a single conjunct adds its obligation to each
        # conjunct; delta's normalization removes what that subsumes.
        if kind is Until:
            return lambda p, m: second(p, m) + [c | {(p, ref)} for c in first(p, m)]

        def release(p: Valuation, m: Message) -> list[Conjunct]:
            constraint = second(p, m)
            return _conjoin((first(p, m), constraint)) + [c | {(p, ref)} for c in constraint]

        return release

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;", '  entry [shape=point, label=""];']
        for ref, state in enumerate(self.states):
            shape = "doublecircle" if ref in self.accepting else "circle"
            lines.append(f"  s{ref} [shape={shape}, label={_quote(format_formula(state))}];")
        lines.append(f"  entry -> s{self.initial[1]};")
        lines.append("}")
        return "\n".join(lines)


def build_automaton(formula: Formula) -> Automaton:
    """Compile a normal-form formula; states number |closure|."""
    return Automaton(formula)
