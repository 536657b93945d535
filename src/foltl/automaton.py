"""Compilation of formulas, as written, into alternating automata.

States are the closure of the formula's normal form, which
ensure_well_formed returns once scoping checks out, numbered here in
preorder; the accepting states are its G and Release members.  The
transition delta maps an obligation, a (variable valuation,
state) pair, and a message to a positive boolean combination of
successor obligations, a Dnf: a plain frozenset of conjuncts, each a
frozenset of obligations, none a subset of another.
Atoms that hold, and true, become the empty conjunct, and atoms that
fail, and false, the empty disjunction: constant rules, not successors.
F and G are kinds of their own, each with a rule of one operand call.
Quantifiers expand over the value domain the current message yields for
their path, so the automaton stays finite-state while valuations live
inside obligations; a reachable obligation's valuation binds its state's
free variables and none that the state quantifies again.

What a state does on a message is fixed when the automaton is built,
so each state is compiled once, when a transition first needs it, into
a rule that closes over its operands' rules, successor references,
quantified variables and paths; a transition hashes no formula.  Every
rule returns a Dnf, which delta reduces to an antichain.  Each
quantifier extracts its path's domain once per message.
"""
from __future__ import annotations

from typing import AbstractSet, Iterable

from .events import Message, dom
from .formula import (
    And,
    Eq,
    Exists,
    FalseLit,
    Finally,
    Forall,
    Formula,
    Globally,
    Neq,
    Next,
    Or,
    Release,
    Term,
    TrueLit,
    Until,
    Var,
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


TRUE_DNF: Dnf = frozenset({frozenset()})
FALSE_DNF: Dnf = frozenset()


def _normalize(conjuncts: AbstractSet[Conjunct]) -> Dnf:
    # Zero or one conjunct is an antichain already, and a frozenset is returned as is.
    if len(conjuncts) < 2:
        return frozenset(conjuncts)
    # Visiting by size first makes one subset pass produce the antichain.
    kept: list[Conjunct] = []
    for candidate in sorted(conjuncts, key=len):
        if not any(existing <= candidate for existing in kept):
            kept.append(candidate)
    return frozenset(kept)


def dnf_or(dnfs: Iterable[Dnf]) -> Dnf:
    return _normalize({c for d in dnfs for c in d})


def dnf_and(dnfs: Iterable[Dnf]) -> Dnf:
    """Conjunction of DNFs, as an antichain.

    Operands with a single conjunct fold into one base conjunct first;
    only the operands with several conjuncts distribute over it,
    normalizing after each.  An empty operand makes the whole FALSE.
    """
    base: set[Obligation] = set()
    several: list[Dnf] = []
    for dnf in dnfs:
        if len(dnf) == 1:
            base.update(*dnf)
        elif dnf:
            several.append(dnf)
        else:
            return FALSE_DNF
    acc = frozenset({frozenset(base)})
    for dnf in several:
        acc = _normalize({a | b for a in acc for b in dnf})
    return acc


def _always(p: Valuation, m: Message) -> Dnf:
    return TRUE_DNF


def _never(p: Valuation, m: Message) -> Dnf:
    return FALSE_DNF


def _number(f: Formula, refs: dict[Formula, int]) -> None:
    """Number f, then its operands in preorder, skipping any subtree equal to one numbered."""
    ref = len(refs)
    if refs.setdefault(f, ref) == ref:
        for field in f:
            if isinstance(field, Formula):
                _number(field, refs)


class Automaton:
    """Alternating automaton for a formula as written; for its negation, wrap it in Not.

    The state table is its normal form's closure in preorder, and
    state references are indices into it.  Construction is pure and the
    table never changes.  One cache never shows in what delta returns:
    each state's rule, kept from its first use.  A quantifier's rule
    keeps its own path's domain of the last message it read.
    """

    def __init__(self, source: Formula):
        self._refs: dict[Formula, int] = {}
        _number(ensure_well_formed(source), self._refs)
        self.states: tuple[Formula, ...] = tuple(self._refs)
        self.accepting = frozenset(ref for ref, f in enumerate(self.states) if type(f) in (Release, Globally))
        # The source's normal form is the closure's first member.
        self.initial: Obligation = (EMPTY_VALUATION, 0)
        self._rules: list = [None] * len(self.states)

    def delta(self, obligation: Obligation, message: Message) -> Dnf:
        """One-step rewrite of an obligation against a message, normalized.

        The obligation's valuation binds its state's free variables, as in
        every obligation reachable from the initial one: the source is
        well formed, so no quantifier rebinds a variable.  Pure provided
        no message is mutated once delta has seen it, as each quantifier
        extracts its path's domain once per message object.
        """
        valuation, state = obligation
        return _normalize((self._rules[state] or self._rule(state))(valuation, message))

    def _rule(self, ref: int):
        """The state's rule, compiled on first use over its operands' rules."""
        rule = self._rules[ref]
        if rule is None:
            rule = self._rules[ref] = self._compile(ref)
        return rule

    def _compile(self, ref: int):
        """A rule (valuation, message) -> Dnf; operand refs are hashed here only."""
        f = self.states[ref]
        # Exact-type dispatch: class patterns in a match cost half as much again.
        kind = type(f)
        if kind is TrueLit or kind is FalseLit:
            return _always if kind is TrueLit else _never
        if kind is Eq or kind is Neq:
            left, right = f
            same = kind is Eq
            if type(left) is Var or type(right) is Var:
                return lambda p, m: (
                    TRUE_DNF if (value_of(p, left) == value_of(p, right)) == same else FALSE_DNF
                )
            return _always if (left.value == right.value) == same else _never
        if kind is Exists or kind is Forall:
            var, path, body = f
            body_ref = self._refs[body]
            # The last message read and its domain, replaced as one
            # tuple so that threads never mix two messages' domains.
            last: tuple[Message | None, frozenset[str]] = (None, frozenset())

            def bodies(p: Valuation, m: Message) -> list[Dnf]:
                nonlocal last
                seen, values = last
                if seen is not m:
                    values = dom(m, path)
                    last = (m, values)
                # The body is needed, and so compiled, once a value binds.
                if not values:
                    return []
                body_rule = self._rules[body_ref] or self._rule(body_ref)
                return [body_rule(p | {(var, value)}, m) for value in values]

            if kind is Exists:
                return lambda p, m: frozenset().union(*bodies(p, m))
            return lambda p, m: dnf_and(bodies(p, m))
        if kind is Next:
            later = self._refs[f.body]
            return lambda p, m: frozenset({frozenset({(p, later)})})
        # Conjoining a single conjunct adds its obligation to each
        # conjunct; delta's normalization removes what that subsumes.
        if kind is Finally or kind is Globally:
            body = self._rule(self._refs[f.body])
            if kind is Finally:
                return lambda p, m: body(p, m) | {frozenset({(p, ref)})}
            return lambda p, m: frozenset([c | {(p, ref)} for c in body(p, m)])
        # The closure holds normal-form kinds only, so what is left is binary.
        first, second = (self._rule(self._refs[g]) for g in f)
        if kind is Or:
            return lambda p, m: first(p, m) | second(p, m)
        if kind is And:
            return lambda p, m: dnf_and((first(p, m), second(p, m)))
        if kind is Until:
            return lambda p, m: second(p, m) | {c | {(p, ref)} for c in first(p, m)}

        def release(p: Valuation, m: Message) -> Dnf:
            constraint = second(p, m)
            return dnf_and((first(p, m), constraint)) | {c | {(p, ref)} for c in constraint}

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
    """Compile a formula; states number |closure of its normal form|."""
    return Automaton(formula)
