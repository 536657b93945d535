"""Compilation of formulas, as written, into alternating automata.

States are the closure of the formula's normal form, which
ensure_well_formed returns once scoping checks out, numbered here in
preorder; the accepting states are its G and Release members.  A
message reaches the automaton only as its letter, its domains over the
automaton's distinct quantifier paths, and each quantifier expands over
its path's slot: so the automaton stays finite-state whatever the
domain, while valuations live inside obligations.  The transition delta
maps an obligation, a (variable valuation, state) pair, and a letter to
a positive boolean combination of successor obligations, a Dnf.  Atoms
that hold, and true, become the empty conjunct, and atoms that fail,
and false, the empty disjunction: constant rules, not successors.  F
and G are kinds of their own, each with a rule of one operand call.

What a state does on a letter is fixed when the automaton is built,
so the walk that numbers the states compiles each one there, once, into
a rule that closes over its operands' rules, successor references,
quantified variables and slots; a transition hashes no formula.  Every
rule returns a Dnf, which delta reduces to an antichain.  A rule stops at
an operand that settles it: true ends an Or, an exists or an Until, false
an And, a forall or a Release.  What it skips is absorbed, and the minimal
DNF of a monotone function is unique, so delta's antichain is the same.
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
    Path,
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
Letter = tuple[frozenset[str], ...]
Conjunct = frozenset[Obligation]
# An order-free antichain of conjuncts: no conjunct is a subset of
# another, so equality is structural.  Vacuous truth is one empty
# conjunct, unsatisfiability is no conjunct at all.
Dnf = frozenset[Conjunct]


EMPTY: Conjunct = frozenset()
TRUE_DNF: Dnf = frozenset({EMPTY})
FALSE_DNF: Dnf = frozenset()


def _normalize(conjuncts: AbstractSet[Conjunct]) -> Dnf:
    # Zero or one conjunct is an antichain already, and a frozenset is returned as is.
    if len(conjuncts) < 2:
        return frozenset(conjuncts)
    # Visiting by size first makes one subset pass produce the antichain;
    # conjuncts are distinct, so only a smaller one can subsume a candidate.
    kept: list[Conjunct] = []
    smaller = size = 0
    for candidate in sorted(conjuncts, key=len):
        if len(candidate) > size:
            smaller, size = len(kept), len(candidate)
        if not any(existing <= candidate for existing in kept[:smaller]):
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


def _always(p: Valuation, a: Letter) -> Dnf:
    return TRUE_DNF


def _never(p: Valuation, a: Letter) -> Dnf:
    return FALSE_DNF


def _build(f: Formula, refs: dict[Formula, int], slots: dict[Path, int], rules: list, accepting: set[int]) -> int:
    """Number f, then its operands in preorder, skipping any subtree equal to one numbered,
    slot new paths, and compile f's rule over its operands' rules; return f's ref."""
    ref = refs.setdefault(f, len(refs))
    if ref < len(rules):
        return ref
    rules.append(None)
    # Exact-type dispatch: class patterns in a match cost half as much again.
    kind = type(f)
    if kind is Globally or kind is Release:
        accepting.add(ref)
    if kind is TrueLit or kind is FalseLit:
        rule = _always if kind is TrueLit else _never
    elif kind is Eq or kind is Neq:
        left, right = f
        same = kind is Eq
        if type(left) is Var or type(right) is Var:
            rule = lambda p, a: TRUE_DNF if (value_of(p, left) == value_of(p, right)) == same else FALSE_DNF
        else:
            rule = _always if (left.value == right.value) == same else _never
    elif kind is Exists or kind is Forall:
        var, path, operand = f
        slot = slots.setdefault(path, len(slots))
        body = rules[_build(operand, refs, slots, rules, accepting)]
        if kind is Exists:
            def rule(p: Valuation, a: Letter) -> Dnf:
                # Pending bodies are joined once, at the end: a union per value would copy them all again.
                bodies = []
                for value in a[slot]:
                    found = body(p | {(var, value)}, a)
                    if EMPTY in found:
                        return found
                    bodies.append(found)
                return FALSE_DNF.union(*bodies)
        else:
            # forall stops, in dnf_and, at the first value whose body fails.
            rule = lambda p, a: dnf_and(body(p | {(var, value)}, a) for value in a[slot])
    elif kind is Next:
        body = _build(f.body, refs, slots, rules, accepting)
        rule = lambda p, a: frozenset({frozenset({(p, body)})})
    # Conjoining a single conjunct adds its obligation to each
    # conjunct; delta's normalization removes what that subsumes.
    elif kind is Finally or kind is Globally:
        body = rules[_build(f.body, refs, slots, rules, accepting)]
        if kind is Finally:
            rule = lambda p, a: body(p, a) | {frozenset({(p, ref)})}
        else:
            rule = lambda p, a: frozenset([c | {(p, ref)} for c in body(p, a)])
    else:
        # The closure holds normal-form kinds only, so what is left is binary.
        left = rules[_build(f.left, refs, slots, rules, accepting)]
        right = rules[_build(f.right, refs, slots, rules, accepting)]
        if kind is Or:
            rule = lambda p, a: x if EMPTY in (x := left(p, a)) else x | right(p, a)
        elif kind is And:
            rule = lambda p, a: (x := left(p, a)) and dnf_and((x, right(p, a)))
        elif kind is Until:
            rule = lambda p, a: x if EMPTY in (x := right(p, a)) else x | {c | {(p, ref)} for c in left(p, a)}
        else:
            def rule(p: Valuation, a: Letter) -> Dnf:
                # An empty constraint is FALSE, and returned as is.
                constraint = right(p, a)
                return constraint and dnf_and((left(p, a), constraint)) | {c | {(p, ref)} for c in constraint}
    rules[ref] = rule
    return ref


class Automaton:
    """Alternating automaton for a formula as written; for its negation, wrap it in Not.

    The state table is its normal form's closure in preorder, and
    state references are indices into it.  Construction is pure, and
    compiles every state's rule; neither table changes after.
    """

    def __init__(self, source: Formula):
        refs: dict[Formula, int] = {}
        self._slots: dict[Path, int] = {}
        self._rules: list = []
        accepting: set[int] = set()
        _build(ensure_well_formed(source), refs, self._slots, self._rules, accepting)
        self.states: tuple[Formula, ...] = tuple(refs)
        self.accepting = frozenset(accepting)
        # The source's normal form is the closure's first member.
        self.initial: Obligation = (EMPTY_VALUATION, 0)

    def letter(self, message: Message) -> Letter:
        """The message's domain over each quantifier path, in slot order: all that delta reads of it."""
        return tuple([dom(message, path) for path in self._slots])

    def delta(self, obligation: Obligation, letter: Letter) -> Dnf:
        """One-step rewrite of an obligation against a message's letter, normalized.

        The obligation's valuation binds its state's free variables, as in
        every obligation reachable from the initial one: the source is
        well formed, so no quantifier rebinds a variable.
        """
        valuation, state = obligation
        return _normalize(self._rules[state](valuation, letter))

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;", '  entry [shape=point, label=""];']
        for ref, state in enumerate(self.states):
            shape = "doublecircle" if ref in self.accepting else "circle"
            lines.append(f"  s{ref} [shape={shape}, label={_quote(format_formula(state))}];")
        lines.append(f"  entry -> s{self.initial[1]};")
        lines.append("}")
        return "\n".join(lines)


build_automaton = Automaton
