"""Hypothesis strategies, and seeded corpus helpers, shared across the suite."""
import random

import hypothesis.strategies as st

from foltl.events import LassoTrace, Message, message_from_obj
from foltl.formula import (
    And,
    Const,
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
    Var,
    to_nnf,
)
from foltl.gen import PATHS, VALUES, GenBounds, gen_formula, gen_message


def _term(draw, scope):
    if scope and draw(st.booleans()):
        return Var(draw(st.sampled_from(sorted(scope))))
    return Const(draw(st.sampled_from(VALUES)))


@st.composite
def formulas(draw, depth=3, scope=frozenset(), quantifiers=2, sugar=True):
    """Well-formed closed formulas (closed when scope starts empty);
    without sugar, ! and ->, each one is its own normal form."""
    kinds = ["atom", "atom", "literal"]
    if depth > 0:
        kinds += ["and", "or", "next", "until", "release", "finally", "globally"]
        if sugar:
            kinds += ["not", "implies"]
        if quantifiers > 0:
            kinds += ["exists", "forall"]
    kind = draw(st.sampled_from(kinds))

    def sub(new_scope=scope, fewer_quantifiers=0):
        return formulas(
            depth=depth - 1,
            scope=new_scope,
            quantifiers=quantifiers - fewer_quantifiers,
            sugar=sugar,
        )

    if kind == "atom":
        left = _term(draw, scope)
        right = _term(draw, scope)
        return Eq(left, right) if draw(st.booleans()) else Neq(left, right)
    if kind == "literal":
        return TrueLit() if draw(st.booleans()) else FalseLit()
    if kind == "not":
        return Not(draw(sub()))
    if kind in ("and", "or", "implies", "until", "release"):
        ctor = {"and": And, "or": Or, "implies": Implies, "until": Until, "release": Release}[kind]
        return ctor(draw(sub()), draw(sub()))
    if kind in ("next", "finally", "globally"):
        ctor = {"next": Next, "finally": Finally, "globally": Globally}[kind]
        return ctor(draw(sub()))
    name = f"x{len(scope)}"
    path = draw(st.sampled_from(PATHS))
    body = draw(sub(new_scope=scope | {name}, fewer_quantifiers=1))
    return Exists(name, path, body) if kind == "exists" else Forall(name, path, body)


def nnf_formulas(depth=3, quantifiers=2):
    return formulas(depth=depth, quantifiers=quantifiers, sugar=False)


_leaf = st.sampled_from(VALUES)
_leaf_or_list = st.one_of(_leaf, st.lists(_leaf, min_size=1, max_size=2))


@st.composite
def messages(draw):
    body = {}
    if draw(st.booleans()):
        body["a"] = draw(_leaf_or_list)
    if draw(st.booleans()):
        body["b"] = draw(st.one_of(_leaf_or_list, st.fixed_dictionaries({"x": _leaf})))
    if draw(st.booleans()):
        body["c"] = {"d": draw(_leaf_or_list)}
    return message_from_obj({"m": body})


_rich_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6
)
_rich_name = st.text(alphabet="abcd", min_size=1, max_size=2)


@st.composite
def rich_messages(draw, max_children=3):
    """Messages with arbitrary text, for serialization round trips."""

    def value(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(_rich_text)
        names = draw(st.lists(_rich_name, min_size=1, max_size=max_children, unique=True))
        return {name: value(depth - 1) for name in names}

    return message_from_obj({draw(_rich_name): value(2)})


def traces(max_length=4):
    return st.lists(messages(), max_size=max_length).map(tuple)


def lassos(max_prefix=3, max_loop=3):
    return st.builds(
        lambda p, l: LassoTrace(prefix=tuple(p), loop=tuple(l)),
        st.lists(messages(), max_size=max_prefix),
        st.lists(messages(), min_size=1, max_size=max_loop),
    )


def gen_finite_trace(rng: random.Random) -> tuple[Message, ...]:
    """One to six messages, for monitoring corpora."""
    return tuple(gen_message(rng) for _ in range(rng.randint(1, 6)))


def gen_sugared_formula(rng: random.Random, bounds: GenBounds) -> Formula:
    """A formula guaranteed to use ! or ->, the connectives to_nnf rewrites."""
    while True:
        formula = gen_formula(rng, bounds)
        if to_nnf(formula) != formula:
            return formula
