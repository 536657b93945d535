"""Seeded random corpus of formulas and traces for cross-validation.

Everything here is driven by explicitly derived random.Random instances
so a given seed reproduces the corpus bit for bit.  Generated messages
share one root name and a small fixed path pool with the formula
generator, keeping quantifier domains nontrivial often enough to be
interesting while still exercising the empty-domain conventions.
"""
from __future__ import annotations

import random
from collections import namedtuple

from .events import LassoTrace, Message, message_from_obj
from .formula import (
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
    Path,
    Record,
    Release,
    Term,
    TrueLit,
    Until,
    Var,
    is_nnf,
)

VALUES = ("a", "b", "c", "d", "e")
PATHS = (Path(("m", "a")), Path(("m", "b")), Path(("m", "c", "d")))


_KNOBS = {
    "max_depth": 3,  # temporal operators per branch
    "max_quantifiers": 2,  # per formula
    "alphabet": 3,  # distinct leaf values
    "max_prefix": 4,
    "max_loop": 3,
    "max_trace": 6,  # finite traces for monitoring corpora
    "size_budget": 12,  # soft cap on formula nodes
}


class GenBounds(Record, namedtuple("GenBounds", _KNOBS, defaults=_KNOBS.values())):
    """Knobs for corpus size and shape: each key of _KNOBS is an int field, defaulting to its value."""

    __slots__ = ()


def case_rng(seed: int, tag: str, index: int) -> random.Random:
    # String seeding hashes through sha512, stable across processes.
    return random.Random(f"{seed}:{tag}:{index}")


def gen_message(rng: random.Random, bounds: GenBounds) -> Message:
    values = VALUES[: bounds.alphabet]

    def leaf_or_list(limit: int):
        picks = [rng.choice(values) for _ in range(rng.randint(1, limit))]
        return picks[0] if len(picks) == 1 else picks

    body: dict[str, object] = {}
    if rng.random() < 0.85:
        body["a"] = leaf_or_list(2)
    if rng.random() < 0.6:
        # Occasionally a subtree, so /m/b matches a non-text element.
        body["b"] = {"x": rng.choice(values)} if rng.random() < 0.15 else leaf_or_list(2)
    if rng.random() < 0.45:
        body["c"] = {"d": leaf_or_list(2)}
    return message_from_obj({"m": body})


def gen_finite_trace(rng: random.Random, bounds: GenBounds) -> tuple[Message, ...]:
    length = rng.randint(1, bounds.max_trace)
    return tuple(gen_message(rng, bounds) for _ in range(length))


def gen_lasso(rng: random.Random, bounds: GenBounds) -> LassoTrace:
    prefix = tuple(gen_message(rng, bounds) for _ in range(rng.randint(0, bounds.max_prefix)))
    loop = tuple(gen_message(rng, bounds) for _ in range(rng.randint(1, bounds.max_loop)))
    return LassoTrace(prefix=prefix, loop=loop)


def gen_formula(rng: random.Random, bounds: GenBounds) -> Formula:
    budget = [bounds.size_budget]
    quantifiers = [bounds.max_quantifiers]
    return _gen(rng, bounds, bounds.max_depth, (), budget, quantifiers)


def gen_sugared_formula(rng: random.Random, bounds: GenBounds) -> Formula:
    """A formula guaranteed to use at least one lowered connective."""
    while True:
        formula = gen_formula(rng, bounds)
        if not is_nnf(formula):
            return formula


def _gen_term(rng: random.Random, scope: tuple[str, ...], values: tuple[str, ...]) -> Term:
    if scope and rng.random() < 0.6:
        return Var(rng.choice(scope))
    return Const(rng.choice(values))


def _gen(
    rng: random.Random,
    bounds: GenBounds,
    depth: int,
    scope: tuple[str, ...],
    budget: list[int],
    quantifiers: list[int],
) -> Formula:
    budget[0] -= 1
    kinds = ["atom", "atom", "atom", "literal"]
    if budget[0] > 0:
        kinds += ["not", "and", "or", "implies"]
        if depth > 0:
            kinds += ["next", "finally", "globally", "until", "until", "release", "release"]
        if quantifiers[0] > 0:
            kinds += ["exists", "exists", "forall", "forall"]
    kind = rng.choice(kinds)
    values = VALUES[: bounds.alphabet]

    if kind == "atom":
        left = _gen_term(rng, scope, values)
        right = _gen_term(rng, scope, values)
        return Eq(left, right) if rng.random() < 0.5 else Neq(left, right)
    if kind == "literal":
        return TrueLit() if rng.random() < 0.5 else FalseLit()
    if kind == "not":
        return Not(_gen(rng, bounds, depth, scope, budget, quantifiers))
    if kind in ("and", "or", "implies"):
        left = _gen(rng, bounds, depth, scope, budget, quantifiers)
        right = _gen(rng, bounds, depth, scope, budget, quantifiers)
        ctor = {"and": And, "or": Or, "implies": Implies}[kind]
        return ctor(left, right)
    if kind in ("next", "finally", "globally"):
        body = _gen(rng, bounds, depth - 1, scope, budget, quantifiers)
        ctor = {"next": Next, "finally": Finally, "globally": Globally}[kind]
        return ctor(body)
    if kind in ("until", "release"):
        left = _gen(rng, bounds, depth - 1, scope, budget, quantifiers)
        right = _gen(rng, bounds, depth - 1, scope, budget, quantifiers)
        return Until(left, right) if kind == "until" else Release(left, right)
    # exists / forall: nesting depth names the variable, so rebinding
    # can only happen between sibling branches, never on one branch.
    name = f"x{len(scope)}"
    path = rng.choice(PATHS)
    quantifiers[0] -= 1
    body = _gen(rng, bounds, depth, scope + (name,), budget, quantifiers)
    return Exists(name, path, body) if kind == "exists" else Forall(name, path, body)
