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
    _TEMPORAL_KINDS,
)

VALUES = ("a", "b", "c")
PATHS = (Path(("m", "a")), Path(("m", "b")), Path(("m", "c", "d")))


_KNOBS = {
    "max_depth": 3,  # temporal operators per branch
    "max_quantifiers": 2,  # per formula
    "max_prefix": 4,
    "max_loop": 3,
    "size_budget": 12,  # soft cap on formula nodes
}


class GenBounds(Record, namedtuple("GenBounds", _KNOBS, defaults=_KNOBS.values())):
    """Knobs for corpus size and shape: each key of _KNOBS is an int field, defaulting to its value."""

    __slots__ = ()


def case_rng(seed: int, tag: str, index: int) -> random.Random:
    # String seeding hashes through sha512, stable across processes.
    return random.Random(f"{seed}:{tag}:{index}")


def gen_message(rng: random.Random) -> Message:
    def leaf_or_list(limit: int):
        picks = [rng.choice(VALUES) for _ in range(rng.randint(1, limit))]
        return picks[0] if len(picks) == 1 else picks

    body: dict[str, object] = {}
    if rng.random() < 0.85:
        body["a"] = leaf_or_list(2)
    if rng.random() < 0.6:
        # Occasionally a subtree, so /m/b matches a non-text element.
        body["b"] = {"x": rng.choice(VALUES)} if rng.random() < 0.15 else leaf_or_list(2)
    if rng.random() < 0.45:
        body["c"] = {"d": leaf_or_list(2)}
    return message_from_obj({"m": body})


def gen_lasso(rng: random.Random, bounds: GenBounds) -> LassoTrace:
    prefix = tuple(gen_message(rng) for _ in range(rng.randint(0, bounds.max_prefix)))
    loop = tuple(gen_message(rng) for _ in range(rng.randint(1, bounds.max_loop)))
    return LassoTrace(prefix=prefix, loop=loop)


def gen_formula(rng: random.Random, bounds: GenBounds) -> Formula:
    budget = [bounds.size_budget]
    quantifiers = [bounds.max_quantifiers]
    return _gen(rng, bounds, bounds.max_depth, (), budget, quantifiers)


def _gen_term(rng: random.Random, scope: tuple[str, ...]) -> Term:
    if scope and rng.random() < 0.6:
        return Var(rng.choice(scope))
    return Const(rng.choice(VALUES))


def _gen(
    rng: random.Random,
    bounds: GenBounds,
    depth: int,
    scope: tuple[str, ...],
    budget: list[int],
    quantifiers: list[int],
) -> Formula:
    budget[0] -= 1
    # Eq stands for both atoms and TrueLit for both literals.
    kinds = [Eq, Eq, Eq, TrueLit]
    if budget[0] > 0:
        kinds += [Not, And, Or, Implies]
        if depth > 0:
            kinds += [Next, Finally, Globally, Until, Until, Release, Release]
        if quantifiers[0] > 0:
            kinds += [Exists, Exists, Forall, Forall]
    kind = rng.choice(kinds)

    if kind is Eq:
        left = _gen_term(rng, scope)
        right = _gen_term(rng, scope)
        return Eq(left, right) if rng.random() < 0.5 else Neq(left, right)
    if kind is TrueLit:
        return TrueLit() if rng.random() < 0.5 else FalseLit()
    if kind in (Exists, Forall):
        # Nesting depth names the variable, so rebinding can only
        # happen between sibling branches, never on one branch.
        name = f"x{len(scope)}"
        path = rng.choice(PATHS)
        quantifiers[0] -= 1
        return kind(name, path, _gen(rng, bounds, depth, scope + (name,), budget, quantifiers))
    below = depth - 1 if kind in _TEMPORAL_KINDS else depth
    return kind(*[_gen(rng, bounds, below, scope, budget, quantifiers) for _ in kind._fields])
