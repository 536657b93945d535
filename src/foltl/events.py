"""Tree-structured messages, traces, and path-based value extraction.

A message is one decoded JSON object with a single root key and no
repeated key, and that object is already the tree the formulas speak
about: object keys are steps, an array repeats its key once per item,
and strings are the only values.  A finite trace is a tuple of
messages, read from JSON Lines; a lasso trace is a finite prefix plus
a nonempty loop repeated forever.  A message is the plain dict itself,
checked once and never mutated; a lasso is a tuple-backed record (see
formula.Record), equal only to its own kind.
"""
from __future__ import annotations

import io
import json
from collections import namedtuple
from typing import Iterable, Iterator

from .formula import Path, Record

_TOO_DEEP = "JSON nests too deeply"


class MalformedInputError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class EmptyLoopError(ValueError):
    def __init__(self) -> None:
        super().__init__("lasso loop must hold at least one message")


# A decoded JSON object, checked by message_from_obj and never mutated.
Message = dict[str, object]


class LassoTrace(Record, namedtuple("LassoTrace", "prefix loop")):  # prefix, loop: tuple[Message, ...]
    """Ultimately periodic word prefix . loop^omega."""

    __slots__ = ()

    def __new__(cls, prefix: tuple[Message, ...], loop: tuple[Message, ...]) -> LassoTrace:
        if not loop:
            raise EmptyLoopError()
        return super().__new__(cls, prefix, loop)


def canonical_position(trace: LassoTrace, index: int) -> int:
    """Fold an absolute position into the prefix plus one loop unrolling."""
    k = len(trace.prefix)
    if index < k:
        return index
    return k + (index - k) % len(trace.loop)


def position_message(trace: LassoTrace, index: int) -> Message:
    pos = canonical_position(trace, index)
    k = len(trace.prefix)
    return trace.prefix[pos] if pos < k else trace.loop[pos - k]


def dom(message: Message, path: Path) -> frozenset[str]:
    """String values reached by the path, duplicate free.

    The first segment must equal the root key; each further segment
    looks that key up in every object reached, and an array counts as
    its items.  Only strings are values.  A path that matches nothing
    yields the empty set.
    """
    ((root, value),) = message.items()
    if root != path.segments[0]:
        return frozenset()
    nodes = value if isinstance(value, list) else [value]
    for segment in path.segments[1:]:
        reached = []
        for node in nodes:
            if isinstance(node, dict) and segment in node:
                child = node[segment]
                if isinstance(child, list):
                    reached.extend(child)
                else:
                    reached.append(child)
        nodes = reached
    return frozenset(node for node in nodes if isinstance(node, str))


def _check_value(name: str, value: object, line: int) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _check_value(key, sub, line)
    elif isinstance(value, list):
        for item in value:
            if not isinstance(item, (str, dict)):
                raise MalformedInputError(line, f"array items under {name!r} must be strings or objects")
            _check_value(name, item, line)
    elif not isinstance(value, str):
        raise MalformedInputError(line, f"value under {name!r} must be a string, object, or array")


def message_from_obj(obj: object, line: int = 0) -> Message:
    """Check one decoded JSON object and return it, not a copy."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MalformedInputError(line, "message must be an object with exactly one root key")
    ((name, value),) = obj.items()
    try:
        _check_value(name, value, line)
    except RecursionError:
        raise MalformedInputError(line, _TOO_DEEP) from None
    if isinstance(value, list) and len(value) != 1:
        raise MalformedInputError(line, "root element cannot repeat")
    return obj


def _decode(text: str, line: int) -> object:
    """json.loads that rejects duplicate keys; every failure is malformed input."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise MalformedInputError(line, f"duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise MalformedInputError(line, f"invalid JSON: {err.msg}") from err
    except RecursionError:
        raise MalformedInputError(line, _TOO_DEEP) from None


def parse_message(text: str, line: int = 0) -> Message:
    return message_from_obj(_decode(text, line), line)


def iter_messages(lines: Iterable[str]) -> Iterator[Message]:
    """Stream messages from JSON Lines text, skipping blank lines."""
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        yield parse_message(stripped, line=number)


def load_trace(text: str) -> tuple[Message, ...]:
    """JSON Lines text split only at \\n, \\r\\n and \\r, as a text-mode file is."""
    return tuple(iter_messages(io.StringIO(text, newline=None)))


def load_lasso(text: str) -> LassoTrace:
    """Read a lasso file: one object with "prefix" and "loop" arrays."""
    obj = _decode(text, 0)
    if not isinstance(obj, dict):
        raise MalformedInputError(0, "lasso must be a JSON object")
    unknown = set(obj) - {"prefix", "loop"}
    if unknown:
        raise MalformedInputError(0, f"unknown lasso keys: {sorted(unknown)}")
    if "loop" not in obj:
        raise MalformedInputError(0, "lasso needs a \"loop\" array")
    prefix = obj.get("prefix", [])
    loop = obj["loop"]
    if not isinstance(prefix, list) or not isinstance(loop, list):
        raise MalformedInputError(0, "\"prefix\" and \"loop\" must be arrays of messages")
    return LassoTrace(
        prefix=tuple(message_from_obj(m) for m in prefix),
        loop=tuple(message_from_obj(m) for m in loop),
    )


def lasso_to_json(trace: LassoTrace) -> str:
    return json.dumps(
        {"prefix": trace.prefix, "loop": trace.loop},
        separators=(",", ":"),
    )
