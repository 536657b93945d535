"""Formula AST, concrete syntax, and negation normal form.

Formulas are LTL (X, U, R plus the derived F and G) extended with
per-message quantifiers: ``exists x in "/root/elem" : body`` binds ``x``
to each value the quoted path extracts from the current message, and
``forall`` is its dual.  Atoms compare two terms, where a term is a
quantifier-bound variable or a double-quoted string constant.

Nodes, terms and paths are tuple-backed records (``Record`` over a
namedtuple): immutable, matched by position, hashed in C, and equal
only to a record of their own kind, so ``Eq(a, b) != Neq(a, b)``.

A node's subformulas are its fields that are formulas; ``children``
reads them for the measures.  One walk, on exact type, lowers a formula
to normal form and, for ``ensure_well_formed`` but not ``to_nnf``, checks
its scoping.  It expands each abbreviation from one table,
stated in positive polarity only, so De Morgan lives in ``_DUAL`` alone.
``format_formula`` matches each node kind explicitly, because it states
its meaning.  The lexer sorts the matches of one regular expression.
"""
from __future__ import annotations

import re
from collections import namedtuple


class FormulaError(ValueError):
    """Parent of all parse-time and well-formedness errors."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        detail = f", found {found}" if found else ""
        super().__init__(f"at offset {position}: expected {expected}{detail}")


class UnboundVariableError(FormulaError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not bound by any enclosing quantifier")


class ShadowedVariableError(FormulaError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"quantifier rebinds variable {name!r} already in scope")


class Record:
    """Mixin, listed before a namedtuple: equal only to a record of its own
    kind with equal fields, hashed as its field tuple, in C, and always
    truthy, even with no fields.  Subclasses set __slots__ = ().  A value
    every caller would unwrap at once stays plain instead: a message is
    its dict, and a DNF of obligations its frozenset.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__

    def __bool__(self) -> bool:
        return True


class Var(Record, namedtuple("Var", "name")):  # name: str
    __slots__ = ()


class Const(Record, namedtuple("Const", "value")):  # value: str
    __slots__ = ()


Term = Var | Const


class Path(Record, namedtuple("Path", "segments")):  # segments: tuple[str, ...]
    """Child-axis path, one element name per step, rooted at the first."""

    __slots__ = ()

    def __new__(cls, segments: tuple[str, ...]) -> Path:
        # A "/" inside a segment would print as two segments.
        if not segments or any(not s or "/" in s for s in segments):
            raise ValueError("path needs at least one non-empty segment, none holding /")
        return super().__new__(cls, segments)

    def __str__(self) -> str:
        return "/" + "/".join(self.segments)


class Formula(Record):
    """Base class for formula AST nodes; each node is a Formula before its namedtuple."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


class TrueLit(Formula, namedtuple("TrueLit", "")):
    __slots__ = ()


class FalseLit(Formula, namedtuple("FalseLit", "")):
    __slots__ = ()


class Eq(Formula, namedtuple("Eq", "left right")):  # left, right: Term
    __slots__ = ()


class Neq(Formula, namedtuple("Neq", "left right")):  # left, right: Term
    __slots__ = ()


class Not(Formula, namedtuple("Not", "body")):  # body: Formula
    __slots__ = ()


class And(Formula, namedtuple("And", "left right")):  # left, right: Formula
    __slots__ = ()


class Or(Formula, namedtuple("Or", "left right")):  # left, right: Formula
    __slots__ = ()


class Implies(Formula, namedtuple("Implies", "left right")):  # left, right: Formula
    __slots__ = ()


class Next(Formula, namedtuple("Next", "body")):  # body: Formula
    __slots__ = ()


class Finally(Formula, namedtuple("Finally", "body")):  # body: Formula
    __slots__ = ()


class Globally(Formula, namedtuple("Globally", "body")):  # body: Formula
    __slots__ = ()


class Until(Formula, namedtuple("Until", "left right")):  # left, right: Formula
    __slots__ = ()


class Release(Formula, namedtuple("Release", "left right")):  # left, right: Formula
    __slots__ = ()


class Exists(Formula, namedtuple("Exists", "var path body")):  # var: str, path: Path, body: Formula
    __slots__ = ()


class Forall(Formula, namedtuple("Forall", "var path body")):  # var: str, path: Path, body: Formula
    __slots__ = ()


# Normal-form stand-ins for the boolean literals.  Both use the same
# constant so negating one yields exactly the other.
TRUE_ATOM = Eq(Const("true"), Const("true"))
FALSE_ATOM = Neq(Const("true"), Const("true"))

KEYWORDS = frozenset({"G", "F", "X", "U", "R", "exists", "forall", "in", "true", "false"})


class _Token(Record, namedtuple("_Token", "kind text position")):  # kind, text: str; position: int
    # kind is IDENT, STRING, a punctuation literal, or EOF.
    __slots__ = ()

    def found(self) -> str:
        """How a syntax error names this token: a string quoted, EOF as end of input."""
        if self.kind == "EOF":
            return "end of input"
        return _quote(self.text) if self.kind == "STRING" else self.text


# A string (body, closing quote if any), a word, a two-character
# operator, or one other character; whitespace only separates.
_STRING = r'"((?:[^"\\]|\\["\\])*)("?)'
_TOKEN = re.compile(_STRING + r"|\w+|!=|->|\S")
# A formula file's comment line, or a string constant; left uncompiled, as only the CLI reads it.
COMMENTS = r"(?m)^[^\S\n]*#.*|" + _STRING
_ESCAPE = re.compile(r'\\(["\\])')


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(source):
        text, start = match.group(), match.start()
        if text[0] == '"':
            body, closed = match.groups()
            if not closed:
                if match.end() == len(source):
                    raise FormulaSyntaxError(start, "closing quote")
                raise FormulaSyntaxError(match.end(), 'escape sequence \\" or \\\\')
            tokens.append(_Token("STRING", _ESCAPE.sub(r"\1", body), start))
        elif text[0].isalpha() or text[0] == "_":
            tokens.append(_Token(text if text in KEYWORDS else "IDENT", text, start))
        elif text in ("!=", "->", "(", ")", "=", "&", "|", ":", "!"):
            tokens.append(_Token(text, text, start))
        elif text == "-":
            raise FormulaSyntaxError(start, "token", found="-")
        else:
            # A word that starts with a digit, or a stray character.
            raise FormulaSyntaxError(start, "token", found=repr(text[0]))
    tokens.append(_Token("EOF", "", len(source)))
    return tokens


def _is_name(text: str) -> bool:
    """Whether _tokenize reads text back as one variable name; \\w is alphanumeric or _."""
    return (w := text.replace("_", "a")).isalnum() and w[0].isalpha() and text not in KEYWORDS


MAX_NESTING = 100
_UNARY = {"G": Globally, "F": Finally, "X": Next, "!": Not}
# Binary precedence levels, loosest first; every level is right associative.
_INFIX = ({"->": Implies}, {"|": Or}, {"&": And}, {"U": Until, "R": Release})
_QUANTIFIER = {"exists": Exists, "forall": Forall}
_COMPARE = {"=": Eq, "!=": Neq}
_LITERAL = {"true": TrueLit, "false": FalseLit}
_TERM = {"IDENT": Var, "STRING": Const}
# What _expect says it wanted, for the token kinds that are not literal text.
_EXPECTED = {"IDENT": "variable name", "STRING": "quoted path", "EOF": "end of input"}
_SYMBOL = {
    kind: symbol
    for table in (_UNARY, *_INFIX, _QUANTIFIER, _COMPARE, _LITERAL)
    for symbol, kind in table.items()
}


class Parser:
    """Recursive descent over the token stream.

    Precedence, tightest first: unary operators and quantifiers, then
    U and R (right associative, one level), then &, then |, then ->
    (right associative).  Every operator and every parenthesis opens one
    nesting level for what it governs; more than MAX_NESTING levels on
    one branch is a syntax error, so no later recursive pass over the
    tree can run out of stack.  Variable scoping is checked after the
    parse, by ensure_well_formed.
    """

    def __init__(self, source: str):
        self._tokens = _tokenize(source)
        self._pos = 0
        self._depth = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(tok.position, _EXPECTED.get(kind, f"'{kind}'"), found=tok.found())
        return self._advance()

    def _nested(self, opener: _Token, parse, *args):
        """parse(*args) one nesting level below the operator or '(' at opener."""
        if self._depth == MAX_NESTING:
            raise FormulaSyntaxError(opener.position, f"at most {MAX_NESTING} nested operators", opener.text)
        self._depth += 1
        result = parse(*args)
        self._depth -= 1
        return result

    def parse(self) -> Formula:
        formula = self._binary(0)
        self._expect("EOF")
        return formula

    def _binary(self, level: int) -> Formula:
        """One precedence level of _INFIX, with its right operand at the same level."""
        left = self._binary(level + 1) if level + 1 < len(_INFIX) else self._unary()
        kind = _INFIX[level].get(self._peek().kind)
        if kind is None:
            return left
        return kind(left, self._nested(self._advance(), self._binary, level))

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok.kind in _UNARY:
            return _UNARY[tok.kind](self._nested(self._advance(), self._unary))
        if tok.kind in _QUANTIFIER:
            self._advance()
            name = self._expect("IDENT").text
            self._expect("in")
            path = self._path()
            self._expect(":")
            return _QUANTIFIER[tok.kind](name, path, self._nested(tok, self._unary))
        return self._atom()

    def _path(self) -> Path:
        tok = self._expect("STRING")
        text = tok.text
        if not text.startswith("/") or any(not seg for seg in text[1:].split("/")):
            raise FormulaSyntaxError(tok.position, 'path of the form "/a/b"')
        return Path(tuple(text[1:].split("/")))

    def _atom(self) -> Formula:
        tok = self._peek()
        if tok.kind == "(":
            inner = self._nested(self._advance(), self._binary, 0)
            self._expect(")")
            return inner
        if tok.kind in _LITERAL:
            self._advance()
            return _LITERAL[tok.kind]()
        left = self._term()
        op = self._peek()
        if op.kind in _COMPARE:
            self._advance()
            return _COMPARE[op.kind](left, self._term())
        raise FormulaSyntaxError(op.position, "'=' or '!='", found=op.found())

    def _term(self) -> Term:
        tok = self._peek()
        if tok.kind in _TERM:
            self._advance()
            return _TERM[tok.kind](tok.text)
        raise FormulaSyntaxError(tok.position, "variable or quoted constant", found=tok.found())


def parse(source: str) -> Formula:
    """Parse one formula and check that it is well formed."""
    formula = Parser(source).parse()
    ensure_well_formed(formula)
    return formula


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _format_term(term: Term) -> str:
    return term.name if isinstance(term, Var) else _quote(term.value)


def format_formula(formula: Formula) -> str:
    """Render to concrete syntax; parse(format_formula(f)) == f."""
    match formula:
        case TrueLit() | FalseLit():
            return _SYMBOL[type(formula)]
        case Eq(left, right) | Neq(left, right):
            return f"{_format_term(left)} {_SYMBOL[type(formula)]} {_format_term(right)}"
        case Not(body) | Next(body) | Finally(body) | Globally(body):
            return f"{_SYMBOL[type(formula)]} {format_formula(body)}"
        case (
            And(left, right) | Or(left, right) | Implies(left, right)
            | Until(left, right) | Release(left, right)
        ):
            return f"({format_formula(left)} {_SYMBOL[type(formula)]} {format_formula(right)})"
        case Exists(var, path, body) | Forall(var, path, body):
            return f"{_SYMBOL[type(formula)]} {var} in {_quote(str(path))} : {format_formula(body)}"
    raise TypeError(f"not a formula: {formula!r}")


# Each normal-form kind and its De Morgan dual, the kind its negation takes.
_DUAL = {
    Eq: Neq, Neq: Eq, And: Or, Or: And, Next: Next,
    Until: Release, Release: Until, Exists: Forall, Forall: Exists,
}

# Each abbreviation and what it stands for, stated once and positively:
# a negated one is expanded first and its expansion negated by _walk.
_LOWERED = {
    TrueLit: lambda: TRUE_ATOM,
    FalseLit: lambda: FALSE_ATOM,
    Implies: lambda left, right: Or(Not(left), right),
    Finally: lambda body: Until(TRUE_ATOM, body),
    Globally: lambda body: Release(FALSE_ATOM, body),
}


def _walk(f: Formula, negated: bool, scope: frozenset[str] | None) -> Formula:
    """The normal form of f, or of its negation if negated, raising the
    first scope error in text order unless scope is None.  Not flips the
    polarity; a node is rebuilt, as its _DUAL if negated, only if an
    operand changed (all of a negated node's do); a non-formula raises TypeError."""
    kind = type(f)
    if kind is Not:
        return _walk(f.body, not negated, scope)
    if kind in _LOWERED:
        return _walk(_LOWERED[kind](*f), negated, scope)
    if kind not in _DUAL:
        raise TypeError(f"not a formula: {f!r}")
    kind = _DUAL[kind] if negated else kind
    if kind is Eq or kind is Neq:
        if scope is not None:
            for term in f:
                if type(term) is Var and term.name not in scope:
                    raise UnboundVariableError(term.name)
        return kind(*f) if negated else f
    if kind is Exists or kind is Forall:
        if scope is not None:
            if f.var in scope:
                raise ShadowedVariableError(f.var)
            if not _is_name(f.var):
                raise FormulaError(f"quantifier variable {f.var!r} would not parse as a variable name")
            scope = scope | {f.var}
        lowered = _walk(f.body, negated, scope)
        return f if lowered is f.body else kind(f.var, f.path, lowered)
    if kind is Next:
        lowered = _walk(f.body, negated, scope)
        return f if lowered is f.body else Next(lowered)
    left = _walk(f.left, negated, scope)
    right = _walk(f.right, negated, scope)
    return f if left is f.left and right is f.right else kind(left, right)


def to_nnf(formula: Formula) -> Formula:
    """Push negations to atoms and lower F, G, ->, true, false.

    The result contains only Eq, Neq, And, Or, Next, Until, Release and
    the two quantifiers.  Boolean literals become the self-evident atoms
    "true" = "true" and "true" != "true".  Open formulas are lowered too.
    """
    return _walk(formula, False, None)


def ensure_well_formed(formula: Formula, scope: frozenset[str] = frozenset()) -> Formula:
    """Raise the first scope error in text order unless every variable is
    bound exactly once on its branch, by a name the lexer reads back;
    return the normal form, which equals to_nnf(formula)."""
    return _walk(formula, False, scope)


def children(formula: Formula) -> tuple[Formula, ...]:
    """Direct subformulas, left to right, read from the node's fields;
    () for atoms and literals.  The measures below walk through here."""
    if not isinstance(formula, Formula):
        raise TypeError(f"not a formula: {formula!r}")
    return tuple([x for x in formula if isinstance(x, Formula)])


_TEMPORAL_KINDS = (Next, Finally, Globally, Until, Release)


def temporal_depth(formula: Formula) -> int:
    """Largest number of temporal operators on any root-to-leaf branch."""
    below = max(map(temporal_depth, children(formula)), default=0)
    return below + 1 if isinstance(formula, _TEMPORAL_KINDS) else below


def node_count(formula: Formula) -> int:
    """Number of formula nodes, terms not counted: the paper's size |phi|,
    against which criterion 3 checks the bound of |phi| states."""
    return 1 + sum(map(node_count, children(formula)))
