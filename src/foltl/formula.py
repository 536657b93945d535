"""Formula AST, concrete syntax, and negation normal form.

Formulas are LTL (X, U, R plus the derived F and G) extended with
per-message quantifiers: ``exists x in "/root/elem" : body`` binds ``x``
to each value the quoted path extracts from the current message, and
``forall`` is its dual.  Atoms compare two terms, where a term is a
quantifier-bound variable or a double-quoted string constant.

``children`` is the one structural walk: every pass that needs only the
shape of the tree (normal-form test, measures, free variables, closure,
scoping) recurses through it.  ``to_nnf`` and ``format_formula`` match
each node kind explicitly, because they state its meaning.
"""
from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: str


Term = Var | Const


@dataclass(frozen=True)
class Path:
    """Child-axis path, one element name per step, rooted at the first."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments or any(not s for s in self.segments):
            raise ValueError("path needs at least one non-empty segment")

    def __str__(self) -> str:
        return "/" + "/".join(self.segments)


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class TrueLit(Formula):
    pass


@dataclass(frozen=True)
class FalseLit(Formula):
    pass


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    body: Formula


@dataclass(frozen=True)
class Finally(Formula):
    body: Formula


@dataclass(frozen=True)
class Globally(Formula):
    body: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    path: Path
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    path: Path
    body: Formula


# Normal-form stand-ins for the boolean literals.  Both use the same
# constant so negating one yields exactly the other.
TRUE_ATOM = Eq(Const("true"), Const("true"))
FALSE_ATOM = Neq(Const("true"), Const("true"))

KEYWORDS = frozenset({"G", "F", "X", "U", "R", "exists", "forall", "in", "true", "false"})


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, STRING, a punctuation literal, or EOF
    text: str
    position: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            start = i
            i += 1
            chars: list[str] = []
            while True:
                if i >= n:
                    raise FormulaSyntaxError(start, "closing quote")
                c = source[i]
                if c == "\\":
                    if i + 1 >= n or source[i + 1] not in ('"', "\\"):
                        raise FormulaSyntaxError(i, 'escape sequence \\" or \\\\')
                    chars.append(source[i + 1])
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    chars.append(c)
                    i += 1
            tokens.append(_Token("STRING", "".join(chars), start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, start))
            continue
        if c == "!" and i + 1 < n and source[i + 1] == "=":
            tokens.append(_Token("!=", "!=", i))
            i += 2
            continue
        if c == "-":
            if i + 1 < n and source[i + 1] == ">":
                tokens.append(_Token("->", "->", i))
                i += 2
                continue
            raise FormulaSyntaxError(i, "token", found="-")
        if c in "()=&|:!":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise FormulaSyntaxError(i, "token", found=repr(c))
    tokens.append(_Token("EOF", "", n))
    return tokens


MAX_NESTING = 100
_UNARY = {"G": Globally, "F": Finally, "X": Next, "!": Not}
# Binary precedence levels, loosest first; every level is right associative.
_INFIX = ({"->": Implies}, {"|": Or}, {"&": And}, {"U": Until, "R": Release})
_SYMBOL = {kind: symbol for table in (_UNARY, *_INFIX) for symbol, kind in table.items()}


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
            raise FormulaSyntaxError(tok.position, f"'{kind}'", found=tok.text or "end of input")
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
        tok = self._peek()
        if tok.kind != "EOF":
            raise FormulaSyntaxError(tok.position, "end of input", found=tok.text)
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
        if tok.kind in ("exists", "forall"):
            self._advance()
            name = self._expect("IDENT").text
            self._expect("in")
            path = self._path()
            self._expect(":")
            body = self._nested(tok, self._unary)
            return Exists(name, path, body) if tok.kind == "exists" else Forall(name, path, body)
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
        if tok.kind == "true":
            self._advance()
            return TrueLit()
        if tok.kind == "false":
            self._advance()
            return FalseLit()
        left = self._term()
        op = self._peek()
        if op.kind == "=":
            self._advance()
            return Eq(left, self._term())
        if op.kind == "!=":
            self._advance()
            return Neq(left, self._term())
        raise FormulaSyntaxError(op.position, "'=' or '!='", found=op.text or "end of input")

    def _term(self) -> Term:
        tok = self._peek()
        if tok.kind == "IDENT":
            self._advance()
            return Var(tok.text)
        if tok.kind == "STRING":
            self._advance()
            return Const(tok.text)
        raise FormulaSyntaxError(tok.position, "variable or quoted constant", found=tok.text or "end of input")


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
        case TrueLit():
            return "true"
        case FalseLit():
            return "false"
        case Eq(left, right):
            return f"{_format_term(left)} = {_format_term(right)}"
        case Neq(left, right):
            return f"{_format_term(left)} != {_format_term(right)}"
        case Not(body) | Next(body) | Finally(body) | Globally(body):
            return f"{_SYMBOL[type(formula)]} {format_formula(body)}"
        case (
            And(left, right) | Or(left, right) | Implies(left, right)
            | Until(left, right) | Release(left, right)
        ):
            return f"({format_formula(left)} {_SYMBOL[type(formula)]} {format_formula(right)})"
        case Exists(var, path, body):
            return f"exists {var} in {_quote(str(path))} : {format_formula(body)}"
        case Forall(var, path, body):
            return f"forall {var} in {_quote(str(path))} : {format_formula(body)}"
    raise TypeError(f"not a formula: {formula!r}")


def to_nnf(formula: Formula) -> Formula:
    """Push negations to atoms and lower F, G, ->, true, false.

    The result contains only Eq, Neq, And, Or, Next, Until, Release and
    the two quantifiers.  Boolean literals become the self-evident atoms
    "true" = "true" and "true" != "true".
    """
    match formula:
        case TrueLit():
            return TRUE_ATOM
        case FalseLit():
            return FALSE_ATOM
        case Eq() | Neq():
            return formula
        case And(left, right):
            return And(to_nnf(left), to_nnf(right))
        case Or(left, right):
            return Or(to_nnf(left), to_nnf(right))
        case Implies(left, right):
            return Or(to_nnf(Not(left)), to_nnf(right))
        case Next(body):
            return Next(to_nnf(body))
        case Finally(body):
            return Until(TRUE_ATOM, to_nnf(body))
        case Globally(body):
            return Release(FALSE_ATOM, to_nnf(body))
        case Until(left, right):
            return Until(to_nnf(left), to_nnf(right))
        case Release(left, right):
            return Release(to_nnf(left), to_nnf(right))
        case Exists(var, path, body):
            return Exists(var, path, to_nnf(body))
        case Forall(var, path, body):
            return Forall(var, path, to_nnf(body))
        case Not(inner):
            match inner:
                case TrueLit():
                    return FALSE_ATOM
                case FalseLit():
                    return TRUE_ATOM
                case Eq(left, right):
                    return Neq(left, right)
                case Neq(left, right):
                    return Eq(left, right)
                case Not(body):
                    return to_nnf(body)
                case And(left, right):
                    return Or(to_nnf(Not(left)), to_nnf(Not(right)))
                case Or(left, right):
                    return And(to_nnf(Not(left)), to_nnf(Not(right)))
                case Implies(left, right):
                    return And(to_nnf(left), to_nnf(Not(right)))
                case Next(body):
                    return Next(to_nnf(Not(body)))
                case Finally(body):
                    return Release(FALSE_ATOM, to_nnf(Not(body)))
                case Globally(body):
                    return Until(TRUE_ATOM, to_nnf(Not(body)))
                case Until(left, right):
                    return Release(to_nnf(Not(left)), to_nnf(Not(right)))
                case Release(left, right):
                    return Until(to_nnf(Not(left)), to_nnf(Not(right)))
                case Exists(var, path, body):
                    return Forall(var, path, to_nnf(Not(body)))
                case Forall(var, path, body):
                    return Exists(var, path, to_nnf(Not(body)))
    raise TypeError(f"not a formula: {formula!r}")


def negate(formula: Formula) -> Formula:
    """Negation, returned in negation normal form."""
    return to_nnf(Not(formula))


def children(formula: Formula) -> tuple[Formula, ...]:
    """Direct subformulas, left to right; () for atoms and literals.

    The one structural dispatch over node kinds: every pass that needs
    only the shape of the tree walks it through here.
    """
    match formula:
        case TrueLit() | FalseLit() | Eq() | Neq():
            return ()
        case Not(body) | Next(body) | Finally(body) | Globally(body):
            return (body,)
        case Exists(_, _, body) | Forall(_, _, body):
            return (body,)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return (left, right)
        case Until(left, right) | Release(left, right):
            return (left, right)
    raise TypeError(f"not a formula: {formula!r}")


_NNF_KINDS = (Eq, Neq, And, Or, Next, Until, Release, Exists, Forall)
_TEMPORAL_KINDS = (Next, Finally, Globally, Until, Release)


def is_nnf(formula: Formula) -> bool:
    return isinstance(formula, _NNF_KINDS) and all(map(is_nnf, children(formula)))


def temporal_depth(formula: Formula) -> int:
    """Largest number of temporal operators on any root-to-leaf branch."""
    below = max(map(temporal_depth, children(formula)), default=0)
    return below + 1 if isinstance(formula, _TEMPORAL_KINDS) else below


def node_count(formula: Formula) -> int:
    """Number of formula nodes; terms do not count."""
    return 1 + sum(map(node_count, children(formula)))


def subformulas(formula: Formula) -> dict[Formula, int]:
    """Subformula closure of a normal-form formula, numbered in first-visit order.

    The formula itself is member 0.  Binary connectives and U, R
    contribute both operands, X and the quantifiers contribute the body,
    and equality atoms only themselves.  Structurally equal subtrees are
    collapsed, so the result can be shorter than the node count.
    """
    seen: dict[Formula, int] = {}

    def walk(f: Formula) -> None:
        if f in seen:
            return
        if not isinstance(f, _NNF_KINDS):
            raise ValueError("subformula closure is defined on negation normal form only")
        seen[f] = len(seen)
        for child in children(f):
            walk(child)

    walk(formula)
    return seen


def ensure_well_formed(formula: Formula, scope: frozenset[str] = frozenset()) -> None:
    """Raise unless every variable is bound exactly once on its branch.

    Violations are reported in text order: a quantifier before its body,
    a left operand before the right one.
    """
    match formula:
        case Eq(left, right) | Neq(left, right):
            for term in (left, right):
                if isinstance(term, Var) and term.name not in scope:
                    raise UnboundVariableError(term.name)
        case Exists(var, _, _) | Forall(var, _, _):
            if var in scope:
                raise ShadowedVariableError(var)
            scope = scope | {var}
    for child in children(formula):
        ensure_well_formed(child, scope)
