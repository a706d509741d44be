"""A small mathematical expression language for densities, integrands and
region indicators.

Grammar (whitespace insignificant, identifiers ASCII [A-Za-z_][A-Za-z0-9_]*):

    expr    := conj
    conj    := rel { "and" rel }
    rel     := sum [ ("<="|">="|"<"|">") sum ]
    sum     := term { ("+"|"-") term }
    term    := factor { ("*"|"/") factor }
    factor  := ["-"] power
    power   := atom [ "^" factor ]
    atom    := number | ident | ident "(" expr { "," expr } ")" | "(" expr ")"

"^" is right-associative and binds tighter than unary minus, so -x^2 means
-(x^2). Relational operators yield exactly 1.0 or 0.0; "and" multiplies the
indicator values of its operands, which must be comparisons. pi and e are
reserved constants and may not be declared as variables.

ASTs are immutable after parse; evaluation is pure and reentrant. Domain
faults (log of a nonpositive value, sqrt of a negative, division by zero,
zero to a negative power, or anything else that would produce NaN) raise
EvalError instead of propagating NaN.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "VarOrder",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "evaluate_batch",
    "Grid",
    "free_vars",
    "to_text",
    "Num",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Rel",
    "And",
]

CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}
_KEYWORDS = {"and"} | set(CONSTANTS) | set(FUNCTION_ARITY)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class VarOrder:
    """Ordered, distinct variable names; position defines the coordinate
    order of every point handed to evaluation."""

    names: tuple[str, ...]

    def __init__(self, names: Sequence[str]):
        object.__setattr__(self, "names", tuple(names))
        if not self.names:
            raise ValueError("variable list must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"variable names must be distinct: {self.names}")
        for name in self.names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid identifier: {name!r}")

    @property
    def dims(self) -> int:
        return len(self.names)


# AST node kinds. All frozen; an AST never changes after parse.


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str
    index: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


@dataclass(frozen=True)
class Rel:
    op: str  # one of <= >= < >
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class And:
    terms: tuple["Node", ...]


Node = Union[Num, Const, Var, Neg, BinOp, Call, Rel, And]


class ParseError(ValueError):
    """Syntax or semantic error in an expression, with the byte offset."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class EvalError(ArithmeticError):
    """Domain fault during evaluation, carrying the offending node."""

    def __init__(self, message: str, node: Node):
        self.node = node
        super().__init__(f"{message} in {to_text(node)!r}")


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|[<>+\-*/^(),])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], var_index: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str):
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"unexpected {text or 'end of input'!r}", offset, expected=repr(op))
        return self.advance()

    def parse_expr(self) -> Node:
        terms = [self.rel()]
        offsets = []
        while True:
            kind, text, offset = self.peek()
            if kind == "ident" and text == "and":
                self.advance()
                offsets.append(self.peek()[2])
                terms.append(self.rel())
            else:
                break
        if len(terms) == 1:
            return terms[0]
        flat: list[Node] = []
        for i, term in enumerate(terms):
            if not isinstance(term, (Rel, And)):
                at = self.tokens[0][2] if i == 0 else offsets[i - 1]
                raise ParseError("operand of 'and' must be a comparison", at)
            flat.extend(term.terms if isinstance(term, And) else [term])
        return And(tuple(flat))

    def rel(self) -> Node:
        left = self.sum()
        tok = self.accept_op("<=", ">=", "<", ">")
        if tok is None:
            return left
        return Rel(tok[1], left, self.sum())

    def sum(self) -> Node:
        node = self.term()
        while True:
            tok = self.accept_op("+", "-")
            if tok is None:
                return node
            node = BinOp(tok[1], node, self.term())

    def term(self) -> Node:
        node = self.factor()
        while True:
            tok = self.accept_op("*", "/")
            if tok is None:
                return node
            node = BinOp(tok[1], node, self.factor())

    def factor(self) -> Node:
        if self.accept_op("-"):
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.accept_op("^"):
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text == "and":
                raise ParseError("'and' is not a value", offset)
            if self.accept_op("("):
                return self.call(text, offset)
            if text in CONSTANTS:
                return Const(text)
            if text in self.var_index:
                return Var(text, self.var_index[text])
            if text in FUNCTION_ARITY:
                raise ParseError(f"function {text!r} requires arguments", offset, expected="'('")
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"unexpected {text or 'end of input'!r}", offset, expected="a number, name or '('"
        )

    def call(self, name: str, offset: int) -> Node:
        if name not in FUNCTION_ARITY:
            raise ParseError(f"unknown function {name!r}", offset)
        args = [self.parse_expr()]
        while self.accept_op(","):
            args.append(self.parse_expr())
        self.expect_op(")")
        arity = FUNCTION_ARITY[name]
        if len(args) != arity:
            raise ParseError(
                f"function {name!r} takes {arity} argument{'s' if arity > 1 else ''},"
                f" got {len(args)}",
                offset,
            )
        return Call(name, tuple(args))


def parse(text: str, variables: VarOrder | Sequence[str] = ()) -> Node:
    """Parse ``text`` against the declared variable list.

    Variable positions follow the declared order; pi, e, the function names
    and 'and' are reserved and may not be declared. An empty variable list is
    accepted for constant expressions.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    names = variables.names if isinstance(variables, VarOrder) else tuple(variables)
    for name in names:
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is reserved and cannot be a variable", 0)
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate variable names: {names}", 0)
    parser = _Parser(_tokenize(text), {name: i for i, name in enumerate(names)})
    node = parser.parse_expr()
    kind, text_left, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {text_left!r} after expression", offset)
    return node


def free_vars(node: Node) -> set[str]:
    """Exact set of variable names reachable in the AST."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        match cur:
            case Var(name=name):
                out.add(name)
            case Neg(operand=op):
                stack.append(op)
            case BinOp(left=left, right=right) | Rel(left=left, right=right):
                stack.append(left)
                stack.append(right)
            case Call(args=args):
                stack.extend(args)
            case And(terms=terms):
                stack.extend(terms)
    return out


def _eval(node: Node, cols: Sequence[np.ndarray]):
    match node:
        case Num(value=v):
            return np.float64(v)
        case Const(name=name):
            return np.float64(CONSTANTS[name])
        case Var(index=index):
            return cols[index]
        case Neg(operand=op):
            return -_eval(op, cols)
        case BinOp(op=op, left=left, right=right):
            a = _eval(left, cols)
            b = _eval(right, cols)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if np.any(b == 0.0):
                    raise EvalError("division by zero", node)
                return a / b
            if np.any((a == 0.0) & (b < 0.0)):
                raise EvalError("zero raised to a negative power", node)
            out = np.power(a, b)
            if np.any(np.isnan(out)):
                raise EvalError("negative base with non-integer exponent", node)
            return out
        case Call(func=func, args=args):
            vals = [_eval(arg, cols) for arg in args]
            if func == "log":
                if np.any(vals[0] <= 0.0):
                    raise EvalError("log of a nonpositive value", node)
                return np.log(vals[0])
            if func == "sqrt":
                if np.any(vals[0] < 0.0):
                    raise EvalError("sqrt of a negative value", node)
                return np.sqrt(vals[0])
            if func == "min":
                return np.minimum(vals[0], vals[1])
            if func == "max":
                return np.maximum(vals[0], vals[1])
            return {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "abs": np.abs}[
                func
            ](vals[0])
        case Rel(op=op, left=left, right=right):
            a = _eval(left, cols)
            b = _eval(right, cols)
            cmp = {"<=": np.less_equal, ">=": np.greater_equal, "<": np.less, ">": np.greater}[
                op
            ](a, b)
            return np.multiply(cmp, 1.0)
        case And(terms=terms):
            out = _eval(terms[0], cols)
            for term in terms[1:]:
                out = out * _eval(term, cols)
            return out
    raise TypeError(f"not an expression node: {node!r}")


class Grid:
    """Every point of a regular grid, in C order: point (i_0, ..., i_{d-1})
    has coordinate ``axes[k][i_k]`` on axis k.

    ``len(grid)`` is the number of points and ``grid.shape`` the axis
    lengths. evaluate_batch never builds the (len, d) coordinate matrix: it
    reads axis k as an array of extent 1 on every other axis and lets
    broadcasting form the grid, so a term of one variable is computed once
    per axis value.
    """

    def __init__(self, axes: Sequence[np.ndarray]):
        self.shape = tuple(len(a) for a in axes)
        d = len(self.shape)
        self.columns = [
            np.asarray(a, dtype=np.float64).reshape([-1 if i == k else 1 for i in range(d)])
            for k, a in enumerate(axes)
        ]
        if 0 in self.shape:
            # no point has a value on the other axes, just as with zero rows
            self.columns = [np.empty(self.shape)] * d

    def __len__(self) -> int:
        return math.prod(self.shape)


def evaluate_batch(node: Node, points: np.ndarray | Grid) -> np.ndarray:
    """Evaluate at each row of ``points`` (shape (n, d)), returning shape
    (n,), or at each point of a Grid, returning shape ``grid.shape``. The
    result is C-contiguous and holds, bit for bit, the values of the same
    points given as rows.

    Raises EvalError on any domain fault; never returns NaN.
    """
    if isinstance(points, Grid):
        shape, cols = points.shape, points.columns
    else:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D matrix, got shape {pts.shape}")
        shape, cols = pts.shape[:1], [pts[:, i] for i in range(pts.shape[1])]
    with np.errstate(all="ignore"):
        out = _eval(node, cols)
    if np.any(np.isnan(out)):
        raise EvalError("evaluation produced NaN", node)
    out = np.asarray(out, dtype=np.float64)
    if out.shape != shape:
        # a constant, or a grid expression that omits a variable; copy, as
        # ascontiguousarray would return a read-only view when one point
        return np.broadcast_to(out, shape).copy()
    return np.ascontiguousarray(out)


def evaluate(node: Node, point: Sequence[float] = ()) -> float:
    """Evaluate at a single point (ordered by the declared variables)."""
    pts = np.asarray(point, dtype=np.float64).reshape(1, -1)
    return float(evaluate_batch(node, pts)[0])


_PREC_AND = 1
_PREC_REL = 2
_PREC_ADD = 3
_PREC_MUL = 4
_PREC_NEG = 5
_PREC_POW = 6
_PREC_ATOM = 10


def _prec(node: Node) -> int:
    match node:
        case And():
            return _PREC_AND
        case Rel():
            return _PREC_REL
        case BinOp(op="+") | BinOp(op="-"):
            return _PREC_ADD
        case BinOp(op="*") | BinOp(op="/"):
            return _PREC_MUL
        case Neg():
            return _PREC_NEG
        case BinOp(op="^"):
            return _PREC_POW
    return _PREC_ATOM


def _render(node: Node, min_prec: int) -> str:
    mine = _prec(node)
    match node:
        case Num(value=v):
            text = repr(v)
        case Const(name=name) | Var(name=name):
            text = name
        case Neg(operand=op):
            # the grammar's unary minus prefixes a power, not another minus
            text = "-" + _render(op, _PREC_POW)
        case BinOp(op="^", left=left, right=right):
            # right-associative: parenthesize a pow on the left
            text = _render(left, _PREC_POW + 1) + "^" + _render(right, _PREC_NEG)
        case BinOp(op=op, left=left, right=right):
            text = f"{_render(left, mine)} {op} {_render(right, mine + 1)}"
        case Call(func=func, args=args):
            text = f"{func}({', '.join(_render(a, 0) for a in args)})"
        case Rel(op=op, left=left, right=right):
            text = f"{_render(left, _PREC_ADD)} {op} {_render(right, _PREC_ADD)}"
        case And(terms=terms):
            text = " and ".join(_render(t, _PREC_REL) for t in terms)
        case _:  # pragma: no cover
            raise TypeError(f"not an expression node: {node!r}")
    if mine < min_prec:
        return f"({text})"
    return text


def to_text(node: Node) -> str:
    """Render so that re-parsing yields a structurally identical AST."""
    return _render(node, 0)
