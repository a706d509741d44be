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

The parser (precedence climbing) and the printer read these binding
strengths from one table, _PREC.

"^" is right-associative and binds tighter than unary minus, so -x^2 means
-(x^2). Comparisons and "and" are binary operators: a comparison yields
exactly 1.0 or 0.0, and "and" multiplies its operands, which must be
comparisons or "and"s; like "+", it is left-associative. pi and e are
reserved constants and may not be declared as variables.

Each operator, function call and pair of parentheses between the whole
expression and a number or name is one level of nesting; parse refuses an
expression more than MAX_DEPTH levels deep with a ParseError.

ASTs are immutable after parse; evaluation is pure and reentrant. Domain
faults (division by zero, zero to a negative power, log of a nonpositive
value, sqrt of a negative value, a negative base with a non-integer
exponent, or anything else that would produce NaN, even where a comparison
would turn it into 0.0, or a power into 1.0) raise EvalError instead of
propagating NaN.
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
]

CONSTANTS = {"pi": math.pi, "e": math.e}
# every binary operator and function, by its name in the grammar; "and"
# multiplies its operands, which are exactly 0.0 or 1.0
_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "<": np.less,
    ">": np.greater,
    "and": np.multiply,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}
FUNCTION_ARITY = {n: f.nin for n, f in _UFUNCS.items() if n.isidentifier() and n != "and"}
# operands a name refuses before its ufunc runs; kept in step with the
# domain faults listed in the module docstring
_FAULTS = {
    "/": (lambda a, b: b == 0.0, "division by zero"),
    "^": (lambda a, b: (a == 0.0) & (b < 0.0), "zero raised to a negative power"),
    "log": (lambda a: a <= 0.0, "log of a nonpositive value"),
    "sqrt": (lambda a: a < 0.0, "sqrt of a negative value"),
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
    op: str  # a key of _PREC: + - * / ^ <= >= < > and
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Const, Var, Neg, BinOp, Call]


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
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|[<>+\-*/^(),])"
    r"|(?P<bad>\S))"
)
# binding strength of each binary operator, by its token; unary minus binds
# at _NEG, between "/" and "^"
_PREC = {"and": 1, "<=": 2, ">=": 2, "<": 2, ">": 2, "+": 3, "-": 3, "*": 4, "/": 4, "^": 6}
_NEG = 5
# levels of nesting parse accepts; the parser, _eval and _render recurse at
# most three times per level, well inside Python's default limit of 1000
MAX_DEPTH = 256


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _nest(depth: int, offset: int) -> int:
    """The depth of a level that the token at offset opens below depth."""
    if depth >= MAX_DEPTH:
        raise ParseError(f"expression nests too deeply (over {MAX_DEPTH} levels)", offset)
    return depth + 1


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

    def accept_op(self, op: str):
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        return None

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"unexpected {text or 'end of input'!r}", offset, expected=repr(op))
        return self.advance()

    def parse_expr(self, min_prec: int = 1, depth: int = 0) -> tuple[Node, int]:
        """An operand, then each binary operator of _PREC that binds at
        least as tightly as min_prec, with its right operand. depth counts
        the levels around it; returns the tree and the depth of its deepest
        leaf, also counted from the whole expression."""
        start = self.peek()[2]
        # one unary minus prefixes a power, so the power may not start with one
        if min_prec <= _NEG and self.accept_op("-"):
            operand, deepest = self.parse_expr(_PREC["^"], _nest(depth, start))
            left = Neg(operand)
        else:
            left, deepest = self.atom(depth)
        # the right operand took every operator that binds tighter, so only
        # one as loose may follow; comparisons do not chain
        limit = _PREC["^"]
        while True:
            _, text, offset = self.peek()
            prec = _PREC.get(text, 0)
            if not min_prec <= prec <= limit:
                return left, deepest
            self.advance()
            at = self.peek()[2]
            # "^" is right-associative, and its exponent may start with a minus
            right, right_deepest = self.parse_expr(
                _NEG if text == "^" else prec + 1, _nest(depth, offset)
            )
            if text == "and":
                for term, term_at in ((left, start), (right, at)):
                    if _prec(term) > _PREC["<"]:
                        raise ParseError("operand of 'and' must be a comparison", term_at)
            left = BinOp(text, left, right)
            # every leaf of the left operand is now one level deeper
            deepest = max(_nest(deepest, offset), right_deepest)
            limit = prec - (prec == _PREC["<"])

    def atom(self, depth: int) -> tuple[Node, int]:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text)), depth
        if kind == "ident":
            if text == "and":
                raise ParseError("'and' is not a value", offset)
            if self.accept_op("("):
                return self.call(text, offset, _nest(depth, offset))
            if text in CONSTANTS:
                return Const(text), depth
            if text in self.var_index:
                return Var(text, self.var_index[text]), depth
            if text in FUNCTION_ARITY:
                raise ParseError(f"function {text!r} requires arguments", offset, expected="'('")
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            inner = self.parse_expr(1, _nest(depth, offset))
            self.expect_op(")")
            return inner
        raise ParseError(
            f"unexpected {text or 'end of input'!r}", offset, expected="a number, name or '('"
        )

    def call(self, name: str, offset: int, depth: int) -> tuple[Node, int]:
        if name not in FUNCTION_ARITY:
            raise ParseError(f"unknown function {name!r}", offset)
        args = [self.parse_expr(1, depth)]
        while self.accept_op(","):
            args.append(self.parse_expr(1, depth))
        self.expect_op(")")
        arity = FUNCTION_ARITY[name]
        if len(args) != arity:
            raise ParseError(
                f"function {name!r} takes {arity} argument{'s' if arity > 1 else ''},"
                f" got {len(args)}",
                offset,
            )
        nodes, deepest = zip(*args)
        return Call(name, nodes), max(deepest)


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
    node, _ = parser.parse_expr()
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
            case BinOp(left=left, right=right):
                stack.append(left)
                stack.append(right)
            case Call(args=args):
                stack.extend(args)
    return out


def _refuse_nan(value, operand: Node) -> None:
    if np.any(np.isnan(value)):
        raise EvalError("evaluation produced NaN", operand)


def _eval(node: Node, cols: Sequence[np.ndarray]):
    match node:
        case Num(value=v):
            return np.float64(v)
        case Const(name=name):
            return np.float64(CONSTANTS[name])
        case Var(index=index):
            return cols[index]
        case Neg(operand=operand):
            return -_eval(operand, cols)
        case BinOp(op=op, left=left, right=right):
            args = (_eval(left, cols), _eval(right, cols))
            if _PREC[op] == _PREC["<"]:
                # a NaN compares false, so it would vanish from the result
                for arg, operand in zip(args, (left, right)):
                    _refuse_nan(arg, operand)
                # a comparison yields exactly 1.0 or 0.0
                return np.multiply(_UFUNCS[op](*args), 1.0)
            if op == "^":
                # NaN^0 and 1^NaN are 1.0, so an operand that may meet a zero
                # exponent or a base of 1 is checked first; a scalar needs no
                # array pass, so x^2 costs one O(1) test
                base, exponent = args
                if not (np.ndim(exponent) == 0 and exponent != 0.0):
                    _refuse_nan(base, left)
                if not (np.ndim(base) == 0 and base != 1.0):
                    _refuse_nan(exponent, right)
        case Call(func=op, args=nodes):
            args = [_eval(arg, cols) for arg in nodes]
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    fault = _FAULTS.get(op)
    if fault is not None and np.any(fault[0](*args)):
        raise EvalError(fault[1], node)
    out = _UFUNCS[op](*args)
    if op == "^" and np.any(np.isnan(out)):
        # a NaN operand that the power passed on, else a negative base
        for arg, operand in zip(args, (left, right)):
            _refuse_nan(arg, operand)
        raise EvalError("negative base with non-integer exponent", node)
    return out


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


def _prec(node: Node) -> int:
    """The binding strength of node's operator; an atom's is 10."""
    if isinstance(node, BinOp):
        return _PREC[node.op]
    return _NEG if isinstance(node, Neg) else 10


def _render(node: Node, min_prec: int) -> str:
    mine = _prec(node)
    match node:
        case Num(value=v):
            text = repr(v)
        case Const(name=name) | Var(name=name):
            text = name
        case Neg(operand=op):
            # the grammar's unary minus prefixes a power, not another minus
            text = "-" + _render(op, _PREC["^"])
        case BinOp(op="^", left=left, right=right):
            # right-associative: parenthesize a pow on the left
            text = _render(left, _PREC["^"] + 1) + "^" + _render(right, _NEG)
        case BinOp(op=op, left=left, right=right):
            # left-associative, except that comparisons do not chain
            left_prec = mine + (mine == _PREC["<"])
            text = f"{_render(left, left_prec)} {op} {_render(right, mine + 1)}"
        case Call(func=func, args=args):
            text = f"{func}({', '.join(_render(a, 0) for a in args)})"
        case _:  # pragma: no cover
            raise TypeError(f"not an expression node: {node!r}")
    if mine < min_prec:
        return f"({text})"
    return text


def to_text(node: Node) -> str:
    """Render so that re-parsing yields a structurally identical AST."""
    return _render(node, 0)
