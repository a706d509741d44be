"""A differential sweep of expression evaluation against another revision's,
run by hand from the repository root:

    PYTHONPATH=src python3 tests/eval_sweep.py REV [N] [SEED]

Loads ``git show REV:src/rejmc/expression.py`` as a module of its own and
evaluates N (default 100000) random ASTs with it and with this checkout's
evaluate_batch, each once on a matrix of rows and once on a Grid. An AST
has up to 3 variables and 6 levels; its numbers include 0, 1, 1000 and
1e300, so that constant subtrees overflow, fault (1/0, log(0 - 1)) or fold,
and its points include signed zeros, infinities, NaN and empty sets. Each
outcome is the result's shape and bits, or the EvalError message (which
names the failing node by its text) together with to_text of that node.
Prints the counts of equal outcomes, of results and of errors, and each
differing case up to ten; exits 1 when any outcome differs. pytest does
not collect this file.
"""
import dataclasses
import random
import subprocess
import sys
import types

import numpy as np

from rejmc import expression

NAMES = ("x", "y", "z")
NUMBERS = [0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 1000.0, 1e300]
POINTS = [0.0, -0.0, 1.0, -1.0, 2.0, 2.5, -2.5, 0.5, 700.0, 1e300, -1e300, 1e-300,
          np.inf, -np.inf, np.nan]
FUNCTIONS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "min", "max"]
OPERATORS = ["+", "-", "*", "/", "^", "<=", ">=", "<", ">"]


def load(rev: str) -> types.ModuleType:
    path = "src/rejmc/expression.py"
    source = subprocess.run(
        ["git", "show", f"{rev}:{path}"], check=True, capture_output=True, text=True
    ).stdout
    module = types.ModuleType("expression_at_rev")
    # dataclasses looks the module up while it builds the AST classes
    sys.modules[module.__name__] = module
    exec(compile(source, f"{rev}:{path}", "exec"), module.__dict__)
    return module


def random_ast(rng, d, depth):
    if depth <= 0 or rng.random() < 0.2:
        kind = rng.randrange(4)
        if kind == 0:
            return expression.Num(rng.choice(NUMBERS))
        if kind == 1:
            return expression.Const(rng.choice(["pi", "e"]))
        i = rng.randrange(d)
        return expression.Var(NAMES[i], i)
    kind = rng.randrange(6)
    if kind == 0:
        return expression.Neg(random_ast(rng, d, depth - 1))
    if kind in (1, 2):
        op = rng.choice(OPERATORS)
        return expression.BinOp(op, random_ast(rng, d, depth - 1), random_ast(rng, d, depth - 1))
    if kind == 3:
        return random_conjunct(rng, d, depth)
    func = rng.choice(FUNCTIONS)
    nargs = expression.FUNCTION_ARITY[func]
    return expression.Call(func, tuple(random_ast(rng, d, depth - 1) for _ in range(nargs)))


def random_conjunct(rng, d, depth):
    """A comparison, or an 'and' of two conjuncts."""
    if depth > 1 and rng.random() < 0.4:
        return expression.BinOp(
            "and", random_conjunct(rng, d, depth - 1), random_conjunct(rng, d, depth - 1)
        )
    op = rng.choice(OPERATORS[5:])
    return expression.BinOp(op, random_ast(rng, d, depth - 1), random_ast(rng, d, depth - 1))


def rebuild(node, module):
    """The same AST built from module's node classes."""
    if isinstance(node, tuple):
        return tuple(rebuild(x, module) for x in node)
    if not dataclasses.is_dataclass(node):
        return node
    cls = getattr(module, type(node).__name__)
    return cls(*(rebuild(getattr(node, f.name), module) for f in dataclasses.fields(node)))


def outcome(module, node, points):
    """("ok", shape, bits) or ("error", message, text of the failing node)."""
    try:
        out = module.evaluate_batch(node, points)
    except module.EvalError as exc:
        return "error", str(exc), module.to_text(exc.node)
    return "ok", out.shape, np.ascontiguousarray(out).view(np.uint64).tobytes()


def point_sets(rng, d):
    """A matrix of rows and the axes of a Grid, some of them empty."""
    def value():
        return rng.choice(POINTS) if rng.random() < 0.5 else rng.uniform(-4.0, 4.0)

    n = rng.choice([0, 1, 2, 3, 5, 40])
    rows = np.array([[value() for _ in range(d)] for _ in range(n)]).reshape(n, d)
    axes = [np.array([value() for _ in range(rng.choice([0, 1, 2, 3, 7]))]) for _ in range(d)]
    return rows, axes


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    rev = sys.argv[1]
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000
    rng = random.Random(int(sys.argv[3]) if len(sys.argv) > 3 else 2024)
    other = load(rev)
    counts = {"equal": 0, "ok": 0, "error": 0}
    differ = []
    for _ in range(n):
        d = rng.randint(1, 3)
        ast = random_ast(rng, d, rng.randint(1, 6))
        old_ast = rebuild(ast, other)
        rows, axes = point_sets(rng, d)
        pairs = [
            (outcome(other, old_ast, rows), outcome(expression, ast, rows)),
            (outcome(other, old_ast, other.Grid(axes)), outcome(expression, ast, expression.Grid(axes))),
        ]
        for old, new in pairs:
            if old == new:
                counts["equal"] += 1
                counts[old[0]] += 1
            else:
                differ.append((expression.to_text(ast), old, new))
    print(f"{n} ASTs, {2 * n} evaluations (rows and a Grid each)")
    print(f"equal outcomes: {counts['equal']} ({counts['ok']} results, {counts['error']} errors)")
    print(f"different outcomes: {len(differ)}")
    for text, old, new in differ[:10]:
        print(f"    {text!r}\n        {rev}: {old[:2]}\n        here: {new[:2]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
