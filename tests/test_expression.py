import math
import random

import numpy as np
import pytest

from rejmc import EvalError, ParseError, VarOrder, parse
from rejmc.expression import And, BinOp, Call, Const, Neg, Num, Rel, Var
from rejmc.expression import evaluate_batch, free_vars, to_text


def evaluate(node, point=()):
    return float(evaluate_batch(node, np.reshape(np.asarray(point, dtype=np.float64), (1, -1)))[0])


class TestParseAndEval:
    def test_sine_density_at_peak(self):
        ast = parse("sin(x)/sqrt(2)", ["x"])
        assert evaluate(ast, (math.pi / 2,)) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_product(self):
        assert evaluate(parse("x*y", ["x", "y"]), (2.0, 3.0)) == 6.0

    def test_region_indicator_points(self):
        # three inequalities bounding the parabola/line/axis region
        ast = parse("y^2 <= x and y >= 0 and y >= x - 2", ["x", "y"])
        assert evaluate(ast, (3.0, 1.0)) == 1.0
        assert evaluate(ast, (3.0, 2.0)) == 0.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2")) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-2^2")) == -4.0
        assert evaluate(parse("(-2)^2")) == 4.0

    def test_identity_difference(self):
        assert evaluate(parse("x - x", ["x"]), (7.3,)) == 0.0

    def test_constants(self):
        assert evaluate(parse("pi")) == math.pi
        assert evaluate(parse("e")) == math.e
        assert evaluate(parse("cos(pi)")) == -1.0

    def test_precedence_mix(self):
        assert evaluate(parse("1 + 2*3")) == 7.0
        assert evaluate(parse("(1 + 2)*3")) == 9.0
        assert evaluate(parse("2*-3")) == -6.0
        assert evaluate(parse("2^-1")) == 0.5

    def test_scientific_literals(self):
        assert evaluate(parse("1e3 + 2.5E-1")) == 1000.25
        assert evaluate(parse(".5 + 1.")) == 1.5

    def test_min_max(self):
        assert evaluate(parse("min(x, y) + max(x, y)", ["x", "y"]), (3.0, 8.0)) == 11.0

    def test_relational_values_exact(self):
        assert evaluate(parse("x <= 1", ["x"]), (0.5,)) == 1.0
        assert evaluate(parse("x < 1", ["x"]), (1.0,)) == 0.0
        assert evaluate(parse("x >= 1", ["x"]), (1.0,)) == 1.0
        assert evaluate(parse("x > 1", ["x"]), (1.0,)) == 0.0

    def test_indicator_arithmetic(self):
        # parenthesized comparisons are usable as 0/1 factors
        assert evaluate(parse("2*(x <= 1)", ["x"]), (0.0,)) == 2.0
        assert evaluate(parse("max(x <= 1, x >= 3)", ["x"]), (5.0,)) == 1.0

    def test_batch_evaluation(self):
        ast = parse("x^2 + y", ["x", "y"])
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
        assert evaluate_batch(ast, pts).tolist() == [3.0, 13.0, 0.0]

    def test_batch_constant_broadcast(self):
        assert evaluate_batch(parse("pi"), np.zeros((4, 0))).tolist() == [math.pi] * 4


class TestErrors:
    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse("", ["x"])

    def test_syntax_error_reports_offset_and_hint(self):
        with pytest.raises(ParseError) as err:
            parse("sin(x", ["x"])
        assert err.value.offset == 5
        assert "')'" in str(err.value)

    def test_unknown_identifier_named(self):
        with pytest.raises(ParseError, match="unknown identifier 'z'"):
            parse("x + z", ["x"])

    def test_unknown_function_named(self):
        with pytest.raises(ParseError, match="unknown function 'sinh'"):
            parse("sinh(x)", ["x"])

    @pytest.mark.parametrize("text,nargs", [("min(x)", 1), ("sin(x, x)", 2), ("max(x, x, x)", 3)])
    def test_arity_errors(self, text, nargs):
        with pytest.raises(ParseError, match=f"got {nargs}"):
            parse(text, ["x"])

    def test_reserved_constants_cannot_be_variables(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("pi + 1", ["pi"])
        with pytest.raises(ParseError, match="reserved"):
            parse("e*2", ["e", "x"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="after expression"):
            parse("1 + 2 )")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 + $", [])
        assert err.value.offset == 4

    def test_and_requires_comparisons(self):
        with pytest.raises(ParseError, match="comparison"):
            parse("x and y", ["x", "y"])

    @pytest.mark.parametrize(
        "text,point",
        [
            ("log(x)", (-1.0,)),
            ("log(x)", (0.0,)),
            ("sqrt(x)", (-4.0,)),
            ("1/x", (0.0,)),
            ("x^(0 - 1)", (0.0,)),
            ("x^0.5", (-2.0,)),
        ],
    )
    def test_domain_faults_raise(self, text, point):
        ast = parse(text, ["x"])
        with pytest.raises(EvalError):
            evaluate(ast, point)

    def test_domain_fault_carries_offending_node(self):
        ast = parse("1 + log(x)", ["x"])
        with pytest.raises(EvalError) as err:
            evaluate(ast, (-1.0,))
        assert isinstance(err.value.node, Call)
        assert err.value.node.func == "log"

    def test_batch_fault_on_any_row(self):
        ast = parse("sqrt(x)", ["x"])
        with pytest.raises(EvalError):
            evaluate_batch(ast, np.array([[1.0], [-1.0]]))

    def test_nan_never_silently_returned(self):
        # inf - inf is not on the named fault list but must still raise
        ast = parse("exp(x) - exp(x + 0*x)", ["x"])
        with pytest.raises(EvalError):
            evaluate(ast, (1000.0,))


class TestFreeVars:
    def test_examples(self):
        assert free_vars(parse("sin(x)/sqrt(2)", ["x"])) == {"x"}
        assert free_vars(parse("pi + e")) == set()
        assert free_vars(parse("x*y + y", ["x", "y"])) == {"x", "y"}

    def test_indicator(self):
        ast = parse("y^2 <= x and y >= 0", ["x", "y"])
        assert free_vars(ast) == {"x", "y"}


class TestVarOrder:
    def test_valid(self):
        order = VarOrder(["x", "y"])
        assert order.dims == 2

    @pytest.mark.parametrize("names", [[], ["x", "x"], ["1bad"], ["a b"]])
    def test_invalid(self, names):
        with pytest.raises(ValueError):
            VarOrder(names)


def _random_ast(rng, names, depth):
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return Num(float(rng.randrange(10)) + rng.choice([0.0, 0.5]))
        if kind == 1:
            return Const(rng.choice(["pi", "e"]))
        i = rng.randrange(len(names))
        return Var(names[i], i)
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(_random_ast(rng, names, depth - 1))
    if kind == 1:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, _random_ast(rng, names, depth - 1), _random_ast(rng, names, depth - 1))
    if kind == 2:
        func = rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "min", "max"])
        nargs = 2 if func in ("min", "max") else 1
        return Call(func, tuple(_random_ast(rng, names, depth - 1) for _ in range(nargs)))
    if kind == 3:
        op = rng.choice(["<=", ">=", "<", ">"])
        return Rel(op, _random_ast(rng, names, depth - 1), _random_ast(rng, names, depth - 1))
    terms = tuple(
        Rel(
            rng.choice(["<=", ">="]),
            _random_ast(rng, names, depth - 1),
            _random_ast(rng, names, depth - 1),
        )
        for _ in range(rng.randrange(2, 4))
    )
    return And(terms)


class TestProperties:
    def test_round_trip_random_asts(self):
        rng = random.Random(20240817)
        names = ("x", "y")
        for _ in range(300):
            ast = _random_ast(rng, names, 4)
            text = to_text(ast)
            assert parse(text, names) == ast, text

    def test_round_trip_canonical_expressions(self):
        names = ("x", "y")
        for text in [
            "sin(x)/sqrt(2)",
            "exp(-(x^2 + y^2 - 0.4*x*y)/1.92) / (2*pi*sqrt(0.96))",
            "y^2 <= x and y >= 0 and y >= x - 2",
            "x - (y - 1) - 2",
            "-x^2",
            "(x + y)^-2",
        ]:
            ast = parse(text, names)
            assert parse(to_text(ast), names) == ast

    def test_evaluation_pure(self):
        ast = parse("sin(x)*exp(y/3) + x^2", ["x", "y"])
        point = (1.234567, -0.7)
        first = evaluate(ast, point)
        assert all(evaluate(ast, point) == first for _ in range(5))

    def test_evaluation_reentrant_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        ast = parse("sin(x)*exp(y/3) + x^2", ["x", "y"])
        point = (0.321, 1.75)
        expected = evaluate(ast, point)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: evaluate(ast, point), range(64)))
        assert all(r == expected for r in results)

    def test_indicator_range_property(self):
        rng = random.Random(99)
        names = ("x", "y")
        pts = np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(64)])
        produced = set()
        for _ in range(200):
            ast = _random_ast(rng, names, 3)
            if not isinstance(ast, (Rel, And)):
                continue
            try:
                vals = evaluate_batch(ast, pts)
            except EvalError:
                continue
            produced.update(np.unique(vals).tolist())
        assert produced <= {0.0, 1.0} and produced


def test_expected_hint_on_missing_operand():
    with pytest.raises(ParseError) as err:
        parse("1 + ", [])
    assert "expected" in str(err.value)
