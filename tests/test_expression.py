import inspect
import itertools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rejmc import EvalError, ParseError, VarOrder, parse
from rejmc.expression import MAX_DEPTH, BinOp, Call, Const, Neg, Num, Var
from rejmc.expression import Grid, evaluate_batch, free_vars, to_text
from rejmc.samplers import ordered_map


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
        x, y = Var("x", 0), Var("y", 1)
        assert parse("2^-x", ["x", "y"]) == BinOp("^", Num(2.0), Neg(x))
        assert parse("x*-y", ["x", "y"]) == BinOp("*", x, Neg(y))
        assert parse("-x^2", ["x", "y"]) == Neg(BinOp("^", x, Num(2.0)))
        assert parse("(x<y)<x", ["x", "y"]) == BinOp("<", BinOp("<", x, y), x)

    def test_and_chain_is_left_fold_of_comparisons(self):
        names = ["a", "b", "c", "d", "f", "g"]
        a, b, c, d, f, g = (Var(n, i) for i, n in enumerate(names))
        ab, cd, gf = BinOp("<", a, b), BinOp("<", c, d), BinOp("<", g, f)
        assert parse("a<b and c<d and g<f", names) == BinOp(
            "and", BinOp("and", ab, cd), gf
        )
        # parentheses around a later part of the chain are kept, not flattened
        nested = parse("a<b and (c<d and g<f)", names)
        assert nested == BinOp("and", ab, BinOp("and", cd, gf))
        assert to_text(nested) == "a < b and (c < d and g < f)"

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

    @pytest.mark.parametrize(
        "text,offset",
        [("x and y", 0), ("y<1 and (x and z<1)", 9), ("  x * ( x and 2.5", 8)],
        ids=["first-operand", "in-parentheses", "after-spaces"],
    )
    def test_and_requires_comparisons(self, text, offset):
        # the offset is the bad operand's, also inside parentheses
        with pytest.raises(ParseError, match="comparison") as err:
            parse(text, ["x", "y", "z"])
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text,message,offset",
        [
            # one unary minus prefixes a power, not another minus
            ("--x", "unexpected '-'", 1),
            ("- -x", "unexpected '-'", 2),
            ("2^--x", "unexpected '-'", 3),
            # an unparenthesized comparison cannot follow another one
            ("a<b<c", "unexpected '<' after expression", 3),
            ("a<b and c<d<f", "unexpected '<' after expression", 11),
            ("(a<b) and c<d<f", "unexpected '<' after expression", 13),
            # "and" is an operator, not a function
            ("x<1 and and(a<b, c<d)", "'and' is not a value", 8),
        ],
    )
    def test_refused_with_offset(self, text, message, offset):
        with pytest.raises(ParseError, match=message) as err:
            parse(text, ["a", "b", "c", "d", "f", "x"])
        assert err.value.offset == offset

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

    @pytest.mark.parametrize(
        "text,operand",
        [
            ("exp(1000)-exp(1000) < 1", "exp(1000.0) - exp(1000.0)"),
            ("sin(exp(1000)) >= 0", "sin(exp(1000.0))"),
            ("min(exp(1000)-exp(1000), 1) < 2", "min(exp(1000.0) - exp(1000.0), 1.0)"),
            ("x < 1 and 2 > sin(exp(1000*x))", "sin(exp(1000.0 * x))"),
        ],
    )
    def test_nan_operand_of_comparison_raises(self, text, operand):
        # a NaN compares false: without the check these would return 0.0
        ast = parse(text, ["x"])
        with pytest.raises(EvalError, match="evaluation produced NaN") as err:
            evaluate_batch(ast, np.array([[0.5], [1.0]]))
        assert to_text(err.value.node) == operand

    @pytest.mark.parametrize(
        "text,operand",
        [
            ("(exp(1000)-exp(1000))^0", "exp(1000.0) - exp(1000.0)"),
            ("1^(exp(1000)-exp(1000))", "exp(1000.0) - exp(1000.0)"),
            ("(exp(1000)-exp(1000))^2", "exp(1000.0) - exp(1000.0)"),
            ("sin(exp(1000*x))^x", "sin(exp(1000.0 * x))"),
            ("x^sin(exp(1000*x))", "sin(exp(1000.0 * x))"),
            ("sin(exp(1000*x))^2", "sin(exp(1000.0 * x))"),
        ],
    )
    def test_nan_operand_of_power_raises(self, text, operand):
        # NaN^0 and 1^NaN are 1.0, and NaN^2 is not a negative base
        ast = parse(text, ["x"])
        with pytest.raises(EvalError, match="evaluation produced NaN") as err:
            evaluate_batch(ast, np.array([[0.5], [1.0]]))
        assert to_text(err.value.node) == operand

    def test_nan_never_silently_returned(self):
        # inf - inf is not on the named fault list but must still raise
        ast = parse("exp(x) - exp(x + 0*x)", ["x"])
        with pytest.raises(EvalError):
            evaluate(ast, (1000.0,))


def _sum(n):
    return "+".join(["x"] * n)


def _and_chain(n):
    return " and ".join(["x < 1"] * n)


def _parens(n):
    return "(" * n + "x" + ")" * n


def _calls(n):
    return "sin(" * n + "x" + ")" * n


def _right_sums(n):
    # x+(x+(...)): two levels, an operator and a pair of parentheses, per term
    return "x+(" * n + "x" + ")" * n


class TestDepthLimit:
    # (text at MAX_DEPTH levels, text one level deeper, the token that opens
    # the level one too deep: the last one of its kind)
    CASES = {
        "sum": (_sum(MAX_DEPTH + 1), _sum(MAX_DEPTH + 2), "+"),
        "and-chain": (_and_chain(MAX_DEPTH), _and_chain(MAX_DEPTH + 1), "and"),
        "parentheses": (_parens(MAX_DEPTH), _parens(MAX_DEPTH + 1), "("),
        "calls": (_calls(MAX_DEPTH), _calls(MAX_DEPTH + 1), "sin"),
        "right-nested-sum": (
            _right_sums(MAX_DEPTH // 2),
            "(" + _right_sums(MAX_DEPTH // 2) + ")",
            "(",
        ),
    }

    @pytest.mark.parametrize("kind", list(CASES))
    def test_at_the_limit_parses_evaluates_on_a_pool_thread_and_prints(self, kind):
        ast = parse(self.CASES[kind][0], ["x"])
        pts = np.array([[0.25], [0.5]])
        with ThreadPoolExecutor(max_workers=1) as pool:
            values = pool.submit(evaluate_batch, ast, pts).result()
        assert values.shape == (2,) and np.all(np.isfinite(values))
        text = to_text(ast)
        assert parse(text, ["x"]) == ast

    @pytest.mark.parametrize("kind", list(CASES))
    def test_one_level_deeper_is_refused_with_offset(self, kind):
        _, text, token = self.CASES[kind]
        with pytest.raises(ParseError, match="expression nests too deeply") as err:
            parse(text, ["x"])
        assert err.value.offset == text.rindex(token)

    @pytest.mark.parametrize("make", [_sum, _and_chain, _parens, _calls, _right_sums])
    def test_far_too_deep_is_refused_not_a_recursion_error(self, make):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse(make(3001), ["x"])


def _chain(wrap, leaf, levels=MAX_DEPTH):
    node = leaf
    for _ in range(levels):
        node = wrap(node)
    return node


class TestDeepTrees:
    """Trees MAX_DEPTH levels deep, built directly: one chain per node kind
    that nests, over each kind of leaf."""

    WRAPS = {
        "Neg": Neg,
        "BinOp": lambda node: BinOp("+", node, Const("pi")),
        "Call": lambda node: Call("min", (node, Num(1.0))),
    }
    LEAVES = {"Num": Num(0.5), "Const": Const("e"), "Var": Var("x", 0)}
    # the text of one level of each chain
    OPENS = {"Neg": "-", "BinOp": " + pi", "Call": "min("}

    @pytest.mark.parametrize("leaf", list(LEAVES))
    @pytest.mark.parametrize("kind", list(WRAPS))
    def test_evaluates_on_the_callers_thread_and_a_pool_thread(self, kind, leaf, monkeypatch):
        ast = _chain(self.WRAPS[kind], self.LEAVES[leaf])
        pts = np.array([[0.25], [0.5]])
        here = evaluate_batch(ast, pts)
        monkeypatch.setenv("RMC_THREADS", "2")
        pooled = ordered_map(lambda i: (threading.get_ident(), evaluate_batch(ast, pts)), 2)
        assert any(ident != threading.get_ident() for ident, _ in pooled)
        assert here.shape == (2,) and np.all(np.isfinite(here))
        for _, values in pooled:
            assert np.array_equal(values, here)

    def test_every_walk_fits_three_frames_per_level(self):
        """repr, ==, hash, to_text, evaluation and parsing of trees MAX_DEPTH
        levels deep each fit the recursion budget of the MAX_DEPTH comment:
        three frames per level, with room for the calls around them."""
        pts = np.array([[0.25], [0.5]])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 3 * MAX_DEPTH + 40)
        try:
            for kind, leaf in itertools.product(self.WRAPS, self.LEAVES):
                ast, twin = (_chain(self.WRAPS[kind], self.LEAVES[leaf]) for _ in range(2))
                assert repr(ast).count(f"{kind}(") == MAX_DEPTH
                assert ast == twin and ast is not twin and hash(ast) == hash(twin)
                assert to_text(ast).count(self.OPENS[kind]) == MAX_DEPTH
                assert np.all(np.isfinite(evaluate_batch(ast, pts)))
            x = Var("x", 0)
            assert parse(_calls(MAX_DEPTH), ["x"]) == _chain(lambda n: Call("sin", (n,)), x)
            assert parse(_sum(MAX_DEPTH + 1), ["x"]) == _chain(lambda n: BinOp("+", n, x), x)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("func", ["sin", "min"])
    def test_equality_hash_and_repr_walk_without_recursion(self, func):
        """A chain of MAX_DEPTH calls compares, hashes and prints; how deep
        that recurses is test_every_walk_fits_three_frames_per_level's."""

        def wrap(node):
            return Call(func, (node,) if func == "sin" else (node, Num(2.0)))

        ast = _chain(wrap, Var("x", 0))
        assert ast == _chain(wrap, Var("x", 0)) and hash(ast) == hash(_chain(wrap, Var("x", 0)))
        assert ast != _chain(wrap, Var("y", 1))
        assert ast != _chain(wrap, Var("x", 0), MAX_DEPTH - 1)
        text = repr(ast)
        assert text.startswith(f"Call(func='{func}', args=(Call(func='{func}'")
        assert text.count("Call(") == MAX_DEPTH

    def test_repr_and_equality_are_the_dataclass_ones(self):
        """repr prints Kind(field=value, ...), as a dataclass's would, and
        == compares the fields as a tuple of them would."""
        ast = parse("min(x, 1) + -sin(y)^2 < 3 and x > pi", ["x", "y"])
        nodes = {cls.__name__: cls for cls in (BinOp, Call, Const, Neg, Num, Var)}
        assert eval(repr(ast), nodes) == ast
        assert repr(Call("sin", (Var("x", 0),))) == "Call(func='sin', args=(Var(name='x', index=0),))"
        assert repr(BinOp("-", Num(1.0), Neg(Const("e")))) == (
            "BinOp(op='-', left=Num(value=1.0), right=Neg(operand=Const(name='e')))"
        )
        # fields compare as a tuple of them would: 1 == 1.0 and 0.0 == -0.0
        assert Num(1) == Num(1.0) and hash(Num(0.0)) == hash(Num(-0.0))
        assert Num(1.0) != Const("pi") and Var("x", 0) != Var("x", 1)
        assert Call("min", (Num(1.0), Num(2.0))) != Call("min", (Num(1.0),))


class TestGridMatchesRows:
    @pytest.mark.parametrize("text", ["-x + y", "exp(x)*y^2", "abs(x) - z", "(x < y) * z"])
    def test_broadcast_operands_give_the_bits_of_rows(self, text):
        axes = [np.array([-1.5, 0.0, 2.0]), np.array([0.5, -3.0]), np.array([4.0, -0.0, 1e-3, 9.0])]
        ast = parse(text, ["x", "y", "z"])
        mesh = np.meshgrid(*axes, indexing="ij")
        rows = np.stack([m.ravel() for m in mesh], axis=-1)
        on_grid = evaluate_batch(ast, Grid(axes))
        assert on_grid.shape == (3, 2, 4)
        assert np.array_equal(on_grid.ravel().view(np.uint64), evaluate_batch(ast, rows).view(np.uint64))


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
        return _random_comparison(rng, names, depth)
    # an 'and' of two comparisons or 'and's: a chain, or one nested in
    # either operand
    return BinOp("and", *(_random_conjunct(rng, names, depth - 1) for _ in range(2)))


def _random_comparison(rng, names, depth):
    op = rng.choice(["<=", ">=", "<", ">"])
    return BinOp(op, _random_ast(rng, names, depth - 1), _random_ast(rng, names, depth - 1))


def _random_conjunct(rng, names, depth):
    if depth > 0 and rng.random() < 0.3:
        return BinOp("and", *(_random_conjunct(rng, names, depth - 1) for _ in range(2)))
    return _random_comparison(rng, names, depth)


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
            if not (isinstance(ast, BinOp) and ast.op in ("<=", ">=", "<", ">", "and")):
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
