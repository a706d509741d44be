"""Property tests that guard the bit-identical rewrites of the hot paths.

Each property compares a rewritten path against the straightforward code it
replaced, kept here as the reference: box scaling against the numpy
broadcast, grid evaluation against the meshgrid matrix, the compiled
evaluator against a frozen copy of the per-operator one, the piecewise
generator against the one-shot splitmix64 formula, the CSV and SVG writers
against per-value formatting, the samplers against their own output under
another batch schedule, and the samplers' and integrators' outcomes,
faults included, against the one-proposal loop of conftest.py and under
other batch schedules. Three more state an invariant outright:
evaluate_batch returns no NaN and leaves its points and Grid columns
unchanged, and a string of tokens either parses to an AST that survives
the round trip through to_text or raises ParseError.
"""
import contextlib
import itertools
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rejmc.cli as cli
import rejmc.expression as expression
import rejmc.integrator as integrator
from rejmc import Box, EvalError, ScalarField, VarOrder, build_piecewise_proposal, grmc_sample
from rejmc import ParseError, TargetSpec, parse, samplers, srmc_sample, svgplot, validate_target
from rejmc.expression import BinOp, Call, Const, Grid, Neg, Num, Var
from rejmc.expression import evaluate_batch, to_text
from rejmc.randomness import GOLDEN_GAMMA, MASK64, RandomStream, capture_seed, scale_to_box
from rejmc.randomness import substream, uniform_box_block
from conftest import grmc_reference, integrate_reference, region_values, rows_alone
from conftest import srmc_reference

unit = st.floats(0.0, 1.0, exclude_max=True)
# widths from subnormal-tiny to near the float range, corners of either sign
widths = st.floats(5e-324, 1e300)
corners = st.floats(-1e300, 1e300)


def bits(a: np.ndarray) -> np.ndarray:
    # -0.0 and 0.0 compare equal; their bit patterns do not
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def box_scalings(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    u = draw(arrays(np.float64, (n, d + draw(st.integers(0, 2))), elements=unit))
    w = draw(arrays(np.float64, d, elements=widths))
    per_row = draw(st.booleans())
    lower = draw(arrays(np.float64, (n, d) if per_row else d, elements=corners))
    return u, lower, w


@given(box_scalings())
def test_scale_to_box_equals_broadcast_bit_for_bit(case):
    u, lower, w = case
    got = scale_to_box(u, lower, w)
    want = lower + u[:, : len(w)] * w
    assert got.flags.f_contiguous
    assert np.array_equal(bits(got), bits(want))


# every function applied straight to a variable, which reads the column in
# place: a column-major and a row-major copy must evaluate to the same bits
_COLUMN_FUNCS = "sin({v})*cos({v}) + tan({v}) + exp({v}) + sqrt({v}) + log({v}) + {v}^2.5"


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_column_major_points_evaluate_bit_for_bit(d, n, seed):
    names = "xyz"[:d]
    field = ScalarField.from_text(
        " + ".join(_COLUMN_FUNCS.format(v=v) for v in names), VarOrder(list(names))
    )
    u = np.random.default_rng(seed).random((n, d))
    lower, w = np.full(d, 0.5), np.full(d, 1.0)
    col = scale_to_box(u, lower, w)
    assert np.array_equal(bits(field(col)), bits(field(np.ascontiguousarray(col))))


NAMES = ("x", "y", "z")
FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "min", "max"]
COMPARISONS = ["<=", ">=", "<", ">"]


def asts(d: int):
    """Expression trees over the first d of x, y, z, in the form parse
    gives: literals are nonnegative (a sign is a Neg), and each operand of
    an 'and' is a comparison or an 'and', nested on either side."""
    leaves = st.one_of(
        st.builds(Num, st.floats(0.0, 1e6) | st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
        st.builds(Const, st.sampled_from(["pi", "e"])),
        st.integers(0, d - 1).map(lambda i: Var(NAMES[i], i)),
    )

    def extend(sub):
        rel = st.builds(BinOp, st.sampled_from(COMPARISONS), sub, sub)
        conj = rel | st.builds(BinOp, st.just("and"), rel, rel)
        call = st.sampled_from(FUNCS).flatmap(
            lambda f: st.tuples(*[sub] * (2 if f in ("min", "max") else 1)).map(
                lambda args: Call(f, args)
            )
        )
        return st.one_of(
            st.builds(Neg, sub),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
            call,
            rel,
            st.builds(BinOp, st.just("and"), conj, conj),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), asts(d))))
def test_render_parse_round_trip(case):
    d, ast = case
    assert parse(to_text(ast), NAMES[:d]) == ast


TOKENS = "x y 1 2.5 pi sin min ( ) , + - * / ^ < <= > >= and".split()


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(["", " "])), max_size=12))
@example([("-", ""), ("-", ""), ("x", "")])
@example([("(", ""), ("x", ""), ("<", ""), ("y", ""), (")", ""), ("<", ""), ("x", "")])
def test_token_strings_parse_and_round_trip_or_raise_parse_error(words):
    text = "".join(w + sep for w, sep in words)
    try:
        ast = parse(text, NAMES[:2])
    except ParseError:
        return
    assert parse(to_text(ast), NAMES[:2]) == ast


def outcome(fn):
    """("ok", shape, result bits) or ("error", failing node, message)."""
    try:
        out = fn()
    except EvalError as exc:
        return ("error", exc.node, str(exc))
    assert out.flags.c_contiguous and out.flags.writeable
    return ("ok", out.shape, bits(out).tobytes())


# zeros, negatives and huge values make every domain fault reachable
coords = st.sampled_from([0.0, -0.0, -1.0, 0.5, 2.0, -2.5, 1e-300, 700.0]) | st.floats(-10, 10)


@st.composite
def grid_cases(draw):
    d = draw(st.integers(1, 3))
    axes = [draw(arrays(np.float64, draw(st.integers(1, 5)), elements=coords)) for _ in range(d)]
    return draw(asts(d)), axes


def _case(text, axes):
    return parse(text, NAMES[: len(axes)]), [np.array(a, dtype=np.float64) for a in axes]


@settings(max_examples=150, deadline=None)
@given(grid_cases())
@example(_case("3", [[1.0, 2.0], [0.5]]))
@example(_case("y", [[1.0, 2.0], [0.5, 3.0], [4.0]]))
@example(_case("x < 1 and y > 0 and z <= 2", [[0.0, 1.0, 2.0], [-1.0, 1.0], [2.0, 3.0]]))
@example(_case("log(x - y) + sqrt(z)", [[1.0, 2.0], [0.5, 1.0], [4.0]]))
@example(_case("1 / (x - 1) + y", [[0.0, 1.0], [2.0]]))
@example(_case("log(y) + 1 / x", [[0.0], []]))
@example(_case("0^-x", [[1.0, 2.0]]))
@example(_case("(-y)^x", [[0.5, 2.0], [1.0]]))
@example(_case("exp(x) - exp(y)", [[700.0, 800.0], [800.0]]))
def test_grid_evaluation_equals_meshgrid_matrix(case):
    ast, axes = case
    grid = Grid(axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    matrix = np.stack([m.ravel() for m in mesh], axis=-1)
    assert len(grid) == len(matrix) and grid.shape == tuple(len(a) for a in axes)

    def reshaped():
        return evaluate_batch(ast, matrix).reshape(grid.shape)

    assert outcome(lambda: evaluate_batch(ast, grid)) == outcome(reshaped)


_REFERENCE_CONSTANTS = {"pi": math.pi, "e": math.e}


def reference_eval(node, cols):
    """The evaluator as it was before the operator table: one branch per
    operator and function, frozen here as the reference."""
    match node:
        case Num(value=v):
            return np.float64(v)
        case Const(name=name):
            return np.float64(_REFERENCE_CONSTANTS[name])
        case Var(index=index):
            return cols[index]
        case Neg(operand=op):
            return -reference_eval(op, cols)
        case BinOp(op=op, left=left, right=right):
            a = reference_eval(left, cols)
            b = reference_eval(right, cols)
            if op in COMPARISONS:
                # a NaN compares false; the comparison refuses it instead
                for value, operand in ((a, left), (b, right)):
                    if np.any(np.isnan(value)):
                        raise EvalError("evaluation produced NaN", operand)
                cmp = {"<=": np.less_equal, ">=": np.greater_equal, "<": np.less, ">": np.greater}[
                    op
                ](a, b)
                return np.multiply(cmp, 1.0)
            if op == "and":
                return a * b
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
            # NaN^0 and 1^NaN are 1.0: refuse a NaN base unless the exponent
            # is a nonzero scalar, and a NaN exponent unless the base is a
            # scalar other than 1
            if not (np.ndim(b) == 0 and b != 0.0) and np.any(np.isnan(a)):
                raise EvalError("evaluation produced NaN", left)
            if not (np.ndim(a) == 0 and a != 1.0) and np.any(np.isnan(b)):
                raise EvalError("evaluation produced NaN", right)
            if np.any((a == 0.0) & (b < 0.0)):
                raise EvalError("zero raised to a negative power", node)
            out = np.power(a, b)
            if np.any(np.isnan(out)):
                if np.any(np.isnan(a)):
                    raise EvalError("evaluation produced NaN", left)
                if np.any(np.isnan(b)):
                    raise EvalError("evaluation produced NaN", right)
                raise EvalError("negative base with non-integer exponent", node)
            return out
        case Call(func=func, args=args):
            vals = [reference_eval(arg, cols) for arg in args]
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
    raise TypeError(f"not an expression node: {node!r}")


def eval_outcome(fn, cols):
    """("ok", dtype, shape, bits) or ("error", failing node, its identity,
    message)."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn(cols))
    except EvalError as exc:
        return ("error", exc.node, id(exc.node), str(exc))
    return ("ok", out.dtype, out.shape, bits(out).tobytes())


# signed zeros, negatives, and magnitudes that overflow or underflow
extremes = st.sampled_from([0.0, -0.0, -1.0, -2.5, 0.5, 2.0, 1e300, -1e300, 1e-300, 700.0])


@st.composite
def evaluator_cases(draw):
    d = draw(st.integers(1, 3))
    values = extremes | st.floats(-10, 10)
    if draw(st.booleans()):
        axes = [draw(arrays(np.float64, draw(st.integers(1, 4)), elements=values)) for _ in range(d)]
        cols = Grid(axes).columns
    else:
        pts = draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=values))
        cols = [pts[:, i] for i in range(d)]
    return draw(asts(d)), cols


def _rows(text, *rows):
    pts = np.array(rows, dtype=np.float64)
    return parse(text, NAMES[: pts.shape[1]]), [pts[:, i] for i in range(pts.shape[1])]


@settings(max_examples=250, deadline=None)
@given(evaluator_cases())
@example(_rows("1 / x + log(x)", [1.0], [0.0]))
@example(_rows("log(x) + 1 / x", [-0.0]))
@example(_rows("sqrt(x) + log(x)", [-1e-300]))
@example(_rows("log(x - y)", [1.0, 1.0]))
@example(_rows("x^(0 - 1) + (-x)^0.5", [0.0], [2.0]))
@example(_rows("(-x)^0.5", [0.0], [2.0]))
@example(_rows("exp(x) - exp(x)", [1e300]))
@example(_rows("min(x, y) + max(x <= y, y > x) * abs(x) + tan(pi) / e", [-0.0, 0.0], [1e300, -1e300]))
@example(_rows("x < 1 and y >= 0 and x > y", [0.5, 0.25], [2.0, -1.0]))
@example(_rows("x < 1 and (y >= 0 and x > y)", [0.5, 0.25], [2.0, -1.0]))
@example(_rows("exp(x) - exp(x) < 1 and sin(exp(y)) >= 0", [1000.0, 1.0], [0.0, 1000.0]))
@example(_rows("x < 1 and sin(exp(y)) >= min(exp(x) - exp(x), 1)", [0.0, 1000.0], [1000.0, 0.0]))
# numpy's power in place on one element takes its sqrt path, with other bits
@example(_rows("(x - 1)^y", [3.537854490990523, 0.5]))
def test_evaluator_equals_frozen_reference(case):
    ast, cols = case
    # the compiled node before evaluate_batch's final NaN check, which the
    # reference leaves to its caller as well
    run, _ = expression._compile(ast)
    assert eval_outcome(run, cols) == eval_outcome(lambda c: reference_eval(ast, c), cols)


@st.composite
def point_sets(draw):
    """An expression over d variables and a matrix of rows or a Grid."""
    d = draw(st.integers(1, 3))
    values = extremes | st.floats(-10, 10)
    if draw(st.booleans()):
        points = Grid([draw(arrays(np.float64, draw(st.integers(1, 4)), elements=values))
                       for _ in range(d)])
    else:
        points = draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=values))
    return draw(asts(d)), points


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example((parse("exp(x) - exp(x)", ["x"]), np.array([[1e300]])))
@example((parse("x * exp(y)", ["x", "y"]), Grid([np.array([0.0]), np.array([1e300])])))
def test_evaluate_batch_raises_or_returns_no_nan(case):
    ast, points = case
    try:
        out = evaluate_batch(ast, points)
    except EvalError:
        return
    assert not np.any(np.isnan(out))


@settings(max_examples=150, deadline=None)
@given(point_sets(), st.booleans())
@example((parse("-x", ["x"]), np.array([[1.0], [2.0]])), True)
@example((parse("exp(x) + 1", ["x"]), Grid([np.array([0.0, 1.0])])), False)
@example((parse("x^0.5 + y", ["x", "y"]), np.array([[-1.0, 0.0]])), True)
def test_evaluation_leaves_points_and_grid_columns_unchanged(case, column_major):
    # a node may write its result into an operand's array only when a node
    # made that array during this evaluation
    ast, points = case
    if isinstance(points, Grid):
        inputs = points.columns
    else:
        points = np.asfortranarray(points) if column_major else points
        inputs = [points]
    before = [bits(a).copy() for a in inputs]
    try:
        evaluate_batch(ast, points)
    except EvalError:
        pass
    assert all(np.array_equal(bits(a), b) for a, b in zip(inputs, before))


WORD_COUNTS = [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5]
# states whose counter passes a multiple of 2^64, within 2, at some word
# j of the block, in any piece
near_wrap = st.tuples(st.integers(0, 3 * 2**16 + 6), st.integers(-2, 2)).map(
    lambda t: (t[1] - t[0] * GOLDEN_GAMMA) & MASK64
)


def one_shot_words(state: int, count: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = np.uint64(state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, MASK64) | near_wrap | st.sampled_from([0, MASK64]),
    st.sampled_from(WORD_COUNTS),
    st.booleans(),
)
def test_piecewise_generator_equals_one_shot_formula(state, count, into_out):
    want = one_shot_words(state, count)
    advanced = (state + count * GOLDEN_GAMMA) & MASK64

    words, stream = np.full(count, 7, dtype=np.uint64), RandomStream(state)
    got = stream.next_u64_block(count, words if into_out else None)
    assert np.array_equal(got, want) and stream.state == advanced
    assert got is words if into_out else got.dtype == np.uint64

    draws, stream = np.full(count, 0.25), RandomStream(state)
    got = stream.uniform01_block(count, draws if into_out else None)
    assert np.array_equal(bits(got), bits((want >> np.uint64(11)).astype(np.float64) * 2.0**-53))
    assert stream.state == advanced
    assert got is draws if into_out else got.dtype == np.float64


special = st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e16, -1.5e-7, 0.1, 1e300, math.inf])
csv_values = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))


def old_csv(names, points) -> str:
    lines = [",".join(names)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in points)
    return "\n".join(lines) + "\n"


@given(
    st.integers(1, 4).flatmap(
        lambda d: arrays(np.float64, st.tuples(st.integers(1, 30), st.just(d)), elements=csv_values)
    )
)
def test_write_csv_matches_per_value_repr(tmp_path_factory, points):
    names = ["x", "y", "z", "w"][: points.shape[1]]
    path = tmp_path_factory.mktemp("csv") / "samples.csv"
    cli._write_csv(str(path), names, points)
    assert path.read_text() == old_csv(names, points)


def old_circles(points, box) -> list[str]:
    (x_lo, x_hi), (y_lo, y_hi) = box.bounds
    span = svgplot._VIEW - 2 * svgplot._MARGIN
    px = svgplot._MARGIN + (points[:, 0] - x_lo) / (x_hi - x_lo) * span
    py = svgplot._VIEW - svgplot._MARGIN - (points[:, 1] - y_lo) / (y_hi - y_lo) * span
    return [f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="1"/>' for cx, cy in zip(px, py)]


@given(
    st.floats(-1e6, 1e6),
    st.floats(1e-3, 1e6),
    arrays(np.float64, st.tuples(st.integers(1, 50), st.just(2)), elements=unit),
)
def test_scatter_svg_body_matches_fstrings(lo, width, u):
    box = Box([(lo, lo + width), (-lo, -lo + 2 * width)])
    # points inside the box and a little outside it
    points = box.lower + (u * 1.2 - 0.1) * box.widths
    lines = b"".join(svgplot.scatter_svg(points, box, ("x", "y"))).decode().splitlines()
    assert lines[-1] == "</svg>"
    assert lines[-1 - len(points) : -1] == old_circles(points, box)


def on_threads(run):
    """run(n, seed) as sample(n, seed, workers=1), with RMC_THREADS=workers."""

    def sample(n, seed, workers=1):
        with mock.patch.dict(os.environ, {"RMC_THREADS": str(workers)}):
            return run(n, seed)

    return sample


def sine_sampler():
    field = ScalarField.from_text("sin(x)/sqrt(2)", VarOrder(["x"]))
    target = validate_target(field, Box([(math.pi / 4, 3 * math.pi / 4)]), 1.1)
    return on_threads(lambda n, seed: srmc_sample(target, n, seed))


def gauss_grmc_sampler(bins):
    field = ScalarField.from_text("exp(-(x^2 + y^2 - 0.4*x*y)/1.92)", VarOrder(["x", "y"]))
    proposal = build_piecewise_proposal(field, Box([(-4, 4), (-4, 4)]), bins)
    return on_threads(lambda n, seed: grmc_sample(field, proposal, n, seed))


SAMPLERS = {"srmc": sine_sampler(), "grmc": gauss_grmc_sampler([3, 5])}


# shrinking toward one-proposal batches re-runs thousands of batches per
# step, so a failure is reported as first found
@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(
    st.sampled_from(sorted(SAMPLERS)),
    st.integers(1, 5000),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(1, 5000), min_size=1, max_size=8),
)
def test_samples_do_not_depend_on_batch_sizes(kind, n, seed, sizes):
    sample = SAMPLERS[kind]
    want = sample(n, seed)
    schedule = itertools.cycle(sizes)
    with mock.patch.object(samplers, "_next_batch_size", lambda *args: next(schedule)):
        got = sample(n, seed)
    assert np.array_equal(bits(got.points), bits(want.points))
    assert got.meta.proposals_drawn == want.meta.proposals_drawn


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SAMPLERS)),
    st.integers(1, 3 * samplers.CHUNK_ACCEPTS),
    st.integers(0, 2**64 - 1),
    st.integers(1, 8),
)
@example("srmc", 3 * samplers.CHUNK_ACCEPTS, 2**64 - 1, 8)
@example("grmc", 2 * samplers.CHUNK_ACCEPTS + 1, 0, 3)
def test_samples_do_not_depend_on_worker_count(kind, n, seed, workers):
    sample = SAMPLERS[kind]
    want = sample(n, seed)
    got = sample(n, seed, workers)
    assert np.array_equal(bits(got.points), bits(want.points))
    assert got.meta.proposals_drawn == want.meta.proposals_drawn


GANG_SAMPLERS = {**SAMPLERS, "grmc_one_cell": gauss_grmc_sampler(1)}


@pytest.mark.parametrize("gang", [1, 2, 7, "all"])
@pytest.mark.parametrize("kind", sorted(GANG_SAMPLERS))
@settings(max_examples=6, deadline=None)
@given(
    st.integers(1, 12 * samplers.CHUNK_ACCEPTS),
    st.integers(0, 2**64 - 1),
    st.sampled_from([1, 3000, 1 << 15, 1 << 16, 1 << 17, 1 << 40]),
    st.integers(1, 3),
)
def test_samples_do_not_depend_on_gangs(kind, gang, n, seed, round_cap, workers):
    sample = GANG_SAMPLERS[kind]
    want = sample(n, seed)
    size = (lambda chunks: chunks) if gang == "all" else (lambda chunks: gang)
    with mock.patch.object(samplers, "_gang_size", size):
        with mock.patch.object(samplers, "_ROUND", round_cap):
            got = sample(n, seed, workers)
    assert np.array_equal(bits(got.points), bits(want.points))
    assert got.meta.proposals_drawn == want.meta.proposals_drawn


def value_bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def aggregate(values):
    arr = np.asarray(values, dtype=np.float64)
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return value_bits([float(arr.mean()), stderr, *values])


def row_order(fn, points):
    """fn(points), a fault raised as the first row that faults raises it alone."""
    values, fault = rows_alone(fn, points, block=len(points))
    if fault is not None:
        raise fault
    return np.array(values)


def screened_reference(g, region, box, n, reps, seed):
    """integrate_screened's numbers on the whole uniform batch and then on all
    n samples at once, a fault raised in row order. The density x*y does
    not fault, so each region value comes before any sampler failure."""
    in_region = region_values(ScalarField(region, g.vars))
    target = validate_target(g, box)
    run_seed = capture_seed(seed)
    values, counts, proposals, accepted = [], 0, 0, 0
    for r in range(reps):
        rs = substream(run_seed, r)
        a = box.volume * float(np.mean(row_order(g, uniform_box_block(rs, box, n))))
        batch = srmc_sample(target, n, rs.state)
        count = int(np.count_nonzero(row_order(in_region, batch.points)))
        values.append(a * (count / n))
        counts += count
        proposals += batch.meta.proposals_drawn
        accepted += batch.meta.accepted
    return aggregate(values), counts, proposals, accepted


def direct_reference(g, region, box, n, reps, seed):
    """integrate_direct's numbers on the whole uniform batch, a fault raised
    in row order."""
    in_region = region_values(ScalarField(region, g.vars))
    run_seed = capture_seed(seed)
    values = []
    for r in range(reps):
        uniform = uniform_box_block(substream(run_seed, r), box, n)
        g_in_region = lambda p: g(p) * in_region(p)
        values.append(box.volume * float(np.mean(row_order(g_in_region, uniform))))
    return aggregate(values), 0, 0, 0


def estimate_numbers(run):
    """run()'s estimate as the references give it, or its error's type and message."""
    try:
        est = run()
    except (EvalError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    values = aggregate(est.per_replication_values)
    assert values[:2] == value_bits([est.value, est.std_error])
    return values, est.n_in_region, est.proposals_drawn, est.accepted


def reference_numbers(run):
    try:
        return run()
    except (EvalError, ValueError) as exc:
        return type(exc).__name__, str(exc)


PARABOLA = "y^2 <= x and y >= 0 and y >= x - 2"
# the log check comes first, and its slice is thinner: a whole batch that
# meets both checks raises the log check's error, but its first faulting row
# meets only the sqrt check
THIN_FAULTS = "log(4 - 0.00004 - x) < 2 and sqrt(2 - 0.0002 - y) >= 0"


@pytest.mark.parametrize("region", [PARABOLA, THIN_FAULTS], ids=["parabola", "thin_faults"])
@pytest.mark.parametrize(
    "n", [1, 1000, 3 * integrator._PIECE + 17, 5 * samplers.CHUNK_ACCEPTS + 1, 60_000]
)
@pytest.mark.parametrize("workers", [1, 2])
def test_integrators_equal_whole_batch_replications(region, n, workers, monkeypatch):
    monkeypatch.setenv("RMC_THREADS", str(workers))
    order = VarOrder(["x", "y"])
    g = ScalarField.from_text("x*y", order)
    box = Box([(0, 4), (0, 2)])
    node = parse(region, order)
    for seed in (7, 2**64 - 1):
        for run, reference in [
            (integrator.integrate_screened, screened_reference),
            (integrator.integrate_direct, direct_reference),
        ]:
            got = estimate_numbers(lambda: run(g, node, box, n, 3, seed))
            assert got == reference_numbers(lambda: reference(g, node, box, n, 3, seed))


# thin-slice faults: the density's sqrt check fails within w of one point
# and its log check within w/10 of another, and the region's checks within
# 4w and w/10 of two more, so that a screened replication can meet a
# region fault before a density fault. The density's points lie between
# the points of the bound and histogram grids, so that only sampled points
# meet its faults.
FAULTY_DENSITY = (
    "exp(-x^2) + 0*sqrt((x - 0.3173828125)^2 - {w}^2) + 0*log((x + 0.5771484375)^2 - {v}^2)"
)
FAULTY_REGION = "x^2 < 0.5 and sqrt((x + 0.125)^2 - {u}^2) >= 0 and log((x - 0.6982)^2 - {v}^2) < 9"
FAULTY_KINDS = ["srmc", "grmc one cell", "grmc cells", "screened", "direct"]


def faulty_runs(kind, w, bins):
    """(run, reference) of one kind of run on the thin-slice target: each
    maps (n, seed) to the points and proposal count, or to the
    per-replication values and counts of 2 replications of n // 4 + 1."""
    order = VarOrder(["x"])
    field = ScalarField.from_text(FAULTY_DENSITY.format(w=w, v=w / 10), order)
    region = parse(FAULTY_REGION.format(u=4 * w, v=w / 10), order)
    box = Box([(-1, 1)])

    def sampler(sample, reference):
        def numbers(n, seed):
            batch = sample(n, seed)
            return batch.points, batch.meta.proposals_drawn

        return numbers, reference

    def integrate(run, screened):
        def numbers(n, seed):
            est = run(field, region, box, n // 4 + 1, 2, seed)
            counts = est.n_in_region, est.proposals_drawn, est.accepted
            return list(est.per_replication_values), *counts

        def reference(n, seed):
            return integrate_reference(screened, field, region, box, n // 4 + 1, 2, seed)

        return numbers, reference

    if kind == "srmc":
        target = TargetSpec(field, box, 1.1)
        return sampler(
            lambda n, seed: srmc_sample(target, n, seed),
            lambda n, seed: srmc_reference(target, n, seed),
        )
    if kind.startswith("grmc"):
        proposal = build_piecewise_proposal(field, box, 1 if kind == "grmc one cell" else bins)
        return sampler(
            lambda n, seed: grmc_sample(field, proposal, n, seed),
            lambda n, seed: grmc_reference(field, proposal, n, seed),
        )
    if kind == "screened":
        return integrate(integrator.integrate_screened, True)
    return integrate(integrator.integrate_direct, False)


def numbers_or_error(run):
    """run()'s numbers with each float as its bits, or its error's type and message."""
    try:
        first, *rest = run()
    except (EvalError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return value_bits(first), *rest


def batching(workers, sizes, round_cap, gang, piece):
    """The patches of one batch schedule: RMC_THREADS, _next_batch_size
    cycling through sizes, _ROUND, _gang_size and integrator._PIECE."""
    schedule = itertools.cycle(sizes)
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.dict(os.environ, {"RMC_THREADS": str(workers)}))
    sizes = lambda *args: next(schedule)
    stack.enter_context(mock.patch.object(samplers, "_next_batch_size", sizes))
    stack.enter_context(mock.patch.object(samplers, "_ROUND", round_cap))
    size = (lambda chunks: chunks) if gang == "all" else (lambda chunks: gang)
    stack.enter_context(mock.patch.object(samplers, "_gang_size", size))
    stack.enter_context(mock.patch.object(integrator, "_PIECE", piece))
    return stack


schedules = st.tuples(
    st.integers(1, 3),
    st.lists(st.integers(1, 6000), min_size=1, max_size=4),
    st.sampled_from([1, 3000, 1 << 17]),
    st.sampled_from([1, 2, "all"]),
    st.sampled_from([1, 7, 1000, 1 << 14]),
)
slice_widths = st.floats(-5.5, -3.5).map(lambda e: 10**e)


@pytest.mark.parametrize("kind", FAULTY_KINDS)
@settings(max_examples=6, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(st.integers(1, 3 * samplers.CHUNK_ACCEPTS), st.integers(0, 2**64 - 1), slice_widths,
       st.integers(2, 5), schedules)
# whole-batch failures got the first two wrong: srmc raised where the loop
# fails nothing, and integrate_direct raised another check's error. In the
# third, a screened replication meets a region fault before a density fault
@example(7266, 32178, 1.22e-05, 3, (1, [4096], 1 << 17, 1, 1 << 14))
@example(7702, 52925, 0.0002012, 3, (2, [4096], 3000, "all", 7))
@example(9385, 1904, 5.62e-05, 3, (1, [4096], 1 << 17, 1, 1 << 14))
def test_outcomes_equal_the_one_proposal_loop(kind, n, seed, w, bins, schedule):
    run, reference = faulty_runs(kind, w, bins)
    with batching(*schedule):
        got = numbers_or_error(lambda: run(n, seed))
    assert got == numbers_or_error(lambda: reference(n, seed))


@pytest.mark.parametrize("kind", FAULTY_KINDS)
@settings(max_examples=10, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(st.integers(1, 12 * samplers.CHUNK_ACCEPTS), st.integers(0, 2**64 - 1), slice_widths,
       st.integers(2, 5), schedules)
def test_outcomes_do_not_depend_on_batching(kind, n, seed, w, bins, schedule):
    run, _ = faulty_runs(kind, w, bins)
    want = numbers_or_error(lambda: run(n, seed))
    with batching(*schedule):
        assert numbers_or_error(lambda: run(n, seed)) == want
