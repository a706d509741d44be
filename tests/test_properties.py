"""Property tests that guard the bit-identical rewrites of the hot paths.

Each property compares a rewritten path against the straightforward code it
replaced, kept here as the reference: box scaling against the numpy
broadcast, the CSV and SVG writers against per-value formatting, and the
samplers against their own output under another batch schedule.
"""
import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rejmc.cli as cli
from rejmc import Box, ScalarField, VarOrder, build_piecewise_proposal, grmc_sample
from rejmc import samplers, srmc_sample, svgplot, validate_target
from rejmc.randomness import scale_to_box

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
    lines = svgplot.scatter_svg(points, box, ("x", "y")).splitlines()
    assert lines[-1] == "</svg>"
    assert lines[-1 - len(points) : -1] == old_circles(points, box)


def sine_sampler():
    field = ScalarField.from_text("sin(x)/sqrt(2)", VarOrder(["x"]))
    target = validate_target(field, Box([(math.pi / 4, 3 * math.pi / 4)]), 1.1)
    return lambda n, seed: srmc_sample(target, n, seed, workers=1)


def gauss_grmc_sampler():
    field = ScalarField.from_text("exp(-(x^2 + y^2 - 0.4*x*y)/1.92)", VarOrder(["x", "y"]))
    proposal = build_piecewise_proposal(field, Box([(-4, 4), (-4, 4)]), [3, 5])
    return lambda n, seed: grmc_sample(field, proposal, n, seed, workers=1)


SAMPLERS = {"srmc": sine_sampler(), "grmc": gauss_grmc_sampler()}


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
