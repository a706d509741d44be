import ast
import itertools
import math
import pickle

import numpy as np
import pytest

from rejmc import (
    Box,
    EnvelopeViolation,
    ModelValidationError,
    ScalarField,
    TargetSpec,
    VarOrder,
    build_piecewise_proposal,
    grmc_sample,
    validate_target,
)
from rejmc import model, samplers
from rejmc.model import box_from_text
from rejmc.randomness import RandomStream, uniform_box_block
from conftest import GAUSS_MAX, GAUSS_C_LOOSE


class TestBox:
    def test_volume_is_product_of_sides(self):
        box = Box([(0, 4), (0, 2)])
        assert box.volume == 8.0
        box = Box([(-5, 5), (-5, 5)])
        assert box.volume == 100.0

    def test_volume_ulp_accuracy(self):
        sides = [(0.1, 0.7), (-1.3, 2.9), (5.0, 5.000001)]
        box = Box(sides)
        exact = math.prod(hi - lo for lo, hi in sides)
        assert box.volume == pytest.approx(exact, rel=1e-15)

    # the last two have finite bounds, but a width or the volume overflows
    @pytest.mark.parametrize(
        "bounds",
        [
            [(1, 1)],
            [(2, 1)],
            [(0, math.inf)],
            [],
            [(-1e308, 1e308)],
            [(0, 1e200), (0, 1e200)],
            [(0, 1e-200), (0, 1e-200)],
        ],
    )
    def test_degenerate_rejected(self, bounds):
        with pytest.raises(ValueError):
            Box(bounds)

    def test_from_text(self):
        box = box_from_text("0:4,0:2")
        assert box.bounds == ((0.0, 4.0), (0.0, 2.0))
        with pytest.raises(ValueError):
            box_from_text("0:4,5")
        with pytest.raises(ValueError):
            box_from_text("a:b")


class TestScalarField:
    def test_rejects_undeclared_variables(self):
        from rejmc import ParseError, parse

        with pytest.raises(ParseError, match="unknown identifier"):
            ScalarField.from_text("x + z", VarOrder(["x"]))
        ast = parse("x + z", ["x", "z"])
        with pytest.raises(ValueError, match="undeclared"):
            ScalarField(ast, VarOrder(["x"]))

    def test_call(self, sine_field):
        pts = np.array([[math.pi / 2], [math.pi / 4]])
        vals = sine_field(pts)
        assert vals[0] == pytest.approx(1 / math.sqrt(2))
        assert vals[1] == pytest.approx(0.5)

    def test_compiled_evaluator_is_no_part_of_equality_repr_or_pickling(self, gauss_field):
        copy = pickle.loads(pickle.dumps(gauss_field))
        assert copy == gauss_field and hash(copy) == hash(gauss_field)
        assert repr(copy) == repr(gauss_field) and "_evaluate" not in repr(copy)
        assert copy._evaluate is not gauss_field._evaluate
        pts = np.array([[0.5, -1.0], [2.0, 0.25]])
        assert np.array_equal(copy(pts), gauss_field(pts))


class TestTargetSpec:
    def test_dimension_mismatch(self, sine_field):
        with pytest.raises(ValueError):
            TargetSpec(sine_field, Box([(0, 1), (0, 1)]), 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf])
    def test_bound_must_be_positive_finite(self, c, sine_field, sine_box):
        with pytest.raises(ValueError):
            TargetSpec(sine_field, sine_box, c)


class TestValidateTarget:
    def test_sine_with_demo_envelope(self, sine_field, sine_box):
        target = validate_target(sine_field, sine_box, 1.1)
        assert target.bound_c == 1.1

    def test_gaussian_accepts_both_envelopes(self, gauss_field, gauss_box):
        # the analytic maximum is ~0.1624368; both constants dominate it
        assert validate_target(gauss_field, gauss_box, GAUSS_C_LOOSE).bound_c == GAUSS_C_LOOSE
        assert validate_target(gauss_field, gauss_box, 0.16244).bound_c == 0.16244

    def test_gaussian_rejects_low_envelope(self, gauss_field, gauss_box):
        with pytest.raises(EnvelopeViolation) as err:
            validate_target(gauss_field, gauss_box, 0.1)
        assert err.value.value > 0.1
        assert err.value.point.shape == (2,)
        # the reported violation is real
        assert gauss_field(err.value.point[None, :])[0] == pytest.approx(err.value.value)

    def test_bound_estimated_when_absent(self, sine_field, sine_box):
        target = validate_target(sine_field, sine_box)
        assert target.bound_c == pytest.approx(1.2 / math.sqrt(2), rel=1e-6)

    def test_negative_field_rejected(self):
        field = ScalarField.from_text("x - 10", VarOrder(["x"]))
        with pytest.raises(ModelValidationError, match="negative"):
            validate_target(field, Box([(0, 1)]), 1.0)

    def test_non_finite_field_rejected(self):
        field = ScalarField.from_text("exp(x*1000)", VarOrder(["x"]))
        with pytest.raises(ModelValidationError, match="finite"):
            validate_target(field, Box([(0, 2)]), 1.0)

    def test_validation_deterministic(self, gauss_field, gauss_box):
        a = validate_target(gauss_field, gauss_box)
        b = validate_target(gauss_field, gauss_box)
        assert a.bound_c == b.bound_c


class TestPiecewiseProposal:
    def test_single_bin_reduces_to_constant_envelope(self, sine_field, sine_box):
        prop = build_piecewise_proposal(sine_field, sine_box, 1)
        assert prop.cell_count == 1
        # cell grid includes the midpoint pi/2, so the max is 1/sqrt(2)
        assert prop.heights.ravel()[0] == pytest.approx(1.2 / math.sqrt(2), rel=1e-12)
        assert prop.total_mass == pytest.approx(1.2 / math.sqrt(2) * (math.pi / 2), rel=1e-12)

    def test_refined_partition_has_smaller_mass(self, sine_field, sine_box):
        single = build_piecewise_proposal(sine_field, sine_box, 1)
        fine = build_piecewise_proposal(sine_field, sine_box, 64)
        assert fine.total_mass < single.total_mass

    def test_constant_field_yields_uniform_heights(self):
        field = ScalarField.from_text("1 + 0*x", VarOrder(["x"]))
        prop = build_piecewise_proposal(field, Box([(0, 1)]), 8)
        assert np.all(prop.heights == 1.2)

    def test_zero_cells_never_proposed(self, monkeypatch):
        field = ScalarField.from_text("(x >= 0.5)", VarOrder(["x"]))
        prop = build_piecewise_proposal(field, Box([(0, 1)]), 4)
        heights = prop.heights.ravel()
        assert heights[0] == 0.0
        assert np.all(heights[2:] == 1.2)
        # the lowest selector value skips the zero-mass first cell
        assert np.searchsorted(prop.cumulative, 0.0, side="right") == 1
        # grmc_sample hands _run_chunked its propose-and-test closure: every
        # proposal, accepted or not, lies outside the zero-height cell
        monkeypatch.setattr(samplers, "_run_chunked", lambda n, seed, propose, bound_c: propose)
        propose = grmc_sample(field, prop, 1, 1)
        pts, _ = propose(RandomStream(3), 100_000)
        assert pts.shape == (100_000, 1)
        assert np.all(pts[:, 0] >= 0.25)

    @pytest.mark.parametrize("bins_seq", [[(4,), (8,), (16,)], [(3,), (6,), (12,)]])
    def test_mass_monotone_under_refinement_1d(self, sine_field, sine_box, bins_seq):
        masses = [
            build_piecewise_proposal(sine_field, sine_box, b).total_mass for (b,) in bins_seq
        ]
        assert masses == sorted(masses, reverse=True) or all(
            m1 >= m2 for m1, m2 in zip(masses, masses[1:])
        )

    def test_mass_monotone_under_refinement_2d(self, gauss_field, gauss_box):
        masses = [
            build_piecewise_proposal(gauss_field, gauss_box, b).total_mass for b in (2, 4, 8)
        ]
        assert all(m1 >= m2 for m1, m2 in zip(masses, masses[1:]))

    def test_envelope_dominance_probes(self, sine_field, sine_box, gauss_field, gauss_box):
        for field, box, bins, bound in [
            (sine_field, sine_box, 64, 1.1),
            (gauss_field, gauss_box, 8, GAUSS_C_LOOSE),
        ]:
            prop = build_piecewise_proposal(field, box, bins)
            pts = uniform_box_block(RandomStream(0xD011), box, 10_000)
            vals = field(pts)
            assert np.all(vals <= bound)
            steps = box.widths / np.asarray(prop.bins, dtype=np.float64)
            cells = np.minimum(
                ((pts - box.lower) / steps).astype(int),
                np.asarray(prop.bins) - 1,
            )
            h = prop.heights[tuple(cells.T)]
            assert np.all(h >= vals)

    def test_bad_bins_rejected(self, sine_field, sine_box):
        with pytest.raises(ValueError):
            build_piecewise_proposal(sine_field, sine_box, 0)
        with pytest.raises(ValueError):
            build_piecewise_proposal(sine_field, sine_box, [4, 4])

    def test_cell_lower_decodes_flat_indices(self, gauss_field, gauss_box):
        prop = build_piecewise_proposal(gauss_field, gauss_box, 4)
        lows = prop.cell_lower(np.array([0, 5, 15]))
        assert lows[0].tolist() == [-5.0, -5.0]
        assert lows[1].tolist() == [-2.5, -2.5]  # flat 5 -> (1, 1)
        assert lows[2].tolist() == [2.5, 2.5]  # flat 15 -> (3, 3)


def test_gauss_analytic_max_constant():
    assert GAUSS_MAX == pytest.approx(0.16243683359034922, rel=1e-15)


class TestGridReduce:
    @pytest.mark.parametrize("reduce", [np.max, np.sum])
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_slabs_match_one_shot_bit_for_bit(self, monkeypatch, dims, reduce):
        # a block of one point makes every slab a single leading-axis cell
        monkeypatch.setattr(model, "_GRID_BLOCK", 1)
        names = "xyzw"[:dims]
        field = ScalarField.from_text(
            "exp(-(" + "+".join(f"{v}^2" for v in names) + ")) * (1.5 + sin(3*x))",
            VarOrder(list(names)),
        )
        rng = np.random.default_rng(dims)
        # leading axes of one cell move the slabs to a later axis; 5 cells
        # there make slabs of 2 and 3 cells; 9 points per cell sum pairwise
        for per_cell in (3, 9) if dims < 4 else (3,):
            for bins in itertools.product([1, 3, 5], repeat=dims):
                axes = [np.sort(rng.uniform(-2.0, 2.0, b * per_cell)) for b in bins]
                mesh = np.meshgrid(*axes, indexing="ij")
                vals = field(np.stack([m.ravel() for m in mesh], axis=-1))
                shaped = vals.reshape(tuple(x for b in bins for x in (b, per_cell)))
                want = reduce(shaped, axis=tuple(range(1, 2 * dims, 2)))
                got = model.grid_reduce(field, axes, per_cell, reduce)
                assert got.shape == bins
                assert np.array_equal(got, want), (per_cell, bins)

    def test_one_cell_leading_axis_is_evaluated_in_slabs(self, monkeypatch):
        field = ScalarField.from_text("exp(-(x^2 + y^2 + z^2))", VarOrder(["x", "y", "z"]))
        box = Box([(-2, 2)] * 3)
        calls = []
        evaluate = ScalarField.__call__

        def counted(self, points):
            calls.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(ScalarField, "__call__", counted)
        # 9 refined points per cell and axis: 9 * 576 * 576 grid points
        got = build_piecewise_proposal(field, box, [1, 64, 64]).heights
        assert sum(calls) == 9 * 576 * 576
        assert len(calls) > 1 and max(calls) <= 1 << 20
        monkeypatch.setattr(model, "_GRID_BLOCK", 1 << 22)
        calls.clear()
        want = build_piecewise_proposal(field, box, [1, 64, 64]).heights
        assert len(calls) == 1
        assert np.array_equal(got, want)

    def test_oversized_grid_refused_before_evaluation(self):
        def never(points):
            raise AssertionError("grid evaluated")

        axes = [np.zeros(256)] * 4  # 2^32 points
        with pytest.raises(ValueError, match=f"{256**4} points exceeds the limit of {1 << 28}"):
            model.grid_reduce(never, axes, 32, np.sum)


def test_model_imports_nothing_from_samplers():
    tree = ast.parse(open(model.__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "samplers" in name.split(".")]
