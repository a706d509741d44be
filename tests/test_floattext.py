"""The block writers against per-value repr and '%.2f': block edges, worker
counts, exact ties and the values each kernel hands to per-value
formatting."""
import math

import numpy as np
import pytest

import rejmc.cli as cli
from rejmc import Box, svgplot
from rejmc.floattext import BLOCK_ROWS, csv_rows, svg_circles

# values that the repr kernel leaves to per-value repr
FALLBACK = [0.0, 5e-324, 1e-5, 1e16, math.inf, -0.0, -2.5e-308, -1e300]
ROWS = 2 * BLOCK_ROWS + 3
EDGES = [0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, ROWS - 1]


def per_value_csv(points) -> bytes:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in points).encode()


def per_value_circles(px, py) -> bytes:
    return "".join('<circle cx="%.2f" cy="%.2f" r="1"/>\n' % xy for xy in zip(px, py)).encode()


@pytest.fixture(scope="module")
def points():
    """Three blocks of 2-D points with fallback values on the block edges."""
    pts = np.random.default_rng(11).normal(size=(ROWS, 2))
    for j, row in enumerate(EDGES):
        pts[row, j % 2] = FALLBACK[j % len(FALLBACK)]
        pts[row, 1 - j % 2] = FALLBACK[(j + 3) % len(FALLBACK)]
    return pts


def test_csv_across_blocks_equals_per_value_repr(points):
    blocks = csv_rows(points)
    assert len(blocks) == -(-ROWS // BLOCK_ROWS)
    assert all(type(block) is bytes for block in blocks)
    assert b"".join(blocks) == per_value_csv(points)


def test_svg_across_blocks_equals_per_value_format(points):
    # '%.2f' falls back at |v| >= 2^40 and on non-finite values
    px = points[:, 0] * 400 + 400
    py = points[:, 1] * 400 + 400
    px[EDGES[1]], py[EDGES[2]], px[EDGES[4]] = 2.0**40, -1e300, math.nan
    assert b"".join(svg_circles(px, py)) == per_value_circles(px, py)


@pytest.mark.parametrize("threads", ["2", "3"])
def test_files_do_not_depend_on_thread_count(points, tmp_path, monkeypatch, threads):
    box = Box([(-4, 4), (-4, 4)])
    monkeypatch.setenv("RMC_THREADS", "1")
    cli._write_csv(str(tmp_path / "one.csv"), ["x", "y"], points)
    one_svg = svgplot.scatter_svg(points, box, ("x", "y"))
    monkeypatch.setenv("RMC_THREADS", threads)
    cli._write_csv(str(tmp_path / "many.csv"), ["x", "y"], points)
    assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert svgplot.scatter_svg(points, box, ("x", "y")) == one_svg


@pytest.mark.parametrize(
    "value, text",
    [
        (1e-4, "0.0001"),
        (9.999999999999999e-05, "9.999999999999999e-05"),
        (0.1, "0.1"),
        (2.0**-13, "0.0001220703125"),
        (1 / 3, "0.3333333333333333"),
        (-2.5, "-2.5"),
        (1e15, "1000000000000000.0"),
        (9999999999999998.0, "9999999999999998.0"),
        (1e16, "1e+16"),
        (5e-324, "5e-324"),
        (-0.0, "-0.0"),
        (math.inf, "inf"),
        (math.nan, "nan"),
    ],
)
def test_csv_examples(value, text):
    assert repr(value) == text
    assert b"".join(csv_rows(np.array([[value]]))) == (text + "\n").encode()


@pytest.mark.parametrize(
    "value, text",
    [
        # exact ties round half to even
        (0.125, "0.12"),
        (0.375, "0.38"),
        (-0.625, "-0.62"),
        (2.5e-3 * 2, "0.01"),
        # near-ties: the stored double decides
        (np.nextafter(0.125, 1), "0.13"),
        (np.nextafter(0.375, 0), "0.37"),
        (2.675, "2.67"),
        (1.005, "1.00"),
        (999.995, "1000.00"),
        # the sign of a value that rounds to zero stays
        (-0.001, "-0.00"),
        (-1e-300, "-0.00"),
        (-0.0, "-0.00"),
        (0.004999, "0.00"),
        # per-value formatting outside |v| < 2^40
        (2.0**40 - 0.5, "1099511627775.50"),
        (-(2.0**40), "-1099511627776.00"),
        (math.inf, "inf"),
    ],
)
def test_svg_examples(value, text):
    assert "%.2f" % value == text
    got = b"".join(svg_circles(np.array([value]), np.array([0.5])))
    assert got == f'<circle cx="{text}" cy="0.50" r="1"/>\n'.encode()


def test_csv_random_bit_patterns_equal_repr():
    bits = np.random.default_rng(12).integers(0, 2**64, 20_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[~np.isnan(values)].reshape(-1, 1)
    assert b"".join(csv_rows(values)) == per_value_csv(values)


def test_csv_log_uniform_values_equal_repr():
    rng = np.random.default_rng(13)
    values = np.ldexp(rng.random(60_000) + 0.5, rng.integers(-16, 56, 60_000))
    values = (values * rng.choice([-1.0, 1.0], 60_000)).reshape(-1, 3)
    assert b"".join(csv_rows(values)) == per_value_csv(values)
