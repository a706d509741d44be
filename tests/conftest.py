import dataclasses
import importlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rejmc
from rejmc import Box, EvalError, ScalarField, TargetSpec, VarOrder, validate_target
from rejmc.randomness import GOLDEN_GAMMA, MASK64, capture_seed, mix64, substream
from rejmc.randomness import uniform_box_block

# canonical test targets used across the suite
SINE_DENSITY = "sin(x)/sqrt(2)"
SINE_CDF = "1/2 - cos(x)/sqrt(2)"
SINE_LO = math.pi / 4
SINE_HI = 3 * math.pi / 4

GAUSS_DENSITY = "exp(-(x^2 + y^2 - 0.4*x*y)/1.92) / (2*pi*sqrt(0.96))"
GAUSS_MAX = 1.0 / (2 * math.pi * math.sqrt(0.96))  # 0.16243683359034922
GAUSS_C_LOOSE = 0.1657  # a coarser valid envelope; the analytic max is GAUSS_MAX

PRODUCT_INTEGRAND = "x*y"
PARABOLA_REGION = "y^2 <= x and y >= 0 and y >= x - 2"
PARABOLA_REGION_INTEGRAL = 6.0  # iterated integration: x from y^2 to y+2, y from 0 to 2
PRODUCT_BOX_INTEGRAL = 16.0

# A child process may run in another directory, where a relative PYTHONPATH
# entry (e.g. PYTHONPATH=src) would no longer resolve. Put the absolute
# import root of the rejmc under test first, keeping any existing entries.
IMPORT_ROOT = str(Path(rejmc.__file__).resolve().parent.parent)


def next_u64(stream):
    """One splitmix64 word from a RandomStream, advancing it one step: the
    sequential oracle of its block methods."""
    stream.state = (stream.state + GOLDEN_GAMMA) & MASK64
    return mix64(stream.state)


def uniform01(stream):
    """One draw in [0, 1) from a RandomStream: the top 53 bits of one word
    scaled by 2^-53, as uniform01_block makes each of its draws."""
    return (next_u64(stream) >> 11) * 2.0**-53


def rows_alone(fn, points, block=1024):
    """(values, error): fn at each row of points as evaluated alone, up to
    the first row that raises, and that row's error, or None. Blocks of
    ``block`` rows are evaluated at once, and a block that raises row by
    row, which gives the same values: fn is elementwise."""
    values = []
    for lo in range(0, len(points), block):
        try:
            values.extend(fn(points[lo : lo + block]))
        except (EvalError, ValueError):
            for x in points[lo : lo + block]:
                try:
                    values.append(fn(x.reshape(1, -1))[0])
                except (EvalError, ValueError) as exc:
                    return values, exc
    return values, None


def one_proposal_loop(field, propose, width, n, seed, on_accept=None):
    """The simplified rejection algorithm one proposal at a time: the frozen
    reference of the samplers' outcomes. Chunk i of 4096 acceptances runs on
    substream(seed, i), the chunks one after the other. propose(u) turns
    rows of ``width`` uniforms into proposals (x, y); x is accepted iff
    f(x) > y, with f(x) as x evaluates alone, and on_accept(x) runs as x is
    accepted. The uniforms of 1024 proposals are drawn at once, and those
    after the chunk is done are never tested. Returns (points, proposals);
    the first faulting proposal tested raises. There is no budget stop."""
    points, proposals = [], 0
    for i, start in enumerate(range(0, n, 4096)):
        stream, end = substream(capture_seed(seed), i), min(n, start + 4096)
        while len(points) < end:
            xs, ys = propose(stream.uniform01_block(1024 * width).reshape(1024, width))
            values, fault = rows_alone(field, xs)
            for x, y, value in zip(xs, ys, values):
                proposals += 1
                if value > y:
                    if on_accept is not None:
                        on_accept(x)
                    points.append(x)
                    if len(points) == end:
                        break
            else:
                if fault is not None:
                    raise fault
    return np.array(points).reshape(n, field.dims), proposals


def srmc_reference(target, n, seed, on_accept=None):
    """srmc_sample's (points, proposals), one proposal at a time."""
    box, d = target.support, target.support.dims

    def propose(u):
        return box.lower + u[:, :d] * box.widths, target.bound_c * u[:, d]

    return one_proposal_loop(target.field, propose, d + 1, n, seed, on_accept)


def grmc_reference(field, proposal, n, seed):
    """grmc_sample's (points, proposals), one proposal at a time: a cell
    selector, the coordinates, then y. One cell is srmc at its height."""
    box, d = proposal.box, proposal.box.dims
    heights = proposal.heights.ravel()
    if proposal.cell_count == 1:
        return srmc_reference(TargetSpec(field, box, float(heights[0])), n, seed)

    def propose(u):
        cells = np.searchsorted(proposal.cumulative, u[:, 0], side="right")
        lows = proposal.cell_lower(cells)
        return lows + u[:, 1 : d + 1] * proposal.cell_widths, heights[cells] * u[:, d + 1]

    return one_proposal_loop(field, propose, d + 2, n, seed)


def region_values(indicator):
    """The region's values, refused unless each is 0 or 1."""

    def values(points):
        inside = indicator(points)
        if not np.all((inside == 0.0) | (inside == 1.0)):
            raise ValueError("region must evaluate to 0 or 1")
        return inside

    return values


def integrate_reference(screened, g, region, box, n, reps, seed):
    """(per-replication values, in-region count, proposals, accepted) of
    integrate_screened, or of integrate_direct, one row at a time: each
    replication's uniform batch with each point as evaluated alone, then,
    screened, the sampler's proposals with each accepted sample's region
    value as it is accepted. The first row that faults raises."""
    in_region = region_values(ScalarField(region, g.vars))
    target = validate_target(g, box) if screened else None
    values, inside, proposals = [], 0, 0
    for r in range(reps):
        stream = substream(capture_seed(seed), r)
        points = uniform_box_block(stream, box, n)
        batch, fault = rows_alone(g if screened else lambda p: g(p) * in_region(p), points)
        if fault is not None:
            raise fault
        a = box.volume * float(np.mean(batch))
        if not screened:
            values.append(a)
            continue
        hits = []
        _, drawn = srmc_reference(
            target, n, stream.state, lambda x: hits.append(in_region(x.reshape(1, -1))[0])
        )
        count = int(np.count_nonzero(hits))
        values.append(a * (count / n))
        inside, proposals = inside + count, proposals + drawn
    return values, inside, proposals, n * reps if screened else 0


def subprocess_env():
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([IMPORT_ROOT, inherited] if inherited else [IMPORT_ROOT])
    # a child fails on a numpy warning, as the in-process tests do; the last
    # filter wins, so the inherited ones come first
    inherited = env.get("PYTHONWARNINGS")
    env["PYTHONWARNINGS"] = ",".join(
        [inherited, "error::RuntimeWarning"] if inherited else ["error::RuntimeWarning"]
    )
    return env


def load_revision(rev: str):
    """REV's src/rejmc, read through ``git show`` and imported as the
    package rejmc_at_rev, for the by-hand differential sweeps."""
    listing = subprocess.run(
        ["git", "ls-tree", "--name-only", f"{rev}:src/rejmc"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    with tempfile.TemporaryDirectory(prefix="rejmc_at_rev_") as root:
        package = Path(root) / "rejmc_at_rev"
        package.mkdir()
        for name in listing:
            if name.endswith(".py"):
                source = subprocess.run(
                    ["git", "show", f"{rev}:src/rejmc/{name}"],
                    check=True, capture_output=True, text=True,
                ).stdout
                (package / name).write_text(source)
        sys.path.insert(0, root)
        # the package imports every module of it, so the files can go
        module = importlib.import_module("rejmc_at_rev")
        sys.path.remove(root)
    return module


def node_fields(value):
    """The field values of an AST node, in order, whichever form the node
    kinds have at a revision (dataclasses, later named tuples); None for any
    other value, a plain tuple included. For the by-hand sweeps."""
    if dataclasses.is_dataclass(value):
        return tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return tuple(value)
    return None


@pytest.fixture(scope="session")
def sine_field():
    return ScalarField.from_text(SINE_DENSITY, VarOrder(["x"]))


@pytest.fixture(scope="session")
def sine_box():
    return Box([(SINE_LO, SINE_HI)])


@pytest.fixture(scope="session")
def gauss_field():
    return ScalarField.from_text(GAUSS_DENSITY, VarOrder(["x", "y"]))


@pytest.fixture(scope="session")
def gauss_box():
    return Box([(-5.0, 5.0), (-5.0, 5.0)])


@pytest.fixture(scope="session")
def product_field():
    return ScalarField.from_text(PRODUCT_INTEGRAND, VarOrder(["x", "y"]))


@pytest.fixture(scope="session")
def product_box():
    return Box([(0.0, 4.0), (0.0, 2.0)])
