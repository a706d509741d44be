import math
import os
from pathlib import Path

import pytest

import rejmc
from rejmc import Box, ScalarField, VarOrder

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
