"""The public API is what the README workflow and the demos use; the rest
stays importable from its own module (rejmc.randomness, rejmc.expression, ...)."""
import ast
from pathlib import Path

import pytest

import rejmc

PUBLIC = [
    "Box",
    "BudgetExhausted",
    "EnvelopeViolation",
    "EvalError",
    "GofReport",
    "IntegralEstimate",
    "ModelValidationError",
    "ParseError",
    "PiecewiseUniformProposal",
    "RunMetadata",
    "SampleBatch",
    "ScalarField",
    "TargetSpec",
    "VarOrder",
    "build_piecewise_proposal",
    "chi_square_box",
    "estimate_bound_argmax",
    "grmc_sample",
    "integrate_direct",
    "integrate_screened",
    "ks_test_1d",
    "parse",
    "predicted_acceptance",
    "srmc_sample",
    "summarize",
    "validate_target",
]

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_lists_the_public_names_and_each_resolves():
    assert sorted(rejmc.__all__) == PUBLIC
    for name in rejmc.__all__:
        assert getattr(rejmc, name) is not None


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_imports_only_public_names(script):
    allowed = {("rejmc", name) for name in rejmc.__all__} | {("rejmc.svgplot", "scatter_svg")}
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "rejmc" for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "rejmc":
            for alias in node.names:
                assert (node.module, alias.name) in allowed, ast.unparse(node)
