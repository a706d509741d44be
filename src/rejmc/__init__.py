"""Rejection Monte Carlo sampling and region-restricted integration for
densities given as expression text, with reproducible seeded runs."""

from .expression import EvalError, ParseError, VarOrder, parse
from .integrator import IntegralEstimate, integrate_direct, integrate_screened
from .model import (
    Box,
    EnvelopeViolation,
    ModelValidationError,
    PiecewiseUniformProposal,
    RunMetadata,
    SampleBatch,
    ScalarField,
    TargetSpec,
    build_piecewise_proposal,
    estimate_bound_argmax,
    validate_target,
)
from .samplers import BudgetExhausted, grmc_sample, srmc_sample
from .stats import GofReport, chi_square_box, ks_test_1d, predicted_acceptance, summarize

__version__ = "0.1.0"

__all__ = [
    "VarOrder",
    "ParseError",
    "EvalError",
    "parse",
    "Box",
    "ScalarField",
    "TargetSpec",
    "PiecewiseUniformProposal",
    "RunMetadata",
    "SampleBatch",
    "ModelValidationError",
    "EnvelopeViolation",
    "validate_target",
    "build_piecewise_proposal",
    "estimate_bound_argmax",
    "srmc_sample",
    "grmc_sample",
    "BudgetExhausted",
    "IntegralEstimate",
    "integrate_screened",
    "integrate_direct",
    "GofReport",
    "summarize",
    "ks_test_1d",
    "chi_square_box",
    "predicted_acceptance",
]
