"""Rejection Monte Carlo sampling and region-restricted integration for
densities given as expression text, with reproducible seeded runs."""

from .expression import (
    EvalError,
    ParseError,
    VarOrder,
    evaluate_batch,
    free_vars,
    parse,
    to_text,
)
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
    box_from_text,
    build_piecewise_proposal,
    validate_target,
)
from .randomness import (
    RandomStream,
    substream,
    uniform_box,
    uniform_box_block,
)
from .samplers import (
    BudgetExhausted,
    estimate_bound_argmax,
    grmc_sample,
    proposal_budget,
    srmc_sample,
)
from .stats import (
    GofReport,
    SummaryStats,
    chi_square_box,
    ks_test_1d,
    merge_summaries,
    predicted_acceptance,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "VarOrder",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate_batch",
    "free_vars",
    "to_text",
    "Box",
    "box_from_text",
    "ScalarField",
    "TargetSpec",
    "PiecewiseUniformProposal",
    "RunMetadata",
    "SampleBatch",
    "ModelValidationError",
    "EnvelopeViolation",
    "validate_target",
    "build_piecewise_proposal",
    "RandomStream",
    "substream",
    "uniform_box",
    "uniform_box_block",
    "estimate_bound_argmax",
    "srmc_sample",
    "grmc_sample",
    "BudgetExhausted",
    "proposal_budget",
    "IntegralEstimate",
    "integrate_screened",
    "integrate_direct",
    "SummaryStats",
    "GofReport",
    "summarize",
    "merge_summaries",
    "ks_test_1d",
    "chi_square_box",
    "predicted_acceptance",
]
