"""Command-line front end: reproducible sampling, integration, validation
and envelope estimation runs.

Commands write a samples CSV and/or a run-metadata JSON file. Outputs are
byte-identical for identical flags and seed, whatever RMC_THREADS says; wall
time is reported on stderr only, never in the files. Exit codes: 0 success
or pass, 1 usage error, 2 expression parse error, 3 sampling budget
exhaustion, 4 validation failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import expression
from .expression import ParseError, VarOrder
from .integrator import integrate_direct, integrate_screened
from .model import (
    ModelValidationError,
    ScalarField,
    box_from_text,
    build_piecewise_proposal,
    validate_target,
)
from .samplers import BudgetExhausted, estimate_bound_argmax, grmc_sample, srmc_sample
from .stats import GofReport, chi_square_bins, chi_square_box, ks_test_1d
from .svgplot import scatter_svg

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VALIDATION = 4


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 by default; usage errors must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="rejmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--vars", required=True, help="comma-separated variable names, in order")
        p.add_argument("--box", required=True, help='support box "lo:hi,lo:hi,..."')
        p.add_argument("--seed", default="0", help="decimal or 0x-prefixed seed")
        p.add_argument(
            "--auto-seed",
            action="store_true",
            help="seed from OS entropy (the chosen seed is still recorded)",
        )

    p = sub.add_parser("sample", help="draw samples from a density")
    common(p)
    p.add_argument("--density", required=True, help="density expression")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--bound-c", type=float, default=None, help="envelope constant")
    p.add_argument(
        "--bins", default=None, help="piecewise-uniform proposal bins per dimension (int or list)"
    )
    p.add_argument("--csv", default="samples.csv", help="samples CSV path")
    p.add_argument("--meta", default="run.json", help="metadata JSON path")
    p.add_argument("--plot", default=None, help="SVG scatter path (2-D only)")

    p = sub.add_parser("integrate", help="integrate over a region inside the box")
    common(p)
    p.add_argument("--integrand", required=True, help="integrand expression")
    p.add_argument("--region", required=True, help="region indicator expression")
    p.add_argument("--n", required=True, type=int, help="samples per replication")
    p.add_argument("--reps", type=int, default=10, help="independent replications")
    p.add_argument(
        "--method",
        choices=["screened", "direct"],
        default="screened",
        help="screened estimator or the plain-MC cross-check",
    )
    p.add_argument("--meta", default="run.json", help="metadata JSON path")

    p = sub.add_parser("validate", help="sample and run a goodness-of-fit test")
    common(p)
    p.add_argument("--density", required=True, help="density expression")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--bound-c", type=float, default=None, help="envelope constant")
    p.add_argument("--cdf", default=None, help="reference CDF expression (1-D KS test)")
    p.add_argument("--bins", type=int, default=8, help="bins per dimension (chi-square test)")
    p.add_argument("--alpha", type=float, default=0.01, choices=[0.05, 0.01])
    p.add_argument("--meta", default="run.json", help="metadata JSON path")

    p = sub.add_parser("bound", help="estimate the envelope constant on a grid")
    common(p)
    p.add_argument("--density", required=True, help="density expression")
    p.add_argument("--grid", type=int, default=None, help="grid points per dimension")
    p.add_argument("--safety", type=float, default=1.0, help="safety factor (>= 1)")

    return parser


def _resolve_seed(args) -> tuple[int, str]:
    if args.auto_seed:
        seed = int.from_bytes(os.urandom(8), "little")
        return seed, f"0x{seed:016X}"
    try:
        return int(args.seed, 0), args.seed
    except ValueError:
        raise _UsageError(f"invalid seed {args.seed!r}") from None


def _parse_model_args(args):
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise _UsageError("--vars must list at least one variable")
    try:
        variables = VarOrder(names)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    try:
        box = box_from_text(args.box)
    except ValueError as exc:
        raise _UsageError(f"bad --box: {exc}") from None
    if box.dims != variables.dims:
        raise _UsageError(
            f"--vars has {variables.dims} names but --box has {box.dims} dimensions"
        )
    return variables, box


def _write_text(path: str, content: str) -> None:
    try:
        Path(path).write_text(content)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_csv(path: str, names, points: np.ndarray) -> None:
    # repr of a list spells each float as repr(float) does; formatting the
    # whole list at once avoids a numpy scalar per value. Needs >= 1 row.
    rows = repr(points.tolist())[2:-2].replace("], [", "\n").replace(", ", ",")
    _write_text(path, ",".join(names) + "\n" + rows + "\n")


def _gof_payload(report: GofReport) -> dict:
    return {
        "kind": report.kind,
        "statistic": report.statistic,
        "threshold": report.threshold,
        "dof": report.dof,
        "pass": report.passed,
    }


def _report_wall_time(ms: float) -> None:
    print(f"wall_time_ms={ms:.3f}", file=sys.stderr)


def _cmd_sample(args) -> int:
    variables, box = _parse_model_args(args)
    if args.plot is not None and box.dims != 2:
        raise _UsageError("--plot needs a 2-D model")
    seed, seed_text = _resolve_seed(args)
    field = ScalarField.from_text(args.density, variables)

    if args.bins is not None:
        bins = [int(b) for b in str(args.bins).split(",")]
        validate_target(field, box, args.bound_c)
        proposal = build_piecewise_proposal(field, box, bins if len(bins) > 1 else bins[0])
        batch = grmc_sample(field, proposal, args.n, seed)
    else:
        target = validate_target(field, box, args.bound_c)
        batch = srmc_sample(target, args.n, seed)

    _write_csv(args.csv, variables.names, batch.points)
    meta = batch.meta
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "sample",
        "config": {
            "density": args.density,
            "vars": args.vars,
            "box": args.box,
            "n": args.n,
            "seed": seed_text,
            "bound_c": args.bound_c,
            "bins": args.bins,
            "csv": args.csv,
            "meta": args.meta,
            "plot": args.plot,
        },
        "seed": meta.seed,
        "proposals_drawn": meta.proposals_drawn,
        "accepted": meta.accepted,
        "acceptance_rate": meta.acceptance_rate,
        "bound_c": meta.bound_c,
    }
    _write_json(args.meta, payload)
    if args.plot is not None:
        _write_text(args.plot, scatter_svg(batch.points, box, variables.names[:2]))
    _report_wall_time(meta.wall_time_ms)
    print(
        f"accepted {meta.accepted} of {meta.proposals_drawn} proposals "
        f"(rate {meta.acceptance_rate:.6g}) -> {args.csv}"
    )
    return EXIT_OK


def _cmd_integrate(args) -> int:
    variables, box = _parse_model_args(args)
    seed, seed_text = _resolve_seed(args)
    g = ScalarField.from_text(args.integrand, variables)
    region = expression.parse(args.region, variables)

    run = integrate_screened if args.method == "screened" else integrate_direct
    est = run(g, region, box, args.n, args.reps, seed)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "integrate",
        "config": {
            "integrand": args.integrand,
            "region": args.region,
            "vars": args.vars,
            "box": args.box,
            "n": args.n,
            "reps": args.reps,
            "method": args.method,
            "seed": seed_text,
            "meta": args.meta,
        },
        "seed": seed,
        "proposals_drawn": est.proposals_drawn,
        "accepted": est.accepted,
        "acceptance_rate": est.accepted / est.proposals_drawn if est.proposals_drawn else None,
        "bound_c": est.bound_c,
        "value": est.value,
        "std_error": est.std_error,
        "per_replication_values": list(est.per_replication_values),
        "n_uniform": est.n_uniform,
        "n_screened": est.n_screened,
        "n_in_region": est.n_in_region,
    }
    _write_json(args.meta, payload)
    print(f"value = {est.value!r} +/- {est.std_error!r} ({args.method}, reps={est.replications})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    variables, box = _parse_model_args(args)
    # usage errors must surface before the sampling run, not after it
    if box.dims == 1:
        if args.cdf is None:
            raise _UsageError("1-D validation needs --cdf")
        cdf_node = expression.parse(args.cdf, variables)

        def cdf(xs):
            return expression.evaluate_batch(cdf_node, xs.reshape(-1, 1))

    else:
        chi_square_bins(box.dims, args.bins)
    seed, seed_text = _resolve_seed(args)
    field = ScalarField.from_text(args.density, variables)
    target = validate_target(field, box, args.bound_c)
    batch = srmc_sample(target, args.n, seed)

    if box.dims == 1:
        report = ks_test_1d(np.sort(batch.points[:, 0]), cdf, args.alpha)
    else:
        report = chi_square_box(batch, target, args.bins)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "config": {
            "density": args.density,
            "vars": args.vars,
            "box": args.box,
            "n": args.n,
            "seed": seed_text,
            "bound_c": args.bound_c,
            "cdf": args.cdf,
            "bins": args.bins,
            "alpha": args.alpha,
            "meta": args.meta,
        },
        "seed": batch.meta.seed,
        "proposals_drawn": batch.meta.proposals_drawn,
        "accepted": batch.meta.accepted,
        "acceptance_rate": batch.meta.acceptance_rate,
        "bound_c": batch.meta.bound_c,
        "gof": _gof_payload(report),
    }
    _write_json(args.meta, payload)
    _report_wall_time(batch.meta.wall_time_ms)
    verdict = "PASS" if report.passed else "FAIL"
    dof = f", dof={report.dof}" if report.dof is not None else ""
    print(
        f"{verdict} {report.kind}: statistic={report.statistic:.6g} "
        f"threshold={report.threshold:.6g}{dof}"
    )
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_bound(args) -> int:
    variables, box = _parse_model_args(args)
    field = ScalarField.from_text(args.density, variables)
    if args.safety < 1.0:
        raise _UsageError("--safety must be at least 1")
    grid = args.grid
    if grid is None:
        grid = {1: 1025, 2: 257, 3: 65}.get(box.dims, 17)
    value, at = estimate_bound_argmax(field, box, grid, args.safety)
    coords = ", ".join(repr(float(c)) for c in at)
    print(f"bound = {value!r} (grid maximum at ({coords}), grid={grid}, safety={args.safety})")
    return EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "integrate": _cmd_integrate,
    "validate": _cmd_validate,
    "bound": _cmd_bound,
}


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join flag/value pairs whose value starts with '-' (negative box
    bounds, negated expressions) so argparse does not read them as flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
            and nxt != "-h"
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"rejmc: expression error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExhausted as exc:
        print(f"rejmc: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _UsageError as exc:
        print(f"rejmc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelValidationError, ValueError) as exc:
        print(f"rejmc: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
