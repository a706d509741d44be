"""Command-line front end: reproducible sampling, integration, validation
and envelope estimation runs.

Commands write a samples CSV and/or a run-metadata JSON file. Outputs are
byte-identical for identical flags and seed, whatever RMC_THREADS says; wall
time is reported on stderr only, never in the files. Exit codes: 0 success
or pass, 1 usage error or a density that faults, 2 expression parse error
or an expression that nests too deeply, 3 sampling budget exhaustion,
4 validation failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import expression
from .expression import EvalError, ParseError, VarOrder
from .floattext import csv_rows
from .integrator import integrate_direct, integrate_screened
from .model import (
    RunMetadata,
    ScalarField,
    box_from_text,
    build_piecewise_proposal,
    default_grid,
    estimate_bound_argmax,
    validate_target,
)
from .randomness import capture_seed
from .samplers import BudgetExhausted, grmc_sample, resolve_workers, srmc_sample
from .stats import GofReport, chi_square_box, ks_test_1d
from .svgplot import scatter_svg

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VALIDATION = 4

# validate's --bins and --alpha defaults, which run.json records whatever
# the dimension
_BINS = 8
_ALPHA = 0.01


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 by default; usage errors must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _ArgumentParser:
    # each command declares its flags in the order its run.json config lists them
    parser = _ArgumentParser(prog="rejmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def model(p, **expressions):
        for name, text in expressions.items():
            p.add_argument(f"--{name}", required=True, help=text)
        p.add_argument("--vars", required=True, help="comma-separated variable names, in order")
        p.add_argument("--box", required=True, help='support box "lo:hi,lo:hi,..."')

    def seed(p):
        p.add_argument("--seed", default=None, help="decimal or 0x-prefixed seed (default 0)")
        p.add_argument(
            "--auto-seed",
            action="store_true",
            help="seed from OS entropy, instead of --seed (the chosen seed is still recorded)",
        )

    p = sub.add_parser("sample", help="draw samples from a density")
    model(p, density="density expression")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    seed(p)
    p.add_argument("--bound-c", type=float, default=None, help="envelope constant")
    p.add_argument(
        "--bins", default=None, help="piecewise-uniform proposal bins per dimension (int or list)"
    )
    p.add_argument("--csv", default="samples.csv", help="samples CSV path")
    p.add_argument("--meta", default="run.json", help="metadata JSON path")
    p.add_argument("--plot", default=None, help="SVG scatter path (2-D only)")

    p = sub.add_parser("integrate", help="integrate over a region inside the box")
    model(p, integrand="integrand expression", region="region indicator expression")
    p.add_argument("--n", required=True, type=int, help="samples per replication")
    p.add_argument("--reps", type=int, default=10, help="independent replications")
    p.add_argument(
        "--method",
        choices=["screened", "direct"],
        default="screened",
        help="screened estimator or the plain-MC cross-check",
    )
    seed(p)
    p.add_argument("--meta", default="run.json", help="metadata JSON path")

    p = sub.add_parser("validate", help="sample and run a goodness-of-fit test")
    model(p, density="density expression")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    seed(p)
    p.add_argument("--bound-c", type=float, default=None, help="envelope constant")
    p.add_argument("--cdf", default=None, help="reference CDF expression (1-D KS test)")
    p.add_argument("--bins", type=int, default=_BINS, help="bins per dimension (chi-square test)")
    p.add_argument("--alpha", type=float, default=_ALPHA, choices=[0.05, 0.01], help="KS level")
    p.add_argument("--meta", default="run.json", help="metadata JSON path")

    p = sub.add_parser("bound", help="estimate the envelope constant on a grid")
    model(p, density="density expression")
    p.add_argument(
        "--grid", type=int, default=None, help="grid points per dimension (default: as sample)"
    )
    p.add_argument("--safety", type=float, default=1.0, help="safety factor (>= 1)")

    return parser


def _resolve_seed(args) -> tuple[int, str]:
    """The run seed and its text as config records it."""
    if args.auto_seed:
        if args.seed is not None:
            raise _UsageError("--seed and --auto-seed exclude each other")
        seed = int.from_bytes(os.urandom(8), "little")
        return seed, f"0x{seed:016X}"
    text = "0" if args.seed is None else args.seed
    try:
        return capture_seed(int(text, 0)), text
    except ValueError:
        raise _UsageError(f"invalid seed {text!r}") from None


def _parse_model_args(args):
    try:
        variables = VarOrder([v.strip() for v in args.vars.split(",")])
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


def _write_file(path: str, pieces: list[bytes]) -> None:
    """Write the byte pieces to path in order, with no newline translation."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc}") from None


def _write_record(args, seed: int, seed_text: str, **results) -> None:
    """Write run.json: every flag of the command as parsed (the seed as
    given, or as chosen by --auto-seed), the run seed and the results."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "auto_seed")}
    config["seed"] = seed_text
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "seed": seed,
        **results,
    }
    # json.dumps escapes every non-ASCII character
    _write_file(args.meta, [(json.dumps(record, indent=2) + "\n").encode("ascii")])


def _write_csv(path: str, names, points: np.ndarray) -> None:
    # each value as repr(float) spells it; VarOrder names are ASCII identifiers
    _write_file(path, [(",".join(names) + "\n").encode("ascii"), *csv_rows(points)])


def _sampling_results(meta: RunMetadata) -> dict:
    return {
        "proposals_drawn": meta.proposals_drawn,
        "accepted": meta.accepted,
        "acceptance_rate": meta.acceptance_rate,
        "bound_c": meta.bound_c,
    }


def _gof_payload(report: GofReport) -> dict:
    return {
        "kind": report.kind,
        "statistic": report.statistic,
        "threshold": report.threshold,
        "dof": report.dof,
        "pass": report.passed,
    }


def _timed(run, *args):
    """run(*args), with its wall time reported on stderr."""
    t0 = time.perf_counter()
    result = run(*args)
    print(f"wall_time_ms={(time.perf_counter() - t0) * 1000.0:.3f}", file=sys.stderr)
    return result


def _cmd_sample(args) -> int:
    variables, box = _parse_model_args(args)
    if args.plot is not None and box.dims != 2:
        raise _UsageError("--plot needs a 2-D model")
    if args.bins is not None and args.bound_c is not None:
        raise _UsageError("--bound-c applies only without --bins; --bins builds its own envelope")
    seed, seed_text = _resolve_seed(args)
    field = ScalarField.from_text(args.density, variables)

    if args.bins is not None:
        try:
            bins = [int(b) for b in str(args.bins).split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad --bins: {exc}") from None
        validate_target(field, box)
        proposal = build_piecewise_proposal(field, box, bins if len(bins) > 1 else bins[0])
        batch = _timed(grmc_sample, field, proposal, args.n, seed)
    else:
        target = validate_target(field, box, args.bound_c)
        batch = _timed(srmc_sample, target, args.n, seed)

    _write_csv(args.csv, variables.names, batch.points)
    meta = batch.meta
    _write_record(args, seed, seed_text, **_sampling_results(meta))
    if args.plot is not None:
        _write_file(args.plot, scatter_svg(batch.points, box, variables.names[:2]))
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

    _write_record(
        args,
        seed,
        seed_text,
        proposals_drawn=est.proposals_drawn,
        accepted=est.accepted,
        acceptance_rate=est.accepted / est.proposals_drawn if est.proposals_drawn else None,
        bound_c=est.bound_c,
        value=est.value,
        std_error=est.std_error,
        per_replication_values=list(est.per_replication_values),
        n_uniform=est.n_uniform,
        n_screened=est.n_screened,
        n_in_region=est.n_in_region,
    )
    print(f"value = {est.value!r} +/- {est.std_error!r} ({args.method}, reps={est.replications})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    variables, box = _parse_model_args(args)
    # usage errors must surface before the sampling run, not after it. A
    # flag the test does not read may hold only the value run.json records
    # for it, so that a recorded config still re-runs
    if box.dims == 1:
        if args.bins != _BINS:
            raise _UsageError("--bins applies only to the chi-square test of 2-D or more")
        if args.cdf is None:
            raise _UsageError("1-D validation needs --cdf")
        cdf_node = expression.parse(args.cdf, variables)

        def cdf(xs):
            return expression.evaluate_batch(cdf_node, xs.reshape(-1, 1))

    else:
        if args.cdf is not None:
            raise _UsageError("--cdf applies only to the KS test of 1-D")
        if args.alpha != _ALPHA:
            raise _UsageError(
                "--alpha applies only to the KS test of 1-D; "
                "the chi-square threshold is the 0.999 quantile"
            )
    seed, seed_text = _resolve_seed(args)
    field = ScalarField.from_text(args.density, variables)
    target = validate_target(field, box, args.bound_c)
    # the chi-square test is planned, and refused if it cannot run, before sampling
    plan = chi_square_box(target, args.bins, args.n) if box.dims > 1 else None
    batch = _timed(srmc_sample, target, args.n, seed)
    report = plan.test(batch) if plan else ks_test_1d(batch.points[:, 0], cdf, args.alpha)

    _write_record(args, seed, seed_text, **_sampling_results(batch.meta), gof=_gof_payload(report))
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
    grid = default_grid(box.dims) if args.grid is None else args.grid
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
        # a malformed RMC_THREADS is refused before any work
        resolve_workers()
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"rejmc: expression error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExhausted as exc:
        print(f"rejmc: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # ModelValidationError is a ValueError; EvalError is a density that faults
    except (_UsageError, ValueError, EvalError) as exc:
        print(f"rejmc: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
