"""A differential sweep of the samplers and integrators against another
revision's, run by hand from the repository root:

    PYTHONPATH=src python3 tests/sampler_sweep.py REV [N] [SEED]

Loads REV's ``src/rejmc`` as a package of its own (conftest.load_revision) and
runs N (default 2000) random cases with it and with this checkout. A case
is a target from a fixed list, a sample count n, a seed and an RMC_THREADS
value of 1, 2 or 3. Each case runs srmc_sample, grmc_sample with one cell
and with several, integrate_screened and integrate_direct. Some targets
fault on a thin slice of the box, or in the region there, so that only
some chunks, pieces or gangs meet the fault; one target has a running
acceptance rate around the budget's floor, which the sweep raises for it,
so that some or all of its chunks exhaust their budget.

Each outcome is the points' bits and proposals_drawn, the estimate's
fields, or the error's type and message. A run of this checkout that
fails is run again at RMC_THREADS=1 and 2, and must fail with the same
message, BudgetExhausted's counts included, at every worker count. A case
with n <= 9000 and no raised budget floor is also run by the one-proposal
references of tests/conftest.py, which have no budget stop, and each of
this checkout's outcomes must equal the reference's.

Prints the counts of equal outcomes, of results and of errors, then each
kind of difference with up to ten of its cases: results or errors that
differ, BudgetExhausted messages that differ only in their counts (against
a revision that counted other chunks), failures of this checkout whose
message depends on the worker count, and outcomes of this checkout that
differ from the one-proposal reference. Exits 1 when there is any
difference. pytest does not collect this file.
"""
import dataclasses
import hashlib
import importlib
import math
import os
import random
import re
import sys

import numpy as np

import rejmc
from conftest import grmc_reference, integrate_reference, load_revision, srmc_reference

GAUSS2D = "exp(-(x^2+y^2-0.4*x*y)/1.92)/6.1563"
TRIG3D = "exp(-2*(x^2+y^2+z^2)) * (1 + cos(3*x)*cos(3*y)*sin(2*z+1))"


@dataclasses.dataclass(frozen=True)
class Target:
    names: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    density: str  # "{eps}" is a random slice width
    bound_c: float
    region: str
    # up to 80 chunks for the quick targets: a gang holds chunks // (8 * workers)
    # chunks, and the integrators' samplers run with one worker inside the pool
    max_n: int
    floor: tuple[int, float] | None = None  # (_STOP_AFTER, _STOP_RATE) for this target


TARGETS = [
    Target(("x", "y"), ((0, 4), (0, 2)), "x*y", 8.8, "y^2 <= x and y >= 0 and y >= x - 2", 330_000),
    Target(("x", "y"), ((-5, 5), (-5, 5)), GAUSS2D, 0.2, "x + y < 1", 330_000),
    Target(("x", "y", "z"), ((-3, 3),) * 3, TRIG3D, 2.2, "x^2 + y^2 + z^2 < 1", 12_000),
    # the sqrt and log checks fault on thin interior slices that hold no point
    # of a histogram grid at 1 to 5 bins, so that grmc reaches sampling; the
    # log check comes second in the density and first in the region, and its
    # slice is ten times thinner in the region, so that a batch, a piece or a
    # gang can meet one fault while the whole run meets both
    Target(
        ("x",), ((-1, 1),),
        "exp(-x^2) + 0*sqrt((x - 0.3173828125)^2 - {eps}^2) + 0*log((x + 0.5771484375)^2 - {eps}^2)",
        1.1, "x^2 < 0.5", 330_000,
    ),
    Target(
        ("x", "y"), ((0, 4), (0, 2)), "x*y", 8.8,
        "log(4 - {eps}/10 - x) < 2 and sqrt(2 - {eps} - y) >= 0", 330_000,
    ),
    # acceptance 1% to 7% against a floor of 5% after 2^15 proposals: below
    # about 4%, every chunk fails, and several fail at once on several
    # threads; nearer 5%, only some chunks do
    Target(("x",), ((0, 1),), "(x >= 1 - {eps})", 1.0, "x > 0.5", 30_000, (1 << 15, 0.05)),
]


def digest(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points).view(np.uint64).tobytes()).hexdigest()[:16]


def outcome(module, run):
    try:
        result = run()
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)
    if isinstance(result, module.SampleBatch):
        return "ok", result.points.shape, digest(result.points), result.meta
    fields = dataclasses.astuple(result)
    return "ok", repr(fields)


def numbers(run):
    """run()'s points and proposal count, or its replication values and
    counts, as the references give them, or its error's type and message."""
    try:
        result = run()
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)
    if isinstance(result, rejmc.SampleBatch):
        return "ok", digest(result.points), result.meta.proposals_drawn
    if isinstance(result, rejmc.IntegralEstimate):
        counts = result.n_in_region, result.proposals_drawn, result.accepted
        return "ok", digest(np.array(result.per_replication_values)), *counts
    return "ok", digest(np.asarray(result[0], dtype=np.float64)), *result[1:]


def references(target: Target, eps: float, n: int, seed: int, bins: int, reps: int):
    """The one-proposal reference of each run of a case, in the order of runs."""
    names = rejmc.VarOrder(list(target.names))
    field = rejmc.ScalarField.from_text(target.density.format(eps=eps), names)
    region = rejmc.parse(target.region.format(eps=eps), names)
    box = rejmc.Box(list(target.box))
    spec = rejmc.TargetSpec(field, box, target.bound_c)

    def grmc(cells):
        return lambda: grmc_reference(
            field, rejmc.build_piecewise_proposal(field, box, cells), n, seed
        )

    n_int = max(1, n // 2)
    return [
        lambda: srmc_reference(spec, n, seed),
        grmc(1),
        grmc(bins),
        lambda: integrate_reference(True, field, region, box, n_int, reps, seed),
        lambda: integrate_reference(False, field, region, box, n_int, reps, seed),
    ]


def runs(module, target: Target, eps: float, n: int, seed: int, bins: int, reps: int):
    """(name, run) for each run of a case, on module's functions."""
    names = module.VarOrder(list(target.names))
    field = module.ScalarField.from_text(target.density.format(eps=eps), names)
    region = module.parse(target.region.format(eps=eps), names)
    box = module.Box(list(target.box))
    spec = module.TargetSpec(field, box, target.bound_c)

    def grmc(cells):
        return lambda: module.grmc_sample(
            field, module.build_piecewise_proposal(field, box, cells), n, seed
        )

    n_int = max(1, n // 2)
    return [
        ("srmc", lambda: module.srmc_sample(spec, n, seed)),
        ("grmc one cell", grmc(1)),
        (f"grmc {bins} cells", grmc(bins)),
        ("screened", lambda: module.integrate_screened(field, region, box, n_int, reps, seed)),
        ("direct", lambda: module.integrate_direct(field, region, box, n_int, reps, seed)),
    ]


def with_floor(module, floor, run):
    samplers = importlib.import_module(module.__name__ + ".samplers")
    saved = samplers._STOP_AFTER, samplers._STOP_RATE
    if floor is not None:
        samplers._STOP_AFTER, samplers._STOP_RATE = floor
    try:
        return outcome(module, run)
    finally:
        samplers._STOP_AFTER, samplers._STOP_RATE = saved


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    rev = sys.argv[1]
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    rng = random.Random(int(sys.argv[3]) if len(sys.argv) > 3 else 2024)
    other = load_revision(rev)
    counts = {"equal": 0, "ok": 0, "error": 0}
    differ, budget_counts, threads_differ, off_reference = [], [], [], []
    checked = 0
    for _ in range(count):
        target = rng.choice(TARGETS)
        eps = 10 ** rng.uniform(-6.5, -3.5) if target.floor is None else rng.uniform(0.01, 0.07)
        n = min(target.max_n, int(math.exp(rng.uniform(0, math.log(target.max_n)))))
        seed = rng.randrange(1 << 64)
        bins = rng.randint(2, 5)
        reps = rng.randint(1, 3)
        threads = str(rng.randint(1, 3))
        os.environ["RMC_THREADS"] = threads
        case = f"{target.density.format(eps=eps)!r} n={n} seed={seed} bins={bins} reps={reps} " \
               f"RMC_THREADS={threads}"
        against = n <= 9000 and target.floor is None
        pairs = zip(
            runs(other, target, eps, n, seed, bins, reps),
            runs(rejmc, target, eps, n, seed, bins, reps),
            references(target, eps, n, seed, bins, reps),
        )
        for (name, old_run), (_, new_run), reference in pairs:
            if against:
                checked += 1
                here, loop = numbers(new_run), numbers(reference)
                if here != loop:
                    off_reference.append((f"{name}: {case}", here, loop))
            old = with_floor(other, target.floor, old_run)
            new = with_floor(rejmc, target.floor, new_run)
            if repr(old) == repr(new):
                counts["equal"] += 1
                counts[old[0]] += 1
            elif old[1] == new[1] == "BudgetExhausted" and budget_key(old) == budget_key(new):
                budget_counts.append((f"{name}: {case}", old, new))
            else:
                differ.append((f"{name}: {case}", old, new))
            if new[0] == "error":
                for again in ("1", "2"):
                    os.environ["RMC_THREADS"] = again
                    other_threads = with_floor(rejmc, target.floor, new_run)
                    if repr(other_threads) != repr(new):
                        threads_differ.append(
                            (f"{name}: {case}", new, f"RMC_THREADS={again}: {other_threads}")
                        )
                os.environ["RMC_THREADS"] = threads
    print(f"{count} cases, {5 * count} runs (srmc, grmc one cell and several, both integrators)")
    print(f"equal outcomes: {counts['equal']} ({counts['ok']} results, {counts['error']} errors)")
    print(f"runs checked against the one-proposal reference: {checked}")
    for title, cases, (first, second) in [
        ("different outcomes", differ, (rev, "here")),
        ("BudgetExhausted counts different", budget_counts, (rev, "here")),
        ("failures here that depend on the worker count", threads_differ, ("here", "again")),
        ("outcomes here unlike the one-proposal reference", off_reference, ("here", "reference")),
    ]:
        print(f"{title}: {len(cases)}")
        if cases is differ:
            print(f"    of which {rev} failed: {sum(old[0] == 'error' for _, old, _ in cases)}")
        for text, old, new in cases[:10]:
            print(f"    {text}\n        {first}: {old}\n        {second}: {new}")
    return 1 if differ or budget_counts or threads_differ or off_reference else 0


def budget_key(outcome) -> str:
    """A BudgetExhausted message without its counts and rate."""
    return re.sub(r"after \d+ proposals with \d+/| \(running .*", "", outcome[2])


if __name__ == "__main__":
    sys.exit(main())
