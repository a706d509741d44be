"""End-to-end benchmark of the rejmc CLI, with an optional per-layer trace.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

Each workload is one README-style CLI command. Every invocation runs in a
fresh child process (bench/child.py) that times ``import rejmc.cli`` and
then ``rejmc.cli.main(argv)``; children run one after another from this
process, alternating RMC_THREADS=nproc and RMC_THREADS=1, until the time
budget is spent. The seed reaches the program only as ``--seed``.

Reported times are medians over the children, each scaled to a reference
machine speed by a fixed speed kernel timed between children (see
calibrate); the unscaled times are kept in the record as raw_*.

Every child's outputs are checked: the exit code, a reference check per
workload, and SHA-256 hashes that must agree across worker counts, across
traced and untraced runs and, at the workload's default seed, with
bench/pins.json. A child that fails any check counts as failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
and traced children and reports the per-layer metrics of tracer.py. The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics. A record with the machine, the per-metric median and quartiles,
the hashes and the per-layer self-time shares goes to
.bench_out/records/. ``--smoke`` runs every workload once at a tiny size
against its own pins, which keeps the harness itself tested.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"
CHILD_TIMEOUT_S = 100
# the speed kernel's time on the reference machine state: reported times are
# scaled to it (see calibrate)
CALIB_REF_S = 0.05

TRIG3D = "exp(-2*(x^2+y^2+z^2)) * (1 + cos(3*x)*cos(3*y)*sin(2*z+1))"
GAUSS2D = "exp(-(x^2+y^2-0.4*x*y)/1.92)/6.1563"


@dataclass(frozen=True)
class Workload:
    default_seed: int
    args: tuple[str, ...]  # CLI arguments without --n and --seed
    n: int
    smoke_n: int
    outputs: tuple[str, ...]
    full_args: tuple[str, ...] = ()  # arguments that the smoke size replaces
    smoke_args: tuple[str, ...] = ()

    def argv(self, seed: int, smoke: bool) -> list[str]:
        size = ["--n", str(self.smoke_n if smoke else self.n)]
        extra = self.smoke_args if smoke else self.full_args
        return [*self.args, *size, *extra, "--seed", str(seed)]


WORKLOADS = {
    # README sample with an SVG: the CSV and SVG writers do most of the work,
    # RNG and the sampler's chunk loop a fair share; eval is cheap
    "sample_gauss2d": Workload(
        default_seed=42,
        args=("sample", "--density", GAUSS2D, "--vars", "x,y", "--box", "-5:5,-5:5",
              "--plot", "scatter.svg"),
        n=300_000,
        smoke_n=2_000,
        outputs=("samples.csv", "run.json", "scatter.svg"),
    ),
    # README integrate, verbatim (exact value 6): the integrator's parallel map
    # over reps and ~2450 small sampler chunks; RNG-heavy, no large files
    "integrate_parabola": Workload(
        default_seed=7,
        args=("integrate", "--integrand", "x*y", "--region",
              "y^2 <= x and y >= 0 and y >= x - 2", "--vars", "x,y", "--box", "0:4,0:2"),
        n=1_000_000,
        smoke_n=2_000,
        outputs=("run.json",),
        full_args=("--reps", "10"),
        smoke_args=("--reps", "4"),
    ),
    # the only path through build_piecewise_proposal (5.8M grid points, ~550 MB)
    # and grmc_sample. Not listed in BENCHMARK.json, which keeps three workloads
    # so that each timed run is long enough to be steady; run it by name
    "hist_trig3d": Workload(
        default_seed=5,
        args=("sample", "--density", TRIG3D, "--vars", "x,y,z", "--box", "-3:3,-3:3,-3:3"),
        n=50_000,
        smoke_n=500,
        outputs=("samples.csv", "run.json"),
        full_args=("--bins", "20"),
        smoke_args=("--bins", "4"),
    ),
    # the only path through chi_square_box (7.1M quadrature points, ~650 MB);
    # srmc at low acceptance on a transcendental density, so eval-heavy
    "validate_trig3d": Workload(
        default_seed=5,
        args=("validate", "--density", TRIG3D, "--vars", "x,y,z", "--box", "-3:3,-3:3,-3:3"),
        n=50_000,
        smoke_n=2_000,
        outputs=("run.json",),
        full_args=("--bins", "6"),
        smoke_args=("--bins", "2"),
    ),
}

# counts that are a pure function of (inputs, seed): equal in every traced child
DETERMINISTIC = (
    "randomness.u64",
    "expression.points",
    "samplers.proposals",
    "model.grid_points",
    "stats.quadrature_points",
    "cli.bytes_written",
)


# ---------------------------------------------------------------- checks


def _read_meta(d: Path) -> dict:
    return json.loads((d / "run.json").read_text())


def check_sample_gauss2d(d: Path, n: int) -> list[str]:
    meta = _read_meta(d)
    # stats.predicted_acceptance(1.0, c, 100): the density integrates to 1
    # on the box (up to ~1e-5 of truncated mass) and the box volume is 100
    predicted = 1.0 / (meta["bound_c"] * 100.0)
    sd = math.sqrt(predicted * (1.0 - predicted) / meta["proposals_drawn"])
    problems = []
    if abs(meta["acceptance_rate"] - predicted) > 5.0 * sd:
        problems.append(
            f"acceptance {meta['acceptance_rate']!r} is not within 5 sd ({sd:.3g}) "
            f"of the predicted {predicted!r}"
        )
    if meta["accepted"] != n:
        problems.append(f"accepted {meta['accepted']} != n {n}")
    return problems


def check_integrate_parabola(d: Path, n: int) -> list[str]:
    meta = _read_meta(d)
    value, se = meta["value"], meta["std_error"]
    if not abs(value - 6.0) <= 4.0 * se:
        return [f"integral {value!r} is not within 4 std_error ({se!r}) of 6"]
    return []


def check_hist_trig3d(d: Path, n: int) -> list[str]:
    lines = (d / "samples.csv").read_text().splitlines()
    if lines[0] != "x,y,z":
        return [f"CSV header {lines[0]!r}"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    problems = []
    if len(rows) != n:
        problems.append(f"CSV has {len(rows)} rows, expected {n}")
    outside = sum(1 for row in rows if len(row) != 3 or not all(-3.0 <= v <= 3.0 for v in row))
    if outside:
        problems.append(f"{outside} CSV rows are not points inside the box")
    return problems


def check_validate_trig3d(d: Path, n: int) -> list[str]:
    gof = _read_meta(d)["gof"]
    return [] if gof["pass"] is True else [f"goodness of fit failed: {gof}"]


CHECKS = {
    "sample_gauss2d": check_sample_gauss2d,
    "integrate_parabola": check_integrate_parabola,
    "hist_trig3d": check_hist_trig3d,
    "validate_trig3d": check_validate_trig3d,
}


# ---------------------------------------------------------------- children


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class SetupError(RuntimeError):
    """The program could not be imported: nothing to measure."""


@dataclass
class Child:
    workers: int
    traced: bool
    calib_s: float = CALIB_REF_S
    result: dict | None = None
    hashes: dict | None = None
    layers: dict | None = None
    problems: list[str] = field(default_factory=list)


def run_child(workdir: Path, argv: list[str], workers: int, traced: bool) -> Child:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["RMC_THREADS"] = str(workers)
    trace_path = workdir.parent / (workdir.name + ".trace.json")
    result_path = workdir.parent / (workdir.name + ".result.json")
    for p in (trace_path, result_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path),
           str(trace_path) if traced else "-", *argv]
    child = Child(workers=workers, traced=traced)
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
        return child
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        child.problems.append(f"child exited {proc.returncode}: {' | '.join(tail)}")
        return child
    child.result = json.loads(result_path.read_text())
    if Path(child.result["rejmc_file"]).resolve().parent != (SRC / "rejmc").resolve():
        raise SetupError(f"rejmc was imported from {child.result['rejmc_file']}, not {SRC}")
    if traced:
        child.layers = layer_metrics(json.loads(trace_path.read_text()))
    return child


def collect_outputs(child: Child, workdir: Path, w: Workload, name: str, n: int) -> None:
    code = child.result["exit_code"]
    if code != 0:
        child.problems.append(f"exit code {code}")
        return
    missing = [f for f in w.outputs if not (workdir / f).is_file()]
    if missing:
        child.problems.append(f"missing outputs {missing}")
        return
    child.hashes = {f: hashlib.sha256((workdir / f).read_bytes()).hexdigest() for f in w.outputs}
    if child.layers is not None:
        child.layers["cli.bytes_written"] = sum((workdir / f).stat().st_size for f in w.outputs)
    child.problems.extend(CHECKS[name](workdir, n))


def compare_children(children: list[Child], pin: dict | None) -> None:
    """Mark children whose hashes or deterministic counts disagree with the
    pin (at the default seed) or else with the first child that has them."""
    ref_hashes = pin["files"] if pin else next((c.hashes for c in children if c.hashes), None)
    traced = [c for c in children if c.layers is not None]
    ref_counts = pin["counts"] if pin else (
        {k: traced[0].layers[k] for k in DETERMINISTIC} if traced else None
    )
    for c in children:
        if c.hashes is not None and c.hashes != ref_hashes:
            c.problems.append(f"output hashes {c.hashes} != expected {ref_hashes}")
        if c.layers is not None and ref_counts is not None:
            counts = {k: c.layers[k] for k in DETERMINISTIC}
            if counts != ref_counts:
                c.problems.append(f"deterministic counts {counts} != expected {ref_counts}")


# ---------------------------------------------------------------- reporting


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def machine(workers: list[int], seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "workers": sorted(set(workers)),
        "seed": seed,
    }


def _speed_kernel() -> None:
    # the kinds of work the workloads do: interpreter loops, numpy passes
    # over arrays larger than the caches, sorting and float formatting
    s = 0
    for k in range(100_000):
        s += k * k
    x = np.linspace(0.0, 50.0, 1_000_000)
    y = np.exp(-x * x / 50.0) * np.cos(3.0 * x)
    np.sort(y[:200_000])
    ",".join(repr(float(v)) for v in y[:10_000])


def calibrate() -> float:
    """Median time of a fixed mix of numpy and interpreter work.

    A shared 2-core host drifts between speed states for minutes at a
    time, moving every time measured here by up to a third. Timing this
    kernel, which does not involve rejmc, between children gives the
    machine's speed while each child ran.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _speed_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


E2E = ("wall_s", "wall_1w_s", "setup_s", "peak_rss_mb", "success_rate")


def end_to_end(children: list[Child]) -> dict[str, tuple[list[float], str]]:
    """Times are scaled by CALIB_REF_S / (the child's speed-kernel time), so
    they read as seconds at the reference speed; the raw_* entries hold the
    unscaled times."""
    plain = [c for c in children if c.result is not None and not c.traced]
    many = [c for c in plain if c.workers > 1]
    one = [c for c in plain if c.workers == 1]
    failed = sum(1 for c in children if c.problems)

    def scaled(cs, key):
        return [c.result[key] * CALIB_REF_S / c.calib_s for c in cs]

    return {
        "wall_s": (scaled(many, "wall_s"), "s"),
        "wall_1w_s": (scaled(one, "wall_s"), "s"),
        "setup_s": (scaled(plain, "setup_s"), "s"),
        "peak_rss_mb": ([c.result["peak_rss_mb"] for c in many], "MB"),
        "success_rate": ([1.0 - failed / len(children)], "ratio"),
        "raw_wall_s": ([c.result["wall_s"] for c in many], "s"),
        "raw_wall_1w_s": ([c.result["wall_s"] for c in one], "s"),
        "raw_setup_s": ([c.result["setup_s"] for c in plain], "s"),
        "calib_s": ([c.calib_s for c in plain], "s"),
    }


PER_LAYER_UNITS = {
    "randomness.u64": "count", "randomness.gen_s": "s", "randomness.convert_s": "s",
    "randomness.ns_per_u64": "ns", "expression.calls": "count", "expression.points": "count",
    "expression.busy_s": "s", "expression.ns_per_point": "ns", "model.grid_points": "count",
    "model.busy_s": "s", "samplers.proposals": "count", "samplers.accepted": "count",
    "samplers.acceptance": "ratio", "samplers.chunks": "count", "samplers.busy_s": "s",
    "samplers.parallelism": "threads", "integrator.points": "count",
    "integrator.in_region_frac": "ratio", "integrator.busy_s": "s",
    "stats.quadrature_points": "count", "stats.busy_s": "s", "cli.busy_s": "s",
    "cli.bytes_written": "bytes", "svgplot.busy_s": "s", "trace.overhead_s": "s",
}


def per_layer(children: list[Child]) -> dict[str, tuple[list[float], str]]:
    """Layer metrics of the traced children at nproc workers."""
    traced = [c for c in children if c.layers is not None and c.workers > 1]
    plain = [c.result["wall_s"] for c in children
             if c.result is not None and not c.traced and c.workers > 1]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            walls = [c.result["wall_s"] for c in traced]
            values = [statistics.median(walls) - statistics.median(plain)] if walls and plain else []
        else:
            values = [c.layers[name] for c in traced]
        out[name] = (values, unit)
    return out


def layer_shares(children: list[Child]) -> dict[str, float]:
    """Each layer's share of the summed self time (median over traced children)."""
    traced = [c.layers for c in children if c.layers is not None]
    if not traced:
        return {}
    busy = {k[len("_busy."):]: statistics.median(t[k] for t in traced)
            for k in traced[0] if k.startswith("_busy.")}
    total = sum(busy.values()) or 1.0
    return {layer: b / total for layer, b in busy.items()}


# ---------------------------------------------------------------- runs

# (workers, traced) children, repeated in alternating order until time is up
CYCLES = {
    "e2e": [("many", False), (1, False)],
    "trace": [("many", False), ("many", True), (1, True)],
    "smoke": [("many", False), (1, True)],
}


def measure(name: str, seed: int, seconds: float, mode: str, pins: dict,
            workdir: Path) -> tuple[list[Child], dict | None]:
    w = WORKLOADS[name]
    smoke = mode == "smoke"
    n = w.smoke_n if smoke else w.n
    argv = w.argv(seed, smoke)
    cycle = [(nproc() if k == "many" else k, traced) for k, traced in CYCLES[mode]]
    children: list[Child] = []
    took: dict[tuple, list[float]] = {}
    start = time.perf_counter()
    before = calibrate()
    for i in itertools.count():
        lap, pos = divmod(i, len(cycle))
        kind = cycle[pos] if lap % 2 == 0 else cycle[-1 - pos]
        if lap >= 1 and (smoke or time.perf_counter() - start
                         + statistics.mean(took[kind]) > seconds):
            break
        t0 = time.perf_counter()
        d = workdir / f"{name}-{i}"
        child = run_child(d, argv, *kind)
        after = calibrate()
        child.calib_s = (before + after) / 2
        before = after
        if child.result is not None:
            collect_outputs(child, d, w, name, n)
        shutil.rmtree(d, ignore_errors=True)
        children.append(child)
        took.setdefault(kind, []).append(time.perf_counter() - t0)
    pin = pins.get(name, {}).get("smoke" if smoke else "full")
    if pin is not None and pin["seed"] != seed:
        pin = None
    compare_children(children, pin)
    if pin is None and seed == w.default_seed:
        children[0].problems.append("no pinned hashes for the default seed in bench/pins.json")
    return children, pin


def warm_up(workdir: Path) -> None:
    """Import rejmc once so bytecode compilation is not timed; fail fast
    when the program is missing."""
    child = run_child(workdir / "warmup", ["--help"], 1, False)
    shutil.rmtree(workdir / "warmup", ignore_errors=True)
    if child.result is None or child.result["exit_code"] != 0:
        raise SetupError(f"cannot run rejmc from {SRC}: {child.problems}")


def report(name: str, seed: int, mode: str, children: list[Child], pin: dict | None) -> dict:
    metrics = {}
    if mode != "trace":
        metrics.update(end_to_end(children))
    if mode != "e2e":
        metrics.update(per_layer(children))
    failed = sum(1 for c in children if c.problems)
    print(f"# {name} seed={seed} mode={mode} runs={len(children)} failed={failed} "
          f"pinned={pin is not None}")
    for c in children:
        for p in c.problems:
            print(f"#   FAIL workers={c.workers} traced={c.traced}: {p}")
    stats = {}
    for metric, (values, unit) in metrics.items():
        if values:
            s = stats[metric] = {**summary(values), "unit": unit, "values": values}
            print(f"{metric:28s} {s['median']:.6g} {unit} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, runs {s['runs']}]")
    shares = layer_shares(children)
    if shares:
        print("# self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    return {
        "workload": name,
        "argv": WORKLOADS[name].argv(seed, mode == "smoke"),
        "mode": mode,
        "machine": machine([c.workers for c in children], seed),
        "attempted": len(children),
        "failed": failed,
        "problems": [p for c in children for p in c.problems],
        "metrics": stats,
        "layer_self_share": shares,
        "hashes": next((c.hashes for c in children if c.hashes), None),
        "counts": next(({k: c.layers[k] for k in DETERMINISTIC}
                        for c in children if c.layers is not None), None),
        "pinned": pin is not None,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload once, at tiny n")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    mode = "smoke" if args.smoke else ("trace" if args.trace else "e2e")

    pins = json.loads(PINS.read_text())
    workdir = OUT / f"run-{os.getpid()}"
    records = []
    try:
        warm_up(workdir)
        for name in sorted(WORKLOADS) if args.smoke else [args.workload]:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            children, pin = measure(name, seed, args.seconds, mode, pins, workdir)
            records.append(report(name, seed, mode, children, pin))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT / "records").mkdir(parents=True, exist_ok=True)
    for record in records:
        tag = "smoke" if mode == "smoke" else f"s{record['machine']['seed']}-{mode}"
        path = OUT / "records" / f"{record['workload']}-{tag}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    if mode != "smoke":
        stats = records[0]["metrics"]
        for metric in PER_LAYER_UNITS if args.trace else E2E:
            if metric in stats:
                metrics[metric] = {"value": stats[metric]["median"], "unit": stats[metric]["unit"]}
            else:
                print(f"# no value for {metric}")
                failed = max(failed, 1)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
