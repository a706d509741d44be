"""Repeat bench/run.py over several seeds and summarise each metric.

    python3 bench/repeat.py [--workloads A,B] [--seeds 1-10] [--seconds S]
        [--trace 0|1] [--out bench/results/NAME.json]

Workloads and run length default to those in BENCHMARK.json. For every
workload and metric it prints the median of the per-run values, their
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. The
summary, with the machine it ran on, goes to --out when given.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, OUT, ROOT, machine, nproc


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="default: those in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = seeds_of(args.seeds)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    summary = {"machine": {**machine([1, nproc()], None), "seeds": seeds},
               "seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in names:
        per_metric: dict[str, list[float]] = {}
        shares: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            runs.append({"seed": seed, "exit_code": proc.returncode, "result": last})
            if proc.returncode != 0 or last is None or not last["correct"]:
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            for metric, v in last["metrics"].items():
                per_metric.setdefault(metric, []).append(v["value"])
            mode = "trace" if args.trace else "e2e"
            record = json.loads((OUT / "records" / f"{name}-s{seed}-{mode}.json").read_text())
            for layer, share in record["layer_self_share"].items():
                shares.setdefault(layer, []).append(share)
        table = {}
        for metric, values in per_metric.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            table[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "runs": len(values), "bound": bounds.get(metric)}
            bound = f" bound {bounds[metric]}" if bounds.get(metric) is not None else ""
            print(f"{name:20s} {metric:28s} median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                  f"spread {spread:.4f}{bound} runs {len(values)}", flush=True)
        if shares:
            print(f"{name:20s} self-time share: " + ", ".join(
                f"{k} {statistics.median(v):.1%}" for k, v in shares.items()))
        summary["workloads"][name] = {
            "metrics": table,
            "layer_self_share": {k: statistics.median(v) for k, v in shares.items()},
            "runs": runs,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
