#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads redundant,novel --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 1 --trace 1 --out perfbench/baseline.json

For every workload and metric it prints the median of the per-run
values, their quartiles, and the spread: the distance between the
quartiles as a share of the median (``statistics.quantiles(values, n=4)``).
Runs are made one after another in a child process each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "trace": args.trace,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())), flush=True)
        per_metric = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            per_metric[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarise(values)}
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": per_metric,
        }
        print(f"== {workload}: attempted {summary['workloads'][workload]['attempted']}, "
              f"failed {summary['workloads'][workload]['failed']}")
        for name, s in per_metric.items():
            bound = bounds.get(name)
            note = f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}" if bound else ""
            print(f"   {name:<44}{s['median']:>14.6g} {s['unit']:<14} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{note}")
    if args.out:  # end-to-end and traced summaries share one file, under their own keys
        out = Path(args.out)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc["per_layer" if args.trace else "end_to_end"] = summary
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
