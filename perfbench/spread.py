"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 0-9 [--seconds S] [--trace 0|1]

Runs are sequential.  For every metric it prints the median over the runs
and the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json (a spread under a third of the bound
is steady enough).  Raw results go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="a-b or a,b,c")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        run_s = time.monotonic() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed} ({run_s:.0f} s): " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    out = ROOT / ".bench_build" / "perfbench" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = stats.median(values)
        spread = stats.quartile_spread(values) if len(values) > 1 and med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:32s} median {med:.6g}  spread {spread:.4f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
