"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload chambers-f0 --seeds 0-9 [--seconds 45]

For every end-to-end metric prints the median over the seeds and the
distance between the first and third quartile as a share of that median,
the figure each bound in BENCHMARK.json is checked against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            share = stats.spread(vals)
            bound = bounds.get(name)
            flag = "" if bound is None or share < bound / 3 else "  <-- above a third of its bound"
            print(f"{workload} {name}: median {stats.median(vals):.5g}"
                  f" spread {share:.3f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
