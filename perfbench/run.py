"""The repository benchmark: cold-process runs of one workload.

    python3 perfbench/run.py --workload sweep-p2 --seed 0 --seconds 45 --trace 0

Every timed run is a fresh interpreter (``worker.py``) started after the
previous one ended: one client, closed loop, no state carried over.  Timed
runs repeat while the next one would end within half a run of ``--seconds``
(at least one runs).  ``SETUP_PROBES`` set-up-only runs, half before the
timed runs and half after, add samples of the set-up time.  ``run_s`` and
``peak_rss_mb`` are taken per timed run and reported as the median over the
runs, ``setup_s`` as the median over every process.  With ``--trace 1`` one
untraced and one traced run are made instead, and the per-layer metrics of
the traced run are reported with the tracing overhead.

The last stdout line is the result object; the line before it holds the run
metadata.  Both, with every span of a traced run, are also written under
``.bench_out/`` in the checkout.  Exits 2 without a result when the checkout
has no package source, and 1 when a run crashes or the time limit is hit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep-p2", "chambers-f0")
# set-up-only processes, about 0.1 s each; on a shared host the set-up time
# can switch between a fast and a slow level within seconds, so the probes
# are split around the timed runs to sample the whole invocation
SETUP_PROBES = 40
TIME_LIMIT_S = 175.0

LAYER_TIMES = (
    "golden.load",
    "golden.compare",
    "enumeration.walls",
    "enumeration.fixed_locus",
    "klyachko.restriction",
    "localization.tangent",
    "localization.scaffold",
    "localization.realize",
    "localization.integrate",
    "descendents.basis",
    "descendents.apply",
)
LAYER_COUNTS = (
    "golden.rows",
    "enumeration.polarizations",
    "enumeration.fixed_points",
    "enumeration.locally_free",
    "klyachko.restriction_terms",
    "localization.lcm_factors",
    "localization.cofactor_terms",
    "localization.integrals",
    "localization.certified_clearings",
    "localization.repeat_frac",
    "descendents.terms",
)


class RunFailed(RuntimeError):
    """A worker crashed or the run ran out of time; there is no result."""


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "TORIC_VIRASORO_JOBS"}
        # string hashing sets the iteration order of string sets inside the
        # package; pin it so runs of the same inputs execute the same steps
        self.env["PYTHONHASHSEED"] = "0"
        self.runs: list[dict] = []

    def spawn(self, trace: bool = False, setup_only: bool = False, spans: Path | None = None) -> dict:
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--trace", "1" if trace else "0",
        ]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"a {self.workload} run did not finish within the time limit")
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
        record = json.loads(out.strip().splitlines()[-1])
        record["setup_s"] = record["ready"] - start
        record["wall_s"] = time.monotonic() - start
        record["kind"] = "traced" if trace else ("setup" if setup_only else "timed")
        self.runs.append(record)
        return record


def request_summary(latencies_s) -> dict:
    """Median and tail of the harness's individual requests in one run."""
    if not latencies_s:
        return {"samples": 0}
    pct, value, n = stats.tail([x * 1e3 for x in latencies_s])
    return {"samples": n, "p50": stats.median(latencies_s) * 1e3, "tail_percentile": pct, "tail": value}


def untraced_metrics(runner: Runner, seconds: float) -> dict:
    probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES // 2)]
    start = time.monotonic()
    timed = []
    while True:
        timed.append(runner.spawn())
        now = time.monotonic()
        last = timed[-1]["wall_s"]
        # start another run only if it ends less than half a run past the window
        if now - start + 0.5 * last > seconds or now + 1.5 * last > runner.deadline:
            break
    probes += [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES - len(probes))]
    metrics = {
        "setup_s": (stats.median([r["setup_s"] for r in timed + probes]), "s"),
        "run_s": (stats.median([r["run_s"] for r in timed]), "s"),
        "peak_rss_mb": (stats.median([r["peak_rss_kb"] / 1024 for r in timed]), "MB"),
    }
    extra = {
        "request_latency_ms": [request_summary(r["latencies_s"]) for r in timed],
        "timed_runs": len(timed),
    }
    return metrics, extra


def traced_metrics(runner: Runner, spans: Path) -> dict:
    base = runner.spawn()
    traced = runner.spawn(trace=True, spans=spans)
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name + "_s"] = (traced["self_s"].get(name, 0.0), "s")
    for name in LAYER_COUNTS:
        unit = "fraction" if name.endswith("_frac") else "count"
        metrics[name] = (traced["counts"].get(name, 0), unit)
    metrics["trace.total_s"] = (traced["run_s"], "s")
    metrics["trace.overhead_s"] = (traced["run_s"] - base["run_s"], "s")
    extra = {"untraced_run_s": base["run_s"], "harness_self_s": traced["self_s"].get("harness", 0.0)}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toric-virasoro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "toric_virasoro" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    runner = Runner(args.workload, args.seed, started + TIME_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    try:
        if args.trace:
            metrics, extra = traced_metrics(runner, OUT / f"{stamp}.spans.jsonl")
        else:
            metrics, extra = untraced_metrics(runner, args.seconds)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    meta.update(extra)
    meta["loadavg_after"] = os.getloadavg()
    meta["runs"] = [
        {
            key: r.get(key)
            for key in ("kind", "setup_s", "run_s", "wall_s", "setup_cpu_s", "run_cpu_s", "peak_rss_kb")
        }
        for r in runner.runs
    ]
    counted = [r for r in runner.runs if "attempted" in r]
    failures = [msg for r in counted for msg in r["failures"]][:10]
    meta["failures"] = failures
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stamp}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
