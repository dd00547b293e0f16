"""One cold benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line with
monotonic timestamps of the end of setup (``ready``) and of the verdict, the
process CPU time of each phase, its peak resident set, the outcomes and, when
traced, per-layer self times and counts.  Spans go to ``--spans``.

    python3 perfbench/worker.py --workload chambers-f0 --seed 0 [--trace 1] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the span records of a traced run")
    args = parser.parse_args(argv)

    if not (SRC / "toric_virasoro" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    if "TORIC_VIRASORO_JOBS" in os.environ:
        print("TORIC_VIRASORO_JOBS must be unset for a benchmark run", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toric_virasoro
    from toric_virasoro.enumeration import fixed_locus_cached

    if Path(toric_virasoro.__file__).resolve().parent != SRC / "toric_virasoro":
        print(f"imported {toric_virasoro.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    if fixed_locus_cached.cache_info().currsize != 0:
        print("fixed-locus cache is not empty at the start of a run", file=sys.stderr)
        return 2

    from tracing import Tracer, self_times
    from workloads import make_workload

    workload = make_workload(args.workload)
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}") if args.trace else None
    with tracer.span("harness") if tracer else nullcontext():
        state = workload.setup(tracer)
    ready, cpu_ready = time.monotonic(), _cpu()
    record = {"ready": ready, "setup_cpu_s": cpu_ready}
    if not args.setup_only:
        with tracer.span("harness") if tracer else nullcontext():
            outcomes = workload.run(state, tracer)
        verdict, cpu_verdict = time.monotonic(), _cpu()
        record.update(
            verdict=verdict,
            run_s=verdict - ready,
            run_cpu_s=cpu_verdict - cpu_ready,
            attempted=outcomes.attempted,
            failed=outcomes.failed,
            failures=outcomes.failures,
            latencies_s=outcomes.latencies,
        )
        if tracer:
            record["self_s"] = self_times(tracer.spans)
            record["counts"] = dict(tracer.counts)
            if args.spans:
                tracer.write(args.spans)
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
