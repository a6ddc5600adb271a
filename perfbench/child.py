"""One run of a workload in a fresh interpreter: set up, run every job,
check every output, print one JSON line of measurements.

    PYTHONPATH=src python3 perfbench/child.py --workload derive --seed 1 \\
        --trace 0 --run-id derive-s1-i0 [--setup-only]

`perfbench/run.py` launches it; `ready` in the output is time.monotonic()
once the imports are done and the inputs are built, which the launcher
turns into set-up time. Module-level caches of the library start empty,
as they do for a command-line user.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def run_jobs(jobs, tracer=None) -> dict:
    """Run and check every job; a job that raises or fails its check is
    counted as failed and the run goes on.

    Only the job calls are timed: `wall_s` adds up their durations, so
    the checks between them stay outside it.
    """
    counters: dict = defaultdict(int)
    job_times = {}
    failures = []
    for job in jobs:
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.job(job.name):
                    out = job.run()
        except Exception:
            failures.append(f"{job.name}: raised\n{traceback.format_exc()}")
            continue
        finally:
            job_times[job.name] = (time.perf_counter() - t0, _cpu() - cpu0)
        try:
            ok = job.check(out, counters)
        except Exception:
            failures.append(f"{job.name}: check raised\n{traceback.format_exc()}")
            continue
        if not ok:
            failures.append(f"{job.name}: output differs from the expected one")
    return {
        "wall_s": sum(wall for wall, _ in job_times.values()),
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "counters": counters,
        "job_times": job_times,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import aisemiring
    import workloads
    from tracing import Tracer

    if not Path(aisemiring.__file__).resolve().is_relative_to(SRC):
        print(f"aisemiring imported from {aisemiring.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer(args.run_id)
        workloads.install_tracing(tracer)
    jobs = workloads.JOBS[args.workload](args.seed, workloads.load_expected())
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = run_jobs(jobs, tracer)
    for failure in result.pop("failures"):
        print(f"FAILED {args.run_id} {failure}", file=sys.stderr)
    counters = result.pop("counters")
    job_times = result.pop("job_times")
    result.update(
        ready=ready,
        peak_rss_mb=peak_rss_mb(),
        job_walls={name: wall for name, (wall, _) in job_times.items()},
    )
    if tracer is not None:
        result["layers"] = workloads.layer_metrics(tracer.spans, counters, job_times)
        result["units"] = workloads.LAYER_METRICS
        runs = HERE / "runs"
        runs.mkdir(exist_ok=True)
        tracer.dump(runs / f"{args.run_id}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
