"""Benchmark of the aisemiring workbench, one workload per invocation.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Every run of a workload is a fresh interpreter (perfbench/child.py)
started here, one at a time, so the library's module-level caches start
empty as they do for a command-line user. Runs repeat until --seconds
is used up; each figure is a median over the processes. With --trace 1 a
traced run alternates with an untraced one and the per-layer metrics
are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("enumerate", "lattice", "classify", "derive")
SEEDED = ("classify", "derive")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 5  # launches that only set up, before each full process
MIN_RUNS = 3  # medians of fewer runs are too noisy on a shared machine
RUN_LIMIT = 150.0  # no run starts after this; a child is killed at HARD_LIMIT
HARD_LIMIT = 170.0  # a whole invocation ends inside 180 s


class BenchError(RuntimeError):
    """A child process failed or overran; no result is printed."""


def launch(workload: str, seed: int, trace: bool, run_id: str, deadline: float,
           setup_only=False) -> dict:
    """Start one child in its own session and wait for it; on timeout
    or interrupt the whole session, pool workers included, is killed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--run-id", run_id]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - launched))
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{run_id} did not finish in time") from None
        raise
    sys.stderr.write(err)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{run_id} exited with status {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready") - launched
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + HARD_LIMIT
    prefix = f"{workload}-s{seed}"
    # untimed: byte-compiles the checkout and warms the file cache
    launch(workload, seed, False, f"{prefix}-warmup", deadline, setup_only=True)
    setups, runs = [], []
    while True:
        # set-up probes are spread over the run so that a short burst of
        # outside load moves few of them
        for _ in range(SETUP_PROBES):
            rec = launch(workload, seed, False, f"{prefix}-setup{len(setups)}",
                         deadline, setup_only=True)
            setups.append(rec["setup_s"])
        traced = trace and len(runs) % 2 == 1
        t0 = time.monotonic()
        rec = launch(workload, seed, traced, f"{prefix}-run{len(runs)}", deadline)
        rec["traced"] = traced
        runs.append(rec)
        last = time.monotonic() - t0
        elapsed = time.monotonic() - started
        if elapsed + last > RUN_LIMIT:
            break
        # stop when the next process would end more than half a process
        # past --seconds, so a run lasts about --seconds on average
        if len(runs) >= (2 if trace else MIN_RUNS) and elapsed + last / 2 > seconds:
            break
    plain = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": setups + [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["wall_s"] = typical_wall(plain)
    layers = {}
    if traced_runs:
        units = traced_runs[0]["units"]
        layers = {
            k: (statistics.median(r["layers"][k] for r in traced_runs), unit)
            for k, unit in units.items()
            if k != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = (
            typical_wall(traced_runs) - values["wall_s"], units["trace.overhead_s"]
        )
    return {
        "values": values,
        "samples": samples,
        "layers": layers,
        "traced_runs": len(traced_runs),
        "spans_written": [f"perfbench/runs/{prefix}-run{k}.json"
                          for k, r in enumerate(runs) if r["traced"]],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def typical_wall(runs: list[dict]) -> float:
    """Each job's median duration over the processes, summed over jobs.

    A burst of load from outside that slows one process then moves the
    figure less than it moves that process's own total.
    """
    jobs = runs[0]["job_walls"]
    return sum(statistics.median(r["job_walls"][j] for r in runs) for j in jobs)


def report(workload: str, seed: int, res: dict, trace: bool) -> dict:
    """Print the human-readable lines of one workload; return its metrics."""
    if workload in SEEDED:
        print(f"{workload}: seed {seed}")
    else:
        print(f"{workload}: seed {seed} ignored, this workload has no free inputs")
    ratio = res["failed"] / res["attempted"]
    print(f"  fail_ratio {ratio:.4f} ({res['failed']} of {res['attempted']} jobs)")
    metrics = {}
    if trace:
        print(f"  wall_s untraced {res['values']['wall_s']:.4f} s; per-layer medians "
              f"over {res['traced_runs']} traced processes:")
        for name, (value, unit) in res["layers"].items():
            print(f"  {name:34s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        if workload == "enumerate":
            print("  note: pool workers forked by enumerate_ai_semirings keep their")
            print("  spans; their work shows as self time of that span")
        for path in res["spans_written"]:
            print(f"  spans: {path}")
        return metrics
    for name, unit in END_TO_END.items():
        value, samples = res["values"][name], res["samples"][name]
        print(f"  {name:12s} {value:10.4f} {unit:3s} (per process: min {min(samples):.4f} "
              f"max {max(samples):.4f}, n={len(samples)})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aisemiring" / "__init__.py").is_file():
        print(f"error: no aisemiring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    attempted = failed = 0
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, trace)
            got = report(name, args.seed, res, trace)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
