"""Benchmark of diskinterp: one workload per invocation, run from the root
of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh worker interpreters (bench/worker.py) with
PYTHONPATH=src and a one-thread BLAS pool.  SETUP_REPEATS of them time the
set-up (interpreter start, ``import diskinterp``, seeded inputs, one warm-up
call of every timed function); the last one then runs whole rounds of the
workload's job list for S seconds and checks the outputs.

With --trace 0 the result line holds the end-to-end metrics: jobs_per_s
(jobs in the list over the sum of each job's median wall time), peak_rss_mb
of the worker and setup_s (median set-up).  With --trace 1 it holds the
per-layer metrics: busy time per round of each layer call, tracemalloc
peaks, the CLI timed as subprocesses, and the traced jobs_per_s.  Spans go
to bench/out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("clustered-schemes", "kernel-p2", "general-p", "dbar-grid")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BUSY_CALLS = [
    "schemes.build_minimal_scheme",
    "schemes.check_admissibility",
    "schemes.overlap_bound",
    "schemes.bounded_density",
    "schemes.auto_epsilon",
    "schemes.build_maximal_scheme",
    "density.default_density_report",
    "interpolation.solve_p2",
    "interpolation.quotient_norm_p2",
    "interpolation.interpolation_constant_probe",
    "interpolation.target_norm",
    "reps.KernelRep.derivative",
    "interpolation.quotient_norm_general",
    "dbar.cauchy_transform",
    "dbar.dbar_residual",
    "dbar.weighted_space_norm",
    "dbar.green_potential",
    "dbar.tau_smooth",
    "grids.GridFunction.sample",
]
PEAK_CALLS = [
    "schemes.build_minimal_scheme",
    "schemes.check_admissibility",
    "schemes.bounded_density",
    "interpolation.quotient_norm_general",
    "dbar.cauchy_transform",
]
# CLI command -> (input document, extra flags); small inputs
CLI_CASES = {
    "scheme": ({"points": [0.0, 0.05, [0.0, 0.6]]}, ["--epsilon", "0.1"]),
    "density": ({"points": [0.1, 0.3, [0.0, 0.5]]}, ["--radii", "0.9,0.95"]),
    "interpolate": ({"points": [0.0, 0.5], "values": [1.0, 2.0]}, ["--epsilon", "0.1"]),
    "quotient": (
        {"points": [0.0, 0.2], "values": [2.0, 1.0], "domain": {"center": 0.0, "radius": 0.5}},
        [],
    ),
    "dbar-check": ({"points": [], "g_constant": [1.0, 0.5]}, ["--grid", "64x64"]),
    "o-weight": ({"points": [0.5, 0.1], "coefficients": [2.0, 1.0]}, []),
    "probe": ({"points": [0.0, 0.5]}, ["--epsilon", "0.1", "--trials", "5"]),
}
IMPORT_REPEATS = 3


class Deadline:
    """Kills a child process that would outlive the run's deadline."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        return left

    def watch(self, proc):
        timer = threading.Timer(self.left(), proc.kill)
        timer.daemon = True
        timer.start()
        return timer


def child_env():
    env = dict(os.environ)
    env.update(ONE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, mode, deadline):
    """Start a worker; return (set-up seconds, its JSON summary or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed), mode,
           str(args.seconds), str(OUT / f"spans-{args.workload}-{args.seed}.json")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = deadline.watch(proc)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed (exit {proc.returncode})")
    summary = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return setup, summary


def timed_subprocess(cmd, deadline):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=deadline.left(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - t0, proc


def time_cli(deadline, lines):
    """cli.import_s and cli.<command>.wall_s, each command once as a
    subprocess; returns (metrics, all reports ok)."""
    metrics = {}
    ok = True
    walls = []
    for _ in range(IMPORT_REPEATS):
        wall, proc = timed_subprocess([sys.executable, "-c", "import diskinterp"], deadline)
        ok &= proc.returncode == 0
        walls.append(wall)
    metrics["cli.import_s"] = median(walls)
    lines.append(f"cli import diskinterp: {' '.join(f'{w:.3f}' for w in walls)} s")
    for command, (doc, flags) in CLI_CASES.items():
        src, report = OUT / f"cli-{command}.json", OUT / f"cli-{command}-report.json"
        src.write_text(json.dumps(doc))
        report.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "diskinterp.cli", command, str(src), *flags,
               "--out", str(report)]
        wall, proc = timed_subprocess(cmd, deadline)
        good = proc.returncode == 0 and "results" in json.loads(report.read_text())
        ok &= good
        metrics[f"cli.{command}.wall_s"] = wall
        lines.append(f"cli {command}: {wall:.3f} s, exit {proc.returncode}"
                     + ("" if good else f" FAILED {proc.stderr.strip()[-200:]}"))
    return metrics, ok


def jobs_per_s(summary):
    return len(summary["jobs"]) / sum(median(t) for t in summary["jobs"].values())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "diskinterp" / "__init__.py").is_file():
        print(f"error: no diskinterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = Deadline(DEADLINE_S)
    lines = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}",
        "workers: PYTHONPATH=src, " + " ".join(f"{k}={v}" for k, v in ONE_THREAD.items()),
    ]
    # compile bytecode and warm the file cache once, untimed
    _, warm = timed_subprocess([sys.executable, "-c", "import diskinterp"], deadline)
    if warm.returncode != 0:
        print(warm.stderr, file=sys.stderr)
        return 1
    setups = [run_worker(args, "setup", deadline)[0] for _ in range(SETUP_REPEATS - 1)]
    mode = "trace" if args.trace else "measure"
    setup, summary = run_worker(args, mode, deadline)
    setups.append(setup)
    raw = OUT / f"times-{args.workload}-{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"setup_s": setups, "job_s": summary["jobs"]}))

    lines.append(f"set-up runs: {' '.join(f'{s:.3f}' for s in setups)} s")
    for name, times in summary["jobs"].items():
        lines.append(f"job {name}: {len(times)} rounds, median {median(times):.4f} s, "
                     f"min {min(times):.4f}, max {max(times):.4f}")
    for check, job, ok, detail in summary["checks"]:
        lines.append(f"check {check} [{job}]: {'ok' if ok else 'FAILED'} ({detail})")
    for err in summary["errors"]:
        lines.append(f"failed: {err}")
    lines.append(f"operations: {summary['attempted']} attempted, {summary['failed']} failed")
    correct = all(ok for _, _, ok, _ in summary["checks"])

    if args.trace:
        metrics = {}
        busy = {**summary["sweep_busy_s"], **summary["busy_s"]}
        for call in BUSY_CALLS:
            where = "workload" if call in summary["busy_s"] else "sweep"
            calls = summary["counts_per_round"].get(call)
            metrics[f"{call}.busy_s"] = (busy[call], "s")
            lines.append(f"layer {call}: busy {busy[call]:.5f} s per round ({where}"
                         + (f", {calls:g} calls per round)" if calls else ")"))
        for call in PEAK_CALLS:
            metrics[f"{call}.peak_mb"] = (summary["peak_mb"][call], "MB")
            lines.append(f"layer {call}: tracemalloc peak {summary['peak_mb'][call]:.2f} MB")
        cli, cli_ok = time_cli(deadline, lines)
        correct &= cli_ok
        metrics.update({k: (v, "s") for k, v in cli.items()})
        metrics["traced.jobs_per_s"] = (jobs_per_s(summary), "1/s")
        lines.append(f"traced jobs_per_s {jobs_per_s(summary):.5f} 1/s; tracing overhead is "
                     "its difference from the untraced jobs_per_s")
        lines.append(f"spans written to {OUT.relative_to(ROOT)}/spans-{args.workload}-{args.seed}.json")
    else:
        metrics = {
            "jobs_per_s": (jobs_per_s(summary), "1/s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
            "setup_s": (median(setups), "s"),
        }
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    print("\n".join(lines))
    result = {
        "correct": bool(correct),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
