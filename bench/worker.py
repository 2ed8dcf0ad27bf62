"""One workload in a fresh interpreter; started by run.py, not by hand.

    python3 bench/worker.py WORKLOAD SEED MODE SECONDS TRACE_FILE

MODE is ``setup`` (set up, print READY, exit), ``measure`` (untraced
rounds) or ``trace`` (rounds with spans, a tracemalloc round and the layer
sweep).  Set-up is: import diskinterp, build the seeded inputs, run one
warm-up call of every timed function; it ends when READY is printed.  The
last line of stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import json
import resource
import sys
import tracemalloc
import traceback
from statistics import median
from time import perf_counter

import workloads  # imports diskinterp
from checks import CHECKS
from spans import Recorder

MIN_ROUNDS = 3


def run_rounds(jobs, seconds, rec):
    """Whole rounds of the job list, interleaved, until `seconds` have passed
    (at least MIN_ROUNDS).  Returns per-job wall times, first-round outputs
    and the failures."""
    times = {name: [] for name, _, _ in jobs}
    outputs, errors = {}, []
    start = perf_counter()
    rnd = 0
    while rnd < MIN_ROUNDS or perf_counter() - start < seconds:
        for name, run, _ in jobs:
            rec.begin_job(f"{rnd}:{name}", name)
            t0 = perf_counter()
            try:
                out = run(rec)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
            times[name].append(perf_counter() - t0)
            rec.end_job()
            if rnd == 0:
                outputs[name] = out
        rnd += 1
    return times, outputs, errors, rnd


def run_checks(jobs, outputs):
    results = []
    for name, _, check_names in jobs:
        for check in check_names:
            if outputs.get(name) is None:
                results.append([check, name, False, "job failed"])
                continue
            try:
                ok, detail = CHECKS[check](outputs[name])
            except Exception as exc:  # a check that cannot run has failed
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            results.append([check, name, bool(ok), detail])
    return results


def layer_sweep(workload, seed, seen, spans_rec):
    """Small calls of every layer function this workload does not time: the
    warm-up jobs of the other workloads, three traced passes and one under
    tracemalloc.  Returns busy time per call name (median of the passes) and
    the tracemalloc peaks of those names."""
    others = [w for w in workloads.WORKLOADS if w != workload]
    warm = [job for w in others for job in workloads.WORKLOADS[w](seed)[1]]
    busy = {}
    for _ in range(3):
        rec = Recorder("spans")
        for name, run, _ in warm:
            rec.begin_job("sweep:" + name, name)
            run(rec)
            rec.end_job()
        for name, per_round in rec.busy_by_round().items():
            if name not in seen:
                busy.setdefault(name, []).append(sum(per_round.values()))
        base = len(spans_rec.spans)
        spans_rec.spans.extend(
            [n, t0, t1, None if parent is None else parent + base, job] for n, t0, t1, parent, job in rec.spans
        )
    mem = Recorder("memory")
    tracemalloc.start()
    for name, run, _ in warm:
        run(mem)
    tracemalloc.stop()
    peaks = {k: v for k, v in mem.peak_mb.items() if k not in seen}
    return {name: median(v) for name, v in busy.items()}, peaks


def main():
    workload, seed, mode, seconds, trace_file = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    jobs, warm = workloads.WORKLOADS[workload](seed)
    off = Recorder("off")
    for _, run, _ in warm:
        run(off)
    print("READY", flush=True)
    if mode == "setup":
        return
    rec = Recorder("spans" if mode == "trace" else "off")
    times, outputs, errors, rounds = run_rounds(jobs, seconds, rec)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {
        "rounds": rounds,
        "jobs": times,
        "attempted": rounds * len(jobs),
        "failed": len(errors),
        "errors": errors[:10],
        "peak_rss_mb": rss_mb,
    }
    if mode == "trace":
        mem = Recorder("memory")
        tracemalloc.start()
        for _, run, _ in jobs:
            run(mem)
        tracemalloc.stop()
        busy = {
            name: median(per_round.get(r, 0.0) for r in range(rounds))
            for name, per_round in rec.busy_by_round().items()
        }
        seen = set(busy)
        sweep_busy, sweep_peaks = layer_sweep(workload, seed, seen, rec)
        summary["busy_s"] = busy
        summary["sweep_busy_s"] = sweep_busy
        summary["peak_mb"] = {**mem.peak_mb, **sweep_peaks}
        summary["counts_per_round"] = {k: v / rounds for k, v in rec.counts.items() if k in seen}
        rec.write(trace_file)
    summary["checks"] = run_checks(jobs, outputs)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(1)
