#!/usr/bin/env python3
"""Run one benchmark workload against hasseweil and print its metrics.

    python3 perfbench/run.py --workload table --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout, one thread, closed loop with one client.
With --trace 0 the loop issues requests until --seconds have passed and
reports the end-to-end metrics; with --trace 1 it wraps every layer function,
runs the workload's fixed number of requests (so counts repeat exactly for a
seed) and reports per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.

Timings are scaled to a reference speed of the box (see speed.py); the raw
wall-clock medians are printed beside them.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import program  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3  # setup_s is the median of this many fresh set-ups
OUT_DIR = os.path.join(HERE, "out")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(program.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(hw, args, attempted: int) -> dict:
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "requests": attempted,
        "kernel_backend": hw.kernels.backend(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


def set_up(workload, seed: int, resident: set[str]):
    """Import the program afresh, generate inputs and run the workload's set-up.

    Every module loaded since `resident` was taken (hasseweil, mpmath and
    whatever else the program pulls in) is dropped first, so each set-up
    imports all of it again and starts from empty module caches.
    Returns (program, input iterator, seconds taken).
    """
    for name in set(sys.modules) - resident:
        del sys.modules[name]
    t0 = time.perf_counter()
    hw = program.import_program()
    items = iter(workload.setup(hw, seed))
    return hw, items, time.perf_counter() - t0


def measure(hw, workload, items, seconds: float, count: int | None, tracer=None,
            meter: speed.Speedometer | None = None) -> dict:
    """Closed loop: each request starts when the previous one has returned.

    Runs until `seconds` have passed, or for `count` requests, or until the
    inputs run out, whichever comes first.  Each latency is recorded raw and
    scaled by `meter` (left unscaled when no meter is given).
    """
    latencies, scaled, cpu, failures, work, exhausted = [], [], [], [], 0, False
    start = time.perf_counter()
    while (len(latencies) < count) if count is not None else (
            time.perf_counter() - start < seconds):
        item = next(items, None)
        if item is None:
            exhausted = True
            break
        if tracer is not None:
            tracer.begin_request(len(latencies))
        mark = meter.mark() if meter is not None else 0
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, units = workload.request(hw, item)
        except Exception as exc:  # a failed request is counted, not fatal
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        if tracer is not None:
            tracer.end_request()
        scaled.append(latencies[-1] * (meter.scale(mark) if meter is not None else 1.0))
        if out is not None:
            work += units
            try:
                problems = workload.check(item, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"input": str(item), "problems": problems})
    return {"latencies": latencies, "scaled": scaled, "cpu": cpu, "failures": failures,
            "work": work, "exhausted": exhausted}


def end_to_end(run: dict, setup_times: list[float]) -> dict:
    """The end-to-end metrics from scaled times (see the module docstring)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput": (run["work"] / sum(run["scaled"]), "work/s"),
        "latency_p50_s": (statistics.median(run["scaled"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(hw, tracer, run: dict, plain: dict) -> dict:
    """Layer metrics of the traced `run`; `plain` ran the same requests untraced."""
    metrics = tracing.layer_metrics(tracer, hw.kernels.backend())
    metrics["run.cpu_s"] = (sum(run["cpu"]), "s")
    metrics["run.latency_max_s"] = (max(run["latencies"]), "s")
    metrics["run.trace_overhead"] = (sum(run["scaled"]) / sum(plain["scaled"]), "ratio")
    metrics["table.rank2_share"] = (workloads.rank2_share(), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    resident = set(sys.modules)
    wall = {}  # raw wall-clock medians, printed beside the scaled metrics
    preamble = time.perf_counter() - START  # run.py's own imports, paid once
    if args.trace:
        # the fixed requests run twice on a fresh program each time: untraced,
        # then traced, so that the tracing overhead is measured
        hw, items, _ = set_up(workload, args.seed, resident)
        plain = measure(hw, workload, items, args.seconds, workload.trace_requests)
        hw, items, _ = set_up(workload, args.seed, resident)
        tracer = tracing.Tracer()
        tracer.install(hw)
        try:
            run = measure(hw, workload, items, args.seconds, workload.trace_requests, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(hw, tracer, run, plain)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    else:
        meter = speed.Speedometer()
        meter.start()
        try:
            setup_times, wall_setup_times = [], []
            for _ in range(SETUP_REPS):
                mark = meter.mark()
                hw, items, seconds = set_up(workload, args.seed, resident)
                wall_setup_times.append(preamble + seconds)
                setup_times.append(wall_setup_times[-1] * meter.scale(mark))
            run = measure(hw, workload, items, args.seconds, None, meter=meter)
        finally:
            meter.stop()
        metrics = end_to_end(run, setup_times)
        wall["wall_setup_s"] = statistics.median(wall_setup_times)
        wall["probe_p50_s"] = statistics.median(meter.samples)

    attempted, failed = len(run["latencies"]), len(run["failures"])
    if not attempted:
        parser.exit(1, "no request was attempted: the inputs are empty\n")
    for failure in run["failures"]:
        print(f"FAILED {failure['input']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(hw, args, attempted),
                      "work_unit": workload.unit,
                      "inputs_exhausted": run["exhausted"],
                      "wall_latency_p50_s": statistics.median(run["latencies"]),
                      **wall,
                      "cpu_latency_p50_s": statistics.median(run["cpu"]),
                      "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
                      "failures": run["failures"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
