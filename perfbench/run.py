"""Benchmark for the Griffin simulator: three workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig12 --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer metrics.
Human-readable lines go first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fig12", "knob_sweep", "serve_mix")
SETUP_SAMPLES = 5


def tail(values: list) -> tuple:
    """(value, label) of the highest percentile with >= 10 samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"


def git_revision():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    from repro.config.presets import small_system
    from repro.perf.fingerprint import code_fingerprint
    from repro.sim.backends import (
        BACKEND_ENV,
        compiled_available,
        resolve_backend,
    )

    return {
        "engine_backend": resolve_backend(small_system().sim.engine_backend),
        BACKEND_ENV: os.environ.get(BACKEND_ENV),
        "ckernel_importable": compiled_available(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "code_fingerprint": code_fingerprint()[:16],
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and its waited-for children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int, work: Path) -> int:
    """Child side: get ready for the first timed op, say so, then tear down."""
    from loads import WORKLOADS

    wl = WORKLOADS[workload](seed, work)
    try:
        if workload == "serve_mix" and wl.healthz() != 200:
            return 1
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        wl.close()
    return 0


def measure_setup(workload: str, seed: int, work: Path) -> tuple:
    """(host-normalized, raw) seconds from interpreter launch to ready."""
    from loads import YARDSTICK_NOMINAL_S, yardstick

    samples, raw = [], []
    before = yardstick()
    for index in range(SETUP_SAMPLES):
        probe_dir = work / f"setup-{index}"
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", workload, "--seed", str(seed),
             "--work", str(probe_dir)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdin.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {proc.returncode})")
        after = yardstick()
        raw.append(elapsed)
        samples.append(elapsed * YARDSTICK_NOMINAL_S / ((before + after) / 2))
        before = after
    return samples, raw


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def common_checks(name: str, seed: int, wl, ops) -> dict:
    """Untimed output checks shared by every workload; returns fig12 errors."""
    import loads

    loads.check_goldens(ROOT, ops)
    if name == "fig12" and seed == loads.CALIBRATION_SEED:
        calibration = wl.cycles
    else:
        calibration = loads.fig12_cycles(loads.CALIBRATION_SEED)
    errors = {"fig12_err": loads.fig12_error(calibration)}
    if name == "fig12" and seed != loads.CALIBRATION_SEED:
        errors["fig12_err_heldout"] = loads.fig12_error(wl.cycles)
    if name == "serve_mix":
        wl.check_parity(ops)
    return errors


def steps(wl, ops, seconds: float) -> None:
    """Run steps for ``seconds`` (whole grids for fig12), host-normalized."""
    import loads

    start = perf_counter()
    before = loads.yardstick()
    while True:
        time.sleep(wl.think_s)
        gc.collect()
        mark = ops.mark()
        wl.step(ops)
        after = loads.yardstick()
        ops.normalize_since(
            mark, loads.YARDSTICK_NOMINAL_S / ((before + after) / 2),
            wl.wallclock,
        )
        before = after
        if perf_counter() - start >= seconds and wl.complete():
            break


def timed_run(name: str, seed: int, seconds: float, work: Path):
    import loads

    setup, setup_raw = measure_setup(name, seed, work)
    ops = loads.Ops()
    wl = loads.WORKLOADS[name](seed, work / "timed")
    try:
        wl.warm()
        steps(wl, ops, seconds)
        errors = common_checks(name, seed, wl, ops)
    finally:
        wl.close()

    def figures(raw: bool) -> dict:
        series = ops.series(raw)
        events_per_s, cells_per_s, count = wl.rates(series)
        cold_tail, cold_label = tail(series["cold"])
        cached_tail, cached_label = tail(series["cached"])
        n_cold, n_cached = len(series["cold"]), len(series["cached"])
        return {
            "setup_s": (statistics.median(setup_raw if raw else setup),
                        len(setup), "median of fresh interpreters"),
            "events_per_s": (events_per_s, count, "over cold steps"),
            "cells_per_s": (cells_per_s, count, "over cold steps"),
            "cold_p50_s": (statistics.median(series["cold"]), n_cold, "p50"),
            "cold_tail_s": (cold_tail, n_cold, cold_label),
            "cached_p50_s": (statistics.median(series["cached"]), n_cached,
                             "p50"),
            "cached_tail_s": (cached_tail, n_cached, cached_label),
        }

    units = {"setup_s": "s", "events_per_s": "events/s",
             "cells_per_s": "cells/s"}
    raw = figures(raw=True)
    rows = []
    for metric, (value, n, note) in figures(raw=False).items():
        rows.append((metric, value, units.get(metric, "s"), n,
                     f"{note}; raw {raw[metric][0]:.6g}"))
    rows += [
        ("peak_rss_mb", peak_rss_mb(), "MB", 1,
         "max of this process and its children"),
        ("fig12_err", errors["fig12_err"], "x", 10,
         f"calibration seed {loads.CALIBRATION_SEED}"),
    ]
    extra = [("error_rate", ops.failed / ops.attempted, "ratio",
              ops.attempted, f"{ops.failed} failed")]
    if "fig12_err_heldout" in errors:
        extra.append(("fig12_err_heldout", errors["fig12_err_heldout"], "x",
                      10, f"held-back seed {seed}"))
    return ops, rows, extra


def fixed_work(wl, ops) -> float:
    """The traced run's fixed amount of work; returns its wall seconds."""
    elapsed = 0.0
    for _ in range(wl.trace_steps):
        time.sleep(wl.think_s)
        gc.collect()
        start = perf_counter()
        wl.step(ops)
        elapsed += perf_counter() - start
    return elapsed


def trace_run(name: str, seed: int, work: Path):
    import loads
    import tracing

    ops = loads.Ops()
    plain = loads.WORKLOADS[name](seed, work / "untraced")
    try:
        plain.warm()
        untraced_wall = fixed_work(plain, ops)
    finally:
        plain.close()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = loads.WORKLOADS[name](seed, work / "traced")
        try:
            tracer.main.enable()
            try:
                traced_wall = fixed_work(wl, ops)
            finally:
                tracer.main.disable()
        finally:
            wl.close()
    finally:
        tracer.uninstall()
    common_checks(name, seed, wl, ops)

    self_times = tracer.self_times()
    rows = [(f"{layer}.self_s", self_times.get(layer, 0.0), "s", 1,
             "profiled self time") for layer in tracing.SELF_LAYERS]
    rows += [(span, tracer.spans.seconds.get(span, 0.0), "s", 1,
              "total over traced work") for span in tracing.SPAN_SECONDS]
    rows += [(span, tracer.spans.bytes.get(span, 0), "bytes", 1,
              "total over traced work") for span in tracing.SPAN_BYTES]

    replies = getattr(wl, "replies", [])

    def reply_median(values):
        return statistics.median(values) if values else 0.0

    rows += [
        ("service.accept_s", reply_median([r.accept_s for r in replies]),
         "s", len(replies), "median POST -> accepted, cold"),
        ("service.first_cell_s",
         reply_median([r.first_cell_s for r in replies]), "s", len(replies),
         "median POST -> first cell, cold"),
        ("service.stream_s",
         reply_median([r.latency - r.accept_s for r in replies]), "s",
         len(replies), "median accepted -> done, cold"),
        ("service.result_get_s",
         reply_median(getattr(wl, "result_gets", [])), "s",
         len(getattr(wl, "result_gets", [])), "median GET result"),
    ]
    for metric, (unit, value) in tracing.sim_counts(wl.sim_cells()).items():
        rows.append((metric, value, unit, 1, "collect_detail=True"))

    last = getattr(wl, "last", None)
    attempts = [a for r in replies for a in r.attempts]
    rows += [
        ("sweep.fork_groups", last.fork_groups if last else 0, "count", 1,
         "traced cold sweep"),
        ("sweep.forked_ratio",
         last.forked_cells / len(last.points) if last else 0.0, "ratio", 1,
         "traced cold sweep"),
        ("sweep.prefix_events", last.prefix_events if last else 0, "count",
         1, "traced cold sweep"),
        ("queue.attempts_per_cell",
         statistics.fmean(attempts) if attempts else 0.0, "ratio",
         len(attempts), "cold cells"),
        ("service.cache_hit_ratio",
         wl.cached_cells / wl.served_cells
         if getattr(wl, "served_cells", 0) else 0.0, "ratio", 1,
         "cells served from cache"),
        ("trace_overhead", traced_wall / untraced_wall, "x", 1,
         f"{traced_wall:.2f} s traced / {untraced_wall:.2f} s untraced"),
    ]
    others = sorted((layer, seconds) for layer, seconds in self_times.items()
                    if layer not in tracing.SELF_LAYERS)
    extra = [(f"{layer}.self_s", seconds, "s", 1, "other layer")
             for layer, seconds in others]
    return ops, rows, extra


def report(name, seed, seconds, trace, env, ops, rows, extra) -> None:
    print(f"perfbench workload={name} seed={seed} seconds={seconds} "
          f"trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':30} {'value':>16} {'unit':>9} {'n':>6}  note")
    for metric, value, unit, n, note in rows + extra:
        print(f"{metric:30} {value:16.6g} {unit:>9} {n:>6}  {note}")
    for problem in ops.problems[:20]:
        print(f"FAILED: {problem}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, value, unit, _n, _note in rows},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.seed, Path(args.work))
    if args.workload is None:
        parser.error("--workload is required")

    # A SIGTERM runs the finally blocks below: the service and its fleet
    # stop and the work directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        env = environment()
        if args.trace:
            ops, rows, extra = trace_run(args.workload, args.seed, work)
        else:
            ops, rows, extra = timed_run(args.workload, args.seed,
                                         args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only if no other run is using it
    report(args.workload, args.seed, args.seconds, args.trace, env, ops,
           rows, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
