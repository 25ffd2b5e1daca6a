"""Command-line interface: ``griffin-sim``.

Subcommands::

    griffin-sim run SC --policy griffin          # one simulation, summary
    griffin-sim compare MT                       # baseline vs. griffin
    griffin-sim figures fig12 fig9               # regenerate paper figures
    griffin-sim tables                           # Tables I-III + HW cost
    griffin-sim list                             # workloads & policies
    griffin-sim run SC --check --bundle-dir b/   # sanitized run, crash bundles
    griffin-sim replay b/SC-...-violation-c1234  # re-execute a crash bundle

All simulations are deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.config.presets import NVLINK, PCIE_V4, paper_system, small_system
from repro.core.policies import list_policies
from repro.harness import experiments as ex
from repro.harness import export as ex_csv
from repro.harness.runner import run_workload
from repro.metrics.chart import bar_chart
from repro.metrics.report import format_table
from repro.sim.backends import ENGINE_BACKENDS
from repro.workloads.registry import list_workloads

# name -> (experiment fn, renderer, csv exporter or None)
_FIGURES = {
    "fig1": (
        ex.fig1_page_access_timeline,
        lambda r: r.render(),
        ex_csv.export_timeline,
    ),
    "fig2": (
        ex.fig2_first_touch_imbalance,
        ex.render_fig2,
        ex_csv.export_occupancy,
    ),
    "fig8": (
        ex.fig8_occupancy_balance,
        ex.render_fig8,
        ex_csv.export_occupancy,
    ),
    "fig9": (
        ex.fig9_tlb_shootdowns,
        ex.render_fig9,
        ex_csv.export_shootdowns,
    ),
    "fig10": (
        ex.fig10_dpc_migration,
        lambda r: r.render(),
        ex_csv.export_timeline,
    ),
    "fig11": (
        ex.fig11_acud_vs_flush,
        ex.render_fig11,
        lambda r, p: ex_csv.export_speedups(r, p, "griffin_flush", "griffin"),
    ),
    "fig12": (
        ex.fig12_overall_speedup,
        ex.render_fig12,
        ex_csv.export_speedups,
    ),
    "fig13": (
        ex.fig13_high_bandwidth,
        ex.render_fig13,
        ex_csv.export_speedups,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="griffin-sim",
        description="Griffin (HPCA 2020) multi-GPU page-migration simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sim_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", type=float, default=0.015,
                       help="footprint scale (default 0.015)")
        p.add_argument("--seed", type=int, default=3, help="RNG seed")
        p.add_argument("--gpus", type=int, default=4, help="GPU count")
        p.add_argument("--fabric", choices=["pcie", "nvlink"], default="pcie")
        p.add_argument("--full-size", action="store_true",
                       help="use the paper's full Table II GPU (slower)")
        p.add_argument("--engine-backend",
                       choices=ENGINE_BACKENDS,
                       default="heap",
                       help="event-core backend (results are byte-identical "
                            "on all of them; 'compiled' needs the optional "
                            "C extension — see docs/performance.md)")

    def add_fault_options(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group(
            "fault injection", "deterministic fault injection (all off by "
            "default; see docs/resilience.md)"
        )
        g.add_argument("--fault-drop-rate", type=float, default=0.0,
                       metavar="P",
                       help="probability each page transfer is dropped")
        g.add_argument("--fault-max-attempts", type=int, default=3,
                       metavar="N",
                       help="migration attempts before pinning the page "
                            "(0 = retry forever)")
        g.add_argument("--fault-shootdown-delay", type=int, default=0,
                       metavar="CYCLES",
                       help="fixed extra delay on every TLB shootdown ack")
        g.add_argument("--fault-shootdown-timeout-rate", type=float,
                       default=0.0, metavar="P",
                       help="probability a shootdown ack times out")
        g.add_argument("--fault-link", action="append", default=[],
                       metavar="DEV:FACTOR[:LATENCY]",
                       help="degrade a fabric port (-1 = CPU): bandwidth "
                            "factor in (0,1] and optional extra cycles; "
                            "repeatable")
        g.add_argument("--max-events", type=int, default=None,
                       metavar="N",
                       help="event budget; the run fails fast instead of "
                            "hanging when exceeded")

    def add_check_options(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group(
            "sanitizer", "runtime invariant monitors and crash bundles "
            "(see docs/resilience.md)"
        )
        g.add_argument("--check", action="store_true",
                       help="attach every invariant monitor (page-ownership "
                            "conservation, VM coherence, ACUD drain, event "
                            "queue, retry lifecycle); a violation fails the "
                            "run with a report")
        g.add_argument("--bundle-dir", default=None, metavar="DIR",
                       help="write a crash bundle (config, seed, violation "
                            "report, event ring, warm snapshot) here on any "
                            "checked failure; replay it with "
                            "'griffin-sim replay'")
        g.add_argument("--check-snapshot-interval", type=int, default=None,
                       metavar="CYCLES",
                       help="capture a warm snapshot every N cycles so the "
                            "bundle replays from near the failure instead "
                            "of from cycle zero")

    run_p = sub.add_parser("run", help="simulate one workload under one policy")
    run_p.add_argument("workload", help="Table III abbreviation (e.g. SC)")
    run_p.add_argument("--policy", default="griffin", help="policy name")
    run_p.add_argument("--detail", action="store_true",
                       help="print the full component-level statistics")
    run_p.add_argument("--save", metavar="PATH",
                       help="write the result to a JSON file")
    add_sim_options(run_p)
    add_fault_options(run_p)
    add_check_options(run_p)

    cmp_p = sub.add_parser("compare", help="compare policies on one workload")
    cmp_p.add_argument("workload")
    cmp_p.add_argument("--policies", default="baseline,griffin",
                       help="comma-separated policy names")
    add_sim_options(cmp_p)

    fig_p = sub.add_parser("figures", help="regenerate paper figures")
    fig_p.add_argument("names", nargs="*", default=[],
                       help=f"figures to run ({', '.join(_FIGURES)}); "
                            "default: all")
    fig_p.add_argument("--export", metavar="DIR",
                       help="also write each figure's data as CSV here")
    fig_p.add_argument("--chart", action="store_true",
                       help="render speedup figures as ASCII bar charts")
    add_sim_options(fig_p)

    sub.add_parser("tables", help="print Tables I-III and the hardware cost")
    sub.add_parser("list", help="list workloads and policies")

    val_p = sub.add_parser(
        "validate", help="grade the paper's shape claims on this machine"
    )
    val_p.add_argument("--workloads", default="",
                       help="comma-separated subset (default: all ten)")
    add_sim_options(val_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a workload x policy grid and tabulate it"
    )
    sweep_p.add_argument("--workloads", default="MT,SC,PR",
                         help="comma-separated workloads")
    sweep_p.add_argument("--policies", default="baseline,griffin",
                         help="comma-separated policies")
    sweep_p.add_argument("--metric", default="cycles",
                         help="metric to tabulate (cycles, local_fraction, "
                              "shootdowns, migrations, gpu_to_gpu, imbalance)")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes (0 = one per core; "
                              "results are identical at any worker count)")
    sweep_p.add_argument("--no-fork", action="store_true",
                         help="disable snapshot-fork warm-state reuse and "
                              "run every cell from cycle zero (results are "
                              "byte-identical either way)")
    sweep_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="keep the fingerprint store of completed "
                              "cells and prefix snapshots in DIR, keyed by "
                              "config + code fingerprint")
    sweep_p.add_argument("--resume", action="store_true",
                         help="serve cells already in --cache-dir from disk; "
                              "a killed sweep re-runs only unfinished cells")
    queue_g = sweep_p.add_argument_group(
        "sweep queue", "every sweep drains a fault-tolerant lease queue "
        "(see docs/resilience.md)"
    )
    queue_g.add_argument("--queue-dir", default=None, metavar="DIR",
                         help="keep the queue in DIR instead of a temporary "
                              "directory: any number of 'worker' processes "
                              "on machines sharing the filesystem may "
                              "attach, and re-running with the same dir "
                              "resumes the grid")
    queue_g.add_argument("--cell-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-cell wall-clock budget; a cell past it is "
                              "killed, retried with backoff, then "
                              "quarantined")
    queue_g.add_argument("--lease", type=float, default=30.0,
                         metavar="SECONDS",
                         help="queue lease duration; a worker that stops "
                              "heartbeating this long is presumed dead and "
                              "its cell reclaimed (default 30)")
    queue_g.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="executions granted per cell before the queue "
                              "quarantines it (default 3)")
    add_sim_options(sweep_p)
    add_fault_options(sweep_p)
    add_check_options(sweep_p)

    worker_p = sub.add_parser(
        "worker", help="attach to a sweep queue and execute cells until "
                       "the grid drains"
    )
    worker_p.add_argument("queue_dir", help="queue directory created by "
                                            "'sweep --queue-dir'")
    worker_p.add_argument("--owner", default=None, metavar="NAME",
                          help="worker identity recorded on leases "
                               "(default host:pid:nonce)")
    worker_p.add_argument("--poll-interval", type=float, default=0.5,
                          metavar="SECONDS",
                          help="sleep between claim attempts when no cell "
                               "is ready (default 0.5)")
    worker_p.add_argument("--max-cells", type=int, default=None, metavar="N",
                          help="stop after claiming N cells")

    queue_p = sub.add_parser(
        "queue", help="inspect a sweep queue directory"
    )
    queue_sub = queue_p.add_subparsers(dest="queue_command", required=True)
    status_p = queue_sub.add_parser(
        "status", help="cell counts and lease health; exit 1 if any cell "
                       "is quarantined"
    )
    status_p.add_argument("queue_dir", help="queue directory created by "
                                            "'sweep --queue-dir' or serve")
    status_p.add_argument("--json", action="store_true",
                          help="emit the health snapshot as JSON")

    serve_p = sub.add_parser(
        "serve", help="run the async experiment service over HTTP"
    )
    serve_p.add_argument("--root", default="serve-root", metavar="DIR",
                         help="service state directory: result cache + "
                              "queue dirs (default serve-root)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="bind port; 0 picks a free one (default 8642)")
    serve_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker processes per submission (default 2)")
    serve_p.add_argument("--max-in-flight", type=int, default=64,
                         metavar="CELLS",
                         help="admission budget: max cells enqueued or "
                              "executing across all submissions; beyond it "
                              "submissions get 429 (default 64)")
    serve_p.add_argument("--retry-after", type=float, default=1.0,
                         metavar="SECONDS",
                         help="Retry-After hint on 429 responses "
                              "(default 1)")
    serve_p.add_argument("--breaker-threshold", type=int, default=3,
                         metavar="N",
                         help="consecutive fleet failures before the "
                              "circuit opens to cache-only mode (default 3)")
    serve_p.add_argument("--breaker-reset", type=float, default=30.0,
                         metavar="SECONDS",
                         help="cool-down before a half-open trial "
                              "(default 30)")
    serve_p.add_argument("--lease", type=float, default=30.0,
                         metavar="SECONDS",
                         help="queue lease duration for service workers "
                              "(default 30)")
    serve_p.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="executions per cell before quarantine "
                              "(default 3)")
    serve_p.add_argument("--cell-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-cell wall-clock timeout (default none)")

    replay_p = sub.add_parser(
        "replay", help="re-execute a crash bundle deterministically"
    )
    replay_p.add_argument("bundle", help="bundle directory written by a "
                                         "checked run (contains manifest.json)")
    replay_p.add_argument("--bisect", action="store_true",
                          help="binary-search the snapshot..failure window "
                               "down to the smallest cycle window that still "
                               "trips the violation")
    replay_p.add_argument("--tolerance", type=float, default=1000.0,
                          metavar="CYCLES",
                          help="stop bisecting once the window is this "
                               "narrow (default 1000)")
    replay_p.add_argument("--max-events", type=int, default=None, metavar="N",
                          help="override the replay event budget")

    bench_p = sub.add_parser(
        "bench", help="run the pinned perf suite and write BENCH_<date>.json"
    )
    bench_p.add_argument("--quick", action="store_true",
                         help="small suite for CI smoke runs")
    bench_p.add_argument("--repeat", type=int, default=0, metavar="N",
                         help="timing repeats per case (best-of-N; "
                              "default 3, 1 with --quick)")
    bench_p.add_argument("--label", default="",
                         help="label embedded in the output filename")
    bench_p.add_argument("--out-dir", default=".", metavar="DIR",
                         help="directory for BENCH_<date>_<label>.json")
    bench_p.add_argument("--baseline", default="auto", metavar="PATH",
                         help="previous BENCH_*.json to diff against "
                              "('auto' = newest in --out-dir, 'none' skips)")
    bench_p.add_argument("--fail-factor", type=float, default=2.0,
                         metavar="X",
                         help="exit non-zero only if normalized e2e "
                              "throughput regressed more than X times "
                              "(generous on purpose; CI gate)")
    bench_p.add_argument("--no-save", action="store_true",
                         help="measure and print without writing a file")
    bench_p.add_argument("--engine-backend",
                         choices=ENGINE_BACKENDS,
                         default="heap",
                         help="event-core backend every case runs on (the "
                              "compiled_vs_python cases always measure both "
                              "of their backends)")
    return parser


def _make_faults(args: argparse.Namespace):
    """Build a FaultConfig from the CLI flags; None when all are off."""
    from repro.config.faults import FaultConfig, LinkFaultSpec

    link_faults = []
    for spec in args.fault_link:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"error: bad --fault-link {spec!r}; expected "
                "DEV:FACTOR[:LATENCY]"
            )
        link_faults.append(LinkFaultSpec(
            device=int(parts[0]),
            bandwidth_factor=float(parts[1]),
            extra_latency=int(parts[2]) if len(parts) == 3 else 0,
        ))
    faults = FaultConfig(
        migration_drop_rate=args.fault_drop_rate,
        shootdown_ack_delay=args.fault_shootdown_delay,
        shootdown_timeout_rate=args.fault_shootdown_timeout_rate,
        link_faults=tuple(link_faults),
        max_migration_attempts=args.fault_max_attempts,
    )
    return faults if faults.enabled else None


def _make_checks(args: argparse.Namespace):
    """Build a CheckConfig from the CLI flags; None when --check is off."""
    if not args.check:
        return None
    from repro.check import CheckConfig

    return CheckConfig(snapshot_interval=args.check_snapshot_interval)


def _make_config(args: argparse.Namespace):
    from repro.sim.backends import resolve_backend

    base = paper_system(args.gpus) if args.full_size else small_system(args.gpus)
    config = base.with_link(NVLINK if args.fabric == "nvlink" else PCIE_V4)
    backend = getattr(args, "engine_backend", "heap")
    # Validate eagerly — including the REPRO_ENGINE_BACKEND override and
    # the availability of the optional compiled extension — so a bad
    # backend fails here with a clear ConfigError instead of deep inside
    # machine construction.
    resolve_backend(backend)
    if backend != "heap":
        config = config.with_engine_backend(backend)
    return config


def _summarize(result) -> str:
    rows = [
        ["Cycles", f"{result.cycles:,.0f}"],
        ["Transactions", result.transactions],
        ["Local access fraction", f"{result.local_fraction:.3f}"],
        ["Pages per GPU (%)",
         " / ".join(f"{p:.0f}" for p in result.occupancy.percentages())],
        ["TLB shootdowns", result.total_shootdowns],
        ["CPU->GPU migrations", result.cpu_to_gpu_migrations],
        ["GPU->GPU migrations", result.gpu_to_gpu_migrations],
        ["DFTM denials", result.dftm_denials],
    ]
    if (result.transfers_dropped or result.migration_retries
            or result.migration_fallbacks or result.pages_pinned
            or result.shootdown_timeouts):
        rows += [
            ["Transfers dropped (injected)", result.transfers_dropped],
            ["Migration retries", result.migration_retries],
            ["Migration fallbacks", result.migration_fallbacks],
            ["Pages pinned", result.pages_pinned],
            ["Shootdown timeouts (injected)", result.shootdown_timeouts],
        ]
    return format_table(
        ["Metric", "Value"], rows,
        f"{result.workload} under {result.policy}",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.engine import SimulationError

    # Built outside the try: a ConfigError (bad backend name, unbuilt
    # compiled extension) is a usage error (exit 2 via main's handler),
    # not a simulation failure (exit 1).
    config = _make_config(args)
    try:
        result = run_workload(
            args.workload.upper(), args.policy, config=config,
            scale=args.scale, seed=args.seed, collect_detail=args.detail,
            faults=_make_faults(args), max_events=args.max_events,
            checks=_make_checks(args), bundle_dir=args.bundle_dir,
        )
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        bundle = getattr(exc, "bundle_path", None)
        if bundle is not None:
            print(f"crash bundle written to {bundle}", file=sys.stderr)
            print(f"replay with: griffin-sim replay {bundle}", file=sys.stderr)
        return 1
    print(_summarize(result))
    if result.bundle_path is not None:
        print(f"\n[retry-exhaustion bundle written to {result.bundle_path}]")
    if args.detail and result.detail is not None:
        from repro.metrics.collector import render_stats

        print()
        print(render_stats(result.detail))
    if args.save:
        from repro.harness.io import save_result

        path = save_result(result, args.save)
        print(f"\nresult written to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _make_config(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(policies) < 2:
        print("compare needs at least two policies", file=sys.stderr)
        return 2
    results = {
        policy: run_workload(
            args.workload.upper(), policy, config=config,
            scale=args.scale, seed=args.seed,
        )
        for policy in policies
    }
    reference = results[policies[0]]
    rows = [
        [policy,
         f"{r.cycles:,.0f}",
         f"{reference.cycles / r.cycles:.2f}",
         f"{r.local_fraction:.3f}",
         r.total_shootdowns]
        for policy, r in results.items()
    ]
    print(format_table(
        ["Policy", "Cycles", f"Speedup vs {policies[0]}", "Local frac",
         "Shootdowns"],
        rows, f"{args.workload.upper()}: policy comparison",
    ))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    names = [n.lower() for n in args.names] or list(_FIGURES)
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}; "
              f"available: {', '.join(_FIGURES)}", file=sys.stderr)
        return 2
    kwargs = dict(config=_make_config(args), scale=args.scale, seed=args.seed)
    for name in names:
        experiment, renderer, exporter = _FIGURES[name]
        result = experiment(**dict(kwargs))
        print(renderer(result))
        if args.chart and name in ("fig11", "fig12", "fig13"):
            baseline = "griffin_flush" if name == "fig11" else "baseline"
            speedups = result.speedups(baseline, "griffin")
            print()
            print(bar_chart(speedups, f"{name}: speedup", reference=1.0))
        if args.export and exporter is not None:
            from pathlib import Path

            path = exporter(result, Path(args.export) / f"{name}.csv")
            print(f"[data written to {path}]")
        print()
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    print(ex.table1_hyperparameters().render())
    print()
    print(ex.table2_system_config().render())
    print()
    print(ex.table3_workloads().render())
    print()
    report = ex.hardware_cost_report()
    print(format_table(["Component", "Cost"], report.rows(),
                       "Section V: Griffin hardware cost"))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Workloads: " + ", ".join(list_workloads()))
    print("Policies:  " + ", ".join(list_policies()))
    print("Figures:   " + ", ".join(_FIGURES))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validate import validate_reproduction

    workloads = [w.strip().upper() for w in args.workloads.split(",") if w.strip()]
    report = validate_reproduction(
        config=_make_config(args), scale=args.scale, seed=args.seed,
        workloads=workloads or None,
    )
    print(report.render())
    return 0 if report.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.sweep import Sweep

    faults = _make_faults(args)
    workers = args.workers
    if workers == 0:
        import os

        workers = os.cpu_count() or 1
    sweep = Sweep(
        workloads=[w.strip().upper() for w in args.workloads.split(",") if w.strip()],
        policies=[p.strip() for p in args.policies.split(",") if p.strip()],
        configs={"default": _make_config(args)},
        faults={"injected": faults} if faults is not None else None,
    )
    if args.resume and args.cache_dir is None:
        print("error: --resume requires --cache-dir", file=sys.stderr)
        return 2
    result = sweep.run(scale=args.scale, seed=args.seed, workers=workers,
                       max_events_per_run=args.max_events,
                       fork=not args.no_fork,
                       cache_dir=args.cache_dir, resume=args.resume,
                       checks=_make_checks(args), bundle_dir=args.bundle_dir,
                       queue_dir=args.queue_dir,
                       cell_timeout=args.cell_timeout,
                       lease_duration=args.lease,
                       max_attempts=args.max_attempts)
    print(result.table(args.metric))
    stats = (
        f"cells: {len(result.points) + len(result.failures)} "
        f"(forked {result.forked_cells}, cold {result.cold_cells}, "
        f"cached {result.cache_hits})"
    )
    if args.cache_dir is not None:
        stats += (
            f" | cache: {result.cache_hits} hits, "
            f"{result.cache_misses} misses"
        )
    if result.fork_groups:
        stats += (
            f" | {result.fork_groups} shared prefixes, "
            f"{result.prefix_events:,} prefix events"
        )
    print(stats)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(policies) >= 2 and not result.failures:
        print()
        print(result.speedup_table(policies[0], policies[1]))
    if result.failures:
        print()
        print(result.failure_table())
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Drain cells from a sweep queue; nonzero exit on an unhealthy grid.

    Exit codes: 2 when the queue cannot be opened; 1 when the grid is
    finished but contains failed or quarantined cells (so CI can tell
    "drained" from "drained clean"); 0 otherwise.
    """
    from repro.harness.queue import SweepQueue
    from repro.harness.worker import run_worker

    try:
        queue = SweepQueue.open(args.queue_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(report, stats):
        print(f"[{report.owner}] {report.claimed} claimed | queue: "
              f"{stats.open} open, {stats.leased} leased, {stats.done} done, "
              f"{stats.failed} failed, {stats.quarantined} quarantined",
              file=sys.stderr)

    report = run_worker(
        args.queue_dir, owner=args.owner,
        poll_interval=args.poll_interval, max_cells=args.max_cells,
        install_signal_handlers=True, progress=progress,
    )
    print(report.summary())
    if queue.drained():
        stats = queue.stats()
        if stats.unhealthy:
            print(f"grid drained with {stats.failed} failed and "
                  f"{stats.quarantined} quarantined cells", file=sys.stderr)
            print(queue.collect().failure_table(), file=sys.stderr)
            return 1
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    """Inspect a queue directory; exit codes mirror ``worker``.

    Exit codes: 2 when the queue cannot be opened; 1 when any cell is
    quarantined (CI fails loudly on poisoned grids); 0 otherwise.
    """
    import json as _json

    from repro.harness.queue import SweepQueue

    try:
        queue = SweepQueue.open(args.queue_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    health = queue.health()
    if args.json:
        print(_json.dumps(health.to_dict(), indent=2, sort_keys=True))
    else:
        s = health.stats
        print(f"queue: {args.queue_dir}")
        print(f"cells: {s.total} total | {s.open} open, {s.leased} leased, "
              f"{s.done} done, {s.failed} failed, "
              f"{s.quarantined} quarantined")
        print(f"drained: {'yes' if health.drained else 'no'}")
        for lease in health.leases:
            marker = " STALE" if lease.stale else ""
            print(f"  lease cell {lease.idx}: owner {lease.owner}, "
                  f"attempt {lease.attempts}, age {lease.age:.1f}s, "
                  f"{lease.remaining:.1f}s remaining{marker}")
    return 1 if health.stats.quarantined else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import ExperimentService

    service = ExperimentService(
        args.root, host=args.host, port=args.port,
        workers=args.workers,
        max_in_flight_cells=args.max_in_flight,
        retry_after=args.retry_after,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        lease_duration=args.lease,
        max_attempts=args.max_attempts,
        cell_timeout=args.cell_timeout,
    )
    return service.run()


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.check import bisect_bundle, load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = bundle.manifest
    print(f"bundle:   {args.bundle}")
    print(f"kind:     {manifest['kind']}")
    print(f"cell:     {manifest['workload']} / {manifest['policy']} "
          f"(seed {manifest['seed']}, scale {manifest['scale']})")
    print(f"failed at cycle {manifest['failed_cycle']:,}; snapshot at "
          f"cycle {manifest['snapshot_cycle']:,}")
    print()
    if args.bisect:
        result = bisect_bundle(args.bundle, tolerance=args.tolerance)
        print(result.render())
        return 0
    outcome = replay_bundle(args.bundle, max_events=args.max_events)
    print(outcome.render())
    return 0 if outcome.reproduced else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    from repro.perf.bench import (
        compare_reports,
        find_previous_report,
        load_report,
        run_bench,
        save_report,
    )
    from repro.sim.backends import BACKEND_ENV, resolve_backend

    # Fail fast on an unknown backend or an unbuilt compiled extension
    # (covers the --engine-backend flag and the env override alike).
    resolve_backend(args.engine_backend)
    previous = os.environ.get(BACKEND_ENV)
    if args.engine_backend != "heap":
        # Suite cases build their own configs; the env override reaches
        # them all.  It is restored afterwards so later calls in this
        # process run on the backend they ask for.
        os.environ[BACKEND_ENV] = args.engine_backend
    try:
        report = run_bench(
            quick=args.quick, repeats=args.repeat, label=args.label,
            progress=lambda name: print(f"  running {name} ...",
                                        file=sys.stderr),
        )
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = previous
    print(report.render())
    saved = None
    if not args.no_save:
        saved = save_report(report, args.out_dir)
        print(f"\nreport written to {saved}")

    if args.baseline == "none":
        return 0
    if args.baseline == "auto":
        baseline_path = find_previous_report(args.out_dir, exclude=saved)
        if baseline_path is None:
            print("\nno previous BENCH_*.json found; nothing to diff")
            return 0
    else:
        baseline_path = Path(args.baseline)
    comparison = compare_reports(
        load_report(baseline_path), report, fail_factor=args.fail_factor
    )
    if saved is not None:
        # Embed both verdicts (raw and calibration-normalized) in the
        # saved report so the artifact records how the gate was judged,
        # not just the measurements.  load_report ignores unknown keys.
        import json

        payload = json.loads(saved.read_text())
        payload["comparison"] = comparison.to_dict()
        payload["comparison"]["baseline"] = str(baseline_path)
        saved.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print()
    print(f"baseline: {baseline_path}")
    print(comparison.render())
    return 1 if comparison.regressed else 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figures": _cmd_figures,
    "tables": _cmd_tables,
    "list": _cmd_list,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "queue": _cmd_queue,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
