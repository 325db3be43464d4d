"""Command-line experiment runner and serving demo.

Regenerate any paper table/figure from a shell::

    python -m repro table1 --scale fast
    python -m repro fig8 --scale standard
    python -m repro all --scale fast --out results/

``--scale`` selects an :class:`repro.analysis.ExperimentScale` preset
(fast / standard / full); ``--out`` saves each rendered table next to
printing it.

``serve`` runs the inference server against synthetic Poisson traffic
and prints per-request receipts plus the operational summary — a
self-checking demo of :mod:`repro.serving` (every output is asserted
bit-identical to the serial single-image path)::

    python -m repro serve --requests 24 --rate 200 --max-batch 4 --workers 2

With ``--models 2`` (or ``--priority-classes 2``) the demo switches to
the multi-tenant shape: two models registered on one shared pool, served
under the two-class SLA policy (interactive deadlines via
``--deadline-ms``, bulk latency bound, shedding receipts), plus a
cross-model die-dedup proof::

    python -m repro serve --models 2 --requests 32 --rate 400 --deadline-ms 50

``--chaos`` runs the fault-recovery demo: scripted stuck-at die faults
land on both tenants mid-traffic, the checksum guards detect them, the
server quarantines and re-programs the dies online and retries the
batches — every completed request asserted bit-identical to the
*pre-fault* serial forward, zero hung futures, recovery receipts
printed::

    python -m repro serve --chaos --requests 24 --rate 400

``--http PORT`` puts either demo server on a socket — the
:class:`repro.serving.HttpFrontend` wire protocol documented in
``docs/serving.md`` (``--http 0`` picks an ephemeral port) — and serves
until Ctrl-C, printing the walkthrough curl lines.  ``--http-demo``
instead replays ``--requests`` self-checking requests *through the
wire* (concurrent clients, mixed classes with ``--models 2``, every
decoded response asserted bit-identical to the in-process serial
forward), drains, and exits — the CI smoke::

    python -m repro serve --http 8100                 # curl me
    python -m repro serve --http 0 --http-demo --models 2 --requests 16

``--async`` swaps the threaded front end for the asyncio
:class:`repro.serving.AsyncFrontend` — same wire protocol plus SSE
streaming (``POST /v1/infer_batch?stream=1``) and connection /
inflight-byte backpressure — and ``--sla-mode weighted_fair`` switches
the scheduler to deficit-round-robin across the classes (scheduling
only; served bits are identical either way)::

    python -m repro serve --async --http 8100 --models 2 \
        --sla-mode weighted_fair
    python -m repro serve --async --http 0 --http-demo --requests 16

``--cluster N`` puts a sharded cluster behind the same wire protocol:
N subprocess replicas of the identical demo build under a
:class:`repro.serving.ClusterRouter` (consistent-hash placement with
``--cluster-replication`` preferred replicas per model, health-checked
failover, optional ``--hedge-ms`` hedged attempts, explicit
``cluster_unavailable`` receipts when every replica is down).  With
``--http-demo`` it runs the self-checking failover smoke instead: a
replica is SIGKILLed and restarted mid-traffic, and every completed
response is asserted bit-identical to the serial forward::

    python -m repro serve --cluster 3 --http 8100     # curl the router
    python -m repro serve --cluster 2 --http 0 --http-demo --requests 16
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable, Dict

from .analysis import (SCALES, ExperimentTable, eic_experiment, fig13, fig14,
                       fragment_size_sweep, table1, table2, table3, table4,
                       table5, table6)


def _dse_table(scale, seed) -> ExperimentTable:
    """Sec. IV-C cell-bits design-space sweep (see bench_ablation_cell_bits)."""
    from .arch.dse import cell_bits_sweep
    rows = []
    for rule in ("exact", "paper"):
        for ev in cell_bits_sweep(adc_rule=rule):
            rows.append([rule, ev.point.cell_bits, ev.point.adc_bits,
                         ev.gops_per_w, ev.gops_per_mm2,
                         ev.level_margin_sigmas, ev.variation_feasible])
    return ExperimentTable(
        "DSE: bits per cell (fragment 8)",
        ["ADC rule", "cell bits", "ADC bits", "GOPs/W", "GOPs/mm2",
         "margin (sigma)", "feasible"], rows)


def _irdrop_table(scale, seed) -> ExperimentTable:
    """IR-drop error vs activation granularity (see bench_ablation_nonideality)."""
    from .reram.nonideal import CellIV, WireModel, ir_drop_study
    points = ir_drop_study(rows=64, cols=8,
                           active_row_options=[4, 8, 16, 32, 64],
                           wire=WireModel(r_wire_ohm=2.5),
                           cell_iv=CellIV(nonlinearity=2.0), seed=seed)
    rows = [[p.active_rows, p.relative_error * 100.0] for p in points]
    return ExperimentTable(
        "IR drop: relative MVM error vs rows active per conversion",
        ["active rows", "error %"], rows)


#: experiment name -> (driver taking a scale, description)
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (lambda scale, seed: table1(scale, seed=seed),
               "compression on MNIST & CIFAR-10"),
    "table2": (lambda scale, seed: table2(scale, seed=seed),
               "compression on CIFAR-100 & ImageNet"),
    "table3": (lambda scale, seed: table3(8),
               "MCU component specs (FORMS vs ISAAC)"),
    "table4": (lambda scale, seed: table4(8),
               "chip-level power/area"),
    "table5": (lambda scale, seed: table5(scale, seed=seed),
               "peak throughput normalized to ISAAC"),
    "table6": (lambda scale, seed: table6(scale, seed=seed),
               "accuracy degradation under device variation"),
    "fig6": (lambda scale, seed: fragment_size_sweep(scale=scale, seed=seed),
             "accuracy vs fragment size"),
    "fig8": (lambda scale, seed: eic_experiment(scale=scale, seed=seed),
             "effective input cycles"),
    "fig13": (lambda scale, seed: fig13(scale, seed=seed),
              "FPS speedup on CIFAR-10"),
    "fig14": (lambda scale, seed: fig14(scale, seed=seed),
              "FPS speedup on CIFAR-100 & ImageNet"),
    "dse": (_dse_table, "bits-per-cell design-space sweep (Sec. IV-C)"),
    "irdrop": (_irdrop_table, "IR-drop error vs activation granularity"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate FORMS (ISCA 2021) evaluation tables/figures, "
                    "or demo the batching inference server ('serve').")
    choices = sorted(EXPERIMENTS) + ["all", "report", "serve"]
    parser.add_argument("experiment", choices=choices,
                        help="which artifact to regenerate ('report' builds "
                             "a combined markdown report of the fast ones; "
                             "'serve' runs the self-checking serving demo)")
    parser.add_argument("--scale", default="fast", choices=sorted(SCALES),
                        help="experiment scale preset (default: fast)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to save rendered tables into")
    serve = parser.add_argument_group("serve options")
    serve.add_argument("--requests", type=int, default=16,
                       help="number of synthetic requests (serve only)")
    serve.add_argument("--rate", type=float, default=200.0,
                       help="Poisson arrival rate in requests/s (serve only)")
    serve.add_argument("--max-batch", type=int, default=4,
                       help="batch coalescing cap (serve only)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="coalescing latency budget in ms (serve only)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker-pool size (serve only; default: "
                            "FORMS_WORKERS or CPU count)")
    serve.add_argument("--backend", default=None,
                       choices=("thread", "process"),
                       help="repro.runtime execution backend for the "
                            "serving pool: 'thread' shares one in-process "
                            "pool, 'process' fans tiles out to worker "
                            "processes over shared-memory planes — served "
                            "bits are identical either way (serve only; "
                            "default: FORMS_BACKEND or thread; not "
                            "compatible with --chaos, whose die guards "
                            "live in-process)")
    serve.add_argument("--models", type=int, default=1, choices=(1, 2),
                       help="number of tenant models: 2 selects the "
                            "multi-tenant SLA demo (serve only)")
    serve.add_argument("--priority-classes", type=int, default=None,
                       choices=(1, 2),
                       help="number of SLA classes (default: matches "
                            "--models; 2 selects the SLA demo)")
    serve.add_argument("--deadline-ms", type=float, default=50.0,
                       help="per-request deadline of the interactive "
                            "class in the SLA demo; <= 0 disables "
                            "(serve only)")
    serve.add_argument("--chaos", action="store_true",
                       help="run the fault-recovery demo: scripted stuck-at "
                            "die faults under mixed-tenant traffic, checksum "
                            "detection, online re-program, bounded retry — "
                            "self-checking (serve only)")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="expose the demo server over HTTP on PORT "
                            "(0 = ephemeral) and serve until Ctrl-C; "
                            "wire protocol in docs/serving.md (serve only)")
    serve.add_argument("--http-demo", action="store_true",
                       help="with --http: replay --requests self-checking "
                            "requests through the wire, drain, and exit "
                            "instead of serving forever (serve only)")
    serve.add_argument("--http-host", default="127.0.0.1",
                       help="bind address for --http (default: loopback "
                            "only; serve only)")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="with --http: serve through the asyncio front "
                            "end instead of the threaded one — same wire "
                            "protocol plus SSE streaming "
                            "(POST /v1/infer_batch?stream=1) and "
                            "connection/inflight-byte backpressure; not "
                            "compatible with --cluster (serve only)")
    serve.add_argument("--sla-mode", choices=("strict", "weighted_fair"),
                       default="strict",
                       help="cross-class arbitration of the single-process "
                            "--http server: 'strict' is class precedence "
                            "(bulk can starve), 'weighted_fair' is "
                            "deficit-round-robin over the class weights "
                            "with aging — scheduling only, served bits are "
                            "identical (serve only)")
    serve.add_argument("--cluster", type=int, default=None, metavar="N",
                       help="with --http: serve through a cluster router "
                            "over N subprocess replicas (health-checked "
                            "failover, consistent-hash placement; with "
                            "--http-demo runs the SIGKILL/restart failover "
                            "smoke; serve only)")
    serve.add_argument("--cluster-replication", type=int, default=2,
                       metavar="R",
                       help="preferred replicas per model on the cluster's "
                            "hash ring (serve only; default 2)")
    serve.add_argument("--hedge-ms", type=float, default=None,
                       help="cluster router hedging delay in ms: fire a "
                            "duplicate attempt at the next replica when "
                            "the first answer is this late (default: off; "
                            "serve only)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the metrics registry and /metrics "
                            "exposition (tracing and usage metering stay "
                            "on; single-process serve only)")
    serve.add_argument("--trace-ring", type=int, default=256, metavar="N",
                       help="capacity of the /v1/trace/<id> ring: how many "
                            "recent request span trees stay queryable "
                            "(0 disables tracing; default 256; "
                            "single-process serve only)")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scale = SCALES[args.scale]
    if args.experiment == "serve":
        classes = (args.priority_classes if args.priority_classes is not None
                   else args.models)
        if args.http_demo and args.http is None:
            print("ERROR: --http-demo requires --http PORT", file=sys.stderr)
            return 2
        if args.trace_ring < 0:
            print("ERROR: --trace-ring must be >= 0 (0 disables tracing)",
                  file=sys.stderr)
            return 2
        if args.cluster is not None:
            if args.http is None:
                print("ERROR: --cluster requires --http PORT (the router's "
                      "bind port)", file=sys.stderr)
                return 2
            if args.cluster < 1:
                print("ERROR: --cluster needs at least one replica",
                      file=sys.stderr)
                return 2
            if args.use_async:
                print("ERROR: --async serves a single process; the cluster "
                      "router keeps the threaded front end (drop --async "
                      "or --cluster)", file=sys.stderr)
                return 2
        if args.use_async and args.http is None:
            print("ERROR: --async requires --http PORT (it is the wire "
                  "front end's event loop)", file=sys.stderr)
            return 2
        if args.backend == "process" and args.chaos:
            print("ERROR: --chaos needs the thread backend: its die guards "
                  "and fault injection instrument live engine objects, "
                  "which process workers never see", file=sys.stderr)
            return 2
        if args.backend == "process" and args.http is not None:
            print("ERROR: --http serves from the thread backend (the "
                  "cluster already isolates replicas as subprocesses); "
                  "drop --backend process", file=sys.stderr)
            return 2
        if args.chaos:
            if args.http is not None:
                print("ERROR: --chaos is an in-process demo; drop --http",
                      file=sys.stderr)
                return 2
            from .perf.demo import run_chaos_demo

            run_chaos_demo(requests=args.requests, rate_rps=args.rate,
                           workers=args.workers, seed=args.seed)
            return 0
        if args.http is not None:
            from .perf.demo import run_http_cli

            return run_http_cli(args)
        if args.models > 1 or classes > 1:
            from .perf.demo import run_multitenant_demo

            if (args.max_batch, args.max_wait_ms) != (4, 2.0):
                print("note: --max-batch/--max-wait-ms are FIFO knobs; "
                      "the SLA demo's classes carry their own coalescing "
                      "budgets (ignored here)")
            deadline = (args.deadline_ms if args.deadline_ms is not None
                        and args.deadline_ms > 0 else None)
            run_multitenant_demo(requests=args.requests, rate_rps=args.rate,
                                 deadline_ms=deadline, workers=args.workers,
                                 backend=args.backend, seed=args.seed)
            return 0
        from .perf.demo import run_demo

        run_demo(requests=args.requests, rate_rps=args.rate,
                 max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
                 workers=args.workers, backend=args.backend, seed=args.seed)
        return 0
    if args.experiment == "report":
        from .analysis.report import generate_report

        report = generate_report(scale=scale, seed=args.seed)
        print(report)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / "report.md").write_text(report)
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        driver, description = EXPERIMENTS[name]
        print(f"== {name}: {description} (scale={scale.name}) ==")
        start = time.perf_counter()
        table = driver(scale, args.seed)
        elapsed = time.perf_counter() - start
        print(table.rendered)
        print(f"[{elapsed:.1f}s]\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(table.rendered + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
