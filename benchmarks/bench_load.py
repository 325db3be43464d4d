#!/usr/bin/env python
"""Open-loop serving load benchmark: one script for every serving record.

Drives one ``--scenario`` of :mod:`repro.perf.load` at several offered
rates and merges one BENCH record per rate into ``BENCH_engine.json``
(every other record is preserved; schemas in ``benchmarks/README.md``):

* ``poisson``     — in-process ``submit_async``, one FIFO tenant
  (``serving_poisson_r*``);
* ``multitenant`` — two tenants with opposed SLAs on one pool
  (``serving_multitenant_r*``);
* ``http``        — the ``poisson`` traffic as ``POST /v1/infer`` over
  the threaded front end (``serving_http_r*``);
* ``async``       — every request on its own simultaneously open
  connection to the asyncio front end (``serving_async_r*``);
* ``chaos``       — two-tenant traffic under scripted die faults
  (``chaos_mixed_r*``);
* ``cluster``     — two-tenant wire traffic through the cluster router
  while a replica is SIGKILLed and restarted (``cluster_chaos_r*``);
* ``obs``         — the ``poisson`` point with the telemetry bundle
  armed vs disabled (``serving_obs_overhead_r*``).

Usage::

    PYTHONPATH=src python benchmarks/bench_load.py --scenario poisson --smoke
    PYTHONPATH=src python benchmarks/bench_load.py --scenario http --binary
    PYTHONPATH=src python benchmarks/bench_load.py --scenario cluster \\
        --hedge-ms 50 --rates 100 800 --requests 48 -o /tmp/cluster.json

Every point asserts its scenario's contract — bit-identity against the
serial single-image forward, documented receipts only, zero hung
requests — before it is recorded.  Exits non-zero if that fails, if a
curve gets fewer than two rate points, or (full ``obs`` runs only) if
the telemetry overhead exceeds its budget.
"""

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf import merge_records_into_file, run_point  # noqa: E402
from repro.perf.load import (INTERACTIVE_FRACTION,         # noqa: E402
                             OBS_OVERHEAD_BUDGET_PCT, SCENARIOS)
from repro.reram import DieCache                           # noqa: E402

#: per scenario: (smoke rates, full rates, smoke requests, full requests).
#: Every curve pairs a light-load point with a saturating one.  ``obs``
#: runs one saturating point on purpose: with every arrival effectively
#: immediate all batches fill, so armed and disabled runs do identical
#: work and the service-time comparison measures instrument cost, not
#: batch-mix jitter.  ``async`` requests are simultaneously open
#: connections.
PLANS = {
    "poisson": ((50.0, 200.0), (25.0, 50.0, 100.0, 200.0, 400.0), 24, 48),
    "multitenant": ((50.0, 400.0), (25.0, 100.0, 400.0, 1600.0), 16, 64),
    "http": ((50.0, 200.0), (25.0, 50.0, 100.0, 200.0, 400.0), 24, 48),
    "async": ((200.0, 400.0), (200.0, 400.0, 800.0), 128, 500),
    "chaos": ((50.0, 400.0), (25.0, 100.0, 400.0, 1600.0), 12, 48),
    "cluster": ((50.0, 400.0), (25.0, 100.0, 400.0, 1600.0), 12, 48),
    "obs": ((2000.0,), (2000.0,), 32, 96),
}

#: result fields echoed per point, when the record has them
SHOWN = ("throughput_rps", "rtt_p50_s", "rtt_p95_s", "latency_p50_s",
         "latency_p95_s", "requests_shed", "peak_connections",
         "faults_detected", "fault_recoveries", "router_failovers",
         "service_mean_on_s", "service_mean_off_s", "overhead_pct")


def format_point(record: dict) -> str:
    results = record["results"]
    fields = [f"{key}={results[key] * 1e3:.2f}ms" if key.endswith("_s")
              else f"{key}={results[key]:.4g}"
              for key in SHOWN if key in results]
    return (f"{record['name']:26s} offered "
            f"{results['offered_rate_rps']:6.0f} rps: {' '.join(fields)} "
            f"(w={record['meta']['workers']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True, choices=sorted(PLANS),
                        help="traffic shape and target (see above)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast mode: fewer rate points and requests; "
                             "the obs budget warns instead of failing")
    parser.add_argument("--rates", type=float, nargs="+", default=None,
                        help="offered arrival rates in requests/s")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per rate point (async: open "
                             "connections; obs: per repetition)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker-pool size (default: FORMS_WORKERS or "
                             "CPU count; cluster: 1 per replica)")
    parser.add_argument("--binary", action="store_true",
                        help="http/async: base64 .npy payloads instead of "
                             "JSON arrays")
    parser.add_argument("--interactive-fraction", type=float,
                        default=INTERACTIVE_FRACTION,
                        help="multitenant/chaos/cluster: share of traffic "
                             "in the interactive class")
    parser.add_argument("--hedge-ms", type=float, default=None,
                        help="cluster: hedged-request delay in ms "
                             "(default: off)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_engine.json",
                        help="BENCH json to merge records into (default: "
                             "BENCH_engine.json at the repo root)")
    args = parser.parse_args(argv)

    smoke_rates, full_rates, smoke_requests, full_requests = \
        PLANS[args.scenario]
    rates = args.rates if args.rates is not None else (
        smoke_rates if args.smoke else full_rates)
    requests = args.requests if args.requests is not None else (
        smoke_requests if args.smoke else full_requests)
    if len(rates) < 2 and args.scenario != "obs":
        print("ERROR: need at least two arrival-rate points for a curve",
              file=sys.stderr)
        return 1

    records = []
    die_cache = DieCache()   # shared: rate points rebuild identical engines
    for rate in rates:
        record = run_point(
            args.scenario, rate, requests, workers=args.workers,
            seed=args.seed, die_cache=die_cache, binary=args.binary,
            interactive_fraction=args.interactive_fraction,
            hedge_delay_s=(args.hedge_ms / 1e3
                           if args.hedge_ms is not None else None),
            reps=2 if args.smoke else 5)
        print(format_point(record))
        records.append(record)

    try:
        merge_records_into_file(args.output, records)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    print(f"[{len(records)} {SCENARIOS[args.scenario][0]} records merged "
          f"into {args.output}]")
    over_budget = [record["name"] for record in records
                   if not record["meta"].get("within_budget", True)]
    if over_budget:
        message = (f"overhead past the {OBS_OVERHEAD_BUDGET_PCT:.0f}% "
                   f"budget at: {', '.join(over_budget)}")
        if args.smoke:
            print(f"WARNING (smoke, not gating): {message}")
        else:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
