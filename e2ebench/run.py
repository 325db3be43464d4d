"""End-to-end benchmark of the FORMS serving stack and in-situ engine.

Run one workload from the root of a checkout::

    python3 e2ebench/run.py --workload serve_ideal --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` is a separate run that wraps the public entry point of each
layer in span recorders and reports the per-layer metrics.  Every metric
is printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
metrics ``BENCHMARK.json`` lists for the mode.  The line before it
records the pinned runtime, the host calibration stamp and the sent /
succeeded / shed / failed counts of every phase.  See ``README.md`` in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

import common

#: every metric the benchmark can print, with its unit
UNITS = {
    "setup_s": "s", "lat_p50_ms": "ms", "lat_p95_ms": "ms",
    "interactive_lat_p50_ms": "ms", "interactive_lat_p95_ms": "ms",
    "capacity_img_per_s": "img/s",
    "analog_argmax_agree": "fraction", "served_frac": "fraction",
    "peak_rss_mb": "MB", "fail_frac": "fraction",
    "variation_img_per_s": "img/s", "irdrop_img_per_s": "img/s",
    "client.late_p95_ms": "ms",
    "http.transport_ms_p50": "ms", "http.decode_ms_p50": "ms",
    "http.encode_ms_p50": "ms", "http.bytes_per_img": "B",
    "server.submit_ms_p50": "ms", "batch.service_ms_p50": "ms",
    "queue.wait_ms_p50": "ms", "queue.wait_ms_p95": "ms",
    "batch.size_mean": "count", "sched.shed_frac": "fraction",
    "runtime.infer_tiles_ms_p50": "ms", "runtime.overhead_frac": "fraction",
    "nn.im2col_ms_per_img": "ms", "nn.relu_ms_per_img": "ms",
    "layer.requant_ms_per_img": "ms", "mvm.ms_per_img": "ms",
    "mvm.exact_ms_per_img": "ms", "mvm.integer_ms_per_img": "ms",
    "mvm.analog_ms_per_img": "ms", "mvm.calls_per_img": "count",
    "irdrop.first_order_ms_per_img": "ms",
    "adc.digitize_ms_per_img": "ms",
    "eng.conversions_per_img": "count", "eng.saturated_per_img": "count",
    "eng.cycles_fed_per_img": "count", "eng.pair_skip_frac": "fraction",
    "diecache.hit_frac": "fraction",
    "trace.unattributed_frac": "fraction", "trace.overhead_frac": "fraction",
    "trace.largest_gap": "",
}


def _workloads():
    import batch
    import serve_ideal
    import wire_mixed
    return {
        "serve_ideal": serve_ideal.run,
        "wire_mixed": wire_mixed.run,
        "batch_variation": batch.run_variation,
        "batch_irdrop": batch.run_irdrop,
    }


def _declared(mode: str):
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["end_to_end" if mode == "e2e" else "per_layer"]
    for metric in declared:
        if UNITS.get(metric["name"]) != metric["unit"]:
            raise ValueError(f"unit of {metric['name']} disagrees with "
                             "BENCHMARK.json")
    return [metric["name"] for metric in declared]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    allocator = common.pin_allocator()
    common.import_repro()
    common.clear_runtime_env()
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads)}")
    trace = bool(args.trace)
    declared = _declared("layer" if trace else "e2e")

    calibration_start = common.calibration_ms()
    result = workloads[args.workload](args.seed, args.seconds, trace)
    calibration_end = common.calibration_ms()

    measured = dict(result["layer"], **(result["e2e"] if not trace else {}))
    values = {k: v for k, v in measured.items() if k in declared}
    extras = {k: v for k, v in measured.items() if k not in values}
    extras["fail_frac"] = result["failed"] / result["attempted"]
    missing = [name for name in declared if name not in values]
    if missing:
        raise KeyError(f"workload {args.workload} did not measure {missing}")
    if trace:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        path = os.path.join(common.OUT_DIR,
                            f"{args.workload}-seed{args.seed}.spans.json")
        with open(path, "w") as handle:
            json.dump(result["spans"], handle)
    for name in declared + sorted(extras):
        value = values.get(name, extras.get(name))
        shown = (f"{value:.6g}" if isinstance(value, (int, float))
                 else str(value))
        print(f"{name:32s} {shown:>14s} {UNITS[name]}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "pinned": common.pinned_runtime(result["workers"], allocator),
        "calibration": {"mvm_forms_16bit_128pos_ms_start": calibration_start,
                        "mvm_forms_16bit_128pos_ms_end": calibration_end,
                        "nproc": common.nproc(),
                        "numpy": np.__version__},
        "phases": result["phases"],
        "samples": result["samples"],
        "extras": extras,
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]),
                           "unit": UNITS[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
