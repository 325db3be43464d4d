"""``wire_mixed``: two SLA classes over HTTP to a server process.

The interactive class sends single ``POST /v1/infer`` requests and the
bulk class 8-image ``POST /v1/infer_batch`` requests, one client thread
per class with at most one request in flight, each on its own open-loop
Poisson schedule.  Transport encode/decode and class arbitration do most
of the extra work over ``serve_ideal``, on the same engine tiers.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

import common
import tracer as tr

#: steady offered load, ~36 img/s: about a quarter of the wire capacity
#: measured on a 2-core host (~150-170 img/s).  With one request in
#: flight per class, a higher load turns every stall into a cascade of
#: late sends.  Bulk is 1 request in 11, so the all-request median sits
#: inside the interactive mode of the latency distribution
INTERACTIVE_RPS = 20.0
BULK_RPS = 2.0          # 8 images per request
BULK_IMAGES = 8
STEADY_SHARE = 0.6      # of --seconds
SATURATE_SHARE = 0.35   # of --seconds; both clients send back to back
POOL = 64
SERVER = os.path.join(common.BENCH_DIR, "server_proc.py")


class ServerProcess:
    """The benchmark-started server process and its command channel."""

    def __init__(self, workers: int):
        self.proc = subprocess.Popen(
            [sys.executable, SERVER, "--workers", str(workers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=common.ROOT)
        try:
            self.port = self._read(60.0)["port"]
        except BaseException:
            self.kill()
            raise

    def _read(self, timeout: float) -> Dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server process sent no reply "
                               f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def command(self, text: str) -> Dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read(60.0)

    def stop(self) -> Dict:
        try:
            report = self.command("stop")
            self.proc.wait(timeout=60.0)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _client_loop(send, due: Optional[np.ndarray], deadline: float,
                 records: List[Dict], draw) -> None:
    """Send on schedule ``due`` (or back to back until ``deadline``),
    never more than one request in flight."""
    i = 0
    while True:
        if due is not None:
            if i >= len(due):
                return
            delay = due[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            scheduled = due[i]
        else:
            scheduled = time.monotonic()
            if scheduled >= deadline:
                return
        idx = draw(i)
        sent = time.monotonic()
        try:
            outcome = send(idx)
        except Exception as exc:   # noqa: BLE001 — counted, never dropped
            outcome = exc
        records.append({"due": scheduled, "sent": sent,
                        "done": time.monotonic(), "idx": idx,
                        "outcome": outcome})
        i += 1


def drive(client, images: np.ndarray, rng: np.random.Generator,
          duration: float, saturate: bool) -> Dict:
    interactive_idx = rng.integers(0, POOL, size=20000)
    bulk_idx = rng.integers(0, POOL, size=(20000, BULK_IMAGES))
    start = time.monotonic() + 0.005
    if saturate:
        schedules = (None, None)
    else:
        schedules = (start + common.poisson_offsets(rng, INTERACTIVE_RPS,
                                                    duration),
                     start + common.poisson_offsets(rng, BULK_RPS, duration))
    records = {"interactive": [], "bulk": []}
    senders = {
        "interactive": lambda idx: client.infer(images[idx],
                                                priority="interactive"),
        "bulk": lambda idx: client.infer_batch(list(images[idx]),
                                               priority="bulk"),
    }
    draws = {"interactive": lambda i: int(interactive_idx[i]),
             "bulk": lambda i: bulk_idx[i]}
    threads = [threading.Thread(
        target=_client_loop,
        args=(senders[name], schedule, start + duration, records[name],
              draws[name]), name=f"e2ebench-{name}")
        for name, schedule in zip(("interactive", "bulk"), schedules)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + 120.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} client hung")
    return {"start": start, "end": start + duration, "records": records}


def check(run: Dict, ref_out: np.ndarray, ref_stats: List[Dict],
          name: str) -> Dict:
    """Decoded outputs and receipt counters against the serial
    single-image forward; marks each record ok and counts the phase."""
    from repro.serving import HttpError
    sent = succeeded = shed = failed = 0
    for records in run["records"].values():
        for record in records:
            outcome = record["outcome"]
            idx = np.atleast_1d(record["idx"])
            sent += len(idx)
            good = 0
            if isinstance(outcome, HttpError) and outcome.code == "shed":
                shed += len(idx)
            elif isinstance(outcome, Exception):
                failed += len(idx)
            else:
                items = outcome if isinstance(outcome, list) else [outcome]
                for item, j in zip(items, idx):
                    if isinstance(item, HttpError):
                        if item.code == "shed":
                            shed += 1
                        else:
                            failed += 1
                    elif (np.array_equal(item.output, ref_out[j])
                          and item.stats["engine_stats"] == ref_stats[j]):
                        good += 1
                    else:
                        failed += 1
            succeeded += good
            record["ok"] = good == len(idx)
    return common.phase_counts(name, sent, succeeded, shed, failed)


def _latency_ms(records: List[Dict]) -> np.ndarray:
    return np.array([(r["done"] - r["due"]) * 1e3 if r["ok"]
                     else common.MISS_MS for r in records])


def _receipts(record: Dict) -> List[Dict]:
    items = record["outcome"]
    return [item.stats for item in (items if isinstance(items, list)
                                    else [items])]


def capacity(run: Dict) -> float:
    """Image completion rate over the phase (median of its slices)."""
    done, images = [], []
    for records in run["records"].values():
        for record in records:
            if record["ok"]:
                done.append(record["done"])
                images.append(len(np.atleast_1d(record["idx"])))
    return common.median_rate(done, run["start"], run["end"], images)


def run(seed: int, seconds: float, trace: bool) -> Dict:
    from repro.reram import DeviceSpec, ReRAMDevice, build_insitu_network
    from repro.serving import HttpClient
    model, config = common.demo_model()
    images = common.make_images(seed, POOL)
    workers = common.nproc()
    rng = np.random.default_rng([seed, 3])

    setups = []
    server = client = None
    try:
        for attempt in range(common.SETUPS):
            start = time.perf_counter()
            server = ServerProcess(workers)
            client = HttpClient("127.0.0.1", server.port, timeout=60.0)
            client.infer(images[0], priority="interactive")
            setups.append(time.perf_counter() - start)
            if attempt < common.SETUPS - 1:
                server.stop()
        base = None
        if trace:
            base = drive(client, images, rng, SATURATE_SHARE * seconds, True)
            server.command("trace on")
        steady = drive(client, images, rng, STEADY_SHARE * seconds, False)
        saturate = drive(client, images, rng, SATURATE_SHARE * seconds, True)
        if trace:
            server.command("trace off")
        wire_bytes = _bytes_per_image(client, images)
    finally:
        report = server.stop() if server is not None else {}

    # the same lowering as the server's, for the reference forward
    network, _ = build_insitu_network(
        model, config, ReRAMDevice(DeviceSpec(), 0.0), adc=common.adc(),
        activation_bits=common.ACTIVATION_BITS)
    ref_out, ref_stats = common.reference_per_image(network, images)
    phases = [check(steady, ref_out, ref_stats, "steady"),
              check(saturate, ref_out, ref_stats, "saturate")]
    if base is not None:
        phases.insert(0, check(base, ref_out, ref_stats, "saturate_untraced"))
    attempted = sum(p["sent"] for p in phases)
    bad = sum(p["shed"] + p["failed"] for p in phases)
    interactive = _latency_ms(steady["records"]["interactive"])
    both = np.concatenate([interactive,
                           _latency_ms(steady["records"]["bulk"])])
    agree = float((ref_out.argmax(axis=1)
                   == common.float_argmax(model, images)).mean())
    e2e = {
        "setup_s": common.median(setups),
        "lat_p50_ms": common.pct(both, 50),
        "lat_p95_ms": common.pct(both, 95),
        "interactive_lat_p50_ms": common.pct(interactive, 50),
        "interactive_lat_p95_ms": common.pct(interactive, 95),
        "capacity_img_per_s": capacity(saturate),
        "analog_argmax_agree": agree,
        "served_frac": 1.0 - bad / attempted,
        "peak_rss_mb": common.peak_rss_mb(include_children=True),
    }
    hits, misses = report["die_cache_hits"], report["die_cache_misses"]
    layer = common.engine_counters_per_image(ref_stats, POOL)
    layer["diecache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    result = {"e2e": e2e, "phases": phases, "attempted": attempted,
              "failed": bad, "workers": workers,
              "samples": {"steady_requests": len(both),
                          "steady_interactive": len(interactive)}}
    if trace:
        buffers = report["spans"]
        layer.update(tr.engine_layer_metrics(buffers))
        layer.update(_wire_layer_metrics(steady, saturate, buffers,
                                         report["mean_batch_size"],
                                         sum(p["shed"] for p in phases)
                                         / attempted))
        layer["http.bytes_per_img"] = wire_bytes
        layer["trace.overhead_frac"] = (capacity(base)
                                        / e2e["capacity_img_per_s"] - 1.0)
        result["spans"] = {"server": buffers}
    result["layer"] = layer
    return result


def _bytes_per_image(client, images: np.ndarray) -> float:
    """JSON body bytes (request + response) per image, averaged over one
    interactive and one bulk request at the steady mix; headers excluded."""
    single = {"input": images[0].tolist(), "priority": "interactive"}
    bulk = {"inputs": [image.tolist() for image in images[:BULK_IMAGES]],
            "priority": "bulk"}
    sizes = []
    for path, body in (("/v1/infer", single), ("/v1/infer_batch", bulk)):
        _, reply = client.request("POST", path, body)
        sizes.append(len(json.dumps(body)) + len(json.dumps(reply)))
    images_per_s = INTERACTIVE_RPS + BULK_RPS * BULK_IMAGES
    return (INTERACTIVE_RPS * sizes[0] + BULK_RPS * sizes[1]) / images_per_s


def _window(buffers, name: str, lo: float, hi: float) -> List:
    return [span for span in tr.top_level(buffers, name)
            if lo <= span[tr.START] < hi]


def _wire_layer_metrics(steady: Dict, saturate: Dict, buffers,
                        mean_batch: float, shed_frac: float) -> Dict:
    records = [r for rs in steady["records"].values() for r in rs if r["ok"]]
    lo = steady["start"]
    hi = max(r["done"] for r in records)
    late = np.array([r["sent"] - r["due"] for r in records])
    e2e = np.array([r["done"] - r["due"] for r in records])
    server_lat = np.array([max(s["latency_s"] for s in _receipts(r))
                           for r in records])
    transport = np.array([r["done"] - r["sent"] for r in records]) - server_lat
    receipts = [s for r in records for s in _receipts(r)]
    services = {s["batch_id"]: s["service_s"] for run in (steady, saturate)
                for rs in run["records"].values() for r in rs if r["ok"]
                for s in _receipts(r)}
    decode = _window(buffers, "http.decode", lo, hi)
    encode = _window(buffers, "http.encode", lo, hi)
    submit = _window(buffers, "server.submit", lo, hi)
    handle = _window(buffers, "http.handle", lo, hi)
    named_inside = sum(tr.durations(decode + encode + submit)) + server_lat.sum()
    outside = e2e.sum() - late.sum() - sum(tr.durations(handle))
    inside = sum(tr.durations(handle)) - named_inside
    gaps = {"client encode/decode + connect + socket (outside the handler)":
            outside,
            "HTTP parse + body read + JSON + reply write (inside the handler)":
            inside}
    waits = [s["queue_wait_s"] * 1e3 for s in receipts]
    return {
        "client.late_p95_ms": common.pct(late * 1e3, 95),
        "http.transport_ms_p50": common.pct(transport * 1e3, 50),
        "http.decode_ms_p50": common.median(tr.durations(decode)) * 1e3,
        "http.encode_ms_p50": common.median(tr.durations(encode)) * 1e3,
        "server.submit_ms_p50": common.median(tr.durations(submit)) * 1e3,
        "batch.service_ms_p50": common.median(list(services.values())) * 1e3,
        "queue.wait_ms_p50": common.pct(waits, 50),
        "queue.wait_ms_p95": common.pct(waits, 95),
        "batch.size_mean": mean_batch,
        "sched.shed_frac": shed_frac,
        "trace.unattributed_frac": 1.0 - (late.sum() + named_inside)
                                   / e2e.sum(),
        "trace.largest_gap": max(gaps, key=gaps.get),
    }
