"""``serve_ideal``: open-loop single-image traffic into an in-process server.

The ideal-device demo network is cheap to run, so the queue, the batcher,
runtime dispatch and lowering carry a large share of each request's time
while the analog tiers and the transport do no work.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

import common
import tracer as tr

#: steady offered rate: about half of the in-process capacity measured on
#: a 2-core host (~165-200 img/s)
STEADY_RPS = 90.0
#: saturating offered rate, well above capacity; the generator holds a
#: request back while SATURATE_WINDOW are outstanding, so the backlog (and
#: with it the queue's own cost) stays bounded whatever the capacity
SATURATE_RPS = 600.0
SATURATE_WINDOW = 32
STEADY_SHARE = 0.5     # of --seconds
SATURATE_SHARE = 0.5   # of --seconds
POOL = 64              # distinct images per seed


def drive(server, images: np.ndarray, pool_idx: np.ndarray,
          offsets: np.ndarray, window: Optional[int] = None) -> Dict:
    """Submit ``images[pool_idx[i]]`` at ``offsets[i]`` regardless of
    completions (but never more than ``window`` outstanding, if given);
    time each request from when it was due."""
    n = len(offsets)
    sent = np.empty(n)
    returned = np.empty(n)
    done = np.full(n, np.nan)
    slots = threading.Semaphore(window if window is not None else n)
    completed = threading.Condition()
    finished_count = [0]

    def finished(index):
        def mark(_future):
            done[index] = time.monotonic()
            slots.release()
            with completed:
                finished_count[0] += 1
                completed.notify_all()
        return mark

    futures = []
    start = time.monotonic() + 0.005
    due = start + offsets
    for i in range(n):
        delay = due[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        slots.acquire()
        if window is not None and time.monotonic() >= start + offsets[-1]:
            slots.release()
            break
        sent[i] = time.monotonic()
        future = server.submit_async(images[pool_idx[i]])
        returned[i] = time.monotonic()
        future.add_done_callback(finished(i))
        futures.append(future)
    # callbacks run after a future's waiters wake, so wait for the callbacks
    with completed:
        completed.wait_for(lambda: finished_count[0] == len(futures),
                           timeout=120.0)
    outcomes = []
    for future in futures:
        try:
            outcomes.append(future.result(timeout=0))
        except Exception as exc:   # noqa: BLE001 — counted, never dropped
            outcomes.append(exc)
    n = len(futures)
    return {"due": due[:n], "sent": sent[:n], "returned": returned[:n],
            "done": done[:n], "outcomes": outcomes, "pool_idx": pool_idx[:n],
            "end": start + offsets[-1]}


def check(run: Dict, ref_out: np.ndarray, ref_stats: List[Dict],
          name: str) -> Dict:
    """Bit-identity of every served output and receipt counters against
    the serial single-image forward; returns per-phase counts and the
    per-request ``ok`` mask."""
    from repro.serving import RequestShed
    ok = np.zeros(len(run["outcomes"]), dtype=bool)
    shed = failed = 0
    for i, outcome in enumerate(run["outcomes"]):
        j = run["pool_idx"][i]
        if isinstance(outcome, RequestShed):
            shed += 1
        elif isinstance(outcome, Exception):
            failed += 1
        elif (np.array_equal(outcome.output, ref_out[j])
              and outcome.stats.engine_stats == ref_stats[j]):
            ok[i] = True
        else:
            failed += 1
    run["ok"] = ok
    return common.phase_counts(name, len(ok), int(ok.sum()), shed, failed)


def latencies_ms(run: Dict) -> np.ndarray:
    lat = (run["done"] - run["due"]) * 1e3
    return np.where(run["ok"], lat, common.MISS_MS)


def capacity(run: Dict) -> float:
    """Completion rate over the sending window (median of its slices)."""
    return common.median_rate(run["done"][run["ok"]], run["sent"][0],
                              run["end"])


def run(seed: int, seconds: float, trace: bool) -> Dict:
    model, config = common.demo_model()
    images = common.make_images(seed, POOL)
    workers = common.nproc()
    rng = np.random.default_rng([seed, 2])

    setups = []
    server = None
    for attempt in range(common.SETUPS):
        start = time.perf_counter()
        server = common.build_server(model, config, workers)
        server.submit(images[0], timeout=60.0)
        setups.append(time.perf_counter() - start)
        if attempt < common.SETUPS - 1:
            server.shutdown()
    hit_frac = common.die_cache_hit_frac(server.die_cache)

    def plan(rate, duration):
        offsets = common.poisson_offsets(rng, rate, duration)
        return offsets, rng.integers(0, POOL, size=len(offsets))

    steady_plan = plan(STEADY_RPS, STEADY_SHARE * seconds)
    saturate_plan = plan(SATURATE_RPS, SATURATE_SHARE * seconds)
    tracer = None
    with server:
        if trace:
            # the overhead base: the saturating phase once without spans
            base = drive(server, images, saturate_plan[1], saturate_plan[0],
                         SATURATE_WINDOW)
            tracer = tr.Tracer()
            tracer.install_engine()
            tracer.install_server()
        try:
            steady = drive(server, images, steady_plan[1], steady_plan[0])
            saturate = drive(server, images, saturate_plan[1],
                             saturate_plan[0], SATURATE_WINDOW)
        finally:
            if tracer is not None:
                tracer.uninstall()
        network = server.model
        mean_batch = server.server_stats()["mean_batch_size"]

    # checks run after the timed phases, outside setup
    ref_out, ref_stats = common.reference_per_image(network, images)
    phases = [check(steady, ref_out, ref_stats, "steady"),
              check(saturate, ref_out, ref_stats, "saturate")]
    if trace:
        phases.insert(0, check(base, ref_out, ref_stats, "saturate_untraced"))
    agree = float((ref_out.argmax(axis=1)
                   == common.float_argmax(model, images)).mean())
    attempted = sum(p["sent"] for p in phases)
    bad = sum(p["shed"] + p["failed"] for p in phases)
    lat = latencies_ms(steady)
    e2e = {
        "setup_s": common.median(setups),
        "lat_p50_ms": common.pct(lat, 50),
        "lat_p95_ms": common.pct(lat, 95),
        # every request here is a single image: the interactive shape
        "interactive_lat_p50_ms": common.pct(lat, 50),
        "interactive_lat_p95_ms": common.pct(lat, 95),
        "capacity_img_per_s": capacity(saturate),
        "analog_argmax_agree": agree,
        "served_frac": 1.0 - bad / attempted,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    result = {"e2e": e2e, "phases": phases, "attempted": attempted,
              "failed": bad, "workers": workers,
              "samples": {"steady_requests": len(lat)}}
    layer = common.engine_counters_per_image(ref_stats, POOL)
    layer["diecache.hit_frac"] = hit_frac
    if trace:
        buffers = tracer.buffers()
        layer.update(tr.engine_layer_metrics(buffers))
        shed = sum(p["shed"] for p in phases)
        layer.update(serving_layer_metrics(steady, saturate, buffers,
                                           mean_batch, shed / attempted))
        layer["trace.overhead_frac"] = (capacity(base)
                                        / e2e["capacity_img_per_s"] - 1.0)
        result["spans"] = {"client": tr.dump(buffers)}
    result["layer"] = layer
    return result


def serving_layer_metrics(steady: Dict, saturate: Dict, buffers,
                          mean_batch: float, shed_frac: float) -> Dict:
    """Queue, scheduler, server and client metrics of the traced phases,
    and the share of request time no named layer covers."""
    receipts = [o.stats for run in (steady, saturate)
                for o, ok in zip(run["outcomes"], run["ok"]) if ok]
    services = {r.batch_id: r.service_s for r in receipts}
    waits = [o.stats.queue_wait_s * 1e3
             for o, ok in zip(steady["outcomes"], steady["ok"]) if ok]
    ok = steady["ok"]
    e2e = (steady["done"] - steady["due"])[ok]
    late = (steady["sent"] - steady["due"])[ok]
    submit = (steady["returned"] - steady["sent"])[ok]
    latency = np.array([o.stats.latency_s for o, good
                        in zip(steady["outcomes"], ok) if good])
    gap = e2e.sum() - late.sum() - submit.sum() - latency.sum()
    return {
        "client.late_p95_ms": common.pct(late * 1e3, 95),
        "server.submit_ms_p50": common.median(tr.durations(
            tr.top_level(buffers, "server.submit"))) * 1e3,
        "batch.service_ms_p50": common.median(list(services.values())) * 1e3,
        "queue.wait_ms_p50": common.pct(waits, 50),
        "queue.wait_ms_p95": common.pct(waits, 95),
        "batch.size_mean": mean_batch,
        "sched.shed_frac": shed_frac,
        "trace.unattributed_frac": gap / e2e.sum(),
        "trace.largest_gap": "completion hand-off (receipt build + "
                             "future wake-up after the batch)",
    }
