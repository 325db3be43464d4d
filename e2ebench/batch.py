"""``batch_variation`` / ``batch_irdrop``: offline tiled inference on the
non-ideal lowerings of the demo network.

There is no queue and no transport: ``infer_tiled(..., tile_size=8,
workers=1)`` drives the analog engine tier, so the non-ideal physics does
nearly all the work.  Tile 8 is the ``evaluate_tiled`` shape; a share of
the run also serves single images, the batch-1 latency the tile-8 cost is
compared against.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

import common
import tracer as tr

TILE = 8
#: the programmed die does not depend on --seed; the images do
DEVICE_SEED = 11
TILE_SHARE = 0.7    # of --seconds on tile-8 calls; the rest on single images


def _variation_lowering():
    from repro.reram import DeviceSpec, ReRAMDevice
    return ReRAMDevice(DeviceSpec(), 0.1, seed=DEVICE_SEED), {}


def _irdrop_lowering():
    from repro.reram import (CellIV, DeviceSpec, NonidealEngine, ReRAMDevice,
                             WireModel)
    return (ReRAMDevice(DeviceSpec(), 0.0, seed=DEVICE_SEED),
            {"engine_cls": NonidealEngine, "wire": WireModel(r_wire_ohm=5.0),
             "cell_iv": CellIV(nonlinearity=2.0)})


def _lower(model, config, lowering: Callable, die_cache):
    from repro.reram import build_insitu_network
    device, kwargs = lowering()
    return build_insitu_network(model, config, device, adc=common.adc(),
                                activation_bits=common.ACTIVATION_BITS,
                                die_cache=die_cache, **kwargs)


def _engine_totals(engines) -> Dict:
    return common.sum_stats([e.stats.as_dict() for e in engines.values()])


def _timed_calls(network, engines, batches: List[np.ndarray], budget: float,
                 tile_size: int, min_calls: int,
                 tracer: Optional[tr.Tracer] = None) -> Dict:
    """Call ``infer_tiled`` on ``batches`` round-robin for ``budget``
    seconds: at least ``min_calls``, then no call the last one's duration
    says would end past the budget.  With ``tracer``, every other call
    runs with its span wrappers installed (``traced`` marks which);
    engine counters and wrappers change outside each timed bracket."""
    from repro.runtime import infer_tiled
    times, outputs, stats, which, traced = [], [], [], [], []
    phase_start = time.perf_counter()
    call = 0
    while (call < min_calls or time.perf_counter() - phase_start
           + times[-1] <= budget):
        on = tracer is not None and call % 2 == 1
        # paired calls (untraced, traced) share one batch
        index = (call // 2 if tracer is not None else call) % len(batches)
        if on:
            tracer.install_engine()
        before = _engine_totals(engines)
        start = time.perf_counter()
        try:
            out = infer_tiled(network, batches[index], tile_size=tile_size,
                              workers=1, backend="thread")
            times.append(time.perf_counter() - start)
        finally:
            if on:
                tracer.uninstall()
        after = _engine_totals(engines)
        outputs.append(out)
        stats.append({k: after[k] - before[k] for k in after})
        which.append(index)
        traced.append(on)
        call += 1
    return {"times": np.array(times), "outputs": outputs, "stats": stats,
            "which": which, "traced": np.array(traced),
            "images": sum(len(batches[i]) for i in which)}


def _check(calls: Dict, refs: List[np.ndarray], name: str,
           first: Dict[int, Dict]) -> Dict:
    """Every output bit-identical to the dense serial run of the same
    batch; every call's counters equal to those of the first call on that
    batch (``first``, shared across the phases over one batch list)."""
    good = failed = 0
    for out, stats, index in zip(calls["outputs"], calls["stats"],
                                 calls["which"]):
        first.setdefault(index, stats)
        if np.array_equal(out, refs[index]) and stats == first[index]:
            good += 1
        else:
            failed += 1
    return common.phase_counts(name, good + failed, good, 0, failed)


def _run(lowering: Callable, name: str, pool_tiles: int, single_images: int,
         seed: int, seconds: float, trace: bool) -> Dict:
    from repro.reram import DieCache
    from repro.runtime import infer_tiled, run_network_serial
    model, config = common.demo_model()
    images = common.make_images(seed, pool_tiles * TILE)
    tiles = [images[i:i + TILE] for i in range(0, len(images), TILE)]
    singles = [images[i:i + 1] for i in range(single_images)]

    setups = []
    for _ in range(common.SETUPS):
        start = time.perf_counter()
        cache = DieCache()
        network, engines = _lower(model, config, lowering, cache)
        infer_tiled(network, singles[0], tile_size=1, workers=1,
                    backend="thread")
        setups.append(time.perf_counter() - start)
    hit_frac = common.die_cache_hit_frac(cache)

    # the first tile-8 call pays one-off allocation costs a long-running
    # process pays once; it runs (and is checked) before the timed phases
    warmup = _timed_calls(network, engines, tiles[:1], 0.0, TILE, 1)
    tile_budget = TILE_SHARE * seconds
    tracer = None
    if trace:
        # the per-layer figures come from the traced tile-8 phase
        tracer = tr.Tracer()
        tracer.install_engine()
    try:
        tiled = _timed_calls(network, engines, tiles, tile_budget, TILE,
                             len(tiles))
    finally:
        if tracer is not None:
            tracer.uninstall()
    # a traced run alternates untraced and traced single-image calls: the
    # pairs give the tracing overhead
    single = _timed_calls(network, engines, singles, seconds - tile_budget,
                          1, 2 * single_images,
                          tr.Tracer() if trace else None)

    # the reference: a serial run of the same lowering on dense-kernel
    # engines (same dies through the shared cache), outside every timing
    dense, dense_engines = _lower(model, config, lowering, cache)
    for engine in dense_engines.values():
        engine.sparse_enabled = False
    tile_refs = [run_network_serial(dense, tile, tile_size=TILE)
                 for tile in tiles]
    single_refs = [run_network_serial(dense, image, tile_size=1)
                   for image in singles]
    tile_stats: Dict[int, Dict] = {}
    phases = [_check(warmup, tile_refs, "warmup", tile_stats),
              _check(tiled, tile_refs, "tile8", tile_stats),
              _check(single, single_refs, "single", {})]
    attempted = sum(p["sent"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    agree = float((np.concatenate(tile_refs).argmax(axis=1)
                   == common.float_argmax(model, images)).mean())
    tile_ms = tiled["times"] * 1e3
    e2e = {
        "setup_s": common.median(setups),
        "lat_p50_ms": common.pct(tile_ms, 50),
        "lat_p95_ms": common.pct(tile_ms, 95),
        # batch-1 latency: the single-image request against this lowering
        "interactive_lat_p50_ms": common.pct(single["times"] * 1e3, 50),
        "interactive_lat_p95_ms": common.pct(single["times"] * 1e3, 95),
        # the median call's rate: robust to a stalled call on a shared host
        "capacity_img_per_s": TILE / common.median(tiled["times"]),
        "analog_argmax_agree": agree,
        "served_frac": 1.0 - failed / attempted,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    layer = common.engine_counters_per_image(list(tile_stats.values()),
                                             len(tile_stats) * TILE)
    layer["diecache.hit_frac"] = hit_frac
    if not trace:
        # this lowering's offline throughput under its own name
        layer[f"{name}_img_per_s"] = e2e["capacity_img_per_s"]
    result = {"e2e": e2e, "phases": phases, "attempted": attempted,
              "failed": failed, "workers": 1,
              "samples": {"tile8_calls": len(tile_ms),
                          "single_calls": len(single["times"])}}
    if trace:
        buffers = tracer.buffers()
        layer.update(tr.engine_layer_metrics(buffers))
        covered = sum(tr.durations([s for s in tr.iter_spans(buffers)
                                    if s[tr.NAME] == "runtime.infer_tiles"]))
        layer["trace.unattributed_frac"] = 1.0 - covered / tiled["times"].sum()
        layer["trace.largest_gap"] = ("infer_tiled tiling + output "
                                      "concatenation")
        pairs = len(single["times"]) // 2 * 2
        on = single["traced"][:pairs]
        layer["trace.overhead_frac"] = (single["times"][:pairs][on].sum()
                                        / single["times"][:pairs][~on].sum()
                                        - 1.0)
        result["spans"] = {"client": tr.dump(buffers)}
    result["layer"] = layer
    return result


def run_variation(seed: int, seconds: float, trace: bool) -> Dict:
    return _run(_variation_lowering, "variation", pool_tiles=6,
                single_images=16, seed=seed, seconds=seconds, trace=trace)


def run_irdrop(seed: int, seconds: float, trace: bool) -> Dict:
    return _run(_irdrop_lowering, "irdrop", pool_tiles=2, single_images=4,
                seed=seed, seconds=seconds, trace=trace)
