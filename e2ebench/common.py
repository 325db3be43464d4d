"""Shared pieces of the end-to-end benchmark: the model, the inputs, the
pinned runtime, the host calibration stamp and small statistics helpers.

Everything here is built from public ``repro`` APIs only, so the
benchmark keeps working when the ``repro.perf`` load generators are removed.
"""

from __future__ import annotations

import ctypes
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: where traced runs write their span dumps (inside the checkout)
OUT_DIR = os.path.join(ROOT, ".e2ebench_out")


def import_repro():
    """Put the checkout's ``src`` on the path and import the package.

    Raises ``ImportError`` when the checkout carries no program, which is
    how the benchmark fails (without a result) outside a full checkout.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401
    return repro


def clear_runtime_env() -> None:
    """Drop every ``FORMS_*`` override so only the pinned values apply
    (also in the server process, which inherits this environment)."""
    for key in [k for k in os.environ if k.startswith("FORMS_")]:
        del os.environ[key]


#: glibc ``mallopt`` parameters and the values its dynamic adjustment
#: converges to once a large block has been freed
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def pin_allocator() -> bool:
    """Fix glibc's malloc thresholds at their converged values.

    The IR-drop tier allocates large temporaries.  Left dynamic, the
    thresholds depend on which allocation a process happened to free
    first, and the same run takes ~3 s or ~6 s per tile depending on
    whether those temporaries page-fault on every call.  Returns whether
    the thresholds were set (False off glibc).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


#: the model's weights do not depend on --seed; the traffic does
MODEL_SEED = 0
FRAGMENT = 8
ACTIVATION_BITS = 12
IMAGE_SHAPE = (1, 16, 16)
#: the kernel chunk budget every engine is built with (the repo default)
KERNEL_MAX_ELEMENTS = 1 << 18
#: setups per run; ``setup_s`` is their median
SETUPS = 3


def pinned_runtime(workers: int, allocator: bool) -> Dict:
    return {"backend": "thread", "workers": workers,
            "fused_kernel_max_elements": KERNEL_MAX_ELEMENTS,
            "activation_bits": ACTIVATION_BITS,
            "fragment_size": FRAGMENT,
            "malloc_thresholds": ({"mmap": MMAP_THRESHOLD,
                                   "trim": TRIM_THRESHOLD}
                                  if allocator else None)}


def nproc() -> int:
    return os.cpu_count() or 1


def demo_model():
    """The FORMS-shaped demo CNN: pruned filters, polarized fragments.

    Random weights stand in for training; the structure is the post
    pipeline one (crossbar-aware filter pruning, then fragment
    polarization).  On an ideal device with the paper's ADC sizing its
    layers dispatch to the exact tier (layer 0) and the integer tier
    (layers 2 and 5).  Returns ``(float_model, config)``.
    """
    from repro.core import FORMSConfig, compute_signs, project_polarization
    from repro.nn import (Conv2d, Flatten, Linear, ReLU, Sequential,
                          compressible_layers, set_init_seed)
    set_init_seed(MODEL_SEED)
    convs = (Conv2d(1, 8, 3, padding=1), Conv2d(8, 8, 3, padding=1))
    model = Sequential(convs[0], ReLU(), convs[1], ReLU(),
                       Flatten(), Linear(8 * 16 * 16, 10))
    rng = np.random.default_rng(MODEL_SEED + 7)
    for layer in convs:
        dead = rng.permutation(layer.weight.data.shape[0])[5:]
        layer.weight.data[dead] = 0.0
        layer.bias.data[dead] = 0.0
    config = FORMSConfig(fragment_size=FRAGMENT,
                         fused_kernel_max_elements=KERNEL_MAX_ELEMENTS)
    for _, layer in compressible_layers(model):
        geometry = config.geometry_for(layer)
        weight = layer.weight.data.astype(np.float64)
        layer.weight.data[...] = project_polarization(
            weight, geometry, compute_signs(weight, geometry))
    return model, config


def make_images(seed: int, count: int) -> np.ndarray:
    """Sparse non-negative images (post-ReLU-like inputs) from ``seed``."""
    rng = np.random.default_rng([seed, 1])
    return np.maximum(0.0, rng.normal(size=(count,) + IMAGE_SHAPE) - 0.8)


def adc():
    from repro.reram import ADCSpec, paper_adc_bits
    return ADCSpec(bits=paper_adc_bits(FRAGMENT))


def float_argmax(model, images: np.ndarray) -> np.ndarray:
    from repro.nn import Tensor, no_grad
    with no_grad():
        return model(Tensor(images)).data.argmax(axis=1)


def reference_per_image(network, images: np.ndarray):
    """Serial single-image forward of every image, with its engine stats."""
    from repro.reram import StatsScope
    from repro.runtime import run_network_serial
    outputs, stats = [], []
    for image in images:
        with StatsScope() as scope:
            outputs.append(run_network_serial(network, image[None])[0])
        stats.append(scope.stats.as_dict())
    return np.stack(outputs), stats


# ---------------------------------------------------------------------------
# host calibration stamp
def calibration_ms(repeats: int = 15) -> float:
    """Median time of one fixed ideal ``matvec_int``: the 128x16 polarized
    layer with 128 positions and 16-bit activations of the engine suite's
    ``mvm_forms_16bit_128pos`` record."""
    from repro.core import (FragmentGeometry, QuantizationSpec,
                            compute_signs, project_polarization)
    from repro.reram import DeviceSpec, ReRAMDevice, build_engine
    rng = np.random.default_rng(0)
    shape = (16, 8, 4, 4)
    geometry = FragmentGeometry(shape, FRAGMENT)
    weights = rng.normal(size=shape)
    weights = project_polarization(weights, geometry,
                                   compute_signs(weights, geometry))
    levels = np.clip(np.rint(weights * 127 / np.abs(weights).max()),
                     -127, 127).astype(np.int64)
    engine = build_engine(geometry.matrix(levels), geometry,
                          QuantizationSpec(8, 2),
                          ReRAMDevice(DeviceSpec(), 0.0),
                          activation_bits=16,
                          kernel_max_elements=KERNEL_MAX_ELEMENTS)
    x = np.random.default_rng(1).integers(0, 1 << 16,
                                          size=(geometry.rows, 128))
    engine.matvec_int(x)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        engine.matvec_int(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


#: saturating-phase capacity is the median rate over this many equal slices
CAPACITY_SLICES = 5


def median_rate(times: Sequence[float], start: float, end: float,
                weights: Optional[Sequence[float]] = None) -> float:
    """Median completion rate over equal slices of ``[start, end]``: a
    stall on a shared host costs one slice, not the whole phase."""
    edges = np.linspace(start, end, CAPACITY_SLICES + 1)
    counts = np.histogram(times, bins=edges, weights=weights)[0]
    return median(counts / np.diff(edges))


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus the largest waited child)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def phase_counts(name: str, sent: int, succeeded: int, shed: int,
                 failed: int) -> Dict:
    return {"phase": name, "sent": sent, "succeeded": succeeded,
            "shed": shed, "failed": failed}


def sum_stats(dicts: List[Dict]) -> Dict:
    total: Dict[str, int] = {}
    for stats in dicts:
        for key, value in stats.items():
            total[key] = total.get(key, 0) + value
    return total


def engine_counters_per_image(per_image: List[Dict], images: int) -> Dict:
    """``eng.*`` per-image counters from exact per-image engine stats."""
    total = sum_stats(per_image)
    pairs = total.get("pairs_scheduled", 0) + total.get("pairs_skipped", 0)
    return {
        "eng.conversions_per_img": total.get("conversions", 0) / images,
        "eng.saturated_per_img": total.get("saturated", 0) / images,
        "eng.cycles_fed_per_img": total.get("cycles_fed", 0) / images,
        "eng.pair_skip_frac": (total.get("pairs_skipped", 0) / pairs
                               if pairs else 0.0),
    }


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration: float) -> np.ndarray:
    """Open-loop Poisson arrival times in ``[0, duration)``."""
    count = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    offsets = offsets[offsets < duration]
    return np.concatenate([[0.0], offsets])


def build_server(model, config, workers: int, policy=None):
    """Lower ``model`` onto an ideal device and serve it (fresh die cache)."""
    from repro.reram import DeviceSpec, DieCache, ReRAMDevice
    from repro.serving import InferenceServer
    return InferenceServer.from_model(
        model, config, ReRAMDevice(DeviceSpec(), 0.0), adc=adc(),
        activation_bits=ACTIVATION_BITS, die_cache=DieCache(),
        policy=policy, max_batch=8, max_wait_s=0.002, workers=workers,
        backend="thread")


def die_cache_hit_frac(cache) -> float:
    lookups = cache.hits + cache.misses
    return cache.hits / lookups if lookups else 0.0


#: latency charged to a shed, failed or wrong request (a miss)
MISS_MS = 1e6
