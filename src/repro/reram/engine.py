"""Bit-serial in-situ computation engine (paper Figs. 5, 11, 12).

:class:`InSituLayerEngine` executes one layer's matrix-vector products the way
the hardware does:

1. activations arrive as unsigned integers; each cycle the DACs drive one bit
   of every input onto the word lines (LSB first);
2. each fragment's column current is sampled, pedestal-corrected and
   digitized by the fragment's ADC;
3. shift-and-add recombines cell slices (x4 for 8-bit weights on 2-bit cells)
   and input bits (x2 per cycle);
4. the accumulation block adds or subtracts the fragment result according to
   the sign-indicator bit (FORMS), applies the offset correction (ISAAC), or
   subtracts the negative-plane result (PRIME dual);
5. fragment results accumulate into the layer output.

With ideal devices and sufficiently wide ADCs the engine reproduces the
integer matmul **exactly** — the anchor correctness property of the simulator
(see ``tests/reram/test_engine.py``).  With device variation or undersized
ADCs, the deviation is the physically meaningful error the paper's Table VI
and our ADC ablation measure.

Simulation strategy
-------------------
The hardware is bit-serial, but the simulator is not.  :meth:`matvec_int`
schedules the activation block's *nonzero structure* instead of its dense
shape: a CSR-style job list is built directly from the per-fragment OR of
the activation bits, so all-zero bit-planes, silent fragments **and** silent
positions never materialize — the simulator-side image of the zero-skip
shift registers, now at (bit-plane, fragment, position) granularity.  Each
fragment's surviving ``live bits x live positions`` grid is evaluated in one
fused contraction (a single GEMM on the integer tiers), chunked to the
kernel cache budget; independent chunks can fan out across a
:class:`repro.runtime.WorkerPool`.

The previous dense decomposition — the whole block expanded into a
``(bits, n_frag, m, positions)`` bit-plane tensor with (bit-plane, fragment)
masking only — survives as :meth:`matvec_int_dense` (the scheduling
baseline, and the path taken when read noise forces the full conversion
grid), and the original cycle-by-cycle loop survives as
:meth:`matvec_int_reference`, the forever-testable bit-exactness oracle.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fragments import FragmentGeometry
from ..core.quantization import QuantizationSpec
from .bitslice import slice_weights
from .converters import ADCSpec, DACSpec, SampleHold, required_adc_bits
from .device import ReRAMDevice
from .mapping import MappedLayer, map_layer

#: default per-kernel-call element budget of the fused bit-plane contraction
#: (elements of the ``(jobs, positions, cols, slices)`` current tensor).
#: Chunking along the jobs/positions axes bounds peak memory *and* keeps each
#: einsum -> pedestal -> ADC -> recombine pipeline stage cache-resident;
#: 2**18 elements (2 MiB of float64) measures fastest on the elementwise-
#: bound analog path.  Changing it never changes any result.  Resolution
#: order at kernel time: per-engine ``kernel_max_elements`` >
#: :func:`set_fused_kernel_max_elements` override > the
#: ``FORMS_FUSED_KERNEL_MAX_ELEMENTS`` environment variable > a cached
#: per-machine autotune (when ``FORMS_FUSED_KERNEL_AUTOTUNE`` is truthy) >
#: this module default.
FUSED_KERNEL_MAX_ELEMENTS = 1 << 18

#: environment knobs of the kernel chunk budget
FUSED_KERNEL_ENV = "FORMS_FUSED_KERNEL_MAX_ELEMENTS"
FUSED_KERNEL_AUTOTUNE_ENV = "FORMS_FUSED_KERNEL_AUTOTUNE"

_kernel_override: Optional[int] = None
_kernel_autotuned: Optional[int] = None

#: contraction order of the dense kernel's digital recombination
#: (``jpcs,js,jc->pc``: slices first, then fragment signs), fixed so
#: ``np.einsum`` does not re-plan it on every chunk.  The operands are
#: int64, so every order is exact.
_RECOMBINE_PATH = ["einsum_path", (0, 1), (0, 1)]

#: minimum average per-fragment grid size (elements of the conversion
#: tensor) for the CSR scheduler to win over the dense masked kernel: below
#: this, per-task Python overhead outweighs the skipped conversions (a
#: many-fragment, few-position layer — e.g. a classifier head on a small
#: batch — is the canonical case) and ``matvec_int`` falls back to the
#: dense path.  Pure dispatch heuristic: results are bit-identical either
#: way.  Per-engine override: ``sparse_min_task_elements``.
SPARSE_MIN_TASK_ELEMENTS = 1 << 12


def set_fused_kernel_max_elements(value: Optional[int]) -> None:
    """Process-wide override of the kernel chunk budget (``None`` resets).

    Takes precedence over the environment variable and the autotuner but
    not over a per-engine ``kernel_max_elements``.
    """
    global _kernel_override
    if value is not None and value < 1:
        raise ValueError("kernel budget must be >= 1 element")
    _kernel_override = value


def autotune_fused_kernel_max_elements(
        candidates: Sequence[int] = (1 << 15, 1 << 16, 1 << 17, 1 << 18,
                                     1 << 19, 1 << 20),
        repeats: int = 3) -> int:
    """Measure the fastest chunk budget for this machine and return it.

    Runs a representative fused-kernel pipeline (bit-plane contraction,
    pedestal correction, ADC rounding) over one fixed workload, *chunked
    along the jobs axis exactly as the engine chunks it* at each candidate
    budget — the budget only moves work between chunks, so the minimum
    wall clock identifies the cache-resident chunk size.  Every call
    measures afresh; the process-wide cache lives in
    :func:`fused_kernel_max_elements` (the "quick per-machine autotune at
    first use" behind ``FORMS_FUSED_KERNEL_AUTOTUNE=1``).
    """
    rng = np.random.default_rng(0)
    m, cols, slices, positions = 8, 16, 4, 128
    per_job = positions * cols * slices
    jobs = max(1, (1 << 21) // per_job)       # fixed ~2^21-element workload
    drive = rng.integers(0, 2, size=(jobs, m, positions)).astype(np.float64)
    cond = rng.uniform(1e-7, 1e-5, size=(jobs, m, cols, slices))
    active = drive.sum(axis=1)
    best_budget, best_time = max(candidates), float("inf")
    for budget in candidates:
        chunk = max(1, budget // per_job)
        elapsed = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for lo in range(0, jobs, chunk):
                hi = lo + chunk
                currents = np.einsum("jmp,jmcs->jpcs", drive[lo:hi],
                                     cond[lo:hi], optimize=True)
                analog = (currents
                          - 1e-8 * active[lo:hi, :, None, None]) * 1e6
                np.clip(np.rint(analog), 0, 15)
            elapsed = min(elapsed, time.perf_counter() - start)
        if elapsed < best_time:
            best_budget, best_time = budget, elapsed
    return int(best_budget)


def fused_kernel_max_elements() -> int:
    """The kernel chunk budget in effect for engines without a local value."""
    global _kernel_autotuned
    if _kernel_override is not None:
        return _kernel_override
    env = os.environ.get(FUSED_KERNEL_ENV, "").strip()
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"{FUSED_KERNEL_ENV} must be >= 1, got {value}")
        return value
    if os.environ.get(FUSED_KERNEL_AUTOTUNE_ENV, "").strip().lower() in (
            "1", "true", "yes", "on"):
        if _kernel_autotuned is None:
            _kernel_autotuned = autotune_fused_kernel_max_elements()
        return _kernel_autotuned
    return FUSED_KERNEL_MAX_ELEMENTS


class SignIndicator:
    """1R array holding one sign bit per fragment (paper Fig. 5).

    The accumulation block consults it to run its adder in add or subtract
    mode; cost-wise it is a single resistive cell per fragment (Table III's
    0.012 mW / 3.1e-6 mm2 row).
    """

    def __init__(self, signs: np.ndarray):
        signs = np.asarray(signs)
        if not np.isin(signs, (-1.0, 1.0)).all():
            raise ValueError("signs must be +1/-1")
        self.bits = (signs < 0).astype(np.int8)  # 1 encodes negative

    def apply(self, fragment_values: np.ndarray) -> np.ndarray:
        """Negate values of fragments whose sign bit is set.

        ``fragment_values`` shaped ``(n_frag, cols, ...)`` — the leading two
        axes must match the sign array.
        """
        signs = np.where(self.bits == 1, -1, 1).astype(fragment_values.dtype)
        extra = fragment_values.ndim - signs.ndim
        return fragment_values * signs.reshape(signs.shape + (1,) * extra)


@dataclass
class EngineStats:
    """Non-ideality and throughput accounting of one engine run.

    ``conversions`` / ``cycles_fed`` keep the hardware's view: every
    bit-cycle up to the highest live bit is fed and every fed cycle converts
    every fragment column (zero planes included), exactly as the original
    per-bit loop counted them.  ``jobs_scheduled`` / ``jobs_skipped`` expose
    the simulator's view at (bit-plane, fragment) granularity: how many
    kernel jobs the scheduler emitted versus masked out as all-zero.
    ``pairs_scheduled`` / ``pairs_skipped`` refine that to (bit-plane,
    fragment, position) granularity — the accounting that is exact under the
    sparse CSR scheduler, where silent positions are skipped inside an
    otherwise-live job.  ``macs`` is the metering view: every conversion
    integrates one fragment's worth of cell currents, so the commit path
    derives ``macs = conversions x fragment_size`` — the analog
    multiply-accumulates billed to tenants by ``/v1/usage``.

    Kernel paths accumulate into a per-call (or per-worker) local instance
    and :meth:`merge` it into the engine's stats once at the end; ``merge``
    takes the target's lock, so engines are safe to share across worker
    threads.
    """

    conversions: int = 0
    saturated: int = 0
    cycles_fed: int = 0
    jobs_scheduled: int = 0
    jobs_skipped: int = 0
    pairs_scheduled: int = 0
    pairs_skipped: int = 0
    macs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    @property
    def jobs_computed(self) -> int:
        """Backward-compatible alias of ``jobs_scheduled``."""
        return self.jobs_scheduled

    @property
    def saturation_fraction(self) -> float:
        return self.saturated / self.conversions if self.conversions else 0.0

    @property
    def skip_fraction(self) -> float:
        """Fraction of kernel jobs eliminated by bit-plane/fragment masking."""
        total = self.jobs_scheduled + self.jobs_skipped
        return self.jobs_skipped / total if total else 0.0

    @property
    def pair_skip_fraction(self) -> float:
        """Fraction of (job, position) conversion groups never evaluated."""
        total = self.pairs_scheduled + self.pairs_skipped
        return self.pairs_skipped / total if total else 0.0

    def merge(self, other: "EngineStats") -> None:
        with self._lock:
            self.conversions += other.conversions
            self.saturated += other.saturated
            self.cycles_fed += other.cycles_fed
            self.jobs_scheduled += other.jobs_scheduled
            self.jobs_skipped += other.jobs_skipped
            self.pairs_scheduled += other.pairs_scheduled
            self.pairs_skipped += other.pairs_skipped
            self.macs += other.macs

    def as_dict(self) -> Dict[str, int]:
        """The eight counters as a plain JSON-ready dict."""
        return {
            "conversions": self.conversions,
            "saturated": self.saturated,
            "cycles_fed": self.cycles_fed,
            "jobs_scheduled": self.jobs_scheduled,
            "jobs_skipped": self.jobs_skipped,
            "pairs_scheduled": self.pairs_scheduled,
            "pairs_skipped": self.pairs_skipped,
            "macs": self.macs,
        }

    # Stats cross the process-backend boundary by value; the lock is a
    # per-process concern and must never be pickled (spawn-safe contract).
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


_STATS_SCOPES = threading.local()


class StatsScope:
    """Collects every engine-stats commit made by the *current thread*.

    Kernel paths accumulate a per-call :class:`EngineStats` local and commit
    it once, on the calling thread, when the MVM finishes (worker-side chunk
    stats are merged into that local before the commit).  A ``StatsScope``
    entered on a thread therefore observes exactly the engine activity of
    the calls issued from that thread — across *all* engines — which is how
    the serving layer slices one shared network's stats per request: each
    request's tile runs inside its own scope on its worker thread.

    Scopes nest (every active scope on the thread observes the commit) and
    are thread-local, so concurrent tiles on different workers never see
    each other's work::

        with StatsScope() as scope:
            engine.matvec_int(x)
        scope.stats.conversions   # just this call's conversions
    """

    def __init__(self):
        self.stats = EngineStats()

    def __enter__(self) -> "StatsScope":
        stack = getattr(_STATS_SCOPES, "stack", None)
        if stack is None:
            stack = _STATS_SCOPES.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _STATS_SCOPES.stack.pop()


def _active_scopes() -> List["StatsScope"]:
    return getattr(_STATS_SCOPES, "stack", [])


class DieCache:
    """Memoizes programmed conductance planes across engine constructions.

    Sweeps (ADC sizing, fragment ablations, design-space exploration) build
    many engines over the *same* weight codes and the *same* device
    configuration; re-programming a fresh die for each is the dominant setup
    cost and — for deterministic (``variation_sigma == 0``) devices — pure
    waste.  The cache keys on the device identity (spec, sigma, seed) and a
    content hash of the code plane, so identical ``(codes, device-seed)``
    pairs share one programmed die.

    For noisy devices this deliberately changes semantics from "a fresh die
    per engine" to "one die reused across the sweep" — which is what
    block-wise mixed-precision sweeps need to be affordable (and what a real
    lab would do: program once, measure many).  Devices constructed without
    a seed draw irreproducible variation, so they are keyed by object
    identity instead and only share dies with themselves.

    All cache operations hold an internal lock, so one cache can back
    engine construction fanned out across ``repro.runtime`` workers
    (programming is serialized under the lock — the point of the cache is
    that it happens once per die anyway).
    """

    def __init__(self, maxsize: Optional[int] = 64):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 (or None for unbounded)")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._planes: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._planes)

    @staticmethod
    def _device_key(device: ReRAMDevice) -> Tuple:
        seed = getattr(device, "seed", None)
        if seed is None and device.variation_sigma > 0.0:
            # Key on the object itself (identity hash): the cache entry then
            # pins the device alive, so a freed address can never alias two
            # different anonymous devices.
            return ("anon", device)
        return (device.spec, device.variation_sigma, seed)

    @staticmethod
    def _codes_key(codes: np.ndarray) -> Tuple:
        codes = np.ascontiguousarray(codes)
        digest = hashlib.sha1(codes.tobytes()).hexdigest()
        return (codes.shape, str(codes.dtype), digest)

    def get_or_program(self, device: ReRAMDevice, codes: np.ndarray) -> np.ndarray:
        """Return the programmed conductances for ``codes``, caching the die.

        Cached dies of noisy *seeded* devices are programmed from an RNG
        derived deterministically from ``(device seed, codes)``, so a
        re-program after LRU eviction reproduces the identical die — the
        one-die-per-(codes, device-seed) guarantee survives any eviction
        order.  (Unseeded devices draw from their own stream; they are keyed
        by identity and irreproducible by definition.)
        """
        codes_key = self._codes_key(codes)
        key = (self._device_key(device), codes_key)
        with self._lock:
            plane = self._planes.get(key)
            if plane is not None:
                self.hits += 1
                self._planes.move_to_end(key)
                return plane
            self.misses += 1
            seed = getattr(device, "seed", None)
            if device.variation_sigma > 0.0 and seed is not None:
                digest = int(codes_key[-1][:16], 16)
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), digest]))
                plane = device.program(codes, rng=rng)
            else:
                plane = device.program(codes)
            self._planes[key] = plane
            if self.maxsize is not None and len(self._planes) > self.maxsize:
                self._planes.popitem(last=False)
            return plane

    def clear(self) -> None:
        with self._lock:
            self._planes.clear()

    # A cache never crosses the process boundary by content: workers get a
    # *fresh, empty* per-process cache (configuration only — no lock, no
    # planes, no device references).  Deterministic devices re-program
    # bit-identical dies from ``SeedSequence([seed, codes digest])``, so
    # sharing bits never required sharing state.
    def __getstate__(self):
        return {"maxsize": self.maxsize}

    def __setstate__(self, state):
        self.__init__(maxsize=state.get("maxsize", 64))


class InSituLayerEngine:
    """Computes ``levels.T @ x`` for one mapped layer via crossbar simulation.

    Parameters
    ----------
    mapped:
        Output of :func:`repro.reram.mapping.map_layer` for any scheme.
    device:
        The ReRAM population (carries variation).  Each engine instance
        programs its own die unless a ``die_cache`` is supplied.
    adc:
        ADC spec; ``None`` sizes it exactly for the worst-case fragment sum
        (the configuration under which the engine is exact).
    activation_bits:
        Input bit width (paper: 16, with 8 also evaluated).
    die_cache:
        Optional :class:`DieCache`; identical ``(codes, device)`` pairs then
        reuse one programmed die instead of re-programming per engine.
    kernel_max_elements:
        Per-engine kernel chunk budget; ``None`` defers to the process-wide
        resolution (:func:`fused_kernel_max_elements`).
    """

    def __init__(self, mapped: MappedLayer, device: ReRAMDevice,
                 adc: Optional[ADCSpec] = None, activation_bits: int = 16,
                 die_cache: Optional[DieCache] = None,
                 kernel_max_elements: Optional[int] = None):
        if activation_bits < 1:
            raise ValueError("activation_bits must be >= 1")
        if kernel_max_elements is not None and kernel_max_elements < 1:
            raise ValueError("kernel_max_elements must be >= 1")
        self.mapped = mapped
        self.device = device
        self.activation_bits = activation_bits
        self.kernel_max_elements = kernel_max_elements
        #: scheduling knobs of :meth:`matvec_int` — ``sparse_enabled``
        #: selects the CSR job scheduler (ablation/benchmark knob; results
        #: are bit-identical either way), ``pool`` fans independent job
        #: chunks of one MVM across a :class:`repro.runtime.WorkerPool`.
        self.sparse_enabled = True
        self.sparse_min_task_elements = SPARSE_MIN_TASK_ELEMENTS
        self.pool = None
        spec = mapped.spec
        geometry = mapped.geometry
        if adc is None:
            adc = ADCSpec(bits=required_adc_bits(geometry.fragment_size, spec.cell_bits))
        self.adc = adc
        self.dac = DACSpec()
        self.sample_hold = SampleHold()
        self.sign_indicator = (SignIndicator(mapped.signs)
                               if mapped.signs is not None else None)
        # Program one conductance plane per code plane (a fresh die each,
        # unless the die cache already holds this (codes, device) pair).
        program = (device.program if die_cache is None
                   else lambda codes: die_cache.get_or_program(device, codes))
        self.conductance: Dict[str, np.ndarray] = {
            plane: program(codes) for plane, codes in mapped.code_planes.items()
        }
        # Per-engine constants of the signal path, hoisted out of the per-
        # cycle loop: shift-and-add place values and the pedestal-correction
        # terms of repro.reram.device.codes_to_digital.
        dev = device.spec
        self._place = slice_weights(mapped.slices, spec.cell_bits)
        self._v_g_min = dev.read_voltage * dev.g_min
        self._v_g_step = dev.read_voltage * dev.g_step
        self._inv_v_g_step = 1.0 / self._v_g_step
        if mapped.scheme == "dual":
            self._plane_terms = (("positive", 1), ("negative", -1))
        else:
            self._plane_terms = (("main", 1),)
        # Kernel-task constants (plane signs, signed place values, bit place
        # values, fragment signs), hoisted out of the per-task hot path.
        self._plane_signs = np.array([sign for _, sign in self._plane_terms],
                                     dtype=np.int64)
        self._plane_place_f = np.concatenate(
            [sign * self._place for _, sign in self._plane_terms]
        ).astype(np.float64)
        self._frag_signs_arr = (
            np.where(self.sign_indicator.bits == 1, -1, 1).astype(np.int64)
            if self.sign_indicator is not None else None)
        # Whether the sparse task's float64 recombination is provably exact:
        # the worst partial result is one ADC code at full scale times the
        # summed slice place values times the summed bit place values.
        self._float_recombine_exact = (
            float(self.adc.max_code)
            * float(np.abs(self._plane_place_f).sum())
            * float(np.int64(1) << activation_bits)) < float(1 << 53)
        # Constants of the exact-matmul shortcut and the sparse integer
        # kernel, built lazily on first dispatch: engines that can never
        # take those tiers (noisy die, analog physics) must not pay for
        # them per construction — that would undo exactly the setup cost
        # DieCache eliminates across sweeps.
        self._exact_tier: Optional[Tuple[int, np.ndarray, np.ndarray, bool]] = None
        self._codes_float: Optional[np.ndarray] = None
        self._eff_stack: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None
        self._init_lock = threading.Lock()
        #: optional online checksum guard (:class:`repro.reram.faults.
        #: DieGuard`); when set, every MVM audits the programmed die's
        #: sentinel sums before computing and raises
        #: :class:`repro.reram.faults.DieFaultDetected` on a mismatch.
        self.guard = None
        #: bumped by :meth:`swap_planes`; the process backend's ship memo
        #: keys on it, so a shipped copy of this engine is never stale.
        self._swap_epoch = 0
        #: optional :class:`repro.obs.EngineProfiler`; when set, every
        #: ``matvec_int`` dispatch reports (tier, wall seconds) — timing
        #: only, never an operand, so armed and disarmed engines compute
        #: identical bits.
        self.profile = None
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Online die maintenance (the live-recovery path of repro.reram.faults)
    # ------------------------------------------------------------------
    def reset_plane_caches(self) -> None:
        """Invalidate the lazily-built code-derived tier constants.

        Must be called after any mutation of ``mapped.code_planes`` /
        ``conductance`` (an online die fault or swap): the exact-matmul
        tier, the sparse integer kernel's code stack and the effective
        weight stack are all folded from the codes at first dispatch and
        would otherwise keep serving the stale die.
        """
        with self._init_lock:
            self._exact_tier = None
            self._codes_float = None
            self._eff_stack = None

    def swap_planes(self, code_planes: Dict[str, np.ndarray],
                    conductance: Dict[str, np.ndarray]) -> None:
        """Replace programmed planes in place — the online die swap.

        ``code_planes`` / ``conductance`` map plane names to replacement
        arrays; plane names must already exist on the engine.  Dict entries
        are *rebound, never mutated in place*: a
        :class:`DieCache`-shared conductance array may be aliased by other
        engines (and by the cache itself), so an in-place write would
        corrupt every sharer.  Callers must quiesce concurrent MVMs on this
        engine (the serving stack swaps only at dispatch boundaries, on the
        batcher thread).
        """
        for plane, codes in code_planes.items():
            if plane not in self.mapped.code_planes:
                raise KeyError(f"unknown code plane {plane!r}; engine has "
                               f"{sorted(self.mapped.code_planes)}")
            self.mapped.code_planes[plane] = codes
        for plane, cond in conductance.items():
            if plane not in self.conductance:
                raise KeyError(f"unknown conductance plane {plane!r}; engine "
                               f"has {sorted(self.conductance)}")
            self.conductance[plane] = cond
        self._swap_epoch += 1
        self.reset_plane_caches()

    # ------------------------------------------------------------------
    # Process-backend transport (spawn-safe pickling)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """What ships to a process worker: the die, not the machinery.

        Locks are never pickled (recreated fresh on arrival), an attached
        worker pool is a parent-process object and stays behind, and so
        does the checksum guard — fault detection audits the parent's
        dispatch path, and the serving layer keeps fault-injected models
        on the thread backend.  The lazily-built code-derived tier
        constants are dropped too: workers rebuild them on first dispatch
        from the shipped codes, which keeps the payload to exactly the
        state that determines the bits.
        """
        state = self.__dict__.copy()
        state["_init_lock"] = None
        state["pool"] = None
        state["guard"] = None
        state["profile"] = None
        state["_exact_tier"] = None
        state["_codes_float"] = None
        state["_eff_stack"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_lock = threading.Lock()

    def _exact_tier_constants(self) -> Tuple[int, np.ndarray, np.ndarray, bool]:
        """(plane headroom, effective stacks, matmul-exactness) — cached.

        *Headroom* is the worst-case per-conversion partial sum (all input
        bits on); when it fits the ADC, clipping is provably impossible.
        The *effective weight stack* folds slice recombination, fragment
        signs and plane signs into one (padded_rows, cols) integer matrix,
        with a float64 copy for the BLAS product — exact while every
        partial sum is an integer below 2**53, else the int64 product runs.
        """
        cached = self._exact_tier
        if cached is not None:
            return cached
        # Fetch the shared effective-weight stack before taking the lock
        # (plain Lock, not re-entrant).
        _, eff_frag, _ = self._eff_stack_constants()
        with self._init_lock:
            if self._exact_tier is None:
                mapped = self.mapped
                headroom = max(int(codes.sum(axis=1).max(initial=0))
                               for codes in mapped.code_planes.values())
                if self._frag_signs_arr is not None:
                    eff = eff_frag * self._frag_signs_arr[:, None, :]
                else:
                    eff = eff_frag
                stack_int = eff.reshape(-1, mapped.geometry.cols)
                worst = (mapped.geometry.padded_rows
                         * int(np.abs(eff).max(initial=0))
                         * ((1 << self.activation_bits) - 1))
                self._exact_tier = (headroom, stack_int.astype(np.float64),
                                    stack_int, worst < (1 << 53))
            return self._exact_tier

    def _codes_float_stack(self) -> np.ndarray:
        """Per-fragment code planes as one float64 GEMM operand — cached.

        Shape ``(n_frag, m, cols * slices * n_planes)``: the dual scheme's
        positive and negative planes ride the same contraction, stacked
        along the trailing slice axis (their signs live in the recombination
        weights, not here).  Exact: every per-conversion dot product is a
        sum of at most ``m`` products of small non-negative integers, far
        below float64's 2**53 integer range.
        """
        cached = self._codes_float
        if cached is not None:
            return cached
        with self._init_lock:
            if self._codes_float is None:
                mapped = self.mapped
                stacked = np.concatenate(
                    [mapped.code_planes[name] for name, _ in self._plane_terms],
                    axis=-1)                       # (n_frag, m, cols, S)
                n_frag, m = stacked.shape[:2]
                self._codes_float = np.ascontiguousarray(
                    stacked.reshape(n_frag, m, -1).astype(np.float64))
            return self._codes_float

    def _eff_stack_constants(self) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Per-fragment effective weights for the telescoped task tier.

        ``(eff_float, eff_int, matmul_exact)`` where ``eff`` is
        ``(n_frag, m, cols)`` — slice place values and plane signs folded,
        fragment signs *not* (the task applies them at the end).  When no
        conversion of a task can clip, the bit-serial pipeline telescopes
        into ``values.T @ eff`` for that task; ``matmul_exact`` says the
        float64 product is exact (worst partial sum below 2**53).
        """
        cached = self._eff_stack
        if cached is not None:
            return cached
        with self._init_lock:
            if self._eff_stack is None:
                mapped = self.mapped
                eff = np.zeros(
                    mapped.code_planes[self._plane_terms[0][0]].shape[:3],
                    dtype=np.int64)
                for plane, sign in self._plane_terms:
                    eff += sign * (mapped.code_planes[plane]
                                   * self._place).sum(axis=-1)
                worst = (mapped.geometry.fragment_size
                         * int(np.abs(eff).max(initial=0))
                         * ((1 << self.activation_bits) - 1))
                self._eff_stack = (eff.astype(np.float64), eff,
                                   worst < (1 << 53))
            return self._eff_stack

    def _kernel_budget(self) -> int:
        """Chunk budget in effect for this engine's kernel calls."""
        if self.kernel_max_elements is not None:
            return self.kernel_max_elements
        return fused_kernel_max_elements()

    # ------------------------------------------------------------------
    # Shared signal-path pieces
    # ------------------------------------------------------------------
    def _job_currents(self, conductance: np.ndarray, drive: np.ndarray,
                      noise_keys: Optional[Sequence[Tuple[int, ...]]] = None
                      ) -> np.ndarray:
        """Analog bit-line currents for a batch of fragment reads.

        ``conductance``: (jobs, m, cols, slices); ``drive``: (jobs, m,
        positions) word-line levels.  Returns (jobs, positions, cols,
        slices).  The single override point for physics
        (:class:`~repro.reram.nonideal_engine.NonidealEngine` adds IR drop
        and read noise here).  ``noise_keys`` — one integer tuple per job —
        identifies each job for deterministic per-job noise substreams;
        the ideal read ignores it.
        """
        return self.device.spec.read_voltage * np.einsum(
            "jmp,jmcs->jpcs", drive, conductance, optimize=True)

    def _convert_batch(self, held: np.ndarray, active: np.ndarray,
                       stats: EngineStats) -> np.ndarray:
        """Pedestal-correct and ADC-convert one current batch.

        ``held``: (jobs, positions, cols, slices) sampled currents;
        ``active``: (jobs, positions) count of driven rows.  Returns digital
        slice codes (jobs, positions, cols, slices).  Saturation accounting
        covers both ADC rails: overflow past the full-scale code and
        underflow below zero (reachable with read noise / IR drop).
        Accounting lands in ``stats`` (a per-call or per-worker local).
        """
        analog = (held - self._v_g_min * active[:, :, None, None]) * self._inv_v_g_step
        digital, saturated = self.adc.digitize(analog)
        stats.conversions += digital.size
        stats.saturated += saturated
        return digital

    def _digitize(self, held: np.ndarray, active: np.ndarray,
                  stats: EngineStats) -> np.ndarray:
        """:meth:`_convert_batch` plus shift-and-add slice recombination.

        Returns digital fragment values (jobs, positions, cols).
        """
        digital = self._convert_batch(held, active, stats)
        return np.einsum("jpcs,s->jpc", digital, self._place)

    def _plane_pass(self, plane: str, plane_index: int, bit: int,
                    bits_stack: np.ndarray, stats: EngineStats,
                    digest: Optional[int]) -> np.ndarray:
        """One bit-cycle through one conductance plane (reference path).

        ``bits_stack``: (n_frag, m, positions) of 0/1.
        Returns digital fragment values (n_frag, positions, cols) after ADC
        and slice recombination.  ``digest`` (the activation-block content
        hash) seeds the per-job noise substreams so the reference path draws
        the same noise as the fused kernel.
        """
        drive = self.dac.convert(bits_stack)
        keys = None
        if digest is not None:
            keys = [(digest, plane_index, bit, f)
                    for f in range(bits_stack.shape[0])]
        currents = self._job_currents(self.conductance[plane], drive,
                                      noise_keys=keys)
        held = self.sample_hold.hold(currents, copy=False)
        active = bits_stack.sum(axis=1)                    # (n_frag, positions)
        return self._digitize(held, active, stats)

    # ------------------------------------------------------------------
    # Input preparation
    # ------------------------------------------------------------------
    def _prepare(self, x_int: np.ndarray) -> np.ndarray:
        """Validate and fragment-stack one activation block.

        Returns the padded stack ``(n_frag, m, positions)`` as int64.
        """
        x_int = np.asarray(x_int)
        if not np.issubdtype(x_int.dtype, np.integer):
            raise TypeError("engine inputs must be integer activations")
        geometry = self.mapped.geometry
        if x_int.ndim == 1:
            x_int = x_int[:, None]
        if x_int.shape[0] != geometry.rows:
            raise ValueError(f"input rows {x_int.shape[0]} != matrix rows {geometry.rows}")
        if x_int.min(initial=0) < 0 or x_int.max(initial=0) >= (1 << self.activation_bits):
            raise ValueError(f"inputs outside unsigned {self.activation_bits}-bit range")
        positions = x_int.shape[1]
        pad = geometry.padded_rows - geometry.rows
        if pad:
            x_int = np.vstack([x_int, np.zeros((pad, positions), dtype=x_int.dtype)])
        return x_int.reshape(geometry.fragments_per_column,
                             geometry.fragment_size, positions).astype(np.int64)

    def _offset_correction(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        """ISAAC digital 1-count correction: the stored bias contributes
        ``offset * sum(inputs)`` to every column (paper Sec. II-B)."""
        if self.mapped.scheme == "isaac_offset":
            input_totals = stacked.sum(axis=(0, 1))
            out = out - self.mapped.offset * input_totals[None, :]
        return out

    # ------------------------------------------------------------------
    # Kernel configuration hooks
    # ------------------------------------------------------------------
    def _analog_model_active(self) -> bool:
        """Whether any stochastic/analog effect acts on the signal path."""
        return False

    def _conversion_noise_active(self) -> bool:
        """Whether an all-zero drive pattern can still convert to non-zero.

        True only with read noise: the ADC's zero rail rectifies zero-mean
        noise into a positive pedestal, so even silent fragments contribute.
        The kernel must then feed the full job grid instead of masking
        all-zero jobs (deterministic effects — IR drop, variation — map zero
        drive to zero current exactly, so masking stays lossless for them).
        """
        return False

    def _job_memory_factor(self, m: int) -> int:
        """Per-job memory multiplier of ``_job_currents`` beyond the current
        tensor itself — used to scale the kernel chunk budget.  The base
        einsum read allocates nothing extra; the IR-drop row sweep
        overrides this (a few accumulators of the current's size)."""
        return 1

    def _signal_path_ideal(self) -> bool:
        """True when every conversion provably equals the integer dot product.

        Requires a variation-free die, no analog physics, and a
        ``_job_currents`` that is known to reduce to the ideal read.  The
        float signal path then round-trips integers with error orders of
        magnitude below the ADC's rounding threshold, so the integer
        shortcut tiers produce bit-identical results.
        """
        if self.device.variation_sigma != 0.0 or self._analog_model_active():
            return False
        impl = type(self)._job_currents
        return (impl is InSituLayerEngine._job_currents
                or getattr(impl, "_ideal_when_inactive", False))

    def _input_digest(self, stacked: np.ndarray) -> int:
        """Content hash of one activation block — the per-call component of
        the noise substream keys.  Keying noise on (input block, job)
        instead of call order makes noisy results independent of worker
        count, chunk packing and evaluation order."""
        return int.from_bytes(
            hashlib.sha1(np.ascontiguousarray(stacked).tobytes()).digest()[:8],
            "big")

    def _commit_stats(self, local: EngineStats) -> None:
        """Merge one call's stats into the engine and any active scopes.

        Called once per MVM on the calling thread — the property
        :class:`StatsScope` (and through it the serving layer's per-request
        stats slicing) relies on.  The derived ``macs`` meter is settled
        here, once per commit, from this engine's fragment size — locals
        merged across engines with different geometries therefore stay
        exact.
        """
        local.macs = local.conversions * self.mapped.geometry.fragment_size
        self.stats.merge(local)
        for scope in _active_scopes():
            scope.stats.merge(local)

    def _fan_out(self, pool, run_one, tasks: List) -> List:
        """Evaluate independent kernel tasks, optionally on a worker pool.

        Each task runs against its own local :class:`EngineStats`; the
        caller merges them at join, so no stats mutation is shared between
        workers.  Returns ``[(result, stats), ...]`` in task order.
        """

        def wrapped(task):
            local = EngineStats()
            return run_one(task, local), local

        if pool is None:
            pool = self.pool
        if pool is not None and not getattr(pool, "supports_closures", True):
            # In-layer chunk fan-out closes over the call's local arrays,
            # so it cannot ride a process pool; tile-level fan-out is the
            # process backend's unit of work and this stays inline there.
            pool = None
        if pool is not None and getattr(pool, "workers", 1) > 1 and len(tasks) > 1:
            return pool.map(wrapped, tasks)
        return [wrapped(task) for task in tasks]

    # ------------------------------------------------------------------
    # Production path: sparse CSR job scheduler
    # ------------------------------------------------------------------
    def matvec_int(self, x_int: np.ndarray, pool=None) -> np.ndarray:
        """Integer MVM: returns ``(cols, positions)`` given ``(rows, positions)``.

        ``x_int`` holds unsigned ``activation_bits``-bit integers in im2col
        layout, rows already permuted to the layer's polarization policy.

        The kernel schedules only the *nonzero structure* of the block: a
        CSR-style job list of ``(fragment, live bits x live positions)``
        grids built from the per-fragment OR of the activation bits.
        All-zero bit-planes, silent fragments and silent positions are never
        materialized, let alone evaluated.  Three tiers share the stats
        accounting and are all bit-exact against
        :meth:`matvec_int_reference` — the anchor property:

        * **exact matmul** — ideal signal path *and* an ADC wide enough that
          clipping is impossible: the bit-serial pipeline telescopes into
          one matmul against the pre-combined effective weight stack,
          compacted to the live positions;
        * **integer kernel** — ideal signal path with a clipping ADC: each
          fragment's live grid is one exact GEMM, clipped/counted exactly
          as the ADC would;
        * **analog kernel** — any deterministic analog non-ideality
          (variation, IR drop): the full float signal path over the live
          grid.  Read *noise* converts even silent fragments, so it forces
          the dense grid (:meth:`matvec_int_dense`) with deterministic
          per-job noise substreams.

        ``pool`` (or the engine's ``pool`` attribute) fans independent job
        chunks across ``repro.runtime`` workers; results and stats are
        identical at any worker count.
        """
        guard = self.guard
        if guard is not None:
            guard.check(self)
        profile = self.profile
        if profile is None:
            if not self.sparse_enabled or self._conversion_noise_active():
                return self._matvec_dense(self._prepare(x_int), pool)
            return self._matvec_sparse(self._prepare(x_int), pool)
        # Profiling brackets the identical dispatch with two perf_counter
        # reads; the tier label is resolved before timing starts so label
        # classification never lands inside the measured window.
        tier = self.dispatch_tier()
        start = time.perf_counter()
        if tier in ("dense", "dense_noise"):
            out = self._matvec_dense(self._prepare(x_int), pool)
        else:
            out = self._matvec_sparse(self._prepare(x_int), pool)
        profile.record(self, tier, time.perf_counter() - start)
        return out

    def dispatch_tier(self) -> str:
        """Which kernel tier :meth:`matvec_int` selects right now.

        ``dense_noise`` (read noise forces the dense grid), ``dense``
        (scheduler disabled), ``exact`` (ideal path, non-clipping ADC:
        the telescoped matmul), ``integer`` (ideal path, clipping ADC)
        or ``analog`` (deterministic non-ideality).  Dispatch-level:
        per-fragment size heuristics inside the sparse tiers may still
        run tiny grids through the dense executor.
        """
        if self._conversion_noise_active():
            return "dense_noise"
        if not self.sparse_enabled:
            return "dense"
        if not self._signal_path_ideal():
            return "analog"
        if self._exact_tier_constants()[0] <= self.adc.max_code:
            return "exact"
        return "integer"

    def matvec_int_dense(self, x_int: np.ndarray, pool=None) -> np.ndarray:
        """The dense bit-plane kernel (the pre-scheduler production path).

        Decomposes the whole block into a ``(bits, n_frag, m, positions)``
        bit-plane tensor and masks (bit-plane, fragment) jobs only —
        retained as the scheduling baseline of the perf suite and as the
        forced path whenever read noise makes zero-skipping lossy.
        Bit-identical to :meth:`matvec_int`.
        """
        guard = self.guard
        if guard is not None:
            guard.check(self)
        return self._matvec_dense(self._prepare(x_int), pool)

    def _matvec_sparse(self, stacked: np.ndarray, pool=None) -> np.ndarray:
        geometry = self.mapped.geometry
        n_frag, m, positions = stacked.shape
        cols = geometry.cols
        slices = self.mapped.slices
        n_planes = len(self._plane_terms)

        out = np.zeros((cols, positions), dtype=np.int64)
        n_bits = int(stacked.max(initial=0)).bit_length()
        if n_bits == 0:
            return self._offset_correction(stacked, out)

        # CSR construction: the OR over each fragment's rows is the complete
        # nonzero structure — bit b of ``bits_or[f, p]`` says whether the
        # (b, f) job has any live drive at position p.  No dense
        # (bits, n_frag, m, positions) tensor is ever built.
        bits_or = np.bitwise_or.reduce(stacked, axis=1)    # (n_frag, positions)
        shifts = np.arange(n_bits, dtype=np.int64)
        live = ((bits_or[None, :, :] >> shifts[:, None, None]) & 1
                ).astype(bool)                             # (bits, n_frag, pos)
        job_live = live.any(axis=2)                        # (bits, n_frag)
        n_jobs = int(np.count_nonzero(job_live))
        total_jobs = n_bits * n_frag
        total_pairs = total_jobs * positions

        # Hybrid dispatch: when the average per-fragment grid is too small
        # to amortize a kernel task (many fragments, few positions), the
        # dense masked kernel is the faster executor for the same schedule;
        # likewise on the analog tier when position-level sparsity is
        # negligible (the analog task has no telescoped shortcut, so a
        # near-dense grid gains nothing over the one-einsum dense kernel).
        # Both are pure dispatch decisions — results are bit-identical.
        # Skipped for the exact-matmul tier, which has no per-fragment tasks.
        ideal = self._signal_path_ideal()
        exact_tier = (ideal and self._exact_tier_constants()[0]
                      <= self.adc.max_code)
        if not exact_tier:
            live_bits_per_frag = job_live.sum(axis=0)      # (n_frag,)
            live_pos_per_frag = (bits_or != 0).sum(axis=1)  # (n_frag,)
            n_live_frag = int(np.count_nonzero(live_pos_per_frag))
            scheduled = int((live_bits_per_frag * live_pos_per_frag).sum())
            avg_task = (scheduled * cols * slices * n_planes
                        / max(1, n_live_frag))
            # sparse_min_task_elements == 0 disables both fallbacks (tests
            # use it to pin the CSR path).
            if self.sparse_min_task_elements:
                if avg_task < self.sparse_min_task_elements:
                    return self._matvec_dense(stacked, pool)
                if not ideal and scheduled > 0.9 * n_jobs * positions:
                    return self._matvec_dense(stacked, pool)

        local = EngineStats()
        local.cycles_fed += n_bits
        local.jobs_scheduled += n_jobs * n_planes
        local.jobs_skipped += (total_jobs - n_jobs) * n_planes

        if exact_tier:
            # Exact-matmul tier: no conversion can clip (the worst-case
            # fragment partial sum fits the ADC), so slice recombination,
            # bit recombination, fragment signs and plane signs telescope
            # into one matmul — over the live positions only.
            _, stack_f, stack_i, matmul_exact = self._exact_tier_constants()
            live_p = bits_or.any(axis=0)                   # (positions,)
            k = int(np.count_nonzero(live_p))
            local.pairs_scheduled += n_jobs * k * n_planes
            local.pairs_skipped += (total_pairs - n_jobs * k) * n_planes
            local.conversions += total_pairs * n_planes * cols * slices
            if k:
                flat = (stacked[:, :, live_p] if k < positions else stacked
                        ).reshape(n_frag * m, k)
                if matmul_exact:
                    sub = np.rint(stack_f.T @ flat.astype(np.float64)
                                  ).astype(np.int64)
                else:  # exactness bound exceeded: integer contraction
                    sub = stack_i.T @ flat
                if k < positions:
                    out[:, live_p] = sub
                else:
                    out = sub
            self._commit_stats(local)
            return self._offset_correction(stacked, out)

        # Kernel tiers: one task per (fragment, position chunk), each a
        # ``live bits x live positions`` grid.  Tasks are independent —
        # they touch disjoint (fragment, position) conversions — so they
        # can fan out across workers; accumulation happens at join.
        budget = self._kernel_budget()
        mem_factor = self._job_memory_factor(m)
        tasks: List[Tuple[int, np.ndarray, np.ndarray]] = []
        scheduled_pairs = 0
        for f in range(n_frag):
            lp = np.nonzero(bits_or[f])[0]
            if lp.size == 0:
                continue
            lb = np.nonzero(job_live[:, f])[0]
            scheduled_pairs += lb.size * lp.size
            per_pos = max(1, lb.size * n_planes * cols * slices * mem_factor)
            chunk = max(1, budget // per_pos)
            for start in range(0, lp.size, chunk):
                tasks.append((f, lb, lp[start:start + chunk]))
        local.pairs_scheduled += scheduled_pairs * n_planes
        local.pairs_skipped += (total_pairs - scheduled_pairs) * n_planes
        # Hardware view: the skipped conversions still happen (a silent
        # fragment column converts code 0); account them without computing.
        local.conversions += ((total_pairs - scheduled_pairs)
                              * n_planes * cols * slices)

        bit_weight = (np.int64(1) << shifts)
        run = (self._run_sparse_task_ideal if ideal
               else self._run_sparse_task_analog)
        for (f, lp, res), task_stats in self._fan_out(
                pool, lambda task, st: run(stacked, bit_weight, task, st),
                tasks):
            out[:, lp] += res.T
            local.merge(task_stats)
        self._commit_stats(local)
        return self._offset_correction(stacked, out)

    def _frag_signs(self) -> Optional[np.ndarray]:
        return self._frag_signs_arr

    def _run_sparse_task_ideal(self, stacked: np.ndarray,
                               bit_weight: np.ndarray,
                               task: Tuple[int, np.ndarray, np.ndarray],
                               stats: EngineStats):
        """Integer-kernel tier for one (fragment, live grid) task.

        Each conversion is the exact integer dot product, computed as one
        float64 GEMM (exact: sums of small non-negative integers) and
        clipped/counted exactly as the ADC rounds.

        Before expanding bit-planes, the task tests a cheap clipping bound:
        every conversion's dot product is bounded by the same contraction
        over the *nonzero mask* of the fragment's rows (a bit of a value is
        live only where the value is).  When that bound fits the ADC, no
        conversion of this task can clip and the bit-serial pipeline
        telescopes into one value-level GEMM against the effective weight
        stack — the data-dependent, per-task version of the exact-matmul
        tier (the hardware's "typical-case sums don't saturate" argument,
        applied opportunistically and provably).
        """
        f, lb, lp = task
        m = stacked.shape[1]
        cols = self.mapped.geometry.cols
        slices = self.mapped.slices
        n_planes = len(self._plane_terms)
        sub = stacked[f][:, lp]                            # (m, K)
        max_code = float(self.adc.max_code)
        if lb.size > 1:
            nz = (sub != 0).T.astype(np.float64)           # (K, m)
            bound = nz @ self._codes_float_stack()[f]      # (K, cols*S)
            if bound.max(initial=0.0) <= max_code:
                stats.conversions += (lb.size * lp.size * cols * slices
                                      * n_planes)
                eff_f, eff_i, exact = self._eff_stack_constants()
                if exact:
                    res = np.rint(sub.T.astype(np.float64)
                                  @ eff_f[f]).astype(np.int64)
                else:
                    res = sub.T @ eff_i[f]                 # (K, cols)
                frag_signs = self._frag_signs()
                if frag_signs is not None:
                    res = res * frag_signs[f]
                return f, lp, res
        bits = (sub[None, :, :] >> lb[:, None, None]) & 1
        gemm_in = bits.transpose(0, 2, 1).reshape(-1, m).astype(np.float64)
        dots = gemm_in @ self._codes_float_stack()[f]      # (B*K, cols*S)
        # Integer tier underflow is impossible (bits and codes are
        # non-negative), so only the full-scale rail can clip.
        digital = np.minimum(dots, float(self.adc.max_code))
        stats.conversions += dots.size
        stats.saturated += int(np.count_nonzero(digital != dots))
        # Recombination in float64 BLAS when provably exact (the engine
        # checks the worst partial result against 2**53 at construction),
        # else in an int64 contraction.  The trailing GEMM axis is
        # (cols, planes, slices) — _codes_float_stack's stacking order —
        # and _plane_place_f carries the plane signs.
        if self._float_recombine_exact:
            combined = (digital.reshape(-1, cols, n_planes * slices)
                        @ self._plane_place_f).reshape(lb.size, lp.size, cols)
            res = np.tensordot(bit_weight[lb].astype(np.float64), combined,
                               axes=([0], [0]))            # (K, cols)
            res = np.rint(res).astype(np.int64)
        else:
            vals = digital.astype(np.int64).reshape(
                lb.size, lp.size, cols, n_planes, slices)
            res = np.einsum("bkcns,s,n,b->kc", vals, self._place,
                            self._plane_signs, bit_weight[lb], optimize=True)
        frag_signs = self._frag_signs()
        if frag_signs is not None:
            res = res * frag_signs[f]
        return f, lp, res

    def _run_sparse_task_analog(self, stacked: np.ndarray,
                                bit_weight: np.ndarray,
                                task: Tuple[int, np.ndarray, np.ndarray],
                                stats: EngineStats):
        """Analog-kernel tier for one (fragment, live grid) task.

        Runs the full float signal path — the dual scheme's planes stacked
        along the jobs axis — over the fragment's live bits and positions
        only.  Deterministic physics map zero drive to code 0 exactly, so
        dropping silent conversions is lossless (asserted bit-exact against
        the reference loop).
        """
        f, lb, lp = task
        cols = self.mapped.geometry.cols
        slices = self.mapped.slices
        n_planes = len(self._plane_terms)
        bits = (stacked[f][:, lp][None, :, :] >> lb[:, None, None]) & 1
        drive = self.dac.convert(bits)                     # (B, m, K)
        active = bits.sum(axis=1, dtype=np.int64)          # (B, K)
        B = lb.size
        cond = np.concatenate(
            [np.broadcast_to(self.conductance[name][f],
                             (B,) + self.conductance[name][f].shape)
             for name, _ in self._plane_terms])            # (B*n, m, cols, s)
        if n_planes > 1:
            drive = np.concatenate([drive] * n_planes)
            active = np.concatenate([active] * n_planes)
        currents = self._job_currents(cond, drive)
        held = self.sample_hold.hold(currents, copy=False)
        digital = self._convert_batch(held, active, stats)  # (B*n, K, cols, s)
        vals = digital.reshape(n_planes, B, lp.size, cols, slices)
        # One shift-and-add weight per (plane, bit, slice); int64 keeps the
        # contraction exact in any order, and tensordot plans nothing.
        weights = ((self._plane_signs[:, None] * bit_weight[lb])[:, :, None]
                   * self._place)                           # (n, B, s)
        res = np.tensordot(weights, vals,
                           axes=([0, 1, 2], [0, 1, 4]))     # (K, cols)
        frag_signs = self._frag_signs()
        if frag_signs is not None:
            res = res * frag_signs[f]
        return f, lp, res

    # ------------------------------------------------------------------
    # Dense bit-plane kernel (the scheduling baseline / noise path)
    # ------------------------------------------------------------------
    def _matvec_dense(self, stacked: np.ndarray, pool=None) -> np.ndarray:
        geometry = self.mapped.geometry
        n_frag, m, positions = stacked.shape
        cols = geometry.cols
        slices = self.mapped.slices
        n_planes = len(self._plane_terms)

        out = np.zeros((cols, positions), dtype=np.int64)
        n_bits = int(stacked.max(initial=0)).bit_length()
        if n_bits == 0:
            return self._offset_correction(stacked, out)

        local = EngineStats()
        # (bits, n_frag, m, positions) bit-plane tensor, LSB first.
        shifts = np.arange(n_bits, dtype=np.int64)
        planes = ((stacked[None, ...] >> shifts[:, None, None, None]) & 1
                  ).astype(np.uint8)

        # Zero-skipping as masking: keep only (bit, fragment) jobs with at
        # least one live bit.  The hardware still clocks every cycle up to
        # the top live bit, so cycle/conversion accounting stays on the
        # hardware's terms (identical to the per-bit reference loop).  With
        # conversion noise the mask must stay full: silent fragments still
        # convert, and the ADC rectifies their noise into a real pedestal.
        noisy = self._conversion_noise_active()
        if noisy:
            live = np.ones((n_bits, n_frag), dtype=bool)
        else:
            live = planes.any(axis=(2, 3))
        bits_idx, frag_idx = np.nonzero(live)
        n_jobs = bits_idx.size
        local.cycles_fed += n_bits
        local.jobs_scheduled += n_jobs * n_planes
        local.jobs_skipped += (n_bits * n_frag - n_jobs) * n_planes
        local.pairs_scheduled += n_jobs * positions * n_planes
        local.pairs_skipped += (n_bits * n_frag - n_jobs) * positions * n_planes
        local.conversions += ((n_bits * n_frag - n_jobs)
                              * positions * cols * slices * n_planes)
        digest = self._input_digest(stacked) if noisy else None

        ideal = self._signal_path_ideal()
        if ideal:
            headroom, stack_f, stack_i, matmul_exact = self._exact_tier_constants()
            if headroom <= self.adc.max_code:
                # Exact-matmul tier: no conversion can clip (the worst-case
                # fragment partial sum fits the ADC), so slice recombination,
                # bit recombination, fragment signs and plane signs telescope
                # into one matmul against the effective weight stack.
                local.conversions += (n_jobs * positions * cols * slices
                                      * n_planes)
                flat = stacked.reshape(n_frag * m, positions)
                if matmul_exact:
                    out += np.rint(stack_f.T @ flat.astype(np.float64)
                                   ).astype(np.int64)
                else:  # exactness bound exceeded: integer contraction instead
                    out += stack_i.T @ flat
                self._commit_stats(local)
                return self._offset_correction(stacked, out)

        # Per-(job, slice) shift-and-add weights: ADC place value x input-bit
        # place value x plane sign — and per-(job, col) fragment signs.  All
        # digital recombination collapses into one integer contraction per
        # chunk, so no (bits, n_frag, positions, cols) accumulator is ever
        # materialized.
        bit_weight = (np.int64(1) << bits_idx.astype(np.int64))    # (n_jobs,)
        frag_signs = self._frag_signs()

        per_job = max(1, positions * cols * slices * n_planes
                      * self._job_memory_factor(m))
        chunk = max(1, self._kernel_budget() // per_job)
        chunks = [(start, min(start + chunk, n_jobs))
                  for start in range(0, n_jobs, chunk)]

        def run_chunk(bounds: Tuple[int, int], stats: EngineStats) -> np.ndarray:
            start, stop = bounds
            b = bits_idx[start:stop]
            f = frag_idx[start:stop]
            j = b.size
            bit_planes = planes[b, f]                      # (j, m, positions)
            slice_w = bit_weight[start:start + j, None] * self._place[None, :]
            col_w = frag_signs[f] if frag_signs is not None else None
            if n_planes > 1:
                # Dual scheme: positive and negative planes share one kernel
                # call, stacked along the jobs axis with opposite signs.
                slice_w = np.concatenate(
                    [sign * slice_w for _, sign in self._plane_terms])
                if col_w is not None:
                    col_w = np.concatenate([col_w] * n_planes)
            if ideal:
                # Integer kernel tier: each conversion is the integer dot
                # product, clipped at the rails exactly as the ADC rounds.
                codes = (self.mapped.code_planes[self._plane_terms[0][0]][f]
                         if n_planes == 1 else np.concatenate(
                             [self.mapped.code_planes[name][f]
                              for name, _ in self._plane_terms]))
                bits_in = (bit_planes if n_planes == 1
                           else np.concatenate([bit_planes] * n_planes))
                dots = np.einsum("jmp,jmcs->jpcs", bits_in, codes,
                                 optimize=True)
                digital = np.clip(dots, 0, self.adc.max_code)
                stats.conversions += dots.size
                stats.saturated += int(np.count_nonzero(digital != dots))
            else:
                drive = self.dac.convert(bit_planes)
                active = bit_planes.sum(axis=1, dtype=np.int64)
                cond = (self.conductance[self._plane_terms[0][0]][f]
                        if n_planes == 1 else np.concatenate(
                            [self.conductance[name][f]
                             for name, _ in self._plane_terms]))
                keys = None
                if digest is not None:
                    keys = [(digest, pi, int(bb), int(ff))
                            for pi in range(n_planes)
                            for bb, ff in zip(b, f)]
                if n_planes > 1:
                    drive = np.concatenate([drive] * n_planes)
                    active = np.concatenate([active] * n_planes)
                currents = self._job_currents(cond, drive, noise_keys=keys)
                held = self.sample_hold.hold(currents, copy=False)
                digital = self._convert_batch(held, active, stats)
            if col_w is None:
                return np.einsum("jpcs,js->pc", digital, slice_w)
            return np.einsum("jpcs,js,jc->pc", digital, slice_w, col_w,
                             optimize=_RECOMBINE_PATH)

        acc = np.zeros((positions, cols), dtype=np.int64)
        for partial, chunk_stats in self._fan_out(pool, run_chunk, chunks):
            acc += partial
            local.merge(chunk_stats)
        out += acc.T
        self._commit_stats(local)
        return self._offset_correction(stacked, out)

    # ------------------------------------------------------------------
    # Reference path (the original cycle-by-cycle loop)
    # ------------------------------------------------------------------
    def matvec_int_reference(self, x_int: np.ndarray) -> np.ndarray:
        """Cycle-by-cycle MVM: the original bit-serial loop, kept forever.

        Semantically identical to :meth:`matvec_int` (asserted across all
        schemes in ``tests/reram/test_engine_fused.py`` and
        ``tests/reram/test_engine_sparse.py``) but evaluates one bit-plane
        per Python iteration — the bit-exactness oracle and the baseline of
        ``benchmarks/run_perf_suite.py``.  With read noise it draws the
        same per-job substreams as the production path, so even noisy
        engines are bit-exact across paths.
        """
        stacked = self._prepare(x_int)
        positions = stacked.shape[-1]
        geometry = self.mapped.geometry
        local = EngineStats()
        digest = (self._input_digest(stacked)
                  if self._conversion_noise_active() else None)

        out = np.zeros((geometry.cols, positions), dtype=np.int64)
        for bit in range(self.activation_bits):
            remaining = stacked >> bit
            if not remaining.any():
                break  # zero-skipping: every shift register is empty
            bits_stack = remaining & 1
            local.cycles_fed += 1
            local.jobs_scheduled += stacked.shape[0] * len(self._plane_terms)
            local.pairs_scheduled += (stacked.shape[0] * positions
                                      * len(self._plane_terms))
            frag = np.zeros((stacked.shape[0], positions, geometry.cols),
                            dtype=np.int64)
            for plane_index, (plane, sign) in enumerate(self._plane_terms):
                frag += sign * self._plane_pass(plane, plane_index, bit,
                                                bits_stack, local, digest)
            if self.sign_indicator is not None:
                frag = self.sign_indicator.apply(np.transpose(frag, (0, 2, 1)))
                frag = np.transpose(frag, (0, 2, 1))
            out += (1 << bit) * frag.sum(axis=0).T          # (cols, positions)
        self._commit_stats(local)
        return self._offset_correction(stacked, out)

    def matvec_float(self, x_int: np.ndarray, weight_scale: float,
                     activation_scale: float) -> np.ndarray:
        """Dequantized MVM result in real units."""
        return self.matvec_int(x_int).astype(np.float64) * weight_scale * activation_scale


def build_engine(levels_matrix: np.ndarray, geometry: FragmentGeometry,
                 spec: QuantizationSpec, device: ReRAMDevice,
                 scheme: str = "forms", signs: Optional[np.ndarray] = None,
                 adc: Optional[ADCSpec] = None,
                 activation_bits: int = 16,
                 die_cache: Optional[DieCache] = None,
                 kernel_max_elements: Optional[int] = None) -> InSituLayerEngine:
    """Map integer levels and construct the engine in one step."""
    if scheme == "forms" and signs is None:
        from .mapping import infer_signs
        signs = infer_signs(levels_matrix, geometry)
    mapped = map_layer(levels_matrix, geometry, spec, scheme=scheme, signs=signs)
    return InSituLayerEngine(mapped, device, adc=adc,
                             activation_bits=activation_bits,
                             die_cache=die_cache,
                             kernel_max_elements=kernel_max_elements)


# ---------------------------------------------------------------------------
# Fast effective-weight path (network-scale variation studies, Table VI)
# ---------------------------------------------------------------------------

def effective_levels(mapped: MappedLayer, device: ReRAMDevice) -> np.ndarray:
    """Real-valued weight levels as realized by a noisy die.

    Equivalent to the bit-serial engine when ADC quantization is exact:
    variation multiplies each cell's level code, and shift-and-add recombines
    the noisy slices.  Note how the three schemes differ in noise coupling —
    the ISAAC offset plane carries the large bias through the same noisy
    cells (variation on the bias is *not* cancelled by the digital
    correction, which subtracts the ideal offset), while FORMS stores bare
    magnitudes.  This is the mechanism behind the robustness gap the paper
    cites ([29]).
    """
    spec = mapped.spec
    geometry = mapped.geometry
    place = slice_weights(next(iter(mapped.code_planes.values())).shape[-1], spec.cell_bits)

    def noisy_plane(codes: np.ndarray) -> np.ndarray:
        factors = device.variation_factors(codes.shape)
        return (codes * factors * place).sum(axis=-1)      # (n_frag, m, cols)

    if mapped.scheme == "forms":
        stack = noisy_plane(mapped.code_planes["main"])
        signed = stack * mapped.signs[:, None, :]
        return geometry.from_fragment_stack(signed)
    if mapped.scheme == "isaac_offset":
        stack = noisy_plane(mapped.code_planes["main"])
        pad_rows = geometry.padded_rows - geometry.rows
        corrected = stack - mapped.offset
        if pad_rows:  # padding rows were never biased
            corrected[-1, -pad_rows:, :] += mapped.offset
        return geometry.from_fragment_stack(corrected)
    # dual
    pos = noisy_plane(mapped.code_planes["positive"])
    neg = noisy_plane(mapped.code_planes["negative"])
    return geometry.from_fragment_stack(pos - neg)
