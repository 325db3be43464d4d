"""Crossbar non-idealities: IR drop, stuck-at faults, read noise.

The paper argues (Sec. I, II-C, IV-B) that fine-grained sub-arrays are "less
susceptible to non-idealities and noise than coarse-grained architectures".
This module makes that claim quantitative:

* **IR drop** — the word/bit lines have finite wire resistance, so cells far
  from the driver/sense amplifier see an attenuated voltage and the column
  current under-reports the ideal dot product.  Two solvers: an exact sparse
  nodal analysis of the resistive network (:func:`solve_ir_drop`) and a fast
  first-order estimate (:func:`first_order_currents`), validated against
  each other.

  A subtlety worth stating (it is asserted in the tests): in a *purely
  linear* network with inactive rows grounded, superposition makes the sum
  of per-fragment reads exactly equal to one all-rows read — granularity
  alone changes nothing.  The fine-grained advantage appears through the
  cell's *nonlinear I-V curve* (:class:`CellIV`): cells are calibrated at
  the nominal read voltage, and the conductance error grows superlinearly
  as IR drop pushes the operating point away from it.  Activating only a
  fragment (4-16 rows, FORMS) keeps wire currents, hence voltage droop,
  hence the nonlinear calibration error, far smaller than activating all
  128 rows at once (ISAAC).
* **Stuck-at faults** — fabrication defects freeze a cell at its lowest
  (SA0) or highest (SA1) conductance regardless of programming; modelled by
  :class:`FaultModel` and consumed by :mod:`repro.core.fault_tolerance`.
* **Read noise** — thermal/shot noise on the sensed current, modelled as
  additive Gaussian noise relative to the full-scale fragment current.

``ir_drop_study`` packages the headline experiment: relative MVM error as a
function of rows active per conversion (``bench_ablation_nonideality``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu


# ---------------------------------------------------------------------------
# Wire model and exact nodal solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WireModel:
    """Parasitic resistances of the crossbar wiring.

    ``r_wire_ohm`` is the resistance of one wire segment between adjacent
    cells (typical 1-5 Ohm for a 128-wide array at 32 nm); ``r_driver_ohm``
    and ``r_sense_ohm`` are the source/sink access resistances.
    """

    r_wire_ohm: float = 2.5
    r_driver_ohm: float = 1.0
    r_sense_ohm: float = 1.0

    def __post_init__(self):
        if self.r_wire_ohm < 0:
            raise ValueError("r_wire_ohm must be non-negative")
        if self.r_driver_ohm <= 0 or self.r_sense_ohm <= 0:
            raise ValueError("driver and sense resistances must be positive")


@dataclass(frozen=True)
class CellIV:
    """Nonlinear cell I-V curve, calibrated at the nominal read voltage.

    Real ReRAM cells conduct superlinearly in voltage (trap-assisted
    tunnelling gives a roughly sinh-shaped I-V [61]); programming calibrates
    the *chord* conductance at the nominal read voltage, so

        I(dv) = g * v_read * sinh(k * dv / v_read) / sinh(k)

    which satisfies ``I(v_read) = g * v_read`` exactly and loses current
    superlinearly as IR drop pulls ``dv`` below ``v_read``.  ``nonlinearity``
    (k) of 0 recovers the linear cell; 2-3 is typical for HfOx ReRAM.
    """

    nonlinearity: float = 2.0
    v_read: float = 0.3

    def __post_init__(self):
        if self.nonlinearity < 0:
            raise ValueError("nonlinearity must be non-negative")
        if self.v_read <= 0:
            raise ValueError("v_read must be positive")

    @property
    def is_linear(self) -> bool:
        return self.nonlinearity == 0.0

    def current(self, g: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Cell current at chord conductance ``g`` and applied voltage ``dv``."""
        g = np.asarray(g, dtype=np.float64)
        dv = np.asarray(dv, dtype=np.float64)
        if self.is_linear:
            return g * dv
        k = self.nonlinearity
        ratio = np.sinh(k * (dv / self.v_read)) / np.sinh(k)
        return g * self.v_read * ratio

    def effective_conductance(self, g: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Secant conductance ``I(dv)/dv`` with a finite ``dv -> 0`` limit."""
        g = np.asarray(g, dtype=np.float64)
        dv = np.asarray(dv, dtype=np.float64)
        if self.is_linear:
            return np.broadcast_to(g, np.broadcast(g, dv).shape).copy()
        k = self.nonlinearity
        limit = g * k / np.sinh(k)
        with np.errstate(invalid="ignore", divide="ignore"):
            secant = self.current(g, dv) / dv
        return np.where(np.abs(dv) < 1e-12 * self.v_read, limit, secant)


#: a linear cell (superposition holds exactly; see the module docstring)
LINEAR_CELL = CellIV(nonlinearity=0.0)


def ideal_currents(conductance: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    """Parasitic-free column currents ``I_j = sum_i v_i g_ij``.

    ``v_in`` is ``(rows,)`` or ``(rows, batch)``; returns ``(cols,)`` or
    ``(cols, batch)``.
    """
    conductance = np.asarray(conductance, dtype=np.float64)
    v_in = np.asarray(v_in, dtype=np.float64)
    return np.tensordot(conductance, v_in, axes=([0], [0]))


class _CrossbarNetwork:
    """Reusable nodal-analysis scaffolding for one crossbar geometry.

    The wire/driver/sense stamps are constant across nonlinear iterations;
    only the 2RC cell stamps change, so they are kept separate and the
    matrix is re-assembled cheaply per iteration.
    """

    def __init__(self, rows: int, cols: int, wire: WireModel):
        self.rows, self.cols, self.wire = rows, cols, wire
        n = 2 * rows * cols
        self.n_nodes = n
        g_wire = 1.0 / wire.r_wire_ohm
        g_drv = 1.0 / wire.r_driver_ohm
        self.g_sns = 1.0 / wire.r_sense_ohm
        self.g_drv = g_drv

        ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        self.rnodes = (ii * cols + jj).ravel()
        self.cnodes = (rows * cols + ii * cols + jj).ravel()
        self.foot = rows * cols + (rows - 1) * cols + np.arange(cols)
        self.heads = np.arange(rows) * cols

        rows_idx: List[np.ndarray] = []
        cols_idx: List[np.ndarray] = []
        data: List[np.ndarray] = []

        def stamp_pairs(a: np.ndarray, b: np.ndarray, g: float) -> None:
            rows_idx.extend((a, b, a, b))
            cols_idx.extend((b, a, a, b))
            data.extend((np.full(a.shape, -g), np.full(a.shape, -g),
                         np.full(a.shape, g), np.full(a.shape, g)))

        horiz_a = (ii[:, :-1] * cols + jj[:, :-1]).ravel()
        stamp_pairs(horiz_a, horiz_a + 1, g_wire)
        vert_a = (rows * cols + ii[:-1, :] * cols + jj[:-1, :]).ravel()
        stamp_pairs(vert_a, vert_a + cols, g_wire)
        rows_idx.append(self.heads)
        cols_idx.append(self.heads)
        data.append(np.full(rows, g_drv))
        rows_idx.append(self.foot)
        cols_idx.append(self.foot)
        data.append(np.full(cols, self.g_sns))

        self._wire_rows = np.concatenate(rows_idx)
        self._wire_cols = np.concatenate(cols_idx)
        self._wire_data = np.concatenate(data)

    def solve(self, g_cells: np.ndarray, v_mat: np.ndarray) -> np.ndarray:
        """Node voltages for per-cell conductances and driver voltages."""
        flat = g_cells.ravel()
        rows_idx = np.concatenate([self._wire_rows, self.rnodes, self.cnodes,
                                   self.rnodes, self.cnodes])
        cols_idx = np.concatenate([self._wire_cols, self.cnodes, self.rnodes,
                                   self.rnodes, self.cnodes])
        data = np.concatenate([self._wire_data, -flat, -flat, flat, flat])
        matrix = coo_matrix((data, (rows_idx, cols_idx)),
                            shape=(self.n_nodes, self.n_nodes)).tocsc()
        b = np.zeros((self.n_nodes, v_mat.shape[1]))
        b[self.heads] = self.g_drv * v_mat
        return splu(matrix).solve(b)

    def cell_voltages(self, x: np.ndarray) -> np.ndarray:
        """Per-cell voltage drop (rows, cols, batch) from node voltages."""
        dv = x[self.rnodes] - x[self.cnodes]
        return dv.reshape(self.rows, self.cols, -1)

    def foot_currents(self, x: np.ndarray) -> np.ndarray:
        return x[self.foot] * self.g_sns


def solve_ir_drop(conductance: np.ndarray, v_in: np.ndarray,
                  wire: WireModel = WireModel(),
                  cell_iv: Optional[CellIV] = None,
                  max_iterations: int = 40, tolerance: float = 1e-10) -> np.ndarray:
    """Exact column currents of a crossbar with wire parasitics.

    Nodal analysis of the full resistive network: every cell (i, j) is a
    conductance between word-line node (i, j) and bit-line node (i, j);
    adjacent nodes on the same wire are linked by ``1/r_wire``; row drivers
    connect at column 0 through ``1/r_driver``; sense amplifiers (virtual
    ground) connect at the bottom row through ``1/r_sense``.

    With a nonlinear ``cell_iv``, the network is solved by secant fixed-point
    iteration: each pass replaces every cell by its secant conductance
    ``I(dv)/dv`` at the previous pass's operating point and re-solves, until
    the sensed currents converge to ``tolerance`` (relative).

    ``v_in`` has shape ``(rows,)`` or ``(rows, batch)``; returns ``(cols,)``
    or ``(cols, batch)`` currents flowing into the sense amplifiers.
    """
    conductance = np.asarray(conductance, dtype=np.float64)
    if conductance.ndim != 2:
        raise ValueError("conductance must be 2-D (rows, cols)")
    rows, cols = conductance.shape
    v_in = np.asarray(v_in, dtype=np.float64)
    squeeze = v_in.ndim == 1
    v_mat = v_in.reshape(rows, -1)
    if v_mat.shape[0] != rows:
        raise ValueError(f"v_in rows {v_mat.shape[0]} != crossbar rows {rows}")

    if wire.r_wire_ohm == 0.0 and (cell_iv is None or cell_iv.is_linear):
        # Degenerate: no wire resistance and linear cells — analytically ideal
        # up to the (negligible by construction) access resistances.
        out = ideal_currents(conductance, v_mat)
        return out[:, 0] if squeeze else out

    network = _CrossbarNetwork(rows, cols, wire if wire.r_wire_ohm > 0
                               else WireModel(r_wire_ohm=1e-9,
                                              r_driver_ohm=wire.r_driver_ohm,
                                              r_sense_ohm=wire.r_sense_ohm))
    x = network.solve(conductance, v_mat)
    currents = network.foot_currents(x)
    if cell_iv is None or cell_iv.is_linear:
        return currents[:, 0] if squeeze else currents

    for _ in range(max_iterations):
        dv = network.cell_voltages(x)
        # One secant conductance per cell: batches share the matrix only when
        # batch = 1; otherwise solve per batch column.
        new_x = np.empty_like(x)
        for k in range(v_mat.shape[1]):
            g_eff = cell_iv.effective_conductance(conductance, dv[:, :, k])
            new_x[:, k:k + 1] = network.solve(g_eff, v_mat[:, k:k + 1])
        new_currents = network.foot_currents(new_x)
        scale = np.maximum(np.abs(new_currents).max(), 1e-30)
        converged = np.abs(new_currents - currents).max() <= tolerance * scale
        x, currents = new_x, new_currents
        if converged:
            break
    return currents[:, 0] if squeeze else currents


def first_order_currents(conductance: np.ndarray, v_in: np.ndarray,
                         wire: WireModel = WireModel(),
                         cell_iv: Optional[CellIV] = None) -> np.ndarray:
    """First-order IR-drop estimate (one perturbation pass, no linear solve).

    Charges each wire segment with the current the ideal cells would push
    through it, accumulates the resulting voltage drops along the word line
    (driver to cell) and bit line (cell to sense amplifier), and
    re-evaluates the cell currents at the degraded voltages — through the
    nonlinear I-V curve when ``cell_iv`` is given.  Accurate to a few
    percent for realistic wire resistances (validated against
    :func:`solve_ir_drop` in the tests).

    The model is linear in the drive up to the cell curve, so it splits
    into a position-independent operator per fragment and a sweep over the
    drive:

    * the word-line drop at cell (i, c) is ``v[i] * Rrow[i, c]`` with
      ``Rrow[i, c] = r_driver * G[i, 0] + r_wire * sum_{0 < c' <= c}
      G[i, c']``, where ``G[i, c]`` sums the row's conductances from
      column c on — the conductance alone fixes it;
    * the bit-line lift is ``sum_q g[q, c] w(i, q) v[q]`` with
      ``w(i, q) = r_sense + r_wire * (m - 1 - max(i, q))``: it starts
      at ``sum_q g[q] w(q, q) v[q]`` on row 0 and falls by ``r_wire``
      times the column's running current from each row to the next.

    Both are evaluated in one sweep over the ``m`` rows on ``(jobs, cols,
    batch)`` tensors, accumulating in a fixed row order through elementwise
    operations only, so every output element's arithmetic is independent
    of how many fragments or drive patterns share the call (the engine's
    bit-exactness contract across job packing relies on this; a BLAS
    contraction over the rows would break it).  Cost is
    O(jobs x rows x cols x batch).

    Batched evaluation: ``conductance`` may carry arbitrary leading axes
    ``(..., rows, cols)`` — one independent crossbar (fragment) per leading
    index — with ``v_in`` shaped ``(..., rows)`` or ``(..., rows, batch)``.
    Returns ``(..., cols)`` or ``(..., cols, batch)``.
    """
    conductance = np.asarray(conductance, dtype=np.float64)
    v_in = np.asarray(v_in, dtype=np.float64)
    if conductance.ndim < 2:
        raise ValueError("conductance must be at least 2-D (..., rows, cols)")
    lead = conductance.shape[:-2]
    rows, cols = conductance.shape[-2:]
    squeeze = v_in.ndim == conductance.ndim - 1
    v = v_in[..., None] if squeeze else v_in
    if v.shape[:-1] != conductance.shape[:-1]:
        raise ValueError(f"v_in shape {v_in.shape} incompatible with "
                         f"conductance shape {conductance.shape}")
    batch = v.shape[-1]

    # Per-fragment operators, row-major (rows, jobs, cols, 1) so each sweep
    # step reads one contiguous slice; the drive broadcasts as (rows, jobs,
    # 1, batch).  On a nonlinear cell, voltages are swept in units of
    # v_read / k, so the cell curve is I = g v_read / sinh(k) * sinh(dv).
    g = np.ascontiguousarray(np.moveaxis(
        conductance.reshape((-1, rows, cols)), 1, 0))
    drive = np.moveaxis(v.reshape((-1, rows, batch)), 1, 0)[:, :, None, :]
    nonlinear = cell_iv is not None and not cell_iv.is_linear
    scale = cell_iv.nonlinearity / cell_iv.v_read if nonlinear else 1.0
    tail = np.cumsum(g[..., ::-1], axis=-1)[..., ::-1]
    r_row = wire.r_driver_ohm * tail[..., :1] + np.concatenate(
        [np.zeros_like(tail[..., :1]),
         wire.r_wire_ohm * np.cumsum(tail[..., 1:], axis=-1)], axis=-1)
    keep = (scale * (1.0 - r_row))[..., None]
    diag_w = wire.r_sense_ohm + wire.r_wire_ohm * (rows - 1 - np.arange(rows))
    lift_w = ((scale * diag_w)[:, None, None] * g)[..., None]
    step_w = (scale * wire.r_wire_ohm * g)[..., None]
    gain = (g * (cell_iv.v_read / np.sinh(cell_iv.nonlinearity))
            if nonlinear else g)[..., None]

    shape = (g.shape[1], cols, batch)
    tmp = np.empty(shape)
    # Bit-line lift of row 0: sum_q g[q] w(q, q) v[q].
    lift = np.multiply(lift_w[0], drive[0], out=np.empty(shape))
    for q in range(1, rows):
        np.multiply(lift_w[q], drive[q], out=tmp)
        lift += tmp
    running = np.zeros(shape) if wire.r_wire_ohm and rows > 1 else None
    out = np.zeros(shape)
    for i in range(rows):
        # (scaled) cell voltage v[i] (1 - Rrow[i]) - lift[i], through the curve
        np.multiply(keep[i], drive[i], out=tmp)
        tmp -= lift
        if nonlinear:
            np.sinh(tmp, out=tmp)
        tmp *= gain[i]
        out += tmp
        if running is not None and i < rows - 1:
            # lift[i + 1] = lift[i] - r_wire * (column current of rows <= i)
            np.multiply(step_w[i], drive[i], out=tmp)
            running += tmp
            lift -= running
    out = out.reshape(lead + (cols, batch))
    return out[..., 0] if squeeze else out


# ---------------------------------------------------------------------------
# IR-drop study (fine vs coarse granularity)
# ---------------------------------------------------------------------------

@dataclass
class IRDropPoint:
    """Relative MVM error at one activation granularity."""

    active_rows: int
    relative_error: float
    ideal_current_a: float
    actual_current_a: float


def ir_drop_study(rows: int = 128, cols: int = 8,
                  active_row_options: Optional[List[int]] = None,
                  wire: WireModel = WireModel(),
                  cell_iv: Optional[CellIV] = CellIV(),
                  g_min: float = 1e-7, g_max: float = 1e-5,
                  read_voltage: float = 0.3, seed: int = 0,
                  solver: str = "exact") -> List[IRDropPoint]:
    """Relative column-current error versus rows active per conversion.

    Models the FORMS-vs-ISAAC comparison directly: the same physical
    ``rows x cols`` crossbar is read either a fragment at a time (only the
    fragment's rows driven, FORMS) or all rows at once (ISAAC).  For each
    granularity the *total* dot product is assembled from the per-group
    reads, so the comparison is error-per-result, not error-per-read.

    With the default (nonlinear) ``cell_iv`` the error shrinks with the
    activation granularity — the paper's robustness claim.  Pass
    ``cell_iv=LINEAR_CELL`` (or ``None``) to demonstrate the superposition
    counterpoint: with linear cells the summed group reads equal the coarse
    read *exactly* and granularity is irrelevant.
    """
    if active_row_options is None:
        active_row_options = [4, 8, 16, 32, 64, 128]
    if any(rows % m for m in active_row_options):
        raise ValueError("every active-row option must divide the row count")
    if solver not in ("exact", "first_order"):
        raise ValueError("solver must be 'exact' or 'first_order'")
    solve = solve_ir_drop if solver == "exact" else first_order_currents

    rng = np.random.default_rng(seed)
    conductance = rng.uniform(g_min, g_max, size=(rows, cols))
    points = []
    for m in active_row_options:
        groups = rows // m
        total_ideal = np.zeros(cols)
        total_actual = np.zeros(cols)
        for g in range(groups):
            v = np.zeros(rows)
            v[g * m:(g + 1) * m] = read_voltage
            total_ideal += ideal_currents(conductance, v)
            total_actual += solve(conductance, v, wire, cell_iv=cell_iv)
        error = float(np.mean(np.abs(total_actual - total_ideal) / total_ideal))
        points.append(IRDropPoint(
            active_rows=m,
            relative_error=error,
            ideal_current_a=float(total_ideal.mean()),
            actual_current_a=float(total_actual.mean()),
        ))
    return points


def fragment_read_error(rows: int, fragment_size: int = 8, cols: int = 8,
                        wire: WireModel = WireModel(),
                        cell_iv: Optional[CellIV] = CellIV(),
                        g_min: float = 1e-7, g_max: float = 1e-5,
                        read_voltage: float = 0.3, seed: int = 0) -> float:
    """Mean relative error of a single fragment read vs the column length.

    FORMS activates one fragment at a time, but its current still traverses
    the *whole* physical bit line to the sense amplifier — so taller
    crossbars degrade even fine-grained reads.  Averages the per-read error
    over every fragment position using the first-order solver; this is the
    analog-feasibility signal of the crossbar-size design-space sweep.
    """
    if rows % fragment_size:
        raise ValueError("fragment_size must divide the row count")
    rng = np.random.default_rng(seed)
    conductance = rng.uniform(g_min, g_max, size=(rows, cols))
    errors = []
    for group in range(rows // fragment_size):
        v = np.zeros(rows)
        v[group * fragment_size:(group + 1) * fragment_size] = read_voltage
        ideal = ideal_currents(conductance, v)
        actual = first_order_currents(conductance, v, wire, cell_iv=cell_iv)
        errors.append(float(np.mean(np.abs(actual - ideal) / ideal)))
    return float(np.mean(errors))


# ---------------------------------------------------------------------------
# Stuck-at faults
# ---------------------------------------------------------------------------

#: fault-mask encoding
FAULT_NONE, FAULT_SA0, FAULT_SA1 = 0, 1, 2


@dataclass
class FaultModel:
    """Random stuck-at fault injector.

    ``sa0_rate`` / ``sa1_rate`` are independent per-cell probabilities of a
    cell being stuck at the lowest / highest conductance level.  Rates of
    0.1-1% are typical for ReRAM yield studies.
    """

    sa0_rate: float = 0.005
    sa1_rate: float = 0.0005
    seed: Optional[int] = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.sa0_rate <= 1 or not 0 <= self.sa1_rate <= 1:
            raise ValueError("fault rates must lie in [0, 1]")
        if self.sa0_rate + self.sa1_rate > 1:
            raise ValueError("combined fault rate cannot exceed 1")
        self._rng = np.random.default_rng(self.seed)

    def sample(self, shape) -> np.ndarray:
        """Draw a fault mask: 0 = healthy, 1 = SA0, 2 = SA1."""
        u = self._rng.random(shape)
        mask = np.full(shape, FAULT_NONE, dtype=np.int8)
        mask[u < self.sa0_rate] = FAULT_SA0
        mask[(u >= self.sa0_rate) & (u < self.sa0_rate + self.sa1_rate)] = FAULT_SA1
        return mask

    @staticmethod
    def apply_to_codes(codes: np.ndarray, mask: np.ndarray,
                       levels: int) -> np.ndarray:
        """Force faulty cells to their stuck level."""
        codes = np.asarray(codes)
        if codes.shape != mask.shape:
            raise ValueError("codes and fault mask shapes must match")
        out = codes.copy()
        out[mask == FAULT_SA0] = 0
        out[mask == FAULT_SA1] = levels - 1
        return out


# ---------------------------------------------------------------------------
# Read noise
# ---------------------------------------------------------------------------

@dataclass
class ReadNoise:
    """Additive Gaussian current noise at the sense amplifier.

    ``relative_sigma`` scales the noise to the full-scale fragment current
    (``m`` cells at ``g_max`` driven at the read voltage), matching how ADC
    input-referred noise is specified [32].

    Two draw disciplines coexist:

    * :meth:`apply` consumes a sequential stream — the draw depends on call
      history (a fresh physical read every time);
    * :meth:`apply_jobs` draws each kernel job from a *substream* keyed by
      the job's identity (activation-block content hash, plane, bit-plane,
      fragment).  The draw is then a pure function of (noise seed, input,
      job), independent of chunk packing, evaluation order and worker
      count — the property that makes noisy engine results bit-identical
      across the fused kernel, the reference loop and any
      ``repro.runtime`` worker configuration.  The trade-off is that
      re-running the *same* input block repeats the same noise; treat the
      seed as selecting one noise realization per distinct input.

    An unseeded model draws a fresh base seed at construction, so
    substreams stay deterministic *within* one instance but differ across
    instances — matching the unseeded contract of the sequential stream.
    """

    relative_sigma: float = 0.005
    full_scale_a: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.relative_sigma < 0:
            raise ValueError("relative_sigma must be non-negative")
        if self.full_scale_a <= 0:
            raise ValueError("full_scale_a must be positive")
        self._rng = np.random.default_rng(self.seed)
        if self.seed is not None:
            self._base_seed = int(self.seed)
        else:
            self._base_seed = int(np.random.SeedSequence().entropy) % (1 << 63)

    @classmethod
    def for_fragment(cls, fragment_size: int, g_max: float,
                     read_voltage: float, relative_sigma: float = 0.005,
                     seed: Optional[int] = None) -> "ReadNoise":
        return cls(relative_sigma=relative_sigma,
                   full_scale_a=fragment_size * g_max * read_voltage,
                   seed=seed)

    def apply(self, currents: np.ndarray) -> np.ndarray:
        if self.relative_sigma == 0.0:
            return np.asarray(currents, dtype=np.float64)
        sigma = self.relative_sigma * self.full_scale_a
        noise = self._rng.normal(0.0, sigma, size=np.shape(currents))
        return np.asarray(currents, dtype=np.float64) + noise

    def substream(self, key) -> np.random.Generator:
        """Deterministic generator for one job key (non-negative ints)."""
        return np.random.default_rng(
            np.random.SeedSequence([self._base_seed, *map(int, key)]))

    def apply_jobs(self, currents: np.ndarray, keys) -> np.ndarray:
        """Per-job keyed noise on a ``(jobs, ...)`` current batch.

        ``keys`` carries one identity tuple per job along the leading axis;
        each job's noise comes from its own substream, so the result does
        not depend on how jobs were packed into this batch.
        """
        out = np.asarray(currents, dtype=np.float64).copy()
        if self.relative_sigma == 0.0:
            return out
        if len(keys) != out.shape[0]:
            raise ValueError(f"{len(keys)} keys for {out.shape[0]} jobs")
        sigma = self.relative_sigma * self.full_scale_a
        for j, key in enumerate(keys):
            out[j] += self.substream(key).normal(0.0, sigma,
                                                 size=out[j].shape)
        return out

    def snr_db(self, signal_rms_a: float) -> float:
        """Signal-to-noise ratio of a given RMS signal current."""
        if signal_rms_a <= 0:
            raise ValueError("signal_rms_a must be positive")
        sigma = self.relative_sigma * self.full_scale_a
        if sigma == 0:
            return float("inf")
        return 20.0 * float(np.log10(signal_rms_a / sigma))
