"""Driven steady-state photon statistics: g2(0) and mode population.

The right CCW mode is driven coherently (the left one receives the
mirror-mediated feed), the left mode's statistics are read out; both
choices are configurable.  All quantities come from the steady state of the
driven generator, built once in the cavity frame and shifted to the drive
frequency, a CSR matrix whose reverse-Cuthill-McKee-ordered,
trace-completed form is solved in the basis `solve_layout` picks: by one
banded LU for a single point, and for a detuning sweep by one banded LU
for all its points, through a Krylov basis shared by every shift.  Each
solve returns its state with its residual, which every result carries.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import master
from .errors import StatisticsUndefinedError, each_point
from .hilbert import SpaceLayout, cavity_ops
from .params import DriveSpec, ModelParams

MIN_FOCK_CUTOFF = 4


@dataclass(frozen=True)
class BlockadeResult:
    """Second-order correlation and population at one drive detuning."""

    detuning: float   # omega_drive - omega_c
    g2: float
    n_L: float
    residual: float = np.nan   # |L vec(rho)| of the steady-state solve


@dataclass
class BlockadeSweep:
    """Per-detuning results plus interpolated extrema of the scan."""

    results: list[BlockadeResult]
    min_g2: float
    min_g2_detuning: float
    max_n_L: float
    max_n_L_detuning: float
    errors: list[list] = field(default_factory=list)   # [detuning, "TypeName: message"]
    krylov_dim: int = 0              # size of the shared Krylov basis
    base_detuning: float = np.nan    # the detuning of the sweep's one banded LU


def solve_layout(layout: SpaceLayout) -> SpaceLayout:
    """The basis g2_zero and g2_sweep solve in: the caller's layout, capped at
    K = fock_cutoff total excitations when it carries no cap of its own.

    The drive is the only term that raises the excitation number N, and a
    weak drive populates N = n with weight ~ (Omega/kappa)^(2n).  The Fock
    box at cutoff c already drops the single-mode states |c>; the cap drops
    only the box states with N >= c + 1, a factor ~(Omega/kappa)^2 below
    those, and shrinks the factored system (dim 32 -> 23 for one qubit at
    cutoff 4, 50 -> 34 at cutoff 5).  Resonances can enlarge that factor:
    the cap's own error, measured against the box's |box(c) - box(c + 1)|,
    falls as Omega^2 but reached 3.3 times it at Omega <= 0.1 kappa.
    """
    if layout.max_excitations is not None:
        return layout
    return replace(layout, max_excitations=layout.fock_cutoff)


def _measure_ops(layout: SpaceLayout, measure: str) -> tuple[np.ndarray, np.ndarray]:
    """n = c+c and c+c+cc of the measured mode c."""
    c_l, c_r = cavity_ops(layout)
    c_m = c_l if measure == "cavity_L" else c_r
    return c_m.conj().T @ c_m, c_m.conj().T @ c_m.conj().T @ c_m @ c_m


def _check_preconditions(params: ModelParams, drive: DriveSpec, layout: SpaceLayout):
    if layout.fock_cutoff < MIN_FOCK_CUTOFF:
        raise ValueError(f"photon statistics need fock_cutoff >= {MIN_FOCK_CUTOFF}")
    if layout.max_excitations is not None and layout.max_excitations < MIN_FOCK_CUTOFF - 1:
        raise ValueError(
            f"photon statistics need max_excitations >= {MIN_FOCK_CUTOFF - 1}")
    if params.kappa > 0 and drive.amplitude > 0.1 * params.kappa:
        warnings.warn(
            f"drive amplitude {drive.amplitude:g} exceeds 0.1*kappa; weak-drive "
            "assumptions and the Fock truncation may fail", stacklevel=4)


def _statistics(rho: master.DensityMatrix, residual: float, n_op: np.ndarray,
                pair_op: np.ndarray, detuning: float) -> BlockadeResult:
    n_val = rho.expect(n_op).real
    if n_val < 1e-12:
        raise StatisticsUndefinedError(
            f"measured-mode population {n_val:.3e} too small for g2")
    g2_num = rho.expect(pair_op).real
    return BlockadeResult(detuning=float(detuning), g2=float(g2_num / n_val**2),
                          n_L=float(n_val), residual=residual)


def _solver(params: ModelParams, drive: DriveSpec, layout: SpaceLayout, measure: str):
    """One build of L in the cavity frame, its SteadyStateSolver (each detuning
    det = omega_d - omega_c a shift of its diagonal) and the measured mode's operators."""
    _check_preconditions(params, drive, layout)
    layout = solve_layout(layout)
    solve = master.SteadyStateSolver(
        master.build_liouvillian(params, layout, drive=drive, frame=params.omega_c))
    return solve, _measure_ops(layout, measure)


def g2_zero(params: ModelParams, drive: DriveSpec, layout: SpaceLayout,
            measure: str = "cavity_L") -> BlockadeResult:
    """Steady-state g2(0) = <c+c+cc>/<c+c>^2 of the measured mode, from one banded LU."""
    solve, ops = _solver(params, drive, layout, measure)
    det = drive.omega_drive - params.omega_c
    return _statistics(*solve(det), *ops, det)


def g2_sweep(params: ModelParams, drive: DriveSpec, detuning_grid,
             layout: SpaceLayout, measure: str = "cavity_L") -> BlockadeSweep:
    """g2(0) and n_L over a grid of drive detunings omega_d - omega_c.

    drive.omega_drive is not read: the grid gives the detunings.  The
    generator is affine in the drive frequency (the frame rotation shifts
    its diagonal by the excitation-number difference), so the sweep builds
    L once in the cavity frame, orders the steady-state system once, and
    solves every detuning from one banded LU at a base detuning near the
    grid's middle by SteadyStateSolver.sweep's shared Krylov basis.  Each
    point's state comes with its own residual; one that misses the bound
    is solved by its own banded LU, as g2_zero solves it.  A non-finite
    detuning fails unsolved, with the ValueError g2_zero's drive raises.  A
    point that fails by errors.each_point's policy is recorded in `errors`
    with NaN results and the sweep continues.  `krylov_dim` and
    `base_detuning` are the basis size and base detuning the sweep returns
    (0 and NaN when no basis was built).
    """
    detuning_grid = np.asarray(detuning_grid, dtype=float)
    solve, ops = _solver(params, drive, layout, measure)
    state, krylov_dim, base_detuning = solve.sweep(detuning_grid)

    def point(det: float) -> BlockadeResult:
        if not np.isfinite(det):   # as DriveSpec rejects omega_drive = omega_c + det
            raise ValueError(f"omega_drive must be finite, got {det}")
        return _statistics(*state(det), *ops, det)

    rows, errors = each_point(detuning_grid, point)
    results = [BlockadeResult(detuning=float(det), g2=np.nan, n_L=np.nan) if r is None else r
               for det, r in zip(detuning_grid, rows)]

    g2_vals = np.array([r.g2 for r in results])
    nl_vals = np.array([r.n_L for r in results])
    min_det, min_g2 = _interp_extremum(detuning_grid, g2_vals, kind="min")
    max_det, max_nl = _interp_extremum(detuning_grid, nl_vals, kind="max")
    return BlockadeSweep(results=results, min_g2=min_g2, min_g2_detuning=min_det,
                         max_n_L=max_nl, max_n_L_detuning=max_det, errors=errors,
                         krylov_dim=krylov_dim, base_detuning=base_detuning)


def _interp_extremum(x: np.ndarray, y: np.ndarray, kind: str) -> tuple[float, float]:
    from .numerics import quadratic_extremum

    finite = np.isfinite(y)
    if not finite.any():
        return np.nan, np.nan
    yy = np.where(finite, y, np.inf if kind == "min" else -np.inf)
    i = int(np.argmin(yy) if kind == "min" else np.argmax(yy))
    if 0 < i < len(x) - 1 and finite[i - 1] and finite[i + 1]:
        return quadratic_extremum(x, y, i)
    return float(x[i]), float(y[i])
