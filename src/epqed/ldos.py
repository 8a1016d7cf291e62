"""Spectral density of the chiral-EP cavity and the Purcell workflow.

The cavity response seen by the emitter splits into a linear Lorentzian
term (two degenerate modes) and a square-Lorentzian term produced by the
unidirectional mode coupling; the latter carries the phase difference
delta_phi and the mirror reflectivity |r|.  The quantum regression theorem
on the cavity's master equation provides an independent numerical oracle
for the same quantity: the photonic correlator's one-sided Fourier transform
is exactly -Tr{B (L + i Delta)^-1 X}, solved on the one-photon-to-vacuum block
of the Liouvillian L that holds the source X.  A Lorentzian fit extracts
(omega_c, kappa, g) from sampled reference-cavity data: 1/J_DP is a quadratic
in omega, so a weighted linear fit of 1/J near the peak gives the start, and
Gauss-Newton with the model's exact derivatives refines it.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import master
from .errors import DivergenceError, FitError, UndefinedPurcellError
from .hilbert import SpaceLayout, cavity_ops, product_ket
from .params import ModelParams

FIT_MAX_ITER = 200  # Gauss-Newton iterations before a fit counts as unconverged


@dataclass(frozen=True)
class SpectrumSeries:
    """Sampled real-valued spectrum on a strictly ascending frequency grid."""

    omega: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float)
        v = np.asarray(self.value, dtype=float)
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "value", v)
        if w.ndim != 1 or w.shape != v.shape:
            raise ValueError("omega and value must be 1-d arrays of equal length")
        if not np.all(np.diff(w) > 0):   # NaN fails it too
            raise ValueError("frequency samples must be strictly ascending")

    def __len__(self):
        return len(self.omega)


@dataclass(frozen=True)
class FitResult:
    """Extracted Lorentzian parameters and fit quality."""

    omega_c: float
    kappa: float
    g: float
    rms_residual: float
    converged: bool = True

    def as_dict(self) -> dict:
        return {"omega_c": self.omega_c, "kappa": self.kappa, "g": self.g,
                "rms_residual": self.rms_residual, "converged": self.converged}


# ---------------------------------------------------------------------------
# analytic response
# ---------------------------------------------------------------------------

def chi_dp(omega, params: ModelParams):
    """Linear Lorentzian response of the two degenerate modes."""
    d = (np.asarray(omega, dtype=float) - params.omega_c) + 0.5j * params.kappa
    return (1.0 / np.pi) * 2.0 / d


def chi_ep(omega, params: ModelParams):
    """Square-Lorentzian response from the unidirectional mode coupling."""
    d = (np.asarray(omega, dtype=float) - params.omega_c) + 0.5j * params.kappa
    return (1.0 / np.pi) * (-1j * params.kappa * params.r_abs
                            * np.exp(1j * params.delta_phi)) / d**2


def spectral_density(omega, params: ModelParams):
    """J(omega) = -g^2 Im[chi_dp + chi_ep]."""
    return -params.g**2 * np.imag(chi_dp(omega, params) + chi_ep(omega, params))


def purcell_factor(omega, params: ModelParams):
    """Normalized LDOS J(omega)/J0 + 1 with J0 = gamma/(2 pi)."""
    if params.gamma <= 0:
        raise UndefinedPurcellError("Purcell factor needs gamma > 0")
    j0 = params.gamma / (2.0 * np.pi)
    return spectral_density(omega, params) / j0 + 1.0


def transparency_detuning(delta_phi: float, kappa: float) -> float:
    """Detuning of the J = 0 point for |r| = 1: -(kappa/2) tan(delta_phi/2)."""
    if abs(np.cos(delta_phi / 2.0)) < 1e-12:
        raise DivergenceError("no finite transparency point at delta_phi = pi")
    return -(kappa / 2.0) * np.tan(delta_phi / 2.0)


def enhancement_eta(delta_phi: float, r_abs: float, params: ModelParams) -> float:
    """On-resonance enhancement J(omega_c)/J_DP(omega_c), evaluated from the
    susceptibilities (closed form: 1 - |r| cos(delta_phi))."""
    p = params.replace(phi_prop=float(delta_phi), phi_azim=0.0, r_abs=float(r_abs))
    j_dp = -p.g**2 * np.imag(chi_dp(p.omega_c, p))
    j_ep = -p.g**2 * np.imag(chi_ep(p.omega_c, p))
    return float(j_ep / j_dp + 1.0)


# ---------------------------------------------------------------------------
# quantum-regression oracle
# ---------------------------------------------------------------------------

def numerical_spectral_density(params: ModelParams, layout: SpaceLayout,
                               omega_grid) -> SpectrumSeries:
    """J(omega) from the photonic two-time correlator (cavity-only dynamics).

    The emitter couples to B = c_L + e^{-2i phi_azim} c_R, so by linearity
    the four correlators <c_i^dag(0) c_j(tau)> sum to one,
    C(tau) = Tr{B exp(L tau) X} with X = rho_L c_L^dag + e^{2i phi_azim} rho_R c_R^dag,
    under the quantum regression theorem and the cavity-only generator
    (single-photon normalization <c_i^dag(0) c_i(0)> = 1).  Its one-sided
    transform is exact: int_0^inf e^{i Delta tau} C(tau) dtau =
    -Tr{B (L + i Delta)^-1 X}, Delta = omega - omega_c, and J is g^2/pi times
    its real part.  L + i Delta itself is singular at Delta = 0 (the steady
    state), but X lies wholly in the sector N(i) = 1, N(j) = 0 of vec(rho)
    (two states at any cutoff), which the undriven L maps into itself (its
    jumps lower N(i) and N(j) together) and whose block decays for
    kappa > 0, so one batched solve on that block serves every omega.
    """
    if layout.n_qubits != 0:
        raise ValueError("numerical spectral density needs a cavity-only layout")
    if params.kappa <= 0:
        raise ValueError("kappa must be positive")
    lv = master.build_liouvillian(params, layout)  # rotating frame at omega_c
    c_l, c_r = cavity_ops(layout)
    phase = np.exp(-2j * params.phi_azim_list()[0])
    # X = (|1,0> + e^{2i phi_azim} |0,1>) <0,0|, and Tr{B Y} = vec(B^T) . vec(Y)
    ket = product_ket(layout, (), 1, 0) + np.conj(phase) * product_ket(layout, (), 0, 1)
    source = master.vectorize(np.outer(ket, product_ket(layout, ())))
    readout = master.vectorize((c_l + phase * c_r).T)
    n = layout.excitations
    sector = np.flatnonzero(np.logical_and.outer(n == 1, n == 0).ravel(order="F"))  # i + j dim

    omega_grid = np.asarray(omega_grid, dtype=float)
    delta = omega_grid - params.omega_c
    block = (lv.generator[sector][:, sector].toarray()
             + 1j * delta[:, None, None] * np.eye(len(sector)))
    resolved = np.linalg.solve(block, source[sector, None])[..., 0]
    j = (params.g**2 / np.pi) * np.real(-resolved @ readout[sector])
    return SpectrumSeries(omega_grid, j)


# ---------------------------------------------------------------------------
# Lorentzian fit (reference-cavity parameter extraction)
# ---------------------------------------------------------------------------

def lorentzian_model(omega, omega_c: float, kappa: float, g: float):
    """J_DP(omega) = g^2 kappa / pi / ((omega-omega_c)^2 + kappa^2/4)."""
    w = np.asarray(omega, dtype=float)
    return g * g * kappa / np.pi / ((w - omega_c) ** 2 + kappa * kappa / 4.0)


def fit_lorentzian(samples: SpectrumSeries) -> FitResult:
    """Extract (omega_c, kappa, g) from a sampled single-peak spectrum.

    1/J_DP = pi/(g^2 kappa) ((omega - omega_c)^2 + kappa^2/4) is a quadratic
    in omega, so the start is one linear fit of 1/y over the samples above
    half maximum, each residual weighted by y.  Gauss-Newton with the
    model's exact derivatives refines it until a step moves omega_c and
    kappa by at most 1e-12 kappa and g by at most 1e-12 g.  Returns the
    start with converged=False if refinement has not settled after
    FIT_MAX_ITER iterations.
    """
    w, y = samples.omega, samples.value
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(y))):
        raise FitError("samples contain non-finite values")
    i_peak = int(np.argmax(y))
    peak = y[i_peak]
    if peak <= 0:
        raise FitError("no peak found (maximum is not positive)")
    top = y >= peak / 2.0
    if int(np.sum(top)) < 7:
        raise FitError("need at least 7 samples above half maximum")

    a, b, c = np.polyfit(w[top] - w[i_peak], 1.0 / y[top], 2, w=y[top])
    if a <= 0 or 4.0 * a * c <= b * b:   # kappa^2 = (4ac - b^2)/a^2
        raise FitError("1/J above half maximum is not an upward parabola")
    kappa0 = np.sqrt(4.0 * a * c - b * b) / a
    p = p_init = np.array([w[i_peak] - b / (2.0 * a), kappa0, np.sqrt(np.pi / (a * kappa0))])

    converged = False
    for _ in range(FIT_MAX_ITER):
        d = (w - p[0]) ** 2 + p[1] ** 2 / 4.0
        model = lorentzian_model(w, *p)
        jac = np.column_stack([2.0 * (w - p[0]) * model / d,
                               model / p[1] - p[1] * model / (2.0 * d),
                               2.0 * model / p[2]])
        delta, *_ = np.linalg.lstsq(jac, y - model, rcond=None)
        p = p + delta
        if np.all(np.abs(delta) <= 1e-12 * np.abs(p[[1, 1, 2]])):   # omega_c on kappa's scale
            converged = True
            break
    if not converged:
        p = p_init
    p[1:] = np.abs(p[1:])
    rms = float(np.sqrt(np.mean((lorentzian_model(w, *p) - y) ** 2)))
    return FitResult(omega_c=float(p[0]), kappa=float(p[1]), g=float(p[2]),
                     rms_residual=rms, converged=converged)


def load_spectrum_csv(path) -> SpectrumSeries:
    """Read a two-column (omega, value) CSV, skipping comments and an
    optional header line."""
    rows = []
    with open(Path(path), newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or rec[0].lstrip().startswith("#"):
                continue
            try:
                rows.append((float(rec[0]), float(rec[1])))
            except (ValueError, IndexError):
                if rows:
                    raise FitError(f"malformed CSV row: {rec}")
                continue  # header line
    if len(rows) < 2:
        raise FitError(f"no numeric data found in {path}")
    rows.sort()
    w, v = zip(*rows)
    return SpectrumSeries(np.array(w), np.array(v))
