"""Spectral density of the chiral-EP cavity and the Purcell workflow.

The cavity response seen by the emitter splits into a linear Lorentzian
term (two degenerate modes) and a square-Lorentzian term produced by the
unidirectional mode coupling; the latter carries the phase difference
delta_phi and the mirror reflectivity |r|.  A quantum-regression-theorem
integration of the photonic correlation functions provides an independent
numerical oracle for the same quantity, and a Gauss-Newton fit extracts
(omega_c, kappa, g) from sampled reference-cavity data.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import master
from .errors import (DivergenceError, FitError, TruncationError,
                     UndefinedPurcellError)
from .hilbert import SpaceLayout, cavity_ops, identity, product_ket
from .numerics import uniform_fourier_sum
from .params import ModelParams

# SI constants (scipy.constants' values; only eps0 is not exact), so importing needs no scipy
E_CHARGE = 1.602176634e-19           # C
HBAR = 6.62607015e-34 / (2 * np.pi)  # J*s
C_LIGHT = 299792458.0                # m/s
EPSILON_0 = 8.8541878188e-12         # F/m
HBAR_EVS = HBAR / E_CHARGE  # hbar in eV*s
DEBYE = 1e-21 / C_LIGHT     # C*m per Debye
TAIL_TOL = 1e-7             # neglected correlator tail, relative to J's scale 4/(pi kappa)
FIT_MAX_ITER = 200          # Gauss-Newton iterations before a fit counts as unconverged


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
        if len(w) >= 2 and np.any(np.diff(w) <= 0):
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


def gamma_free(mu_debye: float, omega0_ev: float, n_b: float,
               gamma0_ev: float | None = None) -> float:
    """Free-space SE rate mu^2 w0^3 n_b / (3 pi hbar eps0 c^3).

    Returns the rate as an energy in eV, or in units of gamma0_ev when a
    reference is given.
    """
    if mu_debye <= 0 or omega0_ev <= 0 or n_b <= 0:
        raise ValueError("mu, omega0 and n_b must be positive")
    mu = mu_debye * DEBYE
    w0 = omega0_ev * E_CHARGE / HBAR
    rate = mu**2 * w0**3 * n_b / (3.0 * np.pi * HBAR * EPSILON_0 * C_LIGHT**3)
    rate_ev = rate * HBAR_EVS
    return rate_ev if gamma0_ev is None else rate_ev / gamma0_ev


def delay_check(length: float, group_velocity: float, params: ModelParams,
                rate_unit_ev: float = 1.0) -> bool:
    """True when photon propagation is fast against the system evolution.

    length in meters, group_velocity in m/s; params rates are interpreted
    as energies of rate_unit_ev each (1.0 = params already in eV).
    """
    if length <= 0 or group_velocity <= 0:
        raise ValueError("length and group velocity must be positive")
    t_prop = length / group_velocity
    rates = [r * rate_unit_ev for r in (params.g, params.kappa, params.gamma) if r > 0]
    if not rates:
        return True
    t_sys = HBAR_EVS / max(rates)
    return t_prop <= 0.01 * t_sys


# ---------------------------------------------------------------------------
# quantum-regression oracle
# ---------------------------------------------------------------------------

def numerical_spectral_density(params: ModelParams, layout: SpaceLayout,
                               omega_grid, tau_max: float | None = None,
                               tau_step: float | None = None) -> SpectrumSeries:
    """J(omega) from the photonic two-time correlator (cavity-only dynamics).

    The emitter couples to c = c_L + e^{-2i phi_azim} c_R, so by linearity
    the four correlators <c_i^dag(0) c_j(tau)> sum to one,
    <c^dag(0) c(tau)> = Tr{c exp(L tau)[rho_L c_L^dag + e^{2i phi_azim} rho_R c_R^dag]},
    propagated with the quantum regression theorem under the cavity-only
    generator (single-photon normalization <c_i^dag(0) c_i(0)> = 1).  It is
    Fourier-transformed by the trapezoid rule on a uniform tau grid
    (defaults: window 40/kappa, spacing 0.002/kappa), factored by
    uniform_fourier_sum.
    """
    if layout.n_qubits != 0:
        raise ValueError("numerical spectral density needs a cavity-only layout")
    if params.kappa <= 0:
        raise ValueError("kappa must be positive")
    if tau_max is None:
        tau_max = 40.0 / params.kappa
    if tau_step is None:
        tau_step = 0.002 / params.kappa
    tau = np.linspace(0.0, tau_max, int(np.round(tau_max / tau_step)) + 1)

    lv = master.build_liouvillian(params, layout)  # rotating frame at omega_c
    c_l, c_r = cavity_ops(layout)
    phase = np.exp(-2j * params.phi_azim_list()[0])
    # rho_L c_L^dag + e^{2i phi_azim} rho_R c_R^dag = (|1,0> + e^{2i phi_azim} |0,1>) <0,0|
    ket = product_ket(layout, (), 1, 0) + np.conj(phase) * product_ket(layout, (), 0, 1)
    source = np.outer(ket, product_ket(layout, ()))
    corr = master.two_time_correlation(lv, source, identity(layout.dim), c_l + phase * c_r, tau)

    # neglected tail |C(tau_max)| 2/(pi kappa) of the integral per unit g^2, over 4/(pi kappa)
    tail = 0.5 * abs(corr[-1])
    if tail > TAIL_TOL:
        raise TruncationError(f"correlator tail bound {tail:.3e} > {TAIL_TOL:g} of J's scale "
                              f"4/(pi kappa); increase tau_max ({tau_max:g})")

    weighted = corr * (tau[1] - tau[0])   # trapezoid weights
    weighted[[0, -1]] *= 0.5
    omega_grid = np.asarray(omega_grid, dtype=float)
    j = (params.g**2 / np.pi) * np.real(
        uniform_fourier_sum(weighted, tau[1] - tau[0], omega_grid - params.omega_c))
    return SpectrumSeries(omega_grid, j)


# ---------------------------------------------------------------------------
# Lorentzian fit (reference-cavity parameter extraction)
# ---------------------------------------------------------------------------

def lorentzian_model(omega, omega_c: float, kappa: float, g: float):
    """J_DP(omega) = g^2 kappa / pi / ((omega-omega_c)^2 + kappa^2/4)."""
    w = np.asarray(omega, dtype=float)
    return g * g * kappa / np.pi / ((w - omega_c) ** 2 + kappa * kappa / 4.0)


def _half_max_width(w: np.ndarray, y: np.ndarray, i_peak: int) -> float:
    half = y[i_peak] / 2.0
    # walk out from the peak, linearly interpolating the crossings
    left = w[0]
    for i in range(i_peak, 0, -1):
        if y[i - 1] < half <= y[i]:
            f = (half - y[i - 1]) / (y[i] - y[i - 1])
            left = w[i - 1] + f * (w[i] - w[i - 1])
            break
    right = w[-1]
    for i in range(i_peak, len(w) - 1):
        if y[i + 1] < half <= y[i]:
            f = (y[i] - half) / (y[i] - y[i + 1])
            right = w[i] + f * (w[i + 1] - w[i])
            break
    return right - left


def fit_lorentzian(samples: SpectrumSeries) -> FitResult:
    """Extract (omega_c, kappa, g) from a sampled single-peak spectrum.

    Closed-form initialization (argmax, measured FWHM, peak height) followed
    by Gauss-Newton refinement with a central-difference Jacobian.  Returns
    the initialization with converged=False if refinement has not settled
    after FIT_MAX_ITER iterations.
    """
    w = samples.omega
    y = samples.value
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(y))):
        raise FitError("samples contain non-finite values")
    i_peak = int(np.argmax(y))
    peak = y[i_peak]
    if peak <= 0:
        raise FitError("no peak found (maximum is not positive)")
    if int(np.sum(y >= peak / 2.0)) < 7:
        raise FitError("need at least 7 samples above half maximum")

    kappa0 = _half_max_width(w, y, i_peak)
    if kappa0 <= 0:
        raise FitError("could not measure a positive FWHM")
    p = np.array([w[i_peak], kappa0, np.sqrt(peak * np.pi * kappa0 / 4.0)])
    p_init = p.copy()

    converged = False
    for _ in range(FIT_MAX_ITER):
        resid = lorentzian_model(w, *p) - y
        jac = np.empty((len(w), 3))
        for k in range(3):
            h = 1e-6 * max(abs(p[k]), 1e-300)
            dp = np.zeros(3)
            dp[k] = h
            jac[:, k] = (lorentzian_model(w, *(p + dp))
                         - lorentzian_model(w, *(p - dp))) / (2.0 * h)
        delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        p = p + delta
        if np.all(np.abs(delta) <= 1e-12 * np.maximum(np.abs(p), 1e-300)):
            converged = True
            break
    if not converged:
        p = p_init
    p[1] = abs(p[1])
    p[2] = abs(p[2])
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
