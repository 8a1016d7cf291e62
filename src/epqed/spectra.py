"""Single-excitation eigenstructure and the emission spectrum.

The (n+2) x (n+2) non-Hermitian coupling matrix generates the amplitude
equations dp/dt = -i M p with p = (<c_L>, <c_R>, <sm_1>, ...).  Its
eigenvalues carry the polariton energies and decays; purely real
eigenvalues are atom-photon bound states.  The emission spectrum follows
from the same susceptibilities as the spectral density, through the
frequency-dependent Lamb shift and local coupling strength.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoBicError
from .ldos import SpectrumSeries, chi_dp, chi_ep, transparency_detuning
from .numerics import local_maxima, quadratic_extremum
from .params import ModelParams

DEFECT_EIGVAL_TOL = 1e-6   # relative eigenvalue gap treated as coalescent
DEFECT_OVERLAP_TOL = 1e-6  # 1 - |<v_i|v_j>| below this marks vector coalescence


@dataclass(frozen=True)
class EigenMode:
    """One eigenmode: energy, right eigenvector, Hopfield weights, label."""

    value: complex
    vector: np.ndarray
    hopfield: np.ndarray
    label: int
    degenerate: bool = False

    @property
    def qubit_weight(self) -> float:
        """Summed Hopfield weight of the qubit components."""
        return float(self.hopfield[2:].sum())


def coupling_matrix(params: ModelParams, n_qubits: int | None = None) -> np.ndarray:
    """Non-Hermitian matrix M of the single-excitation amplitude equations.

    Component order (c_L, c_R, sm_1 .. sm_n); the only asymmetric entry is
    the unidirectional feed (c_R <- c_L) = -i kappa |r| e^{i phi_prop}.
    M is the single definition of the model: `master.build_liouvillian`
    takes every coupling and decay of the full master equation from it.
    """
    n = n_qubits if n_qubits is not None else params.n_qubits
    omega0 = params.omega0_list(n)
    phi = params.phi_azim_list(n)
    m = np.zeros((n + 2, n + 2), dtype=complex)
    m[0, 0] = params.omega_c - 0.5j * params.kappa
    m[1, 1] = params.omega_c - 0.5j * params.kappa
    m[1, 0] = -1j * params.kappa * params.r_abs * np.exp(1j * params.phi_prop)
    for i in range(n):
        q = 2 + i
        m[q, q] = omega0[i] - 0.5j * params.gamma
        m[0, q] = params.g * np.exp(-1j * phi[i])
        m[1, q] = params.g * np.exp(1j * phi[i])
        m[q, 0] = params.g * np.exp(1j * phi[i])
        m[q, 1] = params.g * np.exp(-1j * phi[i])
    return m


def _greedy_match(overlaps: np.ndarray) -> np.ndarray:
    """Greedy max-overlap column of each row of a (P, n, n) overlap stack: rows by
    descending best overlap take their best untaken column, ties in index order."""
    s = np.arange(len(overlaps))
    cands = np.argsort(-overlaps, axis=-1, kind="stable")
    taken = np.zeros(overlaps.shape[:2], dtype=bool)
    match = np.empty(overlaps.shape[:2], dtype=int)
    for row in np.argsort(-overlaps.max(axis=-1), axis=-1, kind="stable").T:
        cand = cands[s, row]
        match[s, row] = pick = cand[s, np.argmax(~taken[s[:, None], cand], axis=-1)]
        taken[s, pick] = True
    return match


def eigenmodes(m: np.ndarray) -> list[EigenMode]:
    """Eigenmodes of one matrix, `eigenmode_sweep([m])[0]`: one np.linalg.eig,
    labels by ascending real part, ties in column order."""
    return eigenmode_sweep([m])[0]


def eigenmode_sweep(matrices) -> list[list[EigenMode]]:
    """Label-continuous eigenmodes along a sweep, from one stacked np.linalg.eig.

    Labels follow ascending real part at the first point, then a greedy max-|overlap|
    match to the previous point: its modes, in label order, go by descending best
    overlap and take their best untaken column.  Ties in either order fall in index
    order (stable sorts), so labels do not depend on the CPU.  A coalescent pair
    (eigenvalues and eigenvectors merged to tolerance) is flagged degenerate and its
    second vector replaced by a generalized eigenvector.  Mixed matrix shapes raise
    ValueError.
    """
    ms = [np.asarray(m, dtype=complex) for m in matrices]
    if not ms:
        return []
    vals, vecs = np.linalg.eig(stack := np.stack(ms))
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    n = vals.shape[1]
    degenerate = np.zeros(vals.shape, dtype=bool)
    tol = np.maximum(1e-10, DEFECT_EIGVAL_TOL * np.maximum(1.0, np.abs(vals).max(axis=1)))
    close = ~(np.abs(vals[:, :, None] - vals[:, None, :]) > tol[:, None, None])
    for k, i, j in zip(*np.nonzero(close & np.triu(np.ones((n, n), dtype=bool), 1))):
        if 1.0 - abs(np.vdot(vecs[k, :, i], vecs[k, :, j])) > DEFECT_OVERLAP_TOL:
            continue  # degenerate but diagonalizable (e.g. two uncoupled modes)
        degenerate[k, [i, j]] = True
        lam = 0.5 * (vals[k, i] + vals[k, j])
        gen, *_ = np.linalg.lstsq(stack[k] - lam * np.eye(n), vecs[k, :, i], rcond=None)
        norm = np.linalg.norm(gen)
        if norm > 0:
            vecs[k, :, j] = gen / norm
    # overlaps[k, a, b] = |<column a at point k|column b at point k+1>|; a step
    # whose row maxima tie is matched again with its rows in label order
    overlaps = np.abs(np.ascontiguousarray(vecs[:-1].conj().swapaxes(1, 2)) @ vecs[1:])
    rowmax = np.sort(overlaps.max(axis=-1), axis=-1)
    tied = (rowmax[:, 1:] == rowmax[:, :-1]).any(axis=-1).tolist()
    cols = [np.argsort(vals[0].real, kind="stable").tolist()]
    for k, row in enumerate(_greedy_match(overlaps).tolist()):
        prev = cols[-1]
        cols.append(_greedy_match(overlaps[k, prev][None])[0].tolist() if tied[k]
                    else [row[c] for c in prev])
    cols = np.array(cols)
    vecs = np.take_along_axis(vecs.swapaxes(1, 2), cols[:, :, None], axis=1)
    hop = np.abs(vecs) ** 2
    return [[EigenMode(value=val, vector=vec, hopfield=h, label=lab, degenerate=deg)
             for lab, (val, vec, h, deg) in enumerate(zip(*point))]
            for point in zip(np.take_along_axis(vals, cols, axis=1).tolist(), vecs,
                             hop / hop.sum(axis=2, keepdims=True),
                             np.take_along_axis(degenerate, cols, axis=1).tolist())]


# ---------------------------------------------------------------------------
# emission spectrum
# ---------------------------------------------------------------------------

def lamb_shift(omega, params: ModelParams):
    """Photonic Lamb shift: real part of the emitter self-energy.

    Sigma(omega) = pi g^2 (chi_dp + chi_ep); the pi restores the golden-rule
    normalization Gamma(omega_c) = C gamma (Purcell factor C + 1) and places
    the Rabi doublet at +-sqrt(2) g, consistent with the exact eigenvalues.
    """
    return np.pi * params.g**2 * np.real(chi_dp(omega, params) + chi_ep(omega, params))


def local_coupling(omega, params: ModelParams):
    """Local coupling strength -2 Im[Sigma(omega)] = 2 pi J(omega)."""
    return (-2.0 * np.pi * params.g**2
            * np.imag(chi_dp(omega, params) + chi_ep(omega, params)))


def se_spectrum(omega_grid, params: ModelParams) -> SpectrumSeries:
    """Emission spectrum of an initially excited emitter."""
    if params.gamma < 0:
        raise ValueError("gamma must be >= 0")
    w = np.asarray(omega_grid, dtype=float)
    gamma_w = params.gamma + local_coupling(w, params)
    shift = lamb_shift(w, params)
    omega0 = params.omega0_list()[0]
    s = (1.0 / np.pi) * gamma_w / ((w - omega0 - shift) ** 2 + (gamma_w / 2.0) ** 2)
    return SpectrumSeries(w, s)


def spectrum_peaks(series: SpectrumSeries, n_peaks: int | None = None):
    """Local maxima (quadratically refined), strongest first."""
    idx = local_maxima(series.value)
    peaks = [quadratic_extremum(series.omega, series.value, i) for i in idx]
    peaks.sort(key=lambda p: -p[1])
    return peaks if n_peaks is None else peaks[:n_peaks]


# ---------------------------------------------------------------------------
# bound-state conditions
# ---------------------------------------------------------------------------

def delta_phi_bic(g: float, kappa: float) -> float:
    """Phase difference of the interference bound state: 2 arccos(kappa/(2 sqrt2 g))."""
    arg = kappa / (2.0 * np.sqrt(2.0) * g)
    if arg > 1.0:
        raise NoBicError(f"no bound state: need 2 sqrt(2) g >= kappa (got ratio {arg:.3f})")
    return float(2.0 * np.arccos(arg))


def delta_omega_bic(g: float, kappa: float, delta_phi: float) -> float:
    """Optimal emitter-cavity detuning (2 g^2/kappa) sin(dphi) + transparency point."""
    return (2.0 * g * g / kappa) * np.sin(delta_phi) + transparency_detuning(delta_phi, kappa)


def min_decay(params: ModelParams, delta_phi: float) -> float:
    """Minimum eigenmode decay min_i(-Im w_i) at the bound-state detuning."""
    d0c = delta_omega_bic(params.g, params.kappa, delta_phi)
    p = params.replace(phi_prop=float(delta_phi), phi_azim=0.0,
                       omega0=params.omega_c + d0c)
    vals = np.linalg.eigvals(coupling_matrix(p, n_qubits=1))
    return float(np.min(-vals.imag))
