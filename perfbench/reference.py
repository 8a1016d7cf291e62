"""Computations made apart from epqed, used to check its outputs.

Everything here is written from the model's equations, not from the
library's code: the single-excitation matrix, the closed-form spectral
density, matrix-exponential propagation, weak-drive linear response and
plain least-squares fits.  Only numpy and scipy are used.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg


def single_excitation_matrix(g, kappa, gamma, r_abs, phi_prop, detunings):
    """Matrix M of dp/dt = -i M p, order (c_L, c_R, qubit_1, ...), frame omega_c.

    detunings are the emitter frequencies omega_0 - omega_c, one per qubit,
    all at azimuthal phase 0.  The mirror feeds c_L into c_R only:
    M[R, L] = -i kappa |r| e^{i phi_prop}.
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    m = np.zeros((detunings.size + 2,) * 2, dtype=complex)
    m[0, 0] = m[1, 1] = -0.5j * kappa
    m[1, 0] = -1j * kappa * r_abs * np.exp(1j * phi_prop)
    for q, d in enumerate(detunings, start=2):
        m[q, q] = d - 0.5j * gamma
        m[0, q] = m[q, 0] = m[1, q] = m[q, 1] = g
    return m


def propagate(m, p0, times):
    """Rows exp(-i M t) p0, one per sample time, by scipy's matrix exponential."""
    return np.array([scipy.linalg.expm(-1j * m * t) @ p0 for t in times])


def propagate_dense(m, p0, times):
    """exp(-i M t) p0 on a uniform grid, by repeated one-step exponentials."""
    step = scipy.linalg.expm(-1j * m * (times[1] - times[0]))
    out = np.empty((len(times), len(p0)), dtype=complex)
    out[0] = p0
    for k in range(1, len(times)):
        out[k] = step @ out[k - 1]
    return out


def concurrence(amplitudes):
    """2 |C_eg C_ge| from two-qubit amplitude rows (c_L, c_R, q1, q2)."""
    return 2.0 * np.abs(amplitudes[:, 2]) * np.abs(amplitudes[:, 3])


def parabola_peak(x, y):
    """Maximum of y on the grid x, refined by a parabola through its neighbours."""
    i = int(np.argmax(y))
    if i == 0 or i == len(x) - 1:
        return float(y[i])
    a, b, c = np.polyfit(x[i - 1:i + 2] - x[i], y[i - 1:i + 2], 2)
    return float(c - b * b / (4.0 * a)) if a < 0 else float(y[i])


def decay_rate(t, y, window):
    """Negated least-squares slope of log y on t in [window[0], window[1]]."""
    sel = (t >= window[0]) & (t <= window[1])
    return -float(np.polyfit(t[sel], np.log(y[sel]), 1)[0])


def spectral_density(omega_minus_omega_c, g, kappa, r_abs, delta_phi):
    """J = J_DP + J_EP: a Lorentzian of weight 2 g^2 plus the square-Lorentzian
    term of the unidirectional coupling."""
    d = np.asarray(omega_minus_omega_c, dtype=float)
    z = d + 0.5j * kappa
    j_dp = g * g * kappa / np.pi / (d * d + 0.25 * kappa * kappa)
    j_ep = -g * g * np.imag(-1j * kappa * r_abs * np.exp(1j * delta_phi) / (np.pi * z * z))
    return j_dp + j_ep


def spectral_weight_in_window(half_width, g, kappa, r_abs, delta_phi):
    """Integral of J over omega_c +- half_width, in closed form.

    The total over all frequencies is 2 g^2; the difference is the weight in
    the Lorentzian tails outside the window.
    """
    w = half_width
    dp = (4.0 / np.pi) * np.arctan(2.0 * w / kappa)
    coeff = -1j * kappa * r_abs * np.exp(1j * delta_phi) / np.pi
    ep = -np.imag(coeff * (1.0 / (-w + 0.5j * kappa) - 1.0 / (w + 0.5j * kappa)))
    return g * g * (dp + ep)


def weak_drive_population(m, drive_detuning, amplitude, driven=1, measured=0):
    """Linear-response population |[-(M - Delta)^-1 Omega e_driven]_measured|^2."""
    e = np.zeros(m.shape[0], dtype=complex)
    e[driven] = amplitude
    p = -np.linalg.solve(m - drive_detuning * np.eye(m.shape[0]), e)
    return float(abs(p[measured]) ** 2)


def bound_state_plateau(m, p0, tol=1e-9):
    """Long-time populations of exp(-i M t) p0: its projection on the modes of
    M with real eigenvalues, by biorthogonal (left/right) eigenvectors."""
    vals, left, right = scipy.linalg.eig(m, left=True, right=True)
    out = np.zeros(len(p0))
    for k in np.flatnonzero(np.abs(vals.imag) < tol):
        coeff = (left[:, k].conj() @ p0) / (left[:, k].conj() @ right[:, k])
        out += np.abs(coeff * right[:, k]) ** 2
    return out


def lorentzian(omega, omega_c, kappa, g):
    """Reference-cavity spectral density g^2 kappa / pi / ((w - w_c)^2 + kappa^2/4)."""
    return g * g * kappa / np.pi / ((omega - omega_c) ** 2 + 0.25 * kappa * kappa)


def read_csv_columns(text):
    """Columns of an epqed CSV's text by bare name (units stripped), comments skipped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    names = [h.split("[")[0] for h in lines[0].split(",")]
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {n: data[:, i] for i, n in enumerate(names)}
