import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import constants as sc

from epqed import ldos, master
from epqed.errors import DivergenceError, FitError, UndefinedPurcellError
from epqed.hilbert import SpaceLayout, cavity_ops, product_ket
from epqed.ldos import (FitResult, SpectrumSeries, chi_dp, chi_ep, enhancement_eta,
                        fit_lorentzian, load_spectrum_csv, lorentzian_model,
                        numerical_spectral_density, purcell_factor,
                        spectral_density, transparency_detuning)
from epqed.params import ModelParams

P0 = ModelParams(g=1.0, kappa=20.0, gamma=1.0)


def ep_params(delta_phi, **kw):
    merged = dict(g=1.0, kappa=20.0, gamma=1.0)
    merged.update(kw)
    return ModelParams.from_delta_phi(delta_phi, **merged)


# ---------------------------------------------------------------------------
# susceptibilities
# ---------------------------------------------------------------------------

def test_chi_dp_on_resonance():
    assert chi_dp(0.0, P0) == pytest.approx(-4j / (np.pi * 20.0))


def test_chi_dp_linewidth():
    w = np.linspace(-60, 60, 40001)
    y = np.imag(chi_dp(w, P0))
    peak = np.abs(y).max()
    above = np.abs(y) >= peak / 2
    fwhm = w[above][-1] - w[above][0]
    assert fwhm == pytest.approx(P0.kappa, rel=1e-3)


def test_chi_dp_vanishes_far_away():
    assert abs(chi_dp(1e7, P0)) < 1e-6


def test_chi_ep_on_resonance_cancels_dp():
    p = ep_params(0.0)
    assert chi_ep(0.0, p) == pytest.approx(4j / (np.pi * 20.0))
    j_dp = -p.g**2 * np.imag(chi_dp(0.0, p))
    j_ep = -p.g**2 * np.imag(chi_ep(0.0, p))
    assert j_ep == pytest.approx(-j_dp)


def test_chi_ep_zero_without_mirror():
    p = ep_params(0.3, r_abs=0.0)
    w = np.linspace(-50, 50, 101)
    assert np.abs(chi_ep(w, p)).max() == 0.0


def test_chi_ep_odd_at_quarter_phase():
    p = ep_params(np.pi / 2)
    d = np.linspace(0.1, 30, 40)
    assert_allclose(np.imag(chi_ep(d, p)), -np.imag(chi_ep(-d, p)), atol=1e-15)
    assert abs(np.imag(chi_ep(0.0, p))) < 1e-15


# ---------------------------------------------------------------------------
# spectral density and Purcell factor
# ---------------------------------------------------------------------------

def test_transparency_at_resonance():
    assert spectral_density(0.0, ep_params(0.0)) == pytest.approx(0.0, abs=1e-15)


def test_double_enhancement_at_pi():
    p = ep_params(np.pi)
    expected = 8.0 * p.g**2 / (np.pi * p.kappa)
    assert spectral_density(0.0, p) == pytest.approx(expected, rel=1e-12)
    assert spectral_density(0.0, p.replace(r_abs=0.0)) == pytest.approx(expected / 2)


def test_dp_limit_is_lorentzian():
    p = ep_params(0.9, r_abs=0.0)
    w = np.linspace(-100, 100, 2001)
    assert_allclose(spectral_density(w, p),
                    lorentzian_model(w, 0.0, p.kappa, p.g), atol=1e-15)


def test_purcell_values():
    p = ep_params(0.0, r_abs=0.0, g=1.0, kappa=20.0, gamma=1.0)
    coop = 8 * p.g**2 / (p.kappa * p.gamma)
    assert purcell_factor(0.0, p) == pytest.approx(coop + 1.0, rel=1e-12)
    assert purcell_factor(0.0, ep_params(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert purcell_factor(1e6, p) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(UndefinedPurcellError):
        purcell_factor(0.0, p.replace(gamma=0.0))


def test_transparency_detuning_values():
    assert transparency_detuning(0.0, 20.0) == 0.0
    assert transparency_detuning(np.pi / 2, 20.0) == pytest.approx(-10.0)
    with pytest.raises(DivergenceError):
        transparency_detuning(np.pi, 20.0)


def test_transparency_point_zeroes_j():
    rng = np.random.default_rng(42)
    for dphi in rng.uniform(-np.pi + 0.05, np.pi - 0.05, 20):
        p = ep_params(dphi)
        w0 = transparency_detuning(dphi, p.kappa)
        assert abs(spectral_density(w0, p)) <= 1e-12 * spectral_density(
            0.0, p.replace(r_abs=0.0))


def test_unique_zero_location_on_grid():
    for dphi in (0.0, 0.8, -1.4, 2.0):
        p = ep_params(dphi)
        w = np.linspace(-10 * p.kappa, 10 * p.kappa, 8001)
        j = spectral_density(w, p)
        w_zero = transparency_detuning(dphi, p.kappa)
        i_min = int(np.argmin(j))
        assert abs(w[i_min] - w_zero) <= w[1] - w[0]
        assert j.min() >= -1e-13   # touches zero, never negative for |r| = 1


def test_eta_reference_points():
    assert enhancement_eta(np.pi, 1.0, P0) == pytest.approx(2.0, abs=1e-12)
    assert enhancement_eta(0.0, 1.0, P0) == pytest.approx(0.0, abs=1e-12)
    for r in (0.1, 0.5, 1.0):
        assert enhancement_eta(np.pi / 2, r, P0) == pytest.approx(1.0, abs=1e-12)


@given(dphi=st.floats(-np.pi, np.pi), r=st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_eta_closed_form(dphi, r):
    assert enhancement_eta(dphi, r, P0) == pytest.approx(
        1.0 - r * np.cos(dphi), abs=1e-12)


def test_ep_term_integrates_to_zero():
    # the square-Lorentzian term carries no net weight: its integral over
    # omega_c +- X kappa falls off as 1/X (prefactor cos(delta_phi))
    p = ep_params(np.pi / 2)
    w = np.linspace(-50 * p.kappa, 50 * p.kappa, 400001)
    j_ep = -p.g**2 * np.imag(chi_ep(w, p))
    j_dp = -p.g**2 * np.imag(chi_dp(w, p))
    assert abs(np.trapezoid(j_ep, w)) <= 1e-3 * np.trapezoid(j_dp, w)

    p = ep_params(1.2)
    ratios = []
    for span in (50, 200, 800):
        w = np.linspace(-span * p.kappa, span * p.kappa, 400001)
        j_ep = -p.g**2 * np.imag(chi_ep(w, p))
        j_dp = -p.g**2 * np.imag(chi_dp(w, p))
        ratios.append(abs(np.trapezoid(j_ep, w)) / np.trapezoid(j_dp, w))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] <= 1e-3


# ---------------------------------------------------------------------------
# free-space rate and time-delay validity
# ---------------------------------------------------------------------------

# SI literals (scipy.constants' values; only eps0 is not exact)
E_CHARGE = 1.602176634e-19           # C
HBAR = 6.62607015e-34 / (2 * np.pi)  # J*s
C_LIGHT = 299792458.0                # m/s
EPSILON_0 = 8.8541878188e-12         # F/m
HBAR_EVS = HBAR / E_CHARGE  # hbar in eV*s
DEBYE = 1e-21 / C_LIGHT     # C*m per Debye


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


def test_gamma_free_si_oracle():
    # independent arithmetic from CODATA constants
    mu = 60 * 1e-21 / sc.c
    w0 = 0.78122 * sc.e / sc.hbar
    rate_si = mu**2 * w0**3 * 1.44 / (3 * np.pi * sc.hbar * sc.epsilon_0 * sc.c**3)
    expected_ev = rate_si * sc.hbar / sc.e
    got = gamma_free(60, 0.78122, 1.44)
    assert got == pytest.approx(expected_ev, rel=1e-12)
    assert got > 0
    assert gamma_free(60, 0.78122, 1.44, gamma0_ev=expected_ev) == pytest.approx(1.0)


def test_gamma_free_scalings():
    base = gamma_free(30, 0.8, 1.5)
    assert gamma_free(60, 0.8, 1.5) == pytest.approx(4 * base, rel=1e-12)
    assert gamma_free(30, 0.8, 1.5e-6) == pytest.approx(base * 1e-6, rel=1e-9)


def test_si_literals_match_scipy_constants():
    assert E_CHARGE == pytest.approx(sc.e, rel=1e-12)
    assert HBAR == pytest.approx(sc.hbar, rel=1e-12)
    assert C_LIGHT == pytest.approx(sc.c, rel=1e-12)
    assert EPSILON_0 == pytest.approx(sc.epsilon_0, rel=1e-12)
    assert HBAR_EVS == pytest.approx(sc.hbar / sc.e, rel=1e-12)


def test_import_loads_no_scipy():
    code = "import sys, epqed; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(Path(ldos.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_delay_check_cases():
    # rates in eV; mu-scale cavity: g = 1 meV near the validity boundary
    p = ModelParams(g=1e-3, kappa=152.8e-6, gamma=2.7e-7)
    v_g = sc.c / 3.47
    assert not delay_check(1.0, sc.c, p)           # a meter of waveguide: invalid
    assert delay_check(1e-9, v_g, p)               # a nanometer: valid
    assert not delay_check(20e-6, v_g, p)          # 20 um fails the strict 1% margin
    ratio = (20e-6 / v_g) / (sc.hbar / sc.e / 1e-3)
    assert 0.1 < ratio < 10                        # but sits at the loose boundary
    assert delay_check(1.0, sc.c, ModelParams(g=0.0, kappa=0.0, gamma=0.0))


# ---------------------------------------------------------------------------
# quantum-regression oracle
# ---------------------------------------------------------------------------

def test_numerical_matches_analytic():
    p = ep_params(np.pi / 2)
    w = np.linspace(-3 * p.kappa, 3 * p.kappa, 241)
    series = numerical_spectral_density(p, SpaceLayout(0, 2), w)
    ref = spectral_density(w, p)
    assert np.abs(series.value - ref).max() <= 1e-4 * np.abs(ref).max()


def test_numerical_dp_is_lorentzian():
    p = ep_params(0.0, r_abs=0.0)
    w = np.linspace(-40.0, 40.0, 161)
    series = numerical_spectral_density(p, SpaceLayout(0, 2), w)
    ref = lorentzian_model(w, 0.0, p.kappa, p.g)
    assert np.abs(series.value - ref).max() <= 1e-4 * ref.max()


def test_numerical_symmetric_at_zero_phase():
    p = ep_params(0.0)
    w = np.linspace(-30.0, 30.0, 121)
    series = numerical_spectral_density(p, SpaceLayout(0, 2), w)
    assert_allclose(series.value, series.value[::-1], atol=1e-8)


def four_correlator_j(p, layout, omega, tau_max, tau_step):
    """J from the four correlators <c_i^dag(0) c_j(tau)> and a direct trapezoid transform."""
    tau = np.linspace(0.0, tau_max, int(np.round(tau_max / tau_step)) + 1)
    lv = master.build_liouvillian(p, layout)
    c_l, c_r = cavity_ops(layout)
    rho_l = master.DensityMatrix.from_ket(product_ket(layout, (), 1, 0))
    rho_r = master.DensityMatrix.from_ket(product_ket(layout, (), 0, 1))
    c_ll = master.two_time_correlation(lv, rho_l, c_l.conj().T, c_l, tau)
    c_lr = master.two_time_correlation(lv, rho_l, c_l.conj().T, c_r, tau)
    c_rr = master.two_time_correlation(lv, rho_r, c_r.conj().T, c_r, tau)
    c_rl = master.two_time_correlation(lv, rho_r, c_r.conj().T, c_l, tau)
    phase = np.exp(-2j * p.phi_azim_list()[0])
    weighted = (c_ll + c_rr + phase * c_lr + np.conj(phase) * c_rl) * (tau[1] - tau[0])
    weighted[[0, -1]] *= 0.5
    return (p.g**2 / np.pi) * np.real(np.exp(1j * np.outer(omega - p.omega_c, tau)) @ weighted)


def four_source_resolvent_j(p, layout, omega):
    """J from the four rank-one sources rho_i c_i^dag, each read out by one c_j and
    transformed exactly, -Tr{c_j (L + i Delta)^-1 rho_i c_i^dag}, on L's q = 1 block."""
    lv = master.build_liouvillian(p, layout)
    c_l, c_r = cavity_ops(layout)
    n = layout.excitations
    q1 = np.flatnonzero(np.subtract.outer(n, n).ravel(order="F") == 1)
    block = lv.generator[q1][:, q1].toarray()
    rho_l = master.DensityMatrix.from_ket(product_ket(layout, (), 1, 0)).entries
    rho_r = master.DensityMatrix.from_ket(product_ket(layout, (), 0, 1)).entries
    phase = np.exp(-2j * p.phi_azim_list()[0])
    total = np.zeros(len(omega), dtype=complex)
    for rho_i, c_i, c_j, weight in ((rho_l, c_l, c_l, 1.0), (rho_r, c_r, c_r, 1.0),
                                    (rho_l, c_l, c_r, phase), (rho_r, c_r, c_l, np.conj(phase))):
        source = master.vectorize(rho_i @ c_i.conj().T)[q1]
        readout = master.vectorize(c_j.T)[q1]
        for k, delta in enumerate(omega - p.omega_c):
            resolved = np.linalg.solve(block + 1j * delta * np.eye(len(q1)), source)
            total[k] -= weight * (readout @ resolved)
    return (p.g**2 / np.pi) * np.real(total)


@given(dphi=st.floats(-np.pi, np.pi), r_abs=st.floats(0.0, 1.0),
       phi_azim=st.floats(-np.pi, np.pi), kappa=st.floats(1.0, 50.0))
@settings(max_examples=25, deadline=None)
def test_one_correlator_matches_four_correlator_sum(dphi, r_abs, phi_azim, kappa):
    # linearity and the phi_azim phase convention: the one source and readout against
    # the four rank-one sources rho_i c_i^dag with each readout c_j, all transformed exactly
    p = ModelParams.from_delta_phi(dphi, g=1.0, kappa=kappa, gamma=1.0, r_abs=r_abs,
                                   phi_azim=phi_azim)
    w = np.linspace(-3 * kappa, 3 * kappa, 61)
    ref = four_source_resolvent_j(p, SpaceLayout(0, 2), w)
    j = numerical_spectral_density(p, SpaceLayout(0, 2), w).value
    assert np.abs(j - ref).max() <= 1e-12 * np.abs(ref).max()


@given(dphi=st.floats(-np.pi, np.pi), r_abs=st.floats(0.0, 1.0),
       phi_azim=st.floats(-np.pi, np.pi), kappa=st.floats(1.0, 50.0),
       omega_c=st.floats(-5.0, 5.0))
@settings(max_examples=10, deadline=None)
def test_resolvent_matches_time_domain_correlators(dphi, r_abs, phi_azim, kappa, omega_c):
    # the exact transform against the slow path it replaced: four correlators propagated
    # over a 60/kappa window and summed by the trapezoid rule, at criterion 4's bound
    p = ModelParams.from_delta_phi(dphi, g=1.0, kappa=kappa, gamma=1.0, r_abs=r_abs,
                                   phi_azim=phi_azim, omega_c=omega_c)
    w = np.linspace(omega_c - 3 * kappa, omega_c + 3 * kappa, 61)
    ref = four_correlator_j(p, SpaceLayout(0, 2), w, 60.0 / kappa, 0.01 / kappa)
    j = numerical_spectral_density(p, SpaceLayout(0, 2), w).value
    assert np.abs(j - ref).max() <= 1e-4 * np.abs(ref).max()


@given(layout=st.sampled_from([SpaceLayout(0, 2), SpaceLayout(0, 3),
                                SpaceLayout(0, 2, max_excitations=1),
                                SpaceLayout(0, 3, max_excitations=1),
                                SpaceLayout(0, 3, max_excitations=2)]),
       kappa=st.floats(0.1, 50.0), r_abs=st.floats(0.0, 1.0), dphi=st.floats(-np.pi, np.pi),
       phi_azim=st.floats(-np.pi, np.pi))
@settings(max_examples=25, deadline=None)
def test_cavity_liouvillian_keeps_coherence_order_one(layout, kappa, r_abs, dphi, phi_azim):
    # L must not leak out of the q = N(i) - N(j) = 1 block, nor out of the sector
    # (N(i), N(j)) = (1, 0) inside it, on which the resolvent solves
    p = ModelParams.from_delta_phi(dphi, g=1.0, kappa=kappa, gamma=1.0, r_abs=r_abs,
                                   phi_azim=phi_azim)
    n = layout.excitations
    generator = master.build_liouvillian(p, layout).generator
    in_q1 = np.subtract.outer(n, n).ravel(order="F") == 1
    in_10 = np.logical_and.outer(n == 1, n == 0).ravel(order="F")
    for inside in (in_q1, in_10):
        columns = generator[:, np.flatnonzero(inside)]
        assert columns.nnz > 0
        assert np.all(columns.toarray()[~inside] == 0)


def test_spectral_density_does_not_depend_on_the_cutoff():
    # the one-photon source never reaches a second photon: cutoff 6 gives cutoff 2's J
    p = ModelParams.from_delta_phi(0.7, g=1.0, kappa=8.0, gamma=1.0, r_abs=0.6,
                                   phi_azim=0.3)
    w = np.linspace(-24.0, 24.0, 61)
    j2 = numerical_spectral_density(p, SpaceLayout(0, 2), w).value
    j6 = numerical_spectral_density(p, SpaceLayout(0, 6), w).value
    assert np.abs(j6 - j2).max() <= 1e-15 * np.abs(j2).max()


def test_spectrum_series_rejects_nan_frequencies():
    for w in ([0.0, np.nan, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="strictly ascending"):
            SpectrumSeries(w, np.zeros(len(w)))


def test_numerical_requires_cavity_only_layout():
    with pytest.raises(ValueError):
        numerical_spectral_density(P0, SpaceLayout(1, 2), np.linspace(-1, 1, 5))


def test_numerical_requires_positive_kappa():
    with pytest.raises(ValueError):
        numerical_spectral_density(P0.replace(kappa=0.0), SpaceLayout(0, 2),
                                   np.linspace(-1, 1, 5))


@given(kappa=st.floats(1.0, 20.0), r_abs=st.sampled_from([0.0, 1.0]),
       dphi=st.floats(-np.pi, np.pi))
@settings(max_examples=20, deadline=None)
def test_numerical_matches_analytic_over_kappa_at_dp_and_ep(kappa, r_abs, dphi):
    p = ep_params(dphi, kappa=kappa, r_abs=r_abs)
    w = np.linspace(-3 * kappa, 3 * kappa, 61)
    ref = spectral_density(w, p)
    j = numerical_spectral_density(p, SpaceLayout(0, 2), w).value
    assert np.abs(j - ref).max() <= 1e-4 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# Lorentzian fit
# ---------------------------------------------------------------------------

WC0, K0, G0 = 0.78122, 152.8e-6, 24.9e-6


def _synthetic(noise=0.0, seed=0, n=401, wc=WC0):
    # off-center grid so the initialization is inexact and refinement works
    w = np.linspace(wc - 5.3 * K0, wc + 4.1 * K0, n)
    y = lorentzian_model(w, wc, K0, G0)
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise * rng.standard_normal(n))
    return SpectrumSeries(w, y)


def test_fit_noiseless_roundtrip():
    res = fit_lorentzian(_synthetic())
    assert res.converged
    assert res.omega_c == pytest.approx(WC0, rel=1e-9)
    assert res.kappa == pytest.approx(K0, rel=1e-9)
    assert res.g == pytest.approx(G0, rel=1e-9)
    assert res.rms_residual < 1e-12


def test_fit_noisy_within_two_percent():
    # omega_c = 0 has no scale of its own: convergence is judged on kappa's
    for wc in (WC0, 0.0):
        res = fit_lorentzian(_synthetic(noise=0.005, seed=123, wc=wc))
        assert res.converged
        assert res.omega_c == pytest.approx(wc, rel=0.02, abs=0.02 * K0)
        assert res.kappa == pytest.approx(K0, rel=0.02)
        assert res.g == pytest.approx(G0, rel=0.02)


def test_fit_rejects_flat_input():
    w = np.linspace(0.0, 1.0, 64)
    with pytest.raises(FitError):
        fit_lorentzian(SpectrumSeries(w, np.zeros(64)))


def test_fit_rejects_nonfinite():
    s = _synthetic()
    bad = s.value.copy()
    bad[10] = np.nan
    with pytest.raises(FitError):
        fit_lorentzian(SpectrumSeries(s.omega, bad))


def test_fit_needs_seven_points_above_half_maximum():
    w = np.linspace(WC0 - 20 * K0, WC0 + 20 * K0, 41)   # too coarse near the peak
    with pytest.raises(FitError):
        fit_lorentzian(SpectrumSeries(w, lorentzian_model(w, WC0, K0, G0)))


def test_spectrum_series_validation():
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SpectrumSeries(np.array([0.0, 1.0]), np.zeros(3))


def test_load_spectrum_csv(tmp_path):
    path = tmp_path / "dp_ldos.csv"
    s = _synthetic(n=201)
    lines = ["# comment", "omega,value"]
    lines += [f"{w:.17g},{v:.17g}" for w, v in zip(s.omega, s.value)]
    path.write_text("\n".join(lines))
    loaded = load_spectrum_csv(path)
    assert_allclose(loaded.omega, s.omega)
    assert_allclose(loaded.value, s.value)
    res = fit_lorentzian(loaded)
    assert res.omega_c == pytest.approx(WC0, rel=1e-6)


def test_fit_result_as_dict():
    d = FitResult(1.0, 2.0, 3.0, 0.0).as_dict()
    assert d == {"omega_c": 1.0, "kappa": 2.0, "g": 3.0,
                 "rms_residual": 0.0, "converged": True}
