"""Acceptance suite: every headline quantitative claim at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Criterion 9c is a documented known failure (strict xfail):
see the companion test for the eigenvalue fact that does hold.
"""
from fractions import Fraction

import numpy as np
import pytest

from epqed import blockade, dynamics, ldos, master, spectra
from epqed.hilbert import SpaceLayout, cavity_ops, product_ket, qubit_lowering
from epqed.params import DriveSpec, ModelParams
from test_spectra import approx_eigenvalues

GAMMA = 1.0


def report(tag: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def ep(delta_phi, **kw):
    return ModelParams.from_delta_phi(delta_phi, **kw)


def test_criterion_01_ep_induced_transparency():
    g = 1.0
    kappa = 8.0 * g * g / (0.2 * GAMMA)   # cooperativity 0.2
    t = np.linspace(0.0, 5.0 / GAMMA, 1001)
    p = ep(0.0, g=g, kappa=kappa, gamma=GAMMA)
    pop = dynamics.amplitude_evolve(p, dynamics.excited_qubit_state(1), t).qubit()
    dev = float(np.abs(pop - np.exp(-GAMMA * t)).max())
    dp = dynamics.amplitude_evolve(p.replace(r_abs=0.0),
                                   dynamics.excited_qubit_state(1), t).qubit()
    rate = dynamics.late_decay_rate(t, dp, (0.0, 5.0))
    ok = dev < 0.01 and rate >= 1.15 * GAMMA
    assert report("1 (EP induced transparency)", ok,
                  f"max|P-e^-t| = {dev:.2e} (< 0.01), DP rate = {rate:.3f} (>= 1.15)")


def test_criterion_02_transparency_frequency():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for dphi in rng.uniform(-0.95 * np.pi, 0.95 * np.pi, 20):
        p = ep(dphi, g=1.0, kappa=20.0, gamma=GAMMA)
        w0 = ldos.transparency_detuning(dphi, p.kappa)
        j_ref = ldos.spectral_density(0.0, p.replace(r_abs=0.0))
        worst = max(worst, abs(ldos.spectral_density(w0, p)) / j_ref)
    ok = worst < 1e-10
    assert report("2 (transparency frequency)", ok,
                  f"max |J(wc+dw_m)|/J_DP(wc) = {worst:.2e} (< 1e-10)")


def test_criterion_03_enhancement():
    p = ModelParams(g=1.0, kappa=20.0, gamma=GAMMA)
    e_pi = ldos.enhancement_eta(np.pi, 1.0, p)
    e_0 = ldos.enhancement_eta(0.0, 1.0, p)
    rng = np.random.default_rng(3)
    worst = 0.0
    for dphi, r in zip(rng.uniform(-np.pi, np.pi, 100), rng.uniform(0, 1, 100)):
        worst = max(worst, abs(ldos.enhancement_eta(dphi, r, p)
                               - (1.0 - r * np.cos(dphi))))
    ok = abs(e_pi - 2.0) <= 1e-12 and abs(e_0) <= 1e-12 and worst <= 1e-12
    assert report("3 (enhancement)", ok,
                  f"eta(pi)-2 = {e_pi-2:.1e}, eta(0) = {e_0:.1e}, "
                  f"closed-form dev = {worst:.1e} (all <= 1e-12)")


def test_criterion_04_qrt_oracle_equivalence():
    kappa = 20.0
    layout = SpaceLayout(0, 2)
    worst = 0.0
    for dphi in (0.0, np.pi / 2, np.pi):
        p = ep(dphi, g=1.0, kappa=kappa, gamma=GAMMA)
        w = np.linspace(-5 * kappa, 5 * kappa, 2001)
        num = ldos.numerical_spectral_density(p, layout, w).value
        ana = ldos.spectral_density(w, p)
        worst = max(worst, np.abs(num - ana).max() / np.abs(ana).max())
    ok = worst <= 1e-4
    assert report("4 (QRT oracle equivalence)", ok,
                  f"max relative deviation = {worst:.2e} (<= 1e-4)")


def test_criterion_05_single_excitation_equivalence():
    p = ep(np.pi, g=10.0, kappa=20.0, gamma=GAMMA)
    t = np.linspace(0.0, 1.5, 31)
    amp = dynamics.amplitude_evolve(p, dynamics.excited_qubit_state(1), t, step=5e-5)
    layout = SpaceLayout(1, 2)
    lv = master.build_liouvillian(p, layout)
    rho0 = master.DensityMatrix.from_ket(product_ket(layout, (1,), 0, 0))
    run = master.evolve(lv, rho0, t, step=5e-5)
    sm = qubit_lowering(layout, 0)
    c_l, c_r = cavity_ops(layout)
    dev = max(
        np.abs(run.expect(sm.conj().T @ sm).real - amp.qubit()).max(),
        np.abs(run.expect(c_l.conj().T @ c_l).real - amp.cavity_L).max(),
        np.abs(run.expect(c_r.conj().T @ c_r).real - amp.cavity_R).max())
    ok = dev <= 1e-8
    assert report("5 (single-excitation equivalence)", ok,
                  f"max population deviation = {dev:.2e} (<= 1e-8)")


def test_criterion_06_eigenvalue_narrowing():
    p = ep(np.pi, g=100.0, kappa=20.0, gamma=GAMMA)
    exact = np.linalg.eigvals(spectra.coupling_matrix(p))
    doublet = exact[np.argsort(-np.abs(exact.real))][:2]
    decays = -2.0 * doublet.imag
    w1, w2, _ = approx_eigenvalues(p)
    pert = (-2.0 * w1.imag, -2.0 * w2.imag)
    ok = (np.all(decays >= 0.4 * GAMMA) and np.all(decays <= 0.6 * GAMMA)
          and abs(pert[0] - 0.5 * GAMMA) < 1e-14 and abs(pert[1] - 0.5 * GAMMA) < 1e-14)
    assert report("6 (eigenvalue narrowing)", ok,
                  f"exact -2Im = {decays[0]:.4f}, {decays[1]:.4f} (in [0.4, 0.6]); "
                  f"perturbative = {pert[0]:.6f} (= 0.5)")


def test_criterion_07_bic_phase():
    g = kappa = 20.0
    dphi = spectra.delta_phi_bic(g, kappa)
    p = ep(dphi, g=g, kappa=kappa, gamma=0.0)
    vals = np.linalg.eigvals(spectra.coupling_matrix(p))
    im_min = float(np.abs(vals.imag).min())
    ok = abs(dphi / np.pi - 0.770) <= 0.001 and im_min < 1e-10
    assert report("7 (BIC phase)", ok,
                  f"dphi_BIC = {dphi/np.pi:.4f} pi (0.770 +- 0.001), "
                  f"min |Im| = {im_min:.1e} (< 1e-10)")


def test_criterion_08_trapping_closed_forms():
    kappa = 20.0
    worst = 0.0
    for g in (10.0, 20.0, 40.0):
        p = ep(0.0, g=g, kappa=kappa, gamma=0.0)
        plat = dynamics.trapped_population(p)
        p_e, p_c, _ = dynamics.steady_populations_analytic(g, kappa)
        worst = max(worst, abs(plat.qubit - p_e), abs(plat.cavity - p_c))
    g_r, k_r = Fraction(7, 2), Fraction(20)
    denom = 8 * g_r**2 + k_r**2
    exact_sum = (k_r**4 / denom**2 + 8 * g_r**2 * k_r**2 / denom**2
                 + 8 * g_r**2 / denom)
    ok = worst <= 1e-3 and exact_sum == 1
    assert report("8 (trapping closed forms)", ok,
                  f"max plateau deviation = {worst:.2e} (<= 1e-3); "
                  f"P_e+P_c+P_kappa = {exact_sum} (exact)")


def _fig5_params(d0c):
    return ep(np.pi, g=100.0, kappa=20.0, gamma=GAMMA, omega0=d0c)


def test_criterion_09a_max_concurrence():
    c_max = dynamics.max_concurrence(_fig5_params(232.0), np.linspace(0.0, 0.5, 20001))
    ok = abs(c_max - 0.9866) <= 0.005
    assert report("9a (max concurrence, detuned)", ok,
                  f"C_max = {c_max:.4f} (0.9866 +- 0.005)")


def test_criterion_09b_resonant_bound():
    c_max = dynamics.max_concurrence(_fig5_params(0.0), np.linspace(0.0, 0.5, 20001))
    ok = c_max <= 0.5 + 1e-6
    assert report("9b (resonant concurrence bound)", ok,
                  f"C_max = {c_max:.6f} (<= 0.5 + 1e-6)")


@pytest.mark.xfail(
    strict=True,
    reason="resonant late-time concurrence decays at gamma/2 + kappa^3/(16 g^2): "
           "each polariton amplitude carries gamma/4 from the emitters' free-space "
           "decay on top of the kappa^3/(32 g^2) cavity-induced part, so the "
           "concurrence slope cannot equal kappa^3/(32 g^2) for gamma > 0; that "
           "value is the gamma = 0 polariton eigen-decay (verified in "
           "test_criterion_09c_companion_eigen_decay)")
def test_criterion_09c_ep_late_decay_rate():
    g, kappa = 100.0, 20.0
    target = kappa**3 / (32.0 * g * g)
    t = np.linspace(0.0, 10.0, 2001)
    c = dynamics.concurrence_series(_fig5_params(0.0), t)
    rate = dynamics.late_decay_rate(t, c, (3.0, 10.0))
    ok = abs(rate - target) <= 0.25 * target
    report("9c (EP late concurrence rate)", ok,
           f"rate = {rate:.4f}, target = {target:.4f} +- 25% "
           f"(known failure: measured gamma/2 + kappa^3/(16 g^2) = "
           f"{0.5 * GAMMA + kappa**3 / (16 * g * g):.4f})")
    assert ok


def test_criterion_09c_companion_eigen_decay():
    # the quoted rate is the ideal-emitter polariton eigen-decay of the
    # two-qubit single-excitation matrix
    g, kappa = 100.0, 20.0
    p = _fig5_params(0.0).replace(gamma=0.0)
    vals = np.linalg.eigvals(spectra.coupling_matrix(p, n_qubits=2))
    polariton = vals[np.argsort(-np.abs(vals.real))][:2]
    target = kappa**3 / (32.0 * g * g)
    dev = np.abs(-polariton.imag - target).max()
    ok = dev <= 0.25 * target
    assert report("9c-companion (ideal polariton eigen-decay)", ok,
                  f"-Im(w_polariton) = {-polariton.imag[0]:.5f}, "
                  f"target {target:.5f} +- 25%")


def test_criterion_09d_dp_late_decay_rate():
    t = np.linspace(0.0, 10.0, 2001)
    c = dynamics.concurrence_series(_fig5_params(0.0).replace(r_abs=0.0), t)
    rate = dynamics.late_decay_rate(t, c, (3.0, 10.0))
    ok = abs(rate - GAMMA) <= 0.1 * GAMMA
    assert report("9d (DP late concurrence rate)", ok,
                  f"rate = {rate:.4f} (gamma +- 10%)")


def test_criterion_10_minimum_decay():
    kappa = 20.0
    gm = spectra.min_decay(ModelParams(g=20.0, kappa=kappa, gamma=GAMMA), 0.0)
    ok = GAMMA / 25.0 <= gm <= GAMMA / 15.0
    details = [f"Gamma_m(g=20, dphi=0) = {gm:.4f} (in [1/25, 1/15])"]
    for g in (5.0, 10.0, 20.0):
        lim = spectra.min_decay(ModelParams(g=g, kappa=kappa, gamma=GAMMA),
                                0.99 * np.pi)
        ok = ok and abs(lim - 0.5 * GAMMA) <= 0.05 * 0.5 * GAMMA
        details.append(f"g={g:g}: {lim:.4f}")
    assert report("10 (minimum decay)", ok,
                  "; ".join(details) + " (gamma/2 +- 5% as dphi -> pi)")


def test_criterion_11_photon_blockade():
    g, kappa = 5.0, 20.0
    layout = SpaceLayout(1, 4)
    drive = DriveSpec(omega_drive=0.0, amplitude=0.2 * GAMMA)
    dp = ModelParams(g=g, kappa=kappa, gamma=GAMMA, r_abs=0.0)
    sw_dp = blockade.g2_sweep(dp, drive, np.linspace(-12, 12, 49), layout)
    epp = ep(0.0, g=g, kappa=kappa, gamma=GAMMA)   # delta_omega_bic(0) = 0
    sw_ep = blockade.g2_sweep(epp, drive, np.linspace(-12, 12, 97), layout)
    ratio = sw_ep.max_n_L / sw_dp.max_n_L
    ok = (0.05 <= sw_dp.min_g2 <= 0.2 and sw_ep.min_g2 <= 0.01 and ratio >= 30.0)
    assert report("11 (photon blockade)", ok,
                  f"DP min g2 = {sw_dp.min_g2:.3f} (in [0.05, 0.2]); "
                  f"EP min g2 = {sw_ep.min_g2:.4f} (<= 0.01); "
                  f"peak n_L ratio = {ratio:.0f} (>= 30)")


def test_criterion_12_fit_workflow():
    wc0, k0, g0 = 0.78122, 152.8e-6, 24.9e-6
    w = np.linspace(wc0 - 5.3 * k0, wc0 + 4.1 * k0, 401)
    clean = ldos.lorentzian_model(w, wc0, k0, g0)
    res = ldos.fit_lorentzian(ldos.SpectrumSeries(w, clean))
    clean_dev = max(abs(res.omega_c / wc0 - 1), abs(res.kappa / k0 - 1),
                    abs(res.g / g0 - 1))
    rng = np.random.default_rng(12)
    noisy = clean * (1.0 + 0.005 * rng.standard_normal(len(w)))
    res_n = ldos.fit_lorentzian(ldos.SpectrumSeries(w, noisy))
    noisy_dev = max(abs(res_n.omega_c / wc0 - 1), abs(res_n.kappa / k0 - 1),
                    abs(res_n.g / g0 - 1))
    ok = clean_dev <= 1e-9 and noisy_dev <= 0.02
    assert report("12 (fit workflow)", ok,
                  f"noiseless max rel err = {clean_dev:.1e} (<= 1e-9); "
                  f"0.5% noise max rel err = {noisy_dev:.1e} (<= 0.02)")
