"""Pinned reproduction pipelines for the headline results.

Each pipeline runs a canned configuration, returns plot-ready columns and a
list of named checks evaluated against the published targets.  The CLI
`reproduce` command writes the columns as CSV plus a JSON summary and exits
nonzero when a check fails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blockade, dynamics, ldos, master, spectra
from .hilbert import SpaceLayout, cavity_ops, product_ket, qubit_lowering
from .params import DriveSpec, ModelParams


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    target: str
    passed: bool


@dataclass
class FigureResult:
    figure: str
    tables: dict[str, dict[str, np.ndarray]]   # file stem -> ordered columns
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _ep(delta_phi: float, **kw) -> ModelParams:
    return ModelParams.from_delta_phi(delta_phi, **kw)


def fig3a() -> FigureResult:
    """EP-induced transparency at cooperativity 0.2 versus the reference cavity."""
    g, gamma = 1.0, 1.0
    kappa = 8.0 * g * g / (0.2 * gamma)
    t = np.linspace(0.0, 5.0 / gamma, 1001)
    p_ep = _ep(0.0, g=g, kappa=kappa, gamma=gamma)
    p_dp = p_ep.replace(r_abs=0.0)
    pop_ep = dynamics.amplitude_evolve(p_ep, dynamics.excited_qubit_state(1), t).qubit()
    pop_dp = dynamics.amplitude_evolve(p_dp, dynamics.excited_qubit_state(1), t).qubit()
    free = np.exp(-gamma * t)
    dev = float(np.abs(pop_ep - free).max())
    dp_rate = dynamics.late_decay_rate(t, pop_dp, (0.0, 5.0 / gamma))
    return FigureResult(
        figure="fig3a",
        tables={"fig3a_dynamics": {
            "t": t, "p_qubit_ep": pop_ep, "p_qubit_dp": pop_dp, "p_qubit_free": free}},
        checks=[
            Check("ep_matches_free_space", dev, "max deviation < 0.01", dev < 0.01),
            Check("dp_decays_faster", dp_rate, ">= 1.15*gamma", dp_rate >= 1.15 * gamma),
        ])


def fig3d() -> FigureResult:
    """On-resonance Purcell enhancement versus phase for several |r|."""
    base = ModelParams(g=1.0, kappa=20.0, gamma=1.0)
    dphis = np.linspace(-np.pi, np.pi, 201)
    cols: dict[str, np.ndarray] = {"delta_phi": dphis}
    for r in (1.0, 0.8, 0.6, 0.4, 0.2):
        cols[f"eta_r{r:g}"] = np.array(
            [ldos.enhancement_eta(d, r, base) for d in dphis])
    eta_pi = ldos.enhancement_eta(np.pi, 1.0, base)
    eta_0 = ldos.enhancement_eta(0.0, 1.0, base)
    return FigureResult(
        figure="fig3d",
        tables={"fig3d_eta": cols},
        checks=[
            Check("eta_at_pi", eta_pi, "= 2 +- 1e-12", abs(eta_pi - 2.0) <= 1e-12),
            Check("eta_at_0", eta_0, "= 0 +- 1e-12", abs(eta_0) <= 1e-12),
        ])


def fig4() -> FigureResult:
    """Rabi-oscillation decay suppression; amplitude/master cross-check."""
    gamma, kappa = 1.0, 20.0
    tables = {}
    for g, stem, t_max in ((10.0, "fig4a_populations", 1.5), (100.0, "fig4b_populations", 3.0)):
        p = _ep(np.pi, g=g, kappa=kappa, gamma=gamma)
        t = np.linspace(0.0, t_max, 1501)
        ep = dynamics.amplitude_evolve(p, dynamics.excited_qubit_state(1), t)
        dp = dynamics.amplitude_evolve(p.replace(r_abs=0.0),
                                       dynamics.excited_qubit_state(1), t)
        tables[stem] = {
            "t": t, "p_qubit": ep.qubit(), "p_cavity_L": ep.cavity_L,
            "p_cavity_R": ep.cavity_R,
            "p_cavity_dp": dp.cavity_L + dp.cavity_R,
            "p_qubit_free": np.exp(-gamma * t)}
    max_cr = float(tables["fig4a_populations"]["p_cavity_R"].max())

    # oracle equivalence: single-excitation populations from the full generator
    p10 = _ep(np.pi, g=10.0, kappa=kappa, gamma=gamma)
    layout = SpaceLayout(1, 2, max_excitations=1)
    lv = master.build_liouvillian(p10, layout)
    t_cmp = np.linspace(0.0, 1.5, 61)
    rho0 = master.DensityMatrix.from_ket(product_ket(layout, (1,), 0, 0))
    run = master.evolve(lv, rho0, t_cmp)
    sm = qubit_lowering(layout, 0)
    c_l, c_r = cavity_ops(layout)
    amp = dynamics.amplitude_evolve(p10, dynamics.excited_qubit_state(1), t_cmp)
    devs = [np.abs(run.expect(op.conj().T @ op).real - ref).max()
            for op, ref in ((sm, amp.qubit()), (c_l, amp.cavity_L), (c_r, amp.cavity_R))]
    eq_dev = float(max(devs))

    # late-time Rabi peaks of the g=100 curve beat the bare-emitter envelope
    tb = tables["fig4b_populations"]
    pk_t, pk_v = dynamics.rabi_peak_envelope(tb["t"], tb["p_qubit"], (2.0, 3.0))
    slow = bool(len(pk_v) and np.all(pk_v > np.exp(-gamma * pk_t)))
    return FigureResult(
        figure="fig4",
        tables=tables,
        checks=[
            Check("max_cavity_R_population", max_cr, "in [0.60, 0.72]",
                  0.60 <= max_cr <= 0.72),
            Check("amplitude_master_equivalence", eq_dev, "<= 1e-8", eq_dev <= 1e-8),
            Check("late_rabi_peaks_beat_free_decay", float(len(pk_v)), "all peaks above e^-t", slow),
        ])


def fig5() -> FigureResult:
    """Two-qubit entanglement generation, detuned optimum and resonant bound."""
    g, kappa, gamma = 100.0, 20.0, 1.0
    t_peak = np.linspace(0.0, 0.5, 20001)
    t_long = np.linspace(0.0, 10.0, 4001)
    p_det = _ep(np.pi, g=g, kappa=kappa, gamma=gamma, omega0=2.32 * g)
    p_res = _ep(np.pi, g=g, kappa=kappa, gamma=gamma)
    c_max = dynamics.max_concurrence(p_det, t_peak)
    c_res_max = dynamics.max_concurrence(p_res, t_peak)
    c_det = dynamics.concurrence_series(p_det, t_long)
    c_res = dynamics.concurrence_series(p_res, t_long)
    c_dp = dynamics.concurrence_series(p_res.replace(r_abs=0.0), t_long)
    dp_rate = dynamics.late_decay_rate(t_long, c_dp, (3.0, 10.0))
    return FigureResult(
        figure="fig5",
        tables={"fig5_concurrence": {
            "t": t_long, "C_ep_detuned": c_det, "C_ep_resonant": c_res,
            "C_dp_resonant": c_dp}},
        checks=[
            Check("max_concurrence_detuned", c_max, "= 0.9866 +- 0.005",
                  abs(c_max - 0.9866) <= 0.005),
            Check("resonant_bound", c_res_max, "<= 0.5 + 1e-6",
                  c_res_max <= 0.5 + 1e-6),
            Check("dp_rate", dp_rate, "within 10% of gamma",
                  abs(dp_rate - gamma) <= 0.1 * gamma),
        ])


def fig6() -> FigureResult:
    """Bound states at delta_phi = 0 and delta_phi_BIC: eigenvalues, Hopfield, trapping."""
    g = kappa = 20.0
    p0 = _ep(0.0, g=g, kappa=kappa, gamma=0.0)
    dphis = np.linspace(0.0, np.pi, 361)
    sweep = spectra.eigenmode_sweep(
        spectra.coupling_matrix(p0.replace(phi_prop=float(d))) for d in dphis)
    cols: dict[str, np.ndarray] = {"delta_phi": dphis}
    for lab in range(3):
        by_label = [next(m for m in modes if m.label == lab) for modes in sweep]
        cols[f"re_{lab}"] = np.array([m.value.real for m in by_label])
        cols[f"im_{lab}"] = np.array([m.value.imag for m in by_label])
        cols[f"qubit_weight_{lab}"] = np.array([m.qubit_weight for m in by_label])

    dphi_bic = spectra.delta_phi_bic(g, kappa)
    modes_bic = spectra.eigenmodes(spectra.coupling_matrix(
        p0.replace(phi_prop=float(dphi_bic))))
    bic_mode = min(modes_bic, key=lambda m: abs(m.value.imag))
    plateau0 = dynamics.trapped_population(p0)
    plateau_bic = dynamics.trapped_population(p0.replace(phi_prop=float(dphi_bic)))
    plateau_dp = dynamics.trapped_population(p0.replace(r_abs=0.0))
    pe_ref, pc_ref, _ = dynamics.steady_populations_analytic(g, kappa)

    return FigureResult(
        figure="fig6",
        tables={"fig6_eigen": cols,
                "fig6_trapping": {
                    "component": np.arange(3.0),
                    "plateau_dphi0": plateau0.components,
                    "plateau_bic": plateau_bic.components,
                    "plateau_dp": plateau_dp.components}},
        checks=[
            Check("delta_phi_bic", dphi_bic / np.pi, "= 0.770 pi +- 0.001 pi",
                  abs(dphi_bic / np.pi - 0.770) <= 0.001),
            Check("bic_is_real", abs(bic_mode.value.imag), "|Im| < 1e-10",
                  abs(bic_mode.value.imag) < 1e-10),
            Check("bic_qubit_hopfield", bic_mode.qubit_weight, "= 0.5 +- 0.01",
                  abs(bic_mode.qubit_weight - 0.5) <= 0.01),
            Check("trapped_qubit_closed_form", plateau0.qubit,
                  f"= {pe_ref:.6f} +- 1e-3", abs(plateau0.qubit - pe_ref) <= 1e-3),
            Check("trapped_cavity_closed_form", plateau0.cavity,
                  f"= {pc_ref:.6f} +- 1e-3", abs(plateau0.cavity - pc_ref) <= 1e-3),
            Check("bic_traps_more_in_qubit", plateau_bic.qubit,
                  "> each cavity-mode plateau",
                  plateau_bic.qubit > max(plateau_bic.components[0],
                                          plateau_bic.components[1])),
            Check("dp_traps_nothing", plateau_dp.components.max(), "< 1e-6",
                  plateau_dp.components.max() < 1e-6),
        ])


def fig7() -> FigureResult:
    """Trapping versus emitter-cavity detuning at delta_phi = pi/2."""
    g, kappa = 10.0, 20.0
    dphi = np.pi / 2.0
    p = _ep(dphi, g=g, kappa=kappa, gamma=0.0)
    d0cs = np.linspace(-40.0, 40.0, 81)
    plats = [dynamics.trapped_population(p.replace(omega0=float(d))) for d in d0cs]
    cavity = np.array([plat.cavity for plat in plats])
    plat0 = plats[40]   # d0cs[40] is exactly 0.0: the resonant point p itself
    d_bic = spectra.delta_omega_bic(g, kappa, dphi)
    return FigureResult(
        figure="fig7",
        tables={"fig7_trapping": {"delta_0c": d0cs, "p_cavity_plateau": cavity}},
        checks=[
            Check("bic_detuning", d_bic, "= 0 (resonant bound state)",
                  abs(d_bic) <= 1e-12),
            Check("resonant_plateau_positive", plat0.cavity, "> 0.05",
                  plat0.cavity > 0.05),
            Check("plateau_peaks_at_resonance", float(d0cs[int(np.argmax(cavity))]),
                  "|argmax| <= 1", abs(d0cs[int(np.argmax(cavity))]) <= 1.0),
            Check("cavity_modes_trap_equally",
                  float(abs(plat0.components[0] - plat0.components[1])),
                  "|p_L - p_R| <= 1e-3",
                  abs(plat0.components[0] - plat0.components[1]) <= 1e-3),
        ])


def fig8() -> FigureResult:
    """Long-time decay suppression and single-photon blockade."""
    gamma, kappa = 1.0, 20.0
    # (a) emitter dynamics at the bound-state detuning
    t = np.linspace(0.0, 12.0, 1201)
    cols_a: dict[str, np.ndarray] = {"t": t}
    for dphi, gam in ((0.0, 1.0), (np.pi / 4, 0.5), (np.pi / 2, 0.25)):
        g = 5.0 * gam                 # g = 5 gamma, kappa = 20 gamma per curve
        kap = 20.0 * gam
        d0c = spectra.delta_omega_bic(g, kap, dphi)
        p = _ep(dphi, g=g, kappa=kap, gamma=gam, omega0=d0c)
        pop = dynamics.amplitude_evolve(p, dynamics.excited_qubit_state(1), t).qubit()
        cols_a[f"p_qubit_dphi{dphi / np.pi:.2f}pi"] = pop
        cols_a[f"p_free_dphi{dphi / np.pi:.2f}pi"] = np.exp(-gam * t)

    # (b) minimum eigen decay versus phase
    dphis = np.linspace(0.0, 0.99 * np.pi, 100)
    cols_b: dict[str, np.ndarray] = {"delta_phi": dphis}
    for g in (5.0, 10.0, 20.0):
        base = ModelParams(g=g, kappa=kappa, gamma=gamma)
        cols_b[f"gamma_m_g{g:g}"] = np.array(
            [spectra.min_decay(base, d) for d in dphis])
    gm20 = spectra.min_decay(ModelParams(g=20.0, kappa=kappa, gamma=gamma), 0.0)
    gm_limits = [spectra.min_decay(ModelParams(g=g, kappa=kappa, gamma=gamma),
                                   0.99 * np.pi) for g in (5.0, 10.0, 20.0)]

    # (c) blockade: reference cavity versus EP cavity at the bound-state point
    g_b = 5.0
    layout = SpaceLayout(1, 4)
    drive = DriveSpec(omega_drive=0.0, amplitude=0.2 * gamma)
    dets = np.linspace(-12.0, 12.0, 49)
    p_dp = ModelParams(g=g_b, kappa=kappa, gamma=gamma, r_abs=0.0)
    sweep_dp = blockade.g2_sweep(p_dp, drive, dets, layout)
    dets_ep = np.linspace(-12.0, 12.0, 97)
    p_ep = _ep(0.0, g=g_b, kappa=kappa, gamma=gamma)
    sweep_ep = blockade.g2_sweep(p_ep, drive, dets_ep, layout)
    nl_ratio = sweep_ep.max_n_L / sweep_dp.max_n_L
    cols_c = {"detuning": dets_ep,
              "g2_ep": np.array([r.g2 for r in sweep_ep.results]),
              "n_L_ep": np.array([r.n_L for r in sweep_ep.results])}
    cols_c_dp = {"detuning": dets,
                 "g2_dp": np.array([r.g2 for r in sweep_dp.results]),
                 "n_L_dp": np.array([r.n_L for r in sweep_dp.results])}

    checks = [
        Check("gamma_m_g20_dphi0", gm20, "in [gamma/25, gamma/15]",
              gamma / 25.0 <= gm20 <= gamma / 15.0),
        Check("gamma_m_limit_g5", gm_limits[0], "gamma/2 +- 5%",
              abs(gm_limits[0] - 0.5 * gamma) <= 0.025 * gamma),
        Check("gamma_m_limit_g10", gm_limits[1], "gamma/2 +- 5%",
              abs(gm_limits[1] - 0.5 * gamma) <= 0.025 * gamma),
        Check("gamma_m_limit_g20", gm_limits[2], "gamma/2 +- 5%",
              abs(gm_limits[2] - 0.5 * gamma) <= 0.025 * gamma),
        Check("dp_min_g2", sweep_dp.min_g2, "in [0.05, 0.2]",
              0.05 <= sweep_dp.min_g2 <= 0.2),
        Check("ep_min_g2", sweep_ep.min_g2, "<= 0.01", sweep_ep.min_g2 <= 0.01),
        Check("population_ratio", nl_ratio, ">= 30", nl_ratio >= 30.0),
    ]
    return FigureResult(
        figure="fig8",
        tables={"fig8a_dynamics": cols_a, "fig8b_min_decay": cols_b,
                "fig8c_blockade_ep": cols_c, "fig8c_blockade_dp": cols_c_dp},
        checks=checks)


PIPELINES = {
    "fig3a": fig3a, "fig3d": fig3d, "fig4": fig4, "fig5": fig5,
    "fig6": fig6, "fig7": fig7, "fig8": fig8,
}


def reproduce_figure(figure: str) -> FigureResult:
    """Run one pinned pipeline; raises KeyError-style ValueError on unknown ids."""
    if figure not in PIPELINES:
        raise ValueError(
            f"unknown figure {figure!r}; choose from {sorted(PIPELINES)}")
    return PIPELINES[figure]()
