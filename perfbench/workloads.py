"""The four benchmark workloads, built from the paper's pinned configurations.

A workload makes its inputs once (the set-up), then lists the operations of
one round.  Every round runs the same operations on the same inputs.  After
the timed rounds, `observe` turns the last round's outputs into plain
arrays, `reference` computes what they should be apart from the library, and
`compare` returns one verdict per check.  `perturbations` returns wrong
variants of the observations (for example a result for g off by 1 %), which
the same checks must reject.

Only the fit noise and the eigen-map sample points are drawn from the seed:
their cost does not depend on the values drawn.  The blockade and trapping
grids stay pinned, since `trapped_population`'s step shrinks with the
detuning.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from epqed import blockade, cli, dynamics, figures, hilbert, ldos, master, spectra
from epqed.hilbert import SpaceLayout
from epqed.params import DriveSpec, ModelParams

import reference as ref


class OperationFailed(Exception):
    """A CLI call that exited with a nonzero code."""


@dataclass
class Op:
    """One timed operation; `points` sweep points are attempted by it.

    `scaled`: its time is brought to a reference speed by the interpreter
    probe of run.py.  Right for RK4 loops and eigen code on small matrices,
    whose speed drifts with the host's; dense BLAS and memory-bound products
    drift far less and stay on the wall clock.
    """

    name: str
    call: Callable[[], object]
    points: int = 1
    failed_points: Callable[[object], int] = lambda out: 0
    scaled: bool = True


@dataclass(frozen=True)
class Test:
    target: str
    passes: Callable[[float], bool]


def at_most(x):
    return Test(f"<= {x:g}", lambda v: v <= x)


def at_least(x):
    return Test(f">= {x:g}", lambda v: v >= x)


def between(lo, hi):
    return Test(f"in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi)


def near(x, tol):
    return Test(f"= {x:g} +- {tol:g}", lambda v: abs(v - x) <= tol)


HOLDS = Test("holds", lambda v: v == 1.0)


@dataclass
class Verdict:
    name: str
    value: float | None
    target: str
    ok: bool | None   # None: skipped because an operation it needs failed


def judge(obs, checks) -> list[Verdict]:
    """Evaluate (name, needed observation keys, value function, Test) rows."""
    out = []
    for name, needs, value, test in checks:
        if all(k in obs for k in needs):
            v = float(value())
            out.append(Verdict(name, v, test.target, bool(test.passes(v))))
        else:
            out.append(Verdict(name, None, test.target, None))
    return out


def run_cli(argv) -> int:
    """epqed.cli.main(argv) with its summary line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"epqed {argv[0]} exited with code {code}")
    return code


def with_change(obs, key, value):
    changed = copy.deepcopy(obs)
    changed[key] = value
    return changed


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def max_rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(b)))


def values_match(got, want):
    """Largest distance from a value in got to the nearest in want, both ways."""
    d = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# blockade: driven g2(0) steady states (fig8c)
# ---------------------------------------------------------------------------

class Blockade:
    """One build with many solves (the sweeps) beside one build per solve
    (g2_zero at cutoffs 4 and 5, and at a weak drive)."""

    name = "blockade"

    def __init__(self, seed: int, workdir: Path):
        self.ref_params = ModelParams(g=5.0, kappa=20.0, gamma=1.0, r_abs=0.0)
        self.ep_params = ModelParams.from_delta_phi(0.0, g=5.0, kappa=20.0, gamma=1.0)
        self.drive = DriveSpec(omega_drive=0.0, amplitude=0.2)
        self.weak_drive = DriveSpec(omega_drive=0.0, amplitude=0.01)
        self.cutoff4, self.cutoff5 = SpaceLayout(1, 4), SpaceLayout(1, 5)
        self.ref_grid = np.linspace(-12.0, 12.0, 49)
        self.cli_grid = np.linspace(-12.0, 12.0, 25)
        self.cli_csv = workdir / "blockade" / "blockade.csv"
        self.cli_argv = ["blockade", "--sweep", "detuning=-12:12:25", "--g", "5",
                         "--workers", "1", "--out", str(self.cli_csv.parent)]

    def _cli_table(self):
        return ref.read_csv_columns(self.cli_csv.read_text())

    def ops(self):
        return [
            Op("ref_sweep", lambda: blockade.g2_sweep(
                self.ref_params, self.drive, self.ref_grid, self.cutoff4),
               len(self.ref_grid), lambda sweep: len(sweep.errors), scaled=False),
            # cli._blockade_sweep drops BlockadeSweep.errors: failed points are NaN rows
            Op("ep_cli_sweep", lambda: run_cli(self.cli_argv), len(self.cli_grid),
               lambda code: int(np.isnan(self._cli_table()["g2"]).sum()), scaled=False),
            Op("ep_min_cutoff4", lambda: blockade.g2_zero(
                self.ep_params, self.drive, self.cutoff4), scaled=False),
            Op("ep_min_cutoff5", lambda: blockade.g2_zero(
                self.ep_params, self.drive, self.cutoff5), scaled=False),
            Op("ep_weak_drive", lambda: blockade.g2_zero(
                self.ep_params, self.weak_drive, self.cutoff4), scaled=False),
        ]

    def observe(self, outputs):
        obs = {}
        if "ref_sweep" in outputs:
            obs["ref_min_g2"] = outputs["ref_sweep"].min_g2
            obs["ref_n_L"] = np.array([r.n_L for r in outputs["ref_sweep"].results])
        if "ep_cli_sweep" in outputs:
            table = self._cli_table()
            obs["cli_g2"], obs["cli_n_L"] = table["g2"], table["n_L"]
        for key in ("ep_min_cutoff4", "ep_min_cutoff5", "ep_weak_drive"):
            if key in outputs:
                obs[key] = np.array([outputs[key].g2, outputs[key].n_L])
        return obs

    def reference(self, obs):
        # a library sweep based at another detuning than the CLI's, so the
        # shifted generators differ: rows 12, 19 and 3 of the CLI grid
        rows = [12, 19, 3]
        sweep = blockade.g2_sweep(self.ep_params, self.drive, self.cli_grid[rows], self.cutoff4)
        m_ep = ref.single_excitation_matrix(5.0, 20.0, 1.0, 1.0, 0.0, [0.0])
        m_ref = ref.single_excitation_matrix(5.0, 20.0, 1.0, 0.0, 0.0, [0.0])
        return {
            "rows": rows,
            "library": np.array([[r.g2, r.n_L] for r in sweep.results]),
            "ref_linear": np.array([ref.weak_drive_population(m_ref, d, 0.2)
                                    for d in self.ref_grid]),
            "ep_linear": np.array([ref.weak_drive_population(m_ep, d, 0.2)
                                   for d in self.cli_grid]),
            "weak_linear": ref.weak_drive_population(m_ep, 0.0, 0.01),
        }

    def compare(self, obs, r):
        far = np.abs(self.cli_grid) >= 2.0   # the weak-drive limit fails near resonance
        return judge(obs, [
            ("ref_min_g2", ["ref_min_g2"], lambda: obs["ref_min_g2"], between(0.05, 0.2)),
            ("ep_min_g2", ["cli_g2"], lambda: obs["cli_g2"].min(), at_most(0.01)),
            ("n_L_ratio_ep_over_ref", ["cli_n_L", "ref_n_L"],
             lambda: obs["cli_n_L"].max() / obs["ref_n_L"].max(), at_least(30.0)),
            ("weak_drive_n_L_over_linear_response", ["ep_weak_drive"],
             lambda: obs["ep_weak_drive"][1] / r["weak_linear"], near(1.0, 2e-3)),
            ("ref_n_L_vs_linear_response", ["ref_n_L"],
             lambda: max_rel(obs["ref_n_L"], r["ref_linear"]), at_most(2e-3)),
            ("ep_off_resonance_n_L_vs_linear_response", ["cli_n_L"],
             lambda: max_rel(obs["cli_n_L"][far], r["ep_linear"][far]), at_most(2e-3)),
            ("cutoff_4_5_agree", ["ep_min_cutoff4", "ep_min_cutoff5"],
             lambda: max_rel(obs["ep_min_cutoff5"], obs["ep_min_cutoff4"]), at_most(1e-5)),
            ("g2_zero_matches_cli_row", ["ep_min_cutoff4", "cli_g2"],
             lambda: max_rel(obs["ep_min_cutoff4"], [obs["cli_g2"][12], obs["cli_n_L"][12]]),
             at_most(1e-7)),
            ("cli_csv_matches_library_sweep", ["cli_g2"],
             lambda: max_rel(np.stack([obs["cli_g2"], obs["cli_n_L"]], axis=1)[r["rows"]],
                             r["library"]), at_most(1e-7)),
        ])

    def perturbations(self, obs, r):
        return [
            ("cli g2 off by 1 %", with_change(obs, "cli_g2", obs["cli_g2"] * 1.01)),
            ("weak-drive n_L off by 1 %", with_change(
                obs, "ep_weak_drive", obs["ep_weak_drive"] * [1.0, 1.01])),
            ("cutoff-5 g2 off by 0.1 %", with_change(
                obs, "ep_min_cutoff5", obs["ep_min_cutoff5"] * [1.001, 1.0])),
            ("reference-cavity n_L off by 1 %", with_change(obs, "ref_n_L", obs["ref_n_L"] * 1.01)),
            ("reference-cavity min g2 too high", with_change(obs, "ref_min_g2", 0.25)),
        ]


# ---------------------------------------------------------------------------
# dm-evolve: density-matrix propagation (fig4 cross-check, QRT oracle, cutoff check)
# ---------------------------------------------------------------------------

def _n_left(layout):
    c_l, _ = hilbert.cavity_ops(layout)
    return c_l.conj().T @ c_l


class DmEvolve:
    """RK4 over a Liouvillian, one build per trajectory, no steady state."""

    name = "dm-evolve"

    def __init__(self, seed: int, workdir: Path):
        self.fig4_params = ModelParams.from_delta_phi(np.pi, g=10.0, kappa=20.0, gamma=1.0)
        self.fig4_layout = SpaceLayout(1, 2)
        self.fig4_rho0 = master.DensityMatrix.from_ket(
            hilbert.product_ket(self.fig4_layout, (1,), 0, 0))
        self.fig4_t = np.linspace(0.0, 1.5, 61)
        self.cavity_phases = (0.0, 0.5 * np.pi)
        self.cavity_omega = np.linspace(-60.0, 60.0, 241)
        self.conv_params = ModelParams(g=5.0, kappa=20.0, gamma=1.0)
        self.conv_drive = DriveSpec(omega_drive=0.0, amplitude=0.2)
        self.conv_t = np.linspace(0.0, 0.25, 6)

    def _fig4_master(self):
        lv = master.build_liouvillian(self.fig4_params, self.fig4_layout)
        return lv, master.evolve(lv, self.fig4_rho0, self.fig4_t, step=5e-5)

    def ops(self):
        ops = [
            Op("fig4_master", self._fig4_master),
            Op("fig4_amplitude", lambda: dynamics.amplitude_evolve(
                self.fig4_params, dynamics.excited_qubit_state(1), self.fig4_t, step=5e-5)),
        ]
        for k, dphi in enumerate(self.cavity_phases):
            ops.append(Op(f"qrt_ldos_{k}", lambda dphi=dphi: ldos.numerical_spectral_density(
                ModelParams.from_delta_phi(dphi, g=1.0, kappa=20.0, gamma=1.0),
                SpaceLayout(0, 2), self.cavity_omega)))
        # matrix-vector products at N^2 = 324 and 1024: bound by memory
        ops.append(Op("cutoff_convergence", lambda: master.convergence_check(
            self.conv_params, SpaceLayout(1, 3), _n_left, self.conv_t, drive=self.conv_drive),
            scaled=False))
        return ops

    def observe(self, outputs):
        obs = {}
        if "fig4_master" in outputs:
            lv, run = outputs["fig4_master"]
            obs["generator"] = lv.matrix
            obs["states"] = np.array([s.entries for s in run.states])
        if "fig4_amplitude" in outputs:
            series = outputs["fig4_amplitude"]
            obs["amplitude_pops"] = np.stack(
                [series.qubit(), series.cavity_L, series.cavity_R], axis=1)
        for k in range(len(self.cavity_phases)):
            if f"qrt_ldos_{k}" in outputs:
                obs[f"qrt_J_{k}"] = outputs[f"qrt_ldos_{k}"].value
        if "cutoff_convergence" in outputs:
            obs["converged"], obs["cutoff_deviation"] = outputs["cutoff_convergence"]
        return obs

    def _expm_states(self, generator):
        """vec(rho(t)) = expm(L t) vec(rho0), column-stacked as the library's L is."""
        v0 = self.fig4_rho0.entries.reshape(-1, order="F")
        dim = self.fig4_rho0.dim
        return np.array([(scipy.linalg.expm(generator * t) @ v0).reshape(dim, dim, order="F")
                         for t in self.fig4_t])

    def reference(self, obs):
        r = {"J": [ref.spectral_density(self.cavity_omega, 1.0, 20.0, 1.0, dphi)
                   for dphi in self.cavity_phases]}
        if "generator" in obs:
            r["states"] = self._expm_states(obs["generator"])
        return r

    @staticmethod
    def _master_pops(states):
        """(qubit, n_L, n_R) populations; the basis is qubit x L x R, each of dimension 2."""
        diag = np.einsum("kii->ki", states).real.reshape(-1, 2, 2, 2)
        return np.stack([diag[:, 1].sum(axis=(1, 2)), diag[:, :, 1].sum(axis=(1, 2)),
                         diag[:, :, :, 1].sum(axis=(1, 2))], axis=1)

    def compare(self, obs, r):
        checks = [
            ("evolve_matches_expm", ["states"],
             lambda: max_abs(obs["states"], r["states"]), at_most(1e-9)),
            ("amplitude_master_equivalence", ["states", "amplitude_pops"],
             lambda: max_abs(self._master_pops(obs["states"]), obs["amplitude_pops"]),
             at_most(1e-8)),
            ("cutoff_check_converged", ["converged"], lambda: obs["converged"], HOLDS),
            ("cutoff_check_deviation", ["cutoff_deviation"],
             lambda: obs["cutoff_deviation"], at_most(1e-6)),
        ]
        for k, dphi in enumerate(self.cavity_phases):
            # relative to the peak of J
            checks.append((f"qrt_J_matches_closed_form_dphi{dphi / np.pi:.2f}pi", [f"qrt_J_{k}"],
                           lambda k=k: max_abs(obs[f"qrt_J_{k}"], r["J"][k]) / r["J"][k].max(),
                           at_most(1e-4)))
        return judge(obs, checks)

    def perturbations(self, obs, r):
        off_g = master.build_liouvillian(
            self.fig4_params.replace(g=1.01 * self.fig4_params.g), self.fig4_layout).matrix
        return [
            ("evolution for g off by 1 %", with_change(obs, "states", self._expm_states(off_g))),
            ("amplitude populations off by 1e-6", with_change(
                obs, "amplitude_pops", obs["amplitude_pops"] + 1e-6)),
            ("QRT J off by 1 %", with_change(obs, "qrt_J_1", obs["qrt_J_1"] * 1.01)),
            ("cutoff check not converged", with_change(obs, "converged", False)),
        ]


# ---------------------------------------------------------------------------
# amplitude: single-excitation propagation (fig3a, fig5, reduced fig7)
# ---------------------------------------------------------------------------

class Amplitude:
    """The Python RK4 loop of amplitude_evolve over a 3x3 or 4x4 matrix, on
    densely sampled grids (fig5 peaks) and on few samples over long times
    (the fig5 series, the trapping plateaus)."""

    name = "amplitude"

    def __init__(self, seed: int, workdir: Path):
        self.fig5_detuned = ModelParams.from_delta_phi(
            np.pi, g=100.0, kappa=20.0, gamma=1.0, omega0=232.0)
        self.fig5_resonant = ModelParams.from_delta_phi(np.pi, g=100.0, kappa=20.0, gamma=1.0)
        self.fig5_reference_cavity = self.fig5_resonant.replace(r_abs=0.0)
        self.t_peak = np.linspace(0.0, 0.5, 20001)
        self.t_series = np.linspace(0.0, 3.0, 1201)
        self.fig7_params = ModelParams.from_delta_phi(0.5 * np.pi, g=10.0, kappa=20.0, gamma=0.0)
        self.fig7_detunings = (-2.0, 0.0, 2.0)

    def ops(self):
        ops = [
            Op("fig3a", figures.fig3a),
            Op("fig5_peak_detuned", lambda: dynamics.max_concurrence(
                self.fig5_detuned, self.t_peak)),
            Op("fig5_peak_resonant", lambda: dynamics.max_concurrence(
                self.fig5_resonant, self.t_peak)),
            Op("fig5_series_reference_cavity", lambda: dynamics.amplitude_evolve(
                self.fig5_reference_cavity, dynamics.excited_qubit_state(2),
                self.t_series, n_qubits=2)),
        ]
        for d in self.fig7_detunings:
            ops.append(Op(f"fig7_trap_{d:+g}", lambda d=d: dynamics.trapped_population(
                self.fig7_params.replace(omega0=d))))
        return ops

    def observe(self, outputs):
        obs = {}
        if "fig3a" in outputs:
            table = outputs["fig3a"].tables["fig3a_dynamics"]
            obs["fig3a_t"], obs["fig3a_ep"], obs["fig3a_dp"] = (
                table["t"], table["p_qubit_ep"], table["p_qubit_dp"])
        for key in ("fig5_peak_detuned", "fig5_peak_resonant"):
            if key in outputs:
                obs[key] = float(outputs[key])
        if "fig5_series_reference_cavity" in outputs:
            series = outputs["fig5_series_reference_cavity"]
            obs["series_amplitudes"] = series.amplitudes
            obs["series_total"] = series.total
        plateaus = [outputs.get(f"fig7_trap_{d:+g}") for d in self.fig7_detunings]
        if all(p is not None for p in plateaus):
            obs["trap_components"] = np.array([p.components for p in plateaus])
            obs["trap_converged"] = all(p.converged for p in plateaus)
        return obs

    @staticmethod
    def _two_qubit_matrix(params, g=None):
        return ref.single_excitation_matrix(
            params.g if g is None else g, params.kappa, params.gamma, params.r_abs,
            params.phi_prop, [params.omega0_list()[0]] * 2)

    def _series(self, g=None):
        m = self._two_qubit_matrix(self.fig5_reference_cavity, g)
        return ref.propagate(m, np.array([0, 0, 1, 0], dtype=complex), self.t_series)

    def reference(self, obs):
        p0 = np.array([0, 0, 1, 0], dtype=complex)
        peaks = {key: ref.parabola_peak(self.t_peak, ref.concurrence(ref.propagate_dense(
                     self._two_qubit_matrix(params), p0, self.t_peak)))
                 for key, params in (("fig5_peak_detuned", self.fig5_detuned),
                                     ("fig5_peak_resonant", self.fig5_resonant))}
        m7 = ref.single_excitation_matrix(10.0, 20.0, 0.0, 1.0, 0.5 * np.pi, [0.0])
        return {**peaks, "series_amplitudes": self._series(),
                "trap_resonance": ref.bound_state_plateau(m7, np.array([0, 0, 1], dtype=complex))}

    def compare(self, obs, r):
        trap = lambda: obs["trap_components"]   # rows: detunings -2, 0, 2
        return judge(obs, [
            ("fig3a_ep_deviation_from_free_decay", ["fig3a_ep"],
             lambda: max_abs(obs["fig3a_ep"], np.exp(-obs["fig3a_t"])), at_most(0.01)),
            ("fig3a_reference_cavity_rate", ["fig3a_dp"],
             lambda: ref.decay_rate(obs["fig3a_t"], obs["fig3a_dp"], (0.0, 5.0)), at_least(1.15)),
            ("fig5_max_concurrence_detuned", ["fig5_peak_detuned"],
             lambda: obs["fig5_peak_detuned"], near(0.9866, 0.005)),
            ("fig5_detuned_peak_vs_expm", ["fig5_peak_detuned"],
             lambda: abs(obs["fig5_peak_detuned"] - r["fig5_peak_detuned"]), at_most(1e-6)),
            ("fig5_resonant_bound", ["fig5_peak_resonant"],
             lambda: obs["fig5_peak_resonant"], at_most(0.5 + 1e-6)),
            ("fig5_resonant_peak_vs_expm", ["fig5_peak_resonant"],
             lambda: abs(obs["fig5_peak_resonant"] - r["fig5_peak_resonant"]), at_most(1e-6)),
            ("series_amplitudes_vs_expm", ["series_amplitudes"],
             lambda: max_abs(obs["series_amplitudes"], r["series_amplitudes"]), at_most(1e-7)),
            ("series_populations_plus_leaked_minus_1", ["series_total"],
             lambda: max_abs(obs["series_total"], 1.0), at_most(1e-9)),
            ("fig5_reference_cavity_rate", ["series_amplitudes"],
             lambda: ref.decay_rate(self.t_series, ref.concurrence(obs["series_amplitudes"]),
                                    (1.5, 3.0)), near(1.0, 0.1)),
            ("fig7_plateau_argmax_detuning", ["trap_components"],
             lambda: self.fig7_detunings[int(np.argmax(trap()[:, 0] + trap()[:, 1]))],
             near(0.0, 0.0)),
            ("fig7_cavity_modes_trap_equally", ["trap_components"],
             lambda: abs(trap()[1, 0] - trap()[1, 1]), at_most(1e-3)),
            ("fig7_plateau_vs_bound_state_projection", ["trap_components"],
             lambda: max_abs(trap()[1], r["trap_resonance"]), at_most(1e-3)),
            ("fig7_plateaus_converged", ["trap_converged"], lambda: obs["trap_converged"], HOLDS),
        ])

    def perturbations(self, obs, r):
        flipped = obs["trap_components"].copy()
        flipped[2] = flipped[1] * 1.1
        return [
            ("series for g off by 1 %", with_change(
                obs, "series_amplitudes", self._series(g=1.01 * self.fig5_reference_cavity.g))),
            ("detuned peak off by 0.01", with_change(
                obs, "fig5_peak_detuned", obs["fig5_peak_detuned"] - 0.01)),
            ("population leak off by 1e-8", with_change(
                obs, "series_total", obs["series_total"] + 1e-8)),
            ("off-resonance plateau above the resonant one", with_change(
                obs, "trap_components", flipped)),
            ("fig3a emitter population off by 0.02", with_change(
                obs, "fig3a_ep", obs["fig3a_ep"] + 0.02)),
        ]


# ---------------------------------------------------------------------------
# eigen-ldos: eigenmodes and analytic spectra
# ---------------------------------------------------------------------------

KAPPA = 20.0


class EigenLdos:
    """np.linalg.eig over 3x3 matrices, closed-form spectra and the CLI's
    eigen and fit experiments: no propagator or solver runs."""

    name = "eigen-ldos"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.map_g = np.sort(rng.uniform(8.0, 30.0, 16))
        self.map_dphi = np.sort(rng.uniform(0.0, np.pi, (16, 61)), axis=1)
        self.min_decay_g = (5.0, 10.0, 20.0)
        self.min_decay_dphi = np.linspace(0.0, 0.99 * np.pi, 100)
        self.sd_omega = np.linspace(-100.0, 100.0, 2001)   # omega_c = 0 is the middle sample
        self.sd_dphi = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
        self.sd_r = (1.0, 0.6)
        # closed-form transparency points -(kappa/2) tan(dphi/2); none at dphi = pi
        finite = np.abs(np.cos(self.sd_dphi / 2.0)) > 1e-6
        self.transparency = np.where(
            finite, -0.5 * KAPPA * np.tan(np.where(finite, self.sd_dphi, 0.0) / 2.0), np.nan)
        self.se_cases = ((20.0, 0.0), (20.0, 0.5 * np.pi), (5.0, 0.0), (5.0, np.pi))
        self.fit_truth = np.array([1.5, KAPPA, 1.2])   # omega_c, kappa, g
        omega = np.linspace(-58.5, 61.5, 401)
        noisy = ref.lorentzian(omega, *self.fit_truth) * (
            1.0 + 1e-3 * rng.standard_normal(omega.size))
        self.fit_samples = ldos.SpectrumSeries(omega, noisy)
        fit_csv = workdir / "fit_input.csv"
        fit_csv.write_text("omega,J\n" + "".join(
            f"{float(w)!r},{float(v)!r}\n" for w, v in zip(omega, noisy)))
        self.eigen_dir, self.fit_dir = workdir / "eigen", workdir / "fit"
        self.eigen_sweep = "delta_phi=0:3.1:181"
        self.eigen_argv = ["eigen", "--sweep", self.eigen_sweep, "--g", "20", "--kappa", "20",
                           "--gamma", "0", "--workers", "1", "--out", str(self.eigen_dir)]
        self.fit_argv = ["fit", "--input", str(fit_csv), "--workers", "1",
                         "--out", str(self.fit_dir)]

    def _eigen_map(self):
        return [spectra.eigenmode_sweep(
            spectra.coupling_matrix(ModelParams.from_delta_phi(d, g=g, kappa=KAPPA, gamma=0.0))
            for d in row) for g, row in zip(self.map_g, self.map_dphi)]

    def _min_decay(self):
        return np.array([[spectra.min_decay(ModelParams(g=g, kappa=KAPPA, gamma=1.0), d)
                          for d in self.min_decay_dphi] for g in self.min_decay_g])

    def _sd_maps(self):
        out = []
        for r in self.sd_r:
            rows, at_transparency = [], []
            for dphi, w_m in zip(self.sd_dphi, self.transparency):
                p = ModelParams.from_delta_phi(dphi, g=1.0, kappa=KAPPA, gamma=1.0, r_abs=r)
                rows.append(ldos.spectral_density(self.sd_omega, p))
                at_transparency.append(ldos.spectral_density(w_m, p) if np.isfinite(w_m)
                                       else np.nan)
            out.append((np.array(rows), np.array(at_transparency)))
        return out

    def _se_spectra(self):
        out = []
        for g, dphi in self.se_cases:
            p = ModelParams.from_delta_phi(dphi, g=g, kappa=KAPPA, gamma=1.0)
            span = max(4 * g, 4 * KAPPA)
            series = spectra.se_spectrum(np.linspace(-span, span, 4001), p)
            out.append(spectra.spectrum_peaks(series, n_peaks=2))
        return out

    def _bic(self):
        dphi = spectra.delta_phi_bic(20.0, KAPPA)
        p = ModelParams.from_delta_phi(dphi, g=20.0, kappa=KAPPA, gamma=0.0)
        return dphi, spectra.eigenmodes(spectra.coupling_matrix(p))

    def ops(self):
        return [
            Op("eigen_map", self._eigen_map, self.map_dphi.size),
            Op("min_decay_curves", self._min_decay,
               len(self.min_decay_g) * len(self.min_decay_dphi)),
            Op("spectral_density_maps", self._sd_maps, len(self.sd_r) * len(self.sd_dphi)),
            Op("se_spectra", self._se_spectra, len(self.se_cases)),
            Op("bound_state", self._bic),
            Op("fit", lambda: ldos.fit_lorentzian(self.fit_samples)),
            Op("cli_eigen", lambda: run_cli(self.eigen_argv), 181),
            Op("cli_fit", lambda: run_cli(self.fit_argv)),
        ]

    def observe(self, outputs):
        obs = {}
        if "eigen_map" in outputs:
            obs["map_values"] = np.array([[[m.value for m in modes] for modes in row]
                                          for row in outputs["eigen_map"]])
        if "min_decay_curves" in outputs:
            obs["min_decay"] = outputs["min_decay_curves"]
        if "spectral_density_maps" in outputs:
            for k, (rows, at_transparency) in enumerate(outputs["spectral_density_maps"]):
                obs[f"sd_{k}"], obs[f"sd_transparency_{k}"] = rows, at_transparency
        if "se_spectra" in outputs:
            obs["se_peak_count"] = min(len(p) for p in outputs["se_spectra"])
        if "bound_state" in outputs:
            dphi, modes = outputs["bound_state"]
            bic = min(modes, key=lambda m: abs(m.value.imag))
            obs["bic"] = np.array([dphi, bic.value.imag, bic.qubit_weight])
        if "fit" in outputs:
            f = outputs["fit"]
            obs["fit"] = np.array([f.omega_c, f.kappa, f.g, float(f.converged)])
        if "cli_eigen" in outputs:
            obs["eigen_csv"] = (self.eigen_dir / "eigen.csv").read_bytes()
        if "cli_fit" in outputs:
            s = json.loads((self.fit_dir / "fit.json").read_text())["summary"]
            obs["cli_fit"] = np.array([s["omega_c"], s["kappa"], s["g"], float(s["converged"])])
        return obs

    @staticmethod
    def _eigvals(g, dphi, gamma=0.0, detuning=0.0):
        return np.linalg.eigvals(
            ref.single_excitation_matrix(g, KAPPA, gamma, 1.0, dphi, [detuning]))

    def _min_decay_reference(self, g, dphi):
        """min(-Im w) at the bound-state detuning (2 g^2/kappa) sin dphi - (kappa/2) tan(dphi/2)."""
        d0c = (2 * g * g / KAPPA) * np.sin(dphi) - 0.5 * KAPPA * np.tan(dphi / 2.0)
        return np.min(-self._eigvals(g, dphi, 1.0, d0c).imag)

    def reference(self, obs):
        rerun = self.eigen_dir.parent / "eigen_rerun"
        # the sidecar does not record the sweep, so it is given again
        run_cli(["eigen", "--config", str(self.eigen_dir / "eigen.json"),
                 "--sweep", self.eigen_sweep, "--workers", "1", "--out", str(rerun)])
        return {
            "map_values": np.array([[self._eigvals(g, d) for d in row]
                                    for g, row in zip(self.map_g, self.map_dphi)]),
            "eigen_rerun": (rerun / "eigen.csv").read_bytes(),
            "eigen_sweep_values": [self._eigvals(20.0, d) for d in np.linspace(0, 3.1, 181)],
            "min_decay": np.array([[self._min_decay_reference(g, d) for d in self.min_decay_dphi]
                                   for g in self.min_decay_g]),
            "sd": [np.array([ref.spectral_density(self.sd_omega, 1.0, KAPPA, r, d)
                             for d in self.sd_dphi]) for r in self.sd_r],
            "window_weight": [np.array([ref.spectral_weight_in_window(100.0, 1.0, KAPPA, r, d)
                                        for d in self.sd_dphi]) for r in self.sd_r],
        }

    def compare(self, obs, r):
        j_dp0 = 4.0 / (np.pi * KAPPA)   # J_DP at omega_c for g = 1
        center = len(self.sd_omega) // 2

        def cli_eigen_dev():
            cols = ref.read_csv_columns(obs["eigen_csv"].decode())
            got = np.stack([cols[f"re_{k}"] + 1j * cols[f"im_{k}"] for k in range(3)], axis=1)
            return max(values_match(g, w) for g, w in zip(got, r["eigen_sweep_values"]))

        def fit_dev(key):
            # omega_c error relative to the linewidth, kappa and g errors relative to themselves
            if obs[key][3] != 1.0:
                return np.inf
            return np.max(np.abs(obs[key][:3] - self.fit_truth) / self.fit_truth[[1, 1, 2]])

        gm = lambda: obs["min_decay"]   # rows: g = 5, 10, 20
        checks = [
            ("bic_phase_over_pi", ["bic"], lambda: obs["bic"][0] / np.pi, near(0.770, 0.001)),
            ("bic_eigenvalue_imag", ["bic"], lambda: abs(obs["bic"][1]), at_most(1e-10)),
            ("bic_qubit_hopfield", ["bic"], lambda: obs["bic"][2], near(0.5, 1e-6)),
            ("eigen_map_vs_numpy", ["map_values"],
             lambda: max(values_match(g, w) for g, w in zip(
                 obs["map_values"].reshape(-1, 3), r["map_values"].reshape(-1, 3))),
             at_most(1e-9)),
            ("cli_eigen_vs_numpy", ["eigen_csv"], cli_eigen_dev, at_most(1e-9)),
            ("cli_eigen_sidecar_rerun_identical", ["eigen_csv"],
             lambda: obs["eigen_csv"] == r["eigen_rerun"], HOLDS),
            ("min_decay_vs_numpy", ["min_decay"],
             lambda: max_abs(gm(), r["min_decay"]), at_most(1e-9)),
            ("fig8b_min_decay_g20_dphi0", ["min_decay"], lambda: gm()[2, 0],
             between(1 / 25, 1 / 15)),
            ("fig8b_min_decay_at_0.99pi_minus_half", ["min_decay"],
             lambda: max_abs(gm()[:, -1], 0.5), at_most(0.025)),
            ("J_at_transparency_over_J_DP", ["sd_transparency_0"],
             lambda: np.nanmax(np.abs(obs["sd_transparency_0"])) / j_dp0, at_most(1e-9)),
            ("se_spectrum_peaks_found", ["se_peak_count"], lambda: obs["se_peak_count"],
             at_least(1)),
            ("fit_error", ["fit"], lambda: fit_dev("fit"), at_most(2e-3)),
            ("cli_fit_error", ["cli_fit"], lambda: fit_dev("cli_fit"), at_most(2e-3)),
        ]
        for k, r_abs in enumerate(self.sd_r):
            sd = f"sd_{k}"
            checks += [
                (f"eta_vs_closed_form_r{r_abs:g}", [sd],
                 lambda sd=sd, r_abs=r_abs: max_abs(
                     obs[sd][:, center] / j_dp0, 1.0 - r_abs * np.cos(self.sd_dphi)),
                 at_most(1e-9)),
                # trapezoid over the window plus the closed-form tails outside it
                (f"sum_rule_relative_error_r{r_abs:g}", [sd],
                 lambda sd=sd, k=k: max_abs(
                     np.trapezoid(obs[sd], self.sd_omega, axis=1) + 2.0 - r["window_weight"][k],
                     2.0) / 2.0,
                 at_most(1e-4)),
                (f"J_vs_closed_form_r{r_abs:g}", [sd],
                 lambda sd=sd, k=k: max_abs(obs[sd], r["sd"][k]) / j_dp0, at_most(1e-9)),
            ]
        return judge(obs, checks)

    def perturbations(self, obs, r):
        bic = obs["bic"].copy()
        bic[1] += 1e-8
        csv = bytearray(obs["eigen_csv"])
        csv[-2] = ord("0") if csv[-2] != ord("0") else ord("1")
        return [
            ("bound state not real", with_change(obs, "bic", bic)),
            ("J off by 1 %", with_change(obs, "sd_0", obs["sd_0"] * 1.01)),
            ("fit g off by 1 %", with_change(obs, "fit", obs["fit"] * [1, 1, 1.01, 1])),
            ("CLI CSV differs from its sidecar re-run", with_change(obs, "eigen_csv", bytes(csv))),
            ("eigenvalue off by 1e-6", with_change(obs, "map_values", obs["map_values"] + 1e-6)),
            ("min decay off by 1e-6", with_change(obs, "min_decay", obs["min_decay"] + 1e-6)),
        ]


WORKLOADS = {w.name: w for w in (Blockade, DmEvolve, Amplitude, EigenLdos)}
