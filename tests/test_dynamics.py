import dataclasses

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from epqed import dynamics
from epqed.cli import main
from epqed.dynamics import (amplitude_evolve, concurrence_series, excited_qubit_state,
                            late_decay_rate, max_concurrence, rabi_peak_envelope,
                            steady_populations_analytic, trapped_population)
from epqed.errors import RateUndefinedError
from epqed.hilbert import SpaceLayout, product_ket
from epqed.master import DensityMatrix, build_liouvillian, evolve
from epqed.numerics import distinct_steps, expm
from epqed.params import ModelParams
from epqed.spectra import coupling_matrix, delta_omega_bic, delta_phi_bic


def ep(delta_phi, **kw):
    merged = dict(g=10.0, kappa=20.0, gamma=1.0)
    merged.update(kw)
    return ModelParams.from_delta_phi(delta_phi, **merged)


def test_decoupled_emitter_decays_freely():
    p = ModelParams(g=0.0, kappa=20.0, gamma=1.0, r_abs=0.0)
    t = np.linspace(0.0, 4.0, 41)
    series = amplitude_evolve(p, excited_qubit_state(1), t)
    assert_allclose(np.abs(series.amplitudes[:, 2]), np.exp(-t / 2), atol=1e-10)
    assert_allclose(series.qubit(), np.exp(-t), atol=1e-10)


def test_peak_transfer_population():
    # mirror phase pi more than triples the right-mode peak occupation
    t = np.linspace(0.0, 1.5, 3001)
    series = amplitude_evolve(ep(np.pi), excited_qubit_state(1), t)
    assert series.cavity_R.max() == pytest.approx(0.66, abs=0.02)
    dp = amplitude_evolve(ep(np.pi, r_abs=0.0), excited_qubit_state(1), t)
    assert series.cavity_R.max() > 3 * dp.cavity_R.max()


one_excitation_models = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.builds(ModelParams,
              omega0=st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n, unique=True)
              .map(tuple),
              omega_c=st.floats(-5.0, 5.0),
              gamma=st.just(0.0) | st.floats(0.1, 5.0),
              kappa=st.floats(0.5, 30.0),
              g=st.floats(0.1, 10.0),
              r_abs=st.floats(0.0, 1.0),
              phi_prop=st.floats(-np.pi, np.pi),
              phi_azim=st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n, unique=True)
              .map(tuple)),
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=n + 2, max_size=n + 2)
    .filter(lambda p0: np.linalg.norm(p0) > 0.1)))


@given(model=one_excitation_models)
@settings(max_examples=40, deadline=None)
def test_matches_full_master_equation(model):
    # the one-excitation block of rho(t) is p(t) p(t)^dag, coherences included
    n, p, p0 = model
    p0 = np.array(p0) / np.linalg.norm(p0)
    t = np.linspace(0.0, 1.0, 11)
    amp = amplitude_evolve(p, p0, t).amplitudes
    lay = SpaceLayout(n, 2, max_excitations=1)
    vac = (0,) * n
    kets = np.array([product_ket(lay, vac, 1, 0), product_ket(lay, vac, 0, 1)]
                    + [product_ket(lay, tuple(int(j == i) for j in range(n))) for i in range(n)]).T
    run = evolve(build_liouvillian(p, lay), DensityMatrix.from_ket(kets @ p0), t)
    block = np.array([kets.T @ s.entries @ kets for s in run.states])
    assert np.abs(block - np.einsum("ti,tj->tij", amp, amp.conj())).max() <= 1e-10


def test_norm_bookkeeping():
    t = np.linspace(0.0, 2.0, 101)
    ideal = amplitude_evolve(ep(1.3, gamma=0.0), excited_qubit_state(1), t)
    assert np.abs(ideal.populations.sum(axis=1) + ideal.leaked_kappa - 1.0).max() <= 1e-8
    assert np.abs(ideal.leaked_gamma).max() == 0.0
    lossy = amplitude_evolve(ep(1.3), excited_qubit_state(1), t)
    assert np.abs(lossy.total - 1.0).max() <= 1e-8
    assert lossy.leaked_gamma[-1] > 0.0


def van_loan_integral(a, k, dt: float) -> np.ndarray:
    """Q = int_0^dt exp(a^dag s) k exp(a s) ds: p^dag Q p integrates p^dag k p over a step.

    exp([[-a^dag, k], [0, a]] h) = [[F1, G], [0, F2]] gives Q(h) = F2^dag G
    (Van Loan, IEEE TAC 23, 395 (1978)).  F1 grows where a decays, so h =
    dt/2^s with |a h| <= 1/2, doubled s times: Q <- Q + F2^dag Q F2, F2 <- F2^2.
    """
    n = a.shape[0]
    scale = np.abs(a).sum(axis=0).max() * dt
    doublings = int(np.ceil(np.log2(scale / 0.5))) if scale > 0.5 else 0
    block = np.block([[-a.conj().T, k], [np.zeros_like(a), a]])
    e = expm(block * (dt / 2**doublings))
    f, q = e[n:, n:], e[n:, n:].conj().T @ e[:n, n:]
    for _ in range(doublings):
        q = q + f.conj().T @ q @ f
        f = f @ f
    return q


def eager_reference_leaks(params, amps, t_grid, n):
    """Leaked populations (kappa, gamma) of samples amps, directly: Van Loan
    integrals of both channels per distinct spacing, and a three-operand
    einsum over every sample."""
    m = coupling_matrix(params, n)
    a = -1j * (m - params.omega_c * np.eye(n + 2))
    steps, index = distinct_steps(t_grid)
    k_total = 1j * (m - m.conj().T)
    k_gamma = np.zeros_like(k_total)
    k_gamma[2:, 2:] = np.diag(np.diag(k_total)[2:])
    u = amps[:-1].view(float)
    leaked = np.zeros((2, len(t_grid)))
    for i, dt in enumerate(steps):
        q = np.array([van_loan_integral(a, k, dt) for k in (k_total - k_gamma, k_gamma)])
        r = np.kron(q.real, np.eye(2)) + np.kron(q.imag, [[0.0, -1.0], [1.0, 0.0]])
        rows = slice(None) if len(steps) == 1 else np.flatnonzero(index == i)
        leaked[:, 1:][:, rows] = np.einsum("ki,cij,kj->ck", u[rows], r, u[rows])
    np.cumsum(leaked, axis=1, out=leaked)
    return leaked


leak_grids = st.one_of(
    st.builds(lambda t1, n: np.linspace(0.0, t1, n), st.floats(0.1, 3.0), st.integers(2, 80)),
    # a few distinct spacings, each shared by several intervals
    st.lists(st.floats(0.01, 0.3), min_size=2, max_size=4, unique=True).flatmap(
        lambda dts: st.lists(st.sampled_from(dts), min_size=2, max_size=60)
        .map(lambda seq: np.concatenate([[0.0], np.cumsum(seq)]))),
    st.lists(st.floats(0.0, 3.0), min_size=2, max_size=40, unique=True)
    .map(lambda ts: np.sort(np.array(ts)))
    .filter(lambda t: np.diff(t).min() > 1e-6),
)


@given(n=st.integers(1, 3), kappa=st.just(0.0) | st.floats(0.1, 50.0),
       gamma=st.just(0.0) | st.floats(0.1, 10.0), g=st.just(0.0) | st.floats(0.1, 20.0),
       r_abs=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi),
       phi_azim=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
       t_grid=leak_grids)
@settings(max_examples=80, deadline=None)
def test_lazy_leaks_match_eager_reference(n, kappa, gamma, g, r_abs, phi, phi_azim, t_grid):
    p = ModelParams(g=g, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi,
                    phi_azim=tuple(phi_azim[:n]))
    series = amplitude_evolve(p, excited_qubit_state(n), t_grid, n_qubits=n)
    ref = eager_reference_leaks(p, series.amplitudes, t_grid, n)
    for lazy, eager in zip((series.leaked_kappa, series.leaked_gamma), ref):
        assert np.abs(lazy - eager).max() <= 1e-13 * np.abs(eager).max()
    assert np.abs(series.total - 1.0).max() <= 1e-9


@given(kappa=st.floats(0.1, 50.0), r_abs=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi),
       gamma=st.floats(0.1, 10.0),
       t_grid=leak_grids | st.floats(0.0, 3.0).map(lambda t: np.array([t])))
@settings(max_examples=60, deadline=None)
def test_leaks_match_closed_forms_at_g_zero(kappa, r_abs, phi, gamma, t_grid):
    # with the emitter decoupled, a photon in c_L meets the chiral EP's Jordan block,
    # n_L + n_R = e^{-kappa t} (1 + kappa^2 |r|^2 t^2), and leaks only into the
    # waveguide; an excited qubit decays at gamma, only into free space
    p = ModelParams(g=0.0, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi)
    t = t_grid - t_grid[0]
    photon = amplitude_evolve(p, [1.0, 0.0, 0.0], t_grid)
    qubit = amplitude_evolve(p, excited_qubit_state(1), t_grid)
    jordan = -np.expm1(-kappa * t) - np.exp(-kappa * t) * (kappa * r_abs * t) ** 2
    free = -np.expm1(-gamma * t)
    for leaked, exact in ((photon.leaked_kappa, jordan), (qubit.leaked_gamma, free)):
        assert np.abs(leaked - exact).max() <= 5e-14 * exact.max()
    assert not photon.leaked_gamma.any() and not qubit.leaked_kappa.any()


def test_nan_grids_are_rejected():
    # every comparison with NaN is False, so the check must be written to fail on it
    for t in ([0.0, np.nan, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="strictly ascending"):
            amplitude_evolve(ep(1.3), excited_qubit_state(1), t)


def test_leaks_of_strided_amplitudes_match():
    # the leak contraction views the samples as reals; a Fortran-ordered copy,
    # whose rows are not contiguous, must give the same leaks
    for t in (np.linspace(0.0, 1.0, 51), np.array([0.0, 0.1, 0.3, 0.35, 0.9])):
        series = amplitude_evolve(ep(1.3), excited_qubit_state(1), t)
        strided = dataclasses.replace(series, amplitudes=np.asfortranarray(series.amplitudes))
        assert not strided.amplitudes[:-1].flags.c_contiguous
        assert np.array_equal(strided.leaked_kappa, series.leaked_kappa)
        assert np.array_equal(strided.leaked_gamma, series.leaked_gamma)


def test_unread_leaks_are_never_computed(monkeypatch):
    def refuse(*args):
        raise AssertionError("leaked populations computed although never read")

    monkeypatch.setattr(dynamics, "expm", refuse)
    trapped_population(ep(0.0, gamma=0.0))
    two = ModelParams.from_delta_phi(0.0, g=10.0, kappa=20.0, gamma=1.0, phi_azim=(0.0, 0.0))
    t = np.linspace(0.0, 1.0, 201)
    concurrence_series(two, t)
    max_concurrence(two, t)
    series = amplitude_evolve(ep(1.3), excited_qubit_state(1), t)
    series.populations, series.qubit(), series.cavity_L, series.cavity_R

    calls = []
    monkeypatch.setattr(dynamics, "expm", lambda *args: calls.append(args) or expm(*args))
    series.leaked_kappa, series.leaked_gamma, series.total, series.leaked_kappa
    assert len(calls) == 1   # both channels from one exponential on a linspace grid


def test_populations_depend_only_on_phase_difference():
    t = np.linspace(0.0, 1.0, 11)
    ref = amplitude_evolve(ep(0.8), excited_qubit_state(1), t)
    shifted = ModelParams(g=10.0, kappa=20.0, gamma=1.0,
                          phi_prop=0.8 + 2 * 1.7, phi_azim=1.7)
    got = amplitude_evolve(shifted, excited_qubit_state(1), t)
    assert_allclose(got.populations, ref.populations, atol=1e-10)


# ---------------------------------------------------------------------------
# trapping and closed-form steady populations
# ---------------------------------------------------------------------------

def test_closed_form_example():
    p_e, p_c, p_k = steady_populations_analytic(20.0, 20.0)
    assert p_e == pytest.approx(0.012346, abs=1e-6)
    assert p_c == pytest.approx(0.098765, abs=1e-6)
    assert p_k == pytest.approx(0.888889, abs=1e-6)


def test_closed_form_weak_coupling_limit():
    p_e, p_c, p_k = steady_populations_analytic(1e-8, 20.0)
    assert p_e == pytest.approx(1.0, abs=1e-12)
    assert p_c == pytest.approx(0.0, abs=1e-12)
    assert p_k == pytest.approx(0.0, abs=1e-12)


@given(g=st.floats(0.1, 100.0), kappa=st.floats(0.1, 100.0))
@settings(max_examples=100)
def test_closed_form_sums_to_one(g, kappa):
    assert sum(steady_populations_analytic(g, kappa)) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_sum_is_algebraic_identity():
    for g, kappa in ((Fraction(3, 2), Fraction(7, 3)), (Fraction(20), Fraction(20))):
        denom = 8 * g * g + kappa * kappa
        total = kappa**4 / denom**2 + 8 * g**2 * kappa**2 / denom**2 + 8 * g**2 / denom
        assert total == 1


def test_trapped_population_matches_closed_form():
    for g in (10.0, 20.0, 40.0):
        p = ModelParams.from_delta_phi(0.0, g=g, kappa=20.0, gamma=0.0)
        plat = trapped_population(p)
        p_e, p_c, _ = steady_populations_analytic(g, 20.0)
        assert plat.converged
        assert plat.qubit == pytest.approx(p_e, abs=1e-3)
        assert plat.cavity == pytest.approx(p_c, abs=1e-3)


def test_reference_cavity_traps_nothing():
    p = ModelParams.from_delta_phi(0.0, g=20.0, kappa=20.0, gamma=0.0, r_abs=0.0)
    plat = trapped_population(p)
    assert plat.converged
    assert plat.components.max() < 1e-8


def test_bic_reverses_population_distribution():
    g = kappa = 20.0
    dphi = delta_phi_bic(g, kappa)
    p = ModelParams.from_delta_phi(dphi, g=g, kappa=kappa, gamma=0.0)
    plat = trapped_population(p)
    assert plat.qubit > plat.components[0]
    assert plat.qubit > plat.components[1]
    zero_phase = trapped_population(ModelParams.from_delta_phi(
        0.0, g=g, kappa=kappa, gamma=0.0))
    assert plat.qubit > zero_phase.qubit


def test_trapping_requires_ideal_emitter():
    with pytest.raises(ValueError):
        trapped_population(ep(0.0))
    with pytest.raises(ValueError, match="g and kappa must be positive"):
        trapped_population(ep(0.0).replace(gamma=0.0, g=0.0))


def test_bound_state_detuning_plateau():
    g, kappa = 10.0, 20.0
    dphi = np.pi / 2
    d0c = delta_omega_bic(g, kappa, dphi)
    p = ModelParams.from_delta_phi(dphi, g=g, kappa=kappa, gamma=0.0, omega0=d0c)
    plat = trapped_population(p)
    assert plat.components.sum() > 0.05
    dp = trapped_population(p.replace(r_abs=0.0))
    assert dp.components.max() < 1e-8


def test_ep_transparency_dynamics():
    # cooperativity 0.2: the emitter decays as if the cavity were absent
    gamma, g = 1.0, 1.0
    kappa = 8.0 * g * g / (0.2 * gamma)
    p = ModelParams.from_delta_phi(0.0, g=g, kappa=kappa, gamma=gamma)
    t = np.linspace(0.0, 5.0, 501)
    series = amplitude_evolve(p, excited_qubit_state(1), t)
    assert np.abs(series.qubit() - np.exp(-gamma * t)).max() < 0.01


# ---------------------------------------------------------------------------
# two-qubit concurrence
# ---------------------------------------------------------------------------

def test_concurrence_starts_at_zero():
    p = ep(np.pi, g=100.0)
    c = concurrence_series(p, np.linspace(0.0, 0.01, 5))
    assert c[0] == 0.0


def test_resonant_concurrence_bounded_by_half():
    p = ep(np.pi, g=100.0)
    c_max = max_concurrence(p, np.linspace(0.0, 0.5, 5001))
    assert c_max <= 0.5 + 1e-6
    assert c_max > 0.4


def test_phase_scan_prefers_equal_phases(tmp_path):
    # the CLI's sweep of the second qubit's azimuthal offset over 0, pi/3, 2 pi/3
    # at ep(pi, g=100, omega0=232) on t = linspace(0, 0.1, 2001)
    assert main(["concurrence", "--delta-phi", str(np.pi), "--g", "100", "--d0c", "232",
                 "--set", "t_max=0.1", "--set", "t_points=2001",
                 "--sweep", f"phi2_offset=0:{2 * np.pi / 3!r}:3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "concurrence.csv").read_text().splitlines()
    assert lines[1] == "phi2_offset[1],c_max[1]"
    scan = np.array([float(ln.split(",")[1]) for ln in lines[2:]])
    assert scan[0] == max(scan)
    assert scan.shape == (3,)


def test_late_decay_rate_pure_exponential():
    t = np.linspace(0.0, 5.0, 200)
    assert late_decay_rate(t, np.exp(-3.0 * t), (1.0, 4.0)) == pytest.approx(3.0)


def test_late_decay_rate_rejects_nonpositive():
    t = np.linspace(0.0, 5.0, 50)
    y = np.exp(-t)
    y[30] = 0.0
    with pytest.raises(RateUndefinedError):
        late_decay_rate(t, y, (0.0, 5.0))
    with pytest.raises(RateUndefinedError):
        late_decay_rate(t, y, (4.9, 4.95))


def test_dp_concurrence_decays_at_gamma():
    p = ModelParams(g=100.0, kappa=20.0, gamma=1.0, r_abs=0.0)
    t = np.linspace(0.0, 10.0, 2001)
    c = concurrence_series(p, t)
    rate = late_decay_rate(t, c, (3.0, 10.0))
    assert rate == pytest.approx(1.0, rel=0.1)


def test_rabi_peak_envelope():
    t = np.linspace(0.0, 10.0, 1001)
    y = np.exp(-0.1 * t) * np.cos(4.0 * t) ** 2
    pk_t, pk_v = rabi_peak_envelope(t, y, (2.0, 8.0))
    assert len(pk_t) >= 6
    assert_allclose(pk_v, np.exp(-0.1 * pk_t), rtol=1e-3)
