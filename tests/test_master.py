import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from epqed.errors import (AccuracyError, BuildError, DegenerateSteadyStateError, EmbedError,
                          MemoryLimitError)
from epqed import hilbert, master
from epqed.hilbert import SpaceLayout, cavity_ops, product_ket, qubit_lowering
from epqed.master import (DensityMatrix, Liouvillian, SteadyStateSolver, build_liouvillian,
                          convergence_check, evolve, steady_state,
                          two_time_correlation, unvectorize, vacuum_state, vectorize)
from epqed.numerics import DENSE_EXPM_MAX_DIM
from epqed.params import DriveSpec, ModelParams


def sprepost(a, b):
    """Superoperator of two-sided multiplication, vec(a rho b) = kron(b^T, a) vec(rho), CSR."""
    return master._kron_sum([(1.0, b.T, a)], a.shape[0])


def spre(a):
    """Superoperator of left multiplication: vec(a rho), CSR."""
    return sprepost(a, np.eye(a.shape[0]))


def spost(b):
    """Superoperator of right multiplication: vec(rho b), CSR."""
    return sprepost(np.eye(b.shape[0]), b)


def lindblad_dissipator(op):
    """L[O]rho = O rho O^dag - {O^dag O, rho}/2 as a CSR superoperator (reference)."""
    odo, eye = op.conj().T @ op, np.eye(len(op))
    return master._kron_sum([(1.0, op.conj(), op), (-0.5, eye, odo), (-0.5, odo.T, eye)],
                            len(op))


def _single_photon_L(layout):
    return DensityMatrix.from_ket(product_ket(layout, (0,) * layout.n_qubits, 1, 0))


def test_column_stacking_convention():
    rng = np.random.default_rng(0)
    a, b, rho = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3))
    assert_allclose(spre(a) @ vectorize(rho), vectorize(a @ rho), atol=1e-14)
    assert_allclose(spost(b) @ vectorize(rho), vectorize(rho @ b), atol=1e-14)
    assert_allclose(sprepost(a, b) @ vectorize(rho), vectorize(a @ rho @ b), atol=1e-13)
    assert all(scipy.sparse.isspmatrix_csr(m) for m in (spre(a), spost(b), sprepost(a, b),
                                                        lindblad_dissipator(a)))
    assert_allclose(unvectorize(vectorize(rho), 3), rho)


def test_bare_cavity_decay():
    p = ModelParams(g=0.0, kappa=2.5, gamma=0.0, r_abs=0.0)
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(p, lay)
    t = np.linspace(0.0, 2.0, 41)
    res = evolve(lv, _single_photon_L(lay), t)
    c_l, _ = cavity_ops(lay)
    n_l = res.expect(c_l.conj().T @ c_l).real
    assert_allclose(n_l, np.exp(-2.5 * t), atol=1e-9)


def test_liouvillian_is_traceless_on_hermitian_states():
    p = ModelParams.from_delta_phi(1.1, g=3.0, kappa=5.0, gamma=0.7)
    lay = SpaceLayout(1, 3)
    lv = build_liouvillian(p, lay, drive=DriveSpec(omega_drive=0.3, amplitude=0.4))
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = rng.standard_normal((lay.dim, lay.dim)) + 1j * rng.standard_normal((lay.dim, lay.dim))
        h = h + h.conj().T
        out = unvectorize(lv.matrix @ vectorize(h), lay.dim)
        assert abs(np.trace(out)) < 1e-10 * np.abs(h).max()


def test_zero_generator_keeps_state():
    lay = SpaceLayout(0, 2)
    rho0 = _single_photon_L(lay)
    zero = Liouvillian(generator=scipy.sparse.csr_matrix(np.zeros((16, 16), dtype=complex)),
                       layout=lay)
    res = evolve(zero, rho0, np.linspace(0, 1, 5))
    for s in res.states:
        assert_allclose(s.entries, rho0.entries, atol=1e-15)


def test_pure_qubit_spontaneous_emission():
    p = ModelParams(g=0.0, kappa=0.0, gamma=1.0, r_abs=0.0)
    lay = SpaceLayout(1, 2)
    lv = build_liouvillian(p, lay)
    rho0 = DensityMatrix.from_ket(product_ket(lay, (1,), 0, 0))
    t = np.linspace(0.0, 3.0, 31)
    res = evolve(lv, rho0, t)
    sm = qubit_lowering(lay, 0)
    assert_allclose(res.expect(sm.conj().T @ sm).real, np.exp(-t), atol=1e-9)


def test_rabi_decay_slower_than_bare_emitter():
    # strong coupling, mirror phase pi: late-time oscillation peaks stay above e^-t
    p = ModelParams.from_delta_phi(np.pi, g=100.0, kappa=20.0, gamma=1.0)
    lay = SpaceLayout(1, 2)
    lv = build_liouvillian(p, lay)
    t = np.linspace(0.0, 3.0, 1201)
    res = evolve(lv, DensityMatrix.from_ket(product_ket(lay, (1,), 0, 0)), t)
    sm = qubit_lowering(lay, 0)
    pop = res.expect(sm.conj().T @ sm).real
    late = (t > 2.0)
    inner = pop[late]
    peaks = (inner[1:-1] > inner[:-2]) & (inner[1:-1] > inner[2:])
    t_pk = t[late][1:-1][peaks]
    v_pk = inner[1:-1][peaks]
    assert len(t_pk) >= 3
    assert np.all(v_pk > np.exp(-t_pk))


def test_gauge_invariance_of_populations_and_correlators():
    lay = SpaceLayout(1, 2)
    t = np.linspace(0.0, 0.8, 9)
    rho0 = DensityMatrix.from_ket(product_ket(lay, (1,), 0, 0))
    base = ModelParams(g=4.0, kappa=8.0, gamma=1.0, phi_prop=0.7, phi_azim=0.2)
    c_l, c_r = cavity_ops(lay)
    sm = qubit_lowering(lay, 0)
    n_ops = [sm.conj().T @ sm, c_l.conj().T @ c_l, c_r.conj().T @ c_r]

    def observables(p):
        lv = build_liouvillian(p, lay)
        res = evolve(lv, rho0, t, step=1e-4)
        pops = np.array([res.expect(op).real for op in n_ops])
        corr = two_time_correlation(lv, res.states[-1], c_l.conj().T, c_r, t)
        return pops, np.abs(corr)

    pops0, corr0 = observables(base)
    rng = np.random.default_rng(11)
    for delta in rng.uniform(-np.pi, np.pi, 3):
        shifted = base.replace(phi_prop=base.phi_prop + 2 * delta,
                               phi_azim=base.phi_azim + delta)
        pops, corr = observables(shifted)
        assert_allclose(pops, pops0, atol=1e-10)
        assert_allclose(corr, corr0, atol=1e-10)


def test_excitation_number_conserved_without_decay():
    p = ModelParams.from_delta_phi(0.9, g=5.0, kappa=0.0, gamma=0.0)
    lay = SpaceLayout(1, 3)
    lv = build_liouvillian(p, lay)
    rho0 = DensityMatrix.from_ket(product_ket(lay, (1,), 0, 0))
    t = np.linspace(0.0, 1.0, 11)
    res = evolve(lv, rho0, t)
    c_l, c_r = cavity_ops(lay)
    sm = qubit_lowering(lay, 0)
    n_tot = sm.conj().T @ sm + c_l.conj().T @ c_l + c_r.conj().T @ c_r
    assert np.abs(res.expect(n_tot).real - 1.0).max() <= 1e-8


def test_r_zero_equals_two_independent_modes():
    # with |r| = 0 the generator is exactly the two-mode reference cavity
    p = ModelParams.from_delta_phi(0.4, g=2.0, kappa=6.0, gamma=0.5, r_abs=0.0)
    lay = SpaceLayout(1, 2)
    lv = build_liouvillian(p, lay)
    c_l, c_r = cavity_ops(lay)
    sm = qubit_lowering(lay, 0)
    h = p.g * (c_l.conj().T @ sm + sm.conj().T @ c_l)
    h = h + p.g * (c_r.conj().T @ sm + sm.conj().T @ c_r)
    ref = -1j * (spre(h) - spost(h))
    ref += p.gamma * lindblad_dissipator(sm)
    ref += p.kappa * (lindblad_dissipator(c_l) + lindblad_dissipator(c_r))
    assert np.abs(lv.matrix - ref).max() == 0.0


def test_build_rejects_mismatched_layout():
    p = ModelParams(omega0=(0.0, 0.0, 0.0), g=1.0)
    with pytest.raises(BuildError):
        build_liouvillian(p, SpaceLayout(2, 2))


def test_evolution_matches_matrix_exponential():
    # coarse samples of a fast decay: exact, and the ignored step changes nothing
    p = ModelParams(g=0.0, kappa=50.0, gamma=0.0, r_abs=0.0)
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(p, lay)
    rho0 = _single_photon_L(lay)
    t = np.linspace(0, 2, 3)
    res = evolve(lv, rho0, t, step=0.1)
    for tk, state in zip(t, res.states):
        ref = unvectorize(scipy.linalg.expm(lv.matrix * tk) @ vectorize(rho0.entries), lay.dim)
        assert_allclose(state.entries, ref, atol=1e-12)
    assert all(np.array_equal(a.entries, b.entries)
               for a, b in zip(res.states, evolve(lv, rho0, t).states))


def test_trace_drift_raises_accuracy_error():
    p = ModelParams(g=0.0, kappa=50.0, gamma=0.0, r_abs=0.0)
    lay = SpaceLayout(0, 2)
    gain = Liouvillian(generator=scipy.sparse.csr_matrix(
        build_liouvillian(p, lay).matrix + 0.1 * np.eye(lay.dim**2)), layout=lay)
    with pytest.raises(AccuracyError, match="trace drift"):
        evolve(gain, _single_photon_L(lay), np.linspace(0, 2, 3))


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_undriven_decaying_system_reaches_vacuum():
    p = ModelParams.from_delta_phi(0.7, g=2.0, kappa=10.0, gamma=1.0)
    lay = SpaceLayout(1, 2)
    rho = steady_state(build_liouvillian(p, lay))
    vac = vacuum_state(lay)
    assert_allclose(rho.entries, vac.entries, atol=1e-10)


def test_driven_empty_cavity_photon_number():
    # linear response: driven-mode population (2 Omega / kappa)^2 at resonance
    kappa, omega = 20.0, 0.1
    p = ModelParams(g=0.0, kappa=kappa, gamma=0.0)
    lay = SpaceLayout(0, 4)
    drive = DriveSpec(omega_drive=0.0, amplitude=omega)
    lv = build_liouvillian(p, lay, drive=drive)
    rho = steady_state(lv)
    _, c_r = cavity_ops(lay)
    n_r = rho.expect(c_r.conj().T @ c_r).real
    assert n_r == pytest.approx((2 * omega / kappa) ** 2, rel=2e-3)
    # brute-force cross-check: evolve to t = 50/kappa
    res = evolve(lv, vacuum_state(lay), np.array([0.0, 50.0 / kappa]))
    assert res.states[-1].expect(c_r.conj().T @ c_r).real == pytest.approx(n_r, abs=1e-8)


def test_degenerate_kernel_raises():
    # gamma = 0, delta_phi = 0: a bound state conserves population
    p = ModelParams.from_delta_phi(0.0, g=5.0, kappa=20.0, gamma=0.0)
    lay = SpaceLayout(1, 2)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(build_liouvillian(p, lay))


# ---------------------------------------------------------------------------
# two-time correlations
# ---------------------------------------------------------------------------

def test_identity_correlator_is_constant():
    p = ModelParams.from_delta_phi(0.3, g=2.0, kappa=8.0, gamma=1.0)
    lay = SpaceLayout(1, 2)
    lv = build_liouvillian(p, lay)
    eye = np.eye(lay.dim, dtype=complex)
    corr = two_time_correlation(lv, vacuum_state(lay), eye, eye, np.linspace(0, 1, 9))
    assert_allclose(corr, np.ones(9), atol=1e-10)


def test_correlator_tau_grid_must_ascend_from_zero():
    p = ModelParams(g=0.0, kappa=6.0, gamma=0.0, r_abs=0.0)
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(p, lay)
    c_l, _ = cavity_ops(lay)
    for tau in ([0.1, 0.2], [0.2, 0.1], [0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [0.0, np.nan, 1.0],
                [np.nan, 1.0]):
        with pytest.raises(ValueError, match="ascending from tau = 0"):
            two_time_correlation(lv, _single_photon_L(lay), c_l.conj().T, c_l, tau)
    corr = two_time_correlation(lv, _single_photon_L(lay), c_l.conj().T, c_l, [0.0, 0.1])
    assert_allclose(np.abs(corr), np.exp(-6.0 * np.array([0.0, 0.1]) / 2.0), atol=1e-12)


def test_cavity_field_correlator_envelope():
    kappa = 6.0
    p = ModelParams(g=0.0, kappa=kappa, gamma=0.0, r_abs=0.0, omega_c=2.0)
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(p, lay, frame=0.0)   # lab frame
    c_l, _ = cavity_ops(lay)
    tau = np.linspace(0.0, 2.0, 81)
    corr = two_time_correlation(lv, _single_photon_L(lay), c_l.conj().T, c_l, tau)
    assert_allclose(np.abs(corr), np.exp(-kappa * tau / 2.0), atol=1e-8)
    # lab-frame phase rotates at the cavity frequency
    assert_allclose(corr, np.exp((-1j * p.omega_c - kappa / 2.0) * tau), atol=1e-7)


def test_cross_correlator_square_lorentzian_precursor():
    kappa = 6.0
    p = ModelParams(g=0.0, kappa=kappa, gamma=0.0, r_abs=1.0)
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(p, lay)
    c_l, c_r = cavity_ops(lay)
    tau = np.linspace(0.0, 3.0, 61)
    corr = two_time_correlation(lv, _single_photon_L(lay), c_l.conj().T, c_r, tau)
    assert_allclose(np.abs(corr), kappa * tau * np.exp(-kappa * tau / 2.0), atol=1e-7)


# ---------------------------------------------------------------------------
# cutoff convergence
# ---------------------------------------------------------------------------

def _n_left(layout):
    c_l, _ = cavity_ops(layout)
    return c_l.conj().T @ c_l


def _n_right(layout):
    _, c_r = cavity_ops(layout)
    return c_r.conj().T @ c_r


def test_single_excitation_is_converged_at_smallest_cutoff():
    p = ModelParams.from_delta_phi(0.5, g=3.0, kappa=10.0, gamma=1.0)
    lay = SpaceLayout(1, 2)
    ok, dev = convergence_check(
        p, lay, _n_left, np.linspace(0.0, 1.0, 6),
        initial_state=lambda l: DensityMatrix.from_ket(
            product_ket(l, (1,), 0, 0)))
    assert ok and dev < 1e-8


def test_strong_drive_not_converged_at_two_photons():
    p = ModelParams(g=0.0, kappa=5.0, gamma=0.0)
    drive = DriveSpec(omega_drive=0.0, amplitude=5.0)
    ok, dev = convergence_check(p, SpaceLayout(0, 2), _n_right,
                                np.linspace(0.0, 2.0, 6), drive=drive)
    assert not ok and dev > 1e-3


@pytest.mark.parametrize("layout, second", [
    (SpaceLayout(1, 3), SpaceLayout(1, 4)),
    (SpaceLayout(1, 3, max_excitations=2), SpaceLayout(1, 4, max_excitations=3)),
])
def test_convergence_check_keeps_the_cap(monkeypatch, layout, second):
    built = []
    original = master.build_liouvillian
    monkeypatch.setattr(master, "build_liouvillian",
                        lambda p, lay, **kw: built.append(lay) or original(p, lay, **kw))
    p = ModelParams(g=3.0, kappa=10.0, gamma=1.0)
    drive = DriveSpec(omega_drive=0.0, amplitude=0.5)
    t = np.linspace(0.0, 0.5, 4)
    ok, dev = convergence_check(p, layout, _n_left, t, drive=drive)
    assert built == [layout, second]
    series = [evolve(original(p, lay, drive=drive), vacuum_state(lay), t)
              .expect(_n_left(lay)).real for lay in built]
    assert dev == np.abs(series[0] - series[1]).max()


def test_weak_drive_converged_at_four_photons():
    p = ModelParams(g=5.0, kappa=20.0, gamma=1.0)
    drive = DriveSpec(omega_drive=0.0, amplitude=0.2)
    ok, dev = convergence_check(p, SpaceLayout(1, 4), _n_left,
                                np.linspace(0.0, 0.5, 5), drive=drive)
    assert ok, f"deviation {dev}"


# ---------------------------------------------------------------------------
# state invariants
# ---------------------------------------------------------------------------

def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.6, 0.2], [0.0, 0.4]]))   # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.9, 0.3]))                   # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))                  # negative eigenvalue
    dm = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert dm.dim == 2


def test_nan_states_are_rejected():
    # every comparison with NaN is False, so each check must be written to fail on it
    with pytest.raises(ValueError, match="not Hermitian: .* = nan"):
        DensityMatrix(np.full((2, 2), np.nan))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="= nan"):
        DensityMatrix.from_ket(np.zeros(2))
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(ModelParams(g=1.0, kappa=2.0, gamma=1.0), lay)
    with pytest.raises(ValueError, match="not Hermitian: .* = nan"):
        evolve(lv, np.full((lay.dim, lay.dim), np.nan), np.linspace(0.0, 1.0, 3))
    nan_lv = Liouvillian(lv.generator * np.nan, lay)
    with pytest.raises(AccuracyError, match="trace drift nan"):
        evolve(nan_lv, vacuum_state(lay), np.linspace(0.0, 1.0, 3))


def test_array_states_are_checked_before_propagating(monkeypatch):
    def refuse(*args):
        raise AssertionError("propagated a state that fails its check")

    monkeypatch.setattr(master, "propagate", refuse)
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(ModelParams(g=1.0, kappa=2.0, gamma=1.0), lay)
    negative = np.zeros((lay.dim, lay.dim))
    negative[0, 0], negative[1, 1] = 1.5, -0.5
    c_l, _ = cavity_ops(lay)
    for rho, message in ((2 * vacuum_state(lay).entries, "trace must be 1"),
                         (negative, "negative eigenvalue -5.000e-01")):
        with pytest.raises(ValueError, match=message):
            evolve(lv, rho, np.linspace(0.0, 1.0, 3))
        with pytest.raises(ValueError, match=message):
            two_time_correlation(lv, rho, c_l.conj().T, c_l, [0.0, 0.1])


def test_evolve_rejects_nan_grids():
    # every comparison with NaN is False, so the check must be written to fail on it
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(ModelParams(g=1.0, kappa=2.0, gamma=1.0), lay)
    for t in ([0.0, np.nan, 1.0], [np.nan, 1.0], [np.nan]):
        with pytest.raises(ValueError, match="ascending and start at t >= 0"):
            evolve(lv, vacuum_state(lay), t)


def old_clean(raw):
    """One sample's Hermitian part over its trace, on its own: the stacked _clean's reference."""
    m = 0.5 * (raw + raw.conj().T)
    return m / np.trace(m).real


def recorded_propagate(monkeypatch, edit=lambda raw: raw):
    """Make master's propagate return edit(its result) and keep those in the returned list."""
    raws, propagate = [], master.propagate

    def record(*args):
        raws.append(edit(propagate(*args)))
        return raws[-1]
    monkeypatch.setattr(master, "propagate", record)
    return raws


# dense (N^2 = 64 at 61 samples, fig4's) and sparse (N^2 = 324, driven) propagation
evolve_cases = [
    (SpaceLayout(1, 2), None, np.linspace(0.0, 1.5, 61)),
    (SpaceLayout(1, 3), DriveSpec(omega_drive=0.5, amplitude=0.8), np.linspace(0.0, 0.25, 6)),
]


@pytest.mark.parametrize("lay, drive, t", evolve_cases)
def test_stacked_states_equal_per_sample_clean(monkeypatch, lay, drive, t):
    raws = recorded_propagate(monkeypatch)
    lv = build_liouvillian(ModelParams.from_delta_phi(np.pi, g=10.0, kappa=20.0, gamma=1.0),
                           lay, drive=drive)
    res = evolve(lv, DensityMatrix.from_ket(product_ket(lay, (1,), 0, 0)), t)
    assert len(raws) == 1 and len(res.states) == len(t)
    c_l, _ = cavity_ops(lay)
    n_l = c_l.conj().T @ c_l
    for raw, state, n in zip(raws[0], res.states, res.expect(n_l)):
        assert np.abs(state.entries - old_clean(unvectorize(raw, lay.dim))).max() <= 1e-15
        assert abs(n - hilbert.expect(n_l, state.entries)) <= 1e-15


@pytest.mark.parametrize("lay, drive, t", evolve_cases)
def test_stacked_check_rejects_one_negative_sample(monkeypatch, lay, drive, t):
    # one sample of unit trace and Hermitian but with eigenvalue -0.5
    bad = np.zeros((lay.dim, lay.dim))
    bad[0, 0], bad[1, 1] = 1.5, -0.5

    def one_bad(raw):
        raw[len(raw) // 2] = vectorize(bad)
        return raw
    raws = recorded_propagate(monkeypatch, one_bad)
    lv = build_liouvillian(ModelParams(g=5.0, kappa=20.0, gamma=1.0), lay, drive=drive)
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
        evolve(lv, vacuum_state(lay), t)
    assert len(raws) == 1


def test_trace_drift_raises_accuracy_error_on_the_sparse_branch():
    lay = SpaceLayout(1, 3)
    lv = build_liouvillian(ModelParams(g=5.0, kappa=20.0, gamma=1.0), lay)
    assert lv.generator.shape[0] > DENSE_EXPM_MAX_DIM
    gain = Liouvillian(generator=lv.generator + 0.1 * scipy.sparse.identity(lay.dim**2),
                       layout=lay)
    with pytest.raises(AccuracyError, match="trace drift"):
        evolve(gain, vacuum_state(lay), np.linspace(0, 2, 3))


@pytest.mark.parametrize("lay", [SpaceLayout(1, 2), SpaceLayout(1, 3)])
def test_state_of_the_wrong_size_raises_embed_error(lay):
    # both the dense (N^2 = 64) and the sparse (N^2 = 324) branch check before propagating
    lv = build_liouvillian(ModelParams(g=5.0, kappa=20.0, gamma=1.0), lay)
    other = SpaceLayout(1, 3) if lay.dim != 18 else SpaceLayout(1, 2)
    rho = vacuum_state(other)
    c_l, _ = cavity_ops(lay)
    message = f"{(other.dim, other.dim)}.*{lay.dim}-dimensional"
    with pytest.raises(EmbedError, match=message):
        evolve(lv, rho, np.linspace(0.0, 0.1, 3))
    with pytest.raises(EmbedError, match=message):
        evolve(lv, rho.entries, np.linspace(0.0, 0.1, 3))
    with pytest.raises(EmbedError, match=message):
        two_time_correlation(lv, rho, c_l.conj().T, c_l, np.linspace(0.0, 0.1, 3))


def test_evolution_drift_diagnostics():
    p = ModelParams.from_delta_phi(np.pi, g=10.0, kappa=20.0, gamma=1.0)
    lay = SpaceLayout(1, 2)
    lv = build_liouvillian(p, lay)
    rho0 = DensityMatrix.from_ket(product_ket(lay, (1,), 0, 0))
    res = evolve(lv, rho0, np.linspace(0.0, 1.0, 21))
    assert res.max_trace_drift <= 1e-8
    assert res.max_hermiticity_defect <= 1e-10


# ---------------------------------------------------------------------------
# sparse generator and steady state against dense references
# ---------------------------------------------------------------------------

def dense_reference_liouvillian(p, lay, drive, frame=None):
    """L from dense np.kron products, term by term as the cascaded master equation reads."""
    eye = np.eye(lay.dim)

    def pre(a):
        return np.kron(eye, a)

    def post(b):
        return np.kron(b.T, eye)

    def dissipator(o):
        odo = o.conj().T @ o
        return np.kron(o.conj(), o) - 0.5 * (pre(odo) + post(odo))

    c_l, c_r = cavity_ops(lay)
    if frame is None:
        frame = drive.omega_drive if drive is not None else p.omega_c
    h = (p.omega_c - frame) * (c_l.conj().T @ c_l + c_r.conj().T @ c_r)
    lmat = np.zeros((lay.dim**2, lay.dim**2), dtype=complex)
    for i in range(lay.n_qubits):
        sm = qubit_lowering(lay, i)
        w0, phi = p.omega0_list(lay.n_qubits)[i], p.phi_azim_list(lay.n_qubits)[i]
        h = h + (w0 - frame) * (sm.conj().T @ sm)
        for c, ph in ((c_l, np.exp(-1j * phi)), (c_r, np.exp(1j * phi))):
            h = h + p.g * (ph * (c.conj().T @ sm) + np.conj(ph) * (sm.conj().T @ c))
        lmat += p.gamma * dissipator(sm)
    if drive is not None:
        c_d = c_l if drive.target == "cavity_L" else c_r
        h = h + drive.amplitude * (c_d + c_d.conj().T)
    lmat += -1j * (pre(h) - post(h))
    lmat += p.kappa * (dissipator(c_l) + dissipator(c_r))
    k_r = p.kappa * p.r_abs * np.exp(1j * p.phi_prop)
    lmat += k_r * (np.kron(c_r.conj(), c_l) - pre(c_r.conj().T @ c_l))
    lmat += np.conj(k_r) * (np.kron(c_l.conj(), c_r) - post(c_l.conj().T @ c_r))
    return lmat


random_models = st.builds(
    lambda lay, g, kappa, gamma, r_abs, phi, phi2, det, amp, target: (
        lay, ModelParams(g=g, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi,
                         phi_azim=(0.0, phi2)[:max(lay.n_qubits, 1)]),
        DriveSpec(omega_drive=det, amplitude=amp, target=target)),
    st.sampled_from([SpaceLayout(0, 2), SpaceLayout(0, 4), SpaceLayout(1, 2),
                     SpaceLayout(1, 3), SpaceLayout(2, 2), SpaceLayout(0, 4, 2),
                     SpaceLayout(1, 3, 2), SpaceLayout(2, 3, 2)]),
    st.floats(0.0, 10.0), st.floats(0.5, 30.0), st.floats(0.1, 5.0), st.floats(0.0, 1.0),
    st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.floats(-10.0, 10.0),
    st.floats(0.0, 2.0), st.sampled_from(["cavity_L", "cavity_R"]))


# random_models, also undriven, in an explicit frame, with kappa = 0 at |r| > 0, and
# with gamma = 0 (the bound-state regime, where the qubit decay rates drop out)
generator_models = st.builds(
    lambda model, zero_kappa, zero_gamma, undriven, frame: (
        model[0], model[1].replace(kappa=0.0 if zero_kappa else model[1].kappa,
                                   gamma=0.0 if zero_gamma else model[1].gamma),
        None if undriven else model[2], frame),
    random_models, st.booleans(), st.booleans(), st.booleans(),
    st.none() | st.floats(-10.0, 10.0))


@given(model=generator_models)
@settings(max_examples=60, deadline=None)
def test_sparse_liouvillian_matches_dense_kron_reference(model):
    lay, p, drive, frame = model
    lv = build_liouvillian(p, lay, drive=drive, frame=frame)
    assert scipy.sparse.isspmatrix_csr(lv.generator)
    ref = dense_reference_liouvillian(p, lay, drive, frame)
    assert np.abs(lv.generator.toarray() - ref).max() <= 1e-13
    assert lv.generator.nnz <= np.count_nonzero(ref)


@given(model=generator_models, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_generator_preserves_trace_and_hermiticity(model, seed):
    lay, p, drive, frame = model
    lmat = build_liouvillian(p, lay, drive=drive, frame=frame).generator
    # Frobenius norm by BLAS nrm2, which rescales: summing squares underflows to 0 at tiny g
    norm = scipy.linalg.norm(lmat.toarray().ravel())
    # d Tr(rho)/dt = 0: the rows of the diagonal entries rho_ii sum to zero
    trace_rows = np.arange(lay.dim) * (lay.dim + 1)
    assert np.abs(lmat[trace_rows].sum(axis=0)).max() <= 1e-13 * norm
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((lay.dim, lay.dim)) + 1j * rng.standard_normal((lay.dim, lay.dim))
    x = x + x.conj().T
    out = unvectorize(lmat @ vectorize(x), lay.dim)
    assert np.abs(out - out.conj().T).max() <= 1e-13 * norm * np.abs(x).max()


@given(model=random_models)
@settings(max_examples=40, deadline=None)
def test_sparse_steady_state_matches_dense_solve(model):
    lay, p, drive = model
    lv = build_liouvillian(p, lay, drive=drive)
    a = lv.generator.toarray()
    a[0, :] = np.eye(lay.dim).reshape(-1)   # the trace row
    b = np.zeros(lay.dim**2, dtype=complex)
    b[0] = 1.0
    dense = unvectorize(np.linalg.solve(a, b), lay.dim)
    assert_allclose(steady_state(lv).entries, dense, rtol=0, atol=1e-10)


def test_dense_view_of_huge_layout_raises_without_allocating():
    lay = SpaceLayout(2, 30)   # N^2 = 1.3e7: the dense L would take 2.7e15 bytes
    n2 = lay.dim**2
    lv = Liouvillian(generator=scipy.sparse.csr_matrix((n2, n2), dtype=complex), layout=lay)
    with pytest.raises(MemoryLimitError, match="physical memory"):
        lv.matrix


def test_dense_steady_state_fallback_is_guarded(monkeypatch):
    # the degenerate kernel of test_degenerate_kernel_raises, on a machine too
    # small for its dense 64 x 64 fallback; the solver (and its band check) is
    # made before the memory shrinks
    p = ModelParams.from_delta_phi(0.0, g=5.0, kappa=20.0, gamma=0.0)
    solve = SteadyStateSolver(build_liouvillian(p, SpaceLayout(1, 2)))
    monkeypatch.setattr(os, "sysconf", lambda name: 8)
    with pytest.raises(MemoryLimitError, match="classifying the steady-state failure"):
        solve()


def test_band_storage_is_guarded_before_allocation(monkeypatch):
    # a solvable system on a machine one byte short of its 16 N^2 (2 kl + ku + 1)
    # band bytes: the constructor raises, and the band is allocated only by a solve
    lv = build_liouvillian(ModelParams(g=5.0, kappa=20.0, gamma=1.0), SpaceLayout(1, 3, 2),
                           drive=DriveSpec(omega_drive=0.0, amplitude=0.2))
    solve = SteadyStateSolver(lv)
    n2 = lv.generator.shape[0]
    need = 16 * n2 * (2 * solve.kl + solve.ku + 1)
    monkeypatch.setattr(os, "sysconf", lambda name: need if name == "SC_PHYS_PAGES" else 1)
    assert SteadyStateSolver(lv)().entries.shape == (lv.layout.dim,) * 2
    monkeypatch.setattr(os, "sysconf", lambda name: need - 1 if name == "SC_PHYS_PAGES" else 1)
    with pytest.raises(MemoryLimitError, match="steady-state band"):
        SteadyStateSolver(lv)


def test_zero_generator_is_degenerate_not_a_lapack_error():
    # every column but the trace row's is zero: the banded factor is exactly singular
    lay = SpaceLayout(1, 2)
    n2 = lay.dim ** 2
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(Liouvillian(generator=scipy.sparse.csr_matrix((n2, n2), dtype=complex),
                                 layout=lay))


def test_one_qubit_at_cutoff_8_builds_and_evolves():
    # N^2 = 16384: the dense L alone would take 4.3 GB
    p = ModelParams(g=5.0, kappa=20.0, gamma=1.0)
    lay = SpaceLayout(1, 8)
    lv = build_liouvillian(p, lay, drive=DriveSpec(omega_drive=0.0, amplitude=0.2))
    assert lv.generator.shape == (16384, 16384) and lv.generator.nnz < 300_000
    res = evolve(lv, vacuum_state(lay), np.linspace(0.0, 0.1, 3))
    assert res.max_trace_drift <= 1e-12
    _, c_r = cavity_ops(lay)
    n_r = res.expect(c_r.conj().T @ c_r).real
    assert n_r[0] == 0.0 and 0.0 < n_r[1] < n_r[2] < 1e-3


@given(model=generator_models, extra=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_cap_above_largest_excitation_reproduces_box_generator(model, extra):
    lay, p, drive, frame = model
    box = SpaceLayout(lay.n_qubits, lay.fock_cutoff)
    capped = SpaceLayout(lay.n_qubits, lay.fock_cutoff,
                         lay.n_qubits + 2 * (lay.fock_cutoff - 1) + extra)
    a = build_liouvillian(p, box, drive=drive, frame=frame).generator
    b = build_liouvillian(p, capped, drive=drive, frame=frame).generator
    assert a.shape == b.shape and (a != b).nnz == 0


capped_models = st.builds(
    lambda lay, model: (lay, model[1].replace(phi_azim=(0.0, 0.7)[:lay.n_qubits]), model[2]),
    st.sampled_from([SpaceLayout(1, 4, 3), SpaceLayout(1, 4, 4), SpaceLayout(1, 5, 4),
                     SpaceLayout(2, 3, 2), SpaceLayout(2, 4, 3)]),
    random_models)


@given(model=capped_models, shift=st.floats(-10.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_banded_solver_matches_sparse_direct_solve(model, shift):
    # the banded LU against scipy's sparse direct solve (the path it replaced) of
    # the same shifted, trace-completed system
    lay, p, drive = model
    lv = build_liouvillian(p, lay, drive=drive)
    deriv = scipy.sparse.diags(master.detuning_derivative(lay))
    a = (lv.generator + shift * deriv).tolil()
    a[0, :] = np.eye(lay.dim).reshape(1, -1)   # the trace row
    b = np.zeros(lay.dim**2, dtype=complex)
    b[0] = 1.0
    ref = unvectorize(scipy.sparse.linalg.spsolve(a.tocsc(), b), lay.dim)
    solve = SteadyStateSolver(lv)
    assert_allclose(solve(shift).entries, ref, rtol=0, atol=1e-12)
    assert solve.residual <= 1e-10


@given(model=random_models, shift=st.floats(-10.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_shifted_solver_matches_steady_state_of_shifted_generator(model, shift):
    # the sweep's path (one pattern, diagonal rewritten) against a fresh solve
    lay, p, drive = model
    lv = build_liouvillian(p, lay, drive=drive)
    deriv = scipy.sparse.diags(master.detuning_derivative(lay))
    solver = SteadyStateSolver(lv)
    ref = steady_state(Liouvillian(generator=scipy.sparse.csr_matrix(lv.generator + shift * deriv),
                                   layout=lay))
    assert_allclose(solver(shift).entries, ref.entries, rtol=0, atol=1e-12)
    assert_allclose(solver(0.0).entries, steady_state(lv).entries, rtol=0, atol=1e-12)
