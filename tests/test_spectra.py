import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from epqed.dynamics import amplitude_evolve, excited_qubit_state
from epqed.errors import DivergenceError, EpqedError, NoBicError
from epqed.ldos import spectral_density, transparency_detuning
from epqed.params import ModelParams
from epqed.spectra import (DEFECT_EIGVAL_TOL, DEFECT_OVERLAP_TOL, EigenMode,
                           coupling_matrix, delta_omega_bic, delta_phi_bic,
                           eigenmode_sweep, eigenmodes, lamb_shift, local_coupling,
                           min_decay, se_spectrum, spectrum_peaks)


def ep(delta_phi, **kw):
    merged = dict(g=20.0, kappa=20.0, gamma=0.0)
    merged.update(kw)
    return ModelParams.from_delta_phi(delta_phi, **merged)


# ---------------------------------------------------------------------------
# coupling matrix
# ---------------------------------------------------------------------------

def test_decoupled_matrix_is_diagonal():
    p = ModelParams(g=0.0, kappa=4.0, gamma=1.0, r_abs=0.0, omega_c=2.0, omega0=3.0)
    m = coupling_matrix(p)
    assert_allclose(m, np.diag([2.0 - 2.0j, 2.0 - 2.0j, 3.0 - 0.5j]))


def test_matrix_entries():
    p = ModelParams(g=3.0, kappa=4.0, gamma=1.0, phi_prop=0.7, phi_azim=0.2)
    m = coupling_matrix(p)
    assert m[1, 0] == pytest.approx(-4j * np.exp(0.7j))
    assert m[0, 2] == pytest.approx(3 * np.exp(-0.2j))
    assert m[1, 2] == pytest.approx(3 * np.exp(0.2j))
    assert m[2, 0] == pytest.approx(3 * np.exp(0.2j))
    assert m[2, 1] == pytest.approx(3 * np.exp(-0.2j))
    assert m[0, 1] == 0.0


def test_eigenvalues_gauge_invariant():
    base = ModelParams(g=5.0, kappa=8.0, gamma=0.3, phi_prop=1.1, phi_azim=0.4)
    ref = np.sort_complex(np.linalg.eigvals(coupling_matrix(base)))
    rng = np.random.default_rng(5)
    for delta in rng.uniform(-np.pi, np.pi, 5):
        shifted = base.replace(phi_prop=base.phi_prop + 2 * delta,
                               phi_azim=base.phi_azim + delta)
        got = np.sort_complex(np.linalg.eigvals(coupling_matrix(shifted)))
        assert_allclose(got, ref, atol=1e-10)


def test_real_eigenvalue_at_zero_phase():
    vals = np.linalg.eigvals(coupling_matrix(ep(0.0, g=7.0)))
    assert np.abs(vals.imag).min() < 1e-12


# ---------------------------------------------------------------------------
# eigenmodes
# ---------------------------------------------------------------------------

def test_hopfield_at_bic():
    g = kappa = 20.0
    dphi = delta_phi_bic(g, kappa)
    modes = eigenmodes(coupling_matrix(ep(dphi)))
    bic = min(modes, key=lambda m: abs(m.value.imag))
    assert abs(bic.value.imag) < 1e-10
    # emitter and (summed) cavity weights are both one half
    assert bic.qubit_weight == pytest.approx(0.5, abs=1e-3)
    assert bic.hopfield[:2].sum() == pytest.approx(0.5, abs=1e-3)
    assert bic.hopfield[0] == pytest.approx(0.25, abs=1e-3)
    assert bic.hopfield[1] == pytest.approx(0.25, abs=1e-3)
    assert bic.hopfield.sum() == pytest.approx(1.0, abs=1e-12)


def test_trapped_mode_qubit_weight_at_zero_phase():
    # the zero-phase bound state carries emitter weight kappa^2/(8g^2+kappa^2)
    g = kappa = 20.0
    modes = eigenmodes(coupling_matrix(ep(0.0)))
    trapped = min(modes, key=lambda m: abs(m.value.imag))
    expected = kappa**2 / (8 * g**2 + kappa**2)
    assert trapped.qubit_weight == pytest.approx(expected, abs=1e-12)
    assert trapped.qubit_weight < 0.12
    assert trapped.qubit_weight < trapped.hopfield[:2].sum()


def test_passivity_over_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = ModelParams(g=rng.uniform(0, 30), kappa=rng.uniform(0.1, 30),
                        gamma=rng.uniform(0, 3), r_abs=rng.uniform(0, 1),
                        phi_prop=rng.uniform(0, 2 * np.pi),
                        omega0=rng.uniform(-20, 20))
        vals = np.linalg.eigvals(coupling_matrix(p))
        assert vals.imag.max() <= 1e-12


def test_chiral_ep_defectiveness_flagged():
    # g = 0 with a mirror: the cavity block is a Jordan block (the chiral EP)
    p = ModelParams(g=0.0, kappa=20.0, gamma=1.0, r_abs=1.0)
    modes = eigenmodes(coupling_matrix(p))
    flagged = [m for m in modes if m.degenerate]
    assert len(flagged) == 2
    lam = 0.5 * (flagged[0].value + flagged[1].value)
    assert lam == pytest.approx(-10j, abs=1e-6)
    # generalized eigenvector: (M - lam) w is parallel to the true eigenvector
    m = coupling_matrix(p)
    v, w = flagged[0].vector, flagged[1].vector
    image = (m - lam * np.eye(3)) @ w
    overlap = abs(np.vdot(v, image)) / np.linalg.norm(image)
    assert overlap > 1.0 - 1e-8


def test_reference_cavity_degeneracy_not_flagged():
    # |r| = 0: the same eigenvalue twice but with orthogonal eigenvectors
    p = ModelParams(g=0.0, kappa=20.0, gamma=1.0, r_abs=0.0)
    modes = eigenmodes(coupling_matrix(p))
    assert not any(m.degenerate for m in modes)
    assert_allclose(sorted(np.imag([m.value for m in modes])),
                    [-10.0, -10.0, -0.5], atol=1e-12)


def test_label_continuity_along_sweep():
    p = ep(0.0)
    dphis = np.linspace(0.0, np.pi, 400)
    sweep = eigenmode_sweep(coupling_matrix(p.replace(phi_prop=float(d)))
                            for d in dphis)
    prev = sweep[0]
    for modes in sweep[1:]:
        for mode in modes:
            mate = next(m for m in prev if m.label == mode.label)
            assert abs(np.vdot(mate.vector, mode.vector)) > 0.9
        prev = modes


# ---------------------------------------------------------------------------
# stacked sweep against the per-matrix reference
# ---------------------------------------------------------------------------

def _match_to_previous(vecs, previous):
    """Reference: greedy max-|overlap| assignment of new columns to previous modes."""
    overlaps = np.abs(np.array([m.vector for m in previous]).conj() @ vecs)
    order = [-1] * len(previous)
    taken = set()
    for prev_i in np.argsort(-overlaps.max(axis=1), kind="stable"):
        for cand in np.argsort(-overlaps[prev_i], kind="stable"):
            if cand not in taken:
                order[prev_i] = int(cand)
                taken.add(int(cand))
                break
    return order


def reference_eigenmodes(m, previous=None):
    """Reference: one matrix at a time, labels matched to `previous`."""
    m = np.asarray(m, dtype=complex)
    vals, vecs = np.linalg.eig(m)
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    n = len(vals)
    degenerate = [False] * n
    scale = max(1.0, np.abs(vals).max())
    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) > max(1e-10, DEFECT_EIGVAL_TOL * scale):
                continue
            if 1.0 - abs(np.vdot(vecs[:, i], vecs[:, j])) > DEFECT_OVERLAP_TOL:
                continue
            degenerate[i] = degenerate[j] = True
            lam = 0.5 * (vals[i] + vals[j])
            gen, *_ = np.linalg.lstsq(m - lam * np.eye(n), vecs[:, i], rcond=None)
            norm = np.linalg.norm(gen)
            if norm > 0:
                vecs[:, j] = gen / norm
    if previous is None:
        order, labels = list(np.argsort(vals.real, kind="stable")), list(range(n))
    else:
        order, labels = _match_to_previous(vecs, previous), [m.label for m in previous]
    modes = []
    for lab, col in zip(labels, order):
        v = vecs[:, col]
        hop = np.abs(v) ** 2
        modes.append(EigenMode(value=complex(vals[col]), vector=v, hopfield=hop / hop.sum(),
                               label=lab, degenerate=degenerate[col]))
    return modes


def reference_sweep(matrices):
    out, prev = [], None
    for m in matrices:
        prev = reference_eigenmodes(m, prev)
        out.append(prev)
    return out


def assert_same_modes(got, want):
    assert len(got) == len(want)
    for point_got, point_want in zip(got, want):
        assert len(point_got) == len(point_want)
        for a, b in zip(point_got, point_want):
            assert (a.label, a.value, a.degenerate) == (b.label, b.value, b.degenerate)
            assert np.array_equal(a.vector, b.vector)
            assert np.array_equal(a.hopfield, b.hopfield)


_AXES = {"phi_prop": (0.0, 2 * np.pi), "g": (30.0, 0.0), "omega0": (-20.0, 20.0),
         "r_abs": (0.0, 1.0)}


@st.composite
def sweeps(draw):
    """Matrices along one axis; `chiral_ep` and `reference_cavity` fix g = 0 with
    |r| = 1 or 0, so every point (or the g and r_abs sweeps' ends) sits there."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "chiral_ep", "reference_cavity"]))
    axis = draw(st.sampled_from(sorted(_AXES)))
    kappa = draw(st.floats(0.5, 30.0))
    base = dict(kappa=kappa, gamma=draw(st.sampled_from([0.0, kappa]) | st.floats(0.0, 3.0)),
                g=draw(st.floats(0.0, 30.0)), r_abs=draw(st.sampled_from([0.0, 1.0])
                                                           | st.floats(0.0, 1.0)),
                phi_prop=draw(st.floats(0.0, 2 * np.pi)), omega0=draw(st.floats(-5.0, 5.0)),
                phi_azim=tuple(draw(st.floats(0.0, 2 * np.pi)) for _ in range(n)))
    if kind != "random":
        base.update(g=0.0, r_abs=1.0 if kind == "chiral_ep" else 0.0)
    grid = np.linspace(*_AXES[axis], draw(st.integers(1, 200)))
    return [coupling_matrix(ModelParams(**{**base, axis: float(x)})) for x in grid]


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_stacked_sweep_equals_per_matrix_reference(matrices):
    assert_same_modes(eigenmode_sweep(matrices), reference_sweep(matrices))


_TIED = ModelParams(g=1.0, kappa=20.0, gamma=20.0, r_abs=0.0, phi_azim=(0.0, 0.5, 1.0))
_CHIRAL_EP = ModelParams(g=0.0, kappa=20.0, gamma=1.0, r_abs=1.0)


@pytest.mark.parametrize("params, g_grid", [
    # three qubits at g = 1, then fully degenerate at g = 0 (gamma = kappa, |r| = 0):
    # the second point's overlap rows tie in their maxima, so the previous
    # modes pick their columns in label order
    (_TIED, [1.0, 0.0]),
    # a g -> 0 approach to the chiral EP, where the last point is defective
    (_CHIRAL_EP, np.linspace(2.0, 0.0, 41)),
])
def test_structured_sweeps_equal_per_matrix_reference(params, g_grid):
    matrices = [coupling_matrix(params.replace(g=float(g))) for g in g_grid]
    got = eigenmode_sweep(matrices)
    assert_same_modes(got, reference_sweep(matrices))
    assert sum(m.degenerate for m in got[-1]) == (2 if params.r_abs == 1.0 else 0)


def test_empty_sweep_is_empty():
    assert eigenmode_sweep([]) == []
    assert eigenmode_sweep(m for m in []) == []


def test_sweep_accepts_a_generator():
    dphis = np.linspace(0.0, np.pi, 7)
    matrices = [coupling_matrix(ep(float(d))) for d in dphis]
    assert_same_modes(eigenmode_sweep(m for m in matrices), eigenmode_sweep(matrices))


def test_one_point_sweep_is_eigenmodes():
    m = coupling_matrix(ep(1.3, gamma=0.4))
    assert_same_modes(eigenmode_sweep([m]), [eigenmodes(m)])
    assert [mode.label for mode in eigenmodes(m)] == [0, 1, 2]


def test_tied_eigenvalues_keep_their_column_order():
    # np.argsort's default sort orders ties by CPU (its AVX-512 build gave [3, 2, 1, 0])
    columns = [int(np.argmax(np.abs(mode.vector)))
               for mode in eigenmodes(np.diag([1.0, 1.0, 0.0, 0.0]))]
    assert columns == [2, 3, 0, 1]


def test_mixed_shapes_raise():
    with pytest.raises(ValueError):
        eigenmode_sweep([coupling_matrix(ep(0.0)), coupling_matrix(ep(0.0), n_qubits=2)])


# ---------------------------------------------------------------------------
# perturbative eigenvalues
# ---------------------------------------------------------------------------

class CooperativityUndefinedError(EpqedError, ValueError):
    """Cooperativity 8g^2/(kappa*gamma) undefined for gamma = 0."""


def approx_eigenvalues(params: ModelParams) -> tuple[complex, complex, complex]:
    """Second-order eigenvalue expansions (resonant case, relative to omega_c).

    w_{1,2} = +-sqrt(2) g + (kappa/4) sin(dphi) - i[(cos(dphi)+1) kappa + gamma]/4
    w_3     = (kappa/2) sin(dphi) [cos(dphi)/C - 1] - i (kappa/2)[cos(dphi) - 1]

    with C = 8 g^2 / (kappa gamma); implemented verbatim, validity limits
    included (no resummation).  The oracle of acceptance criterion 6.
    """
    if params.g <= 0:
        raise ValueError("approximate eigenvalues need g > 0")
    if params.gamma <= 0:
        raise CooperativityUndefinedError(
            "cooperativity in w_3 undefined for gamma = 0")
    dphi = params.delta_phi
    kappa, gamma, g = params.kappa, params.gamma, params.g
    coop = 8.0 * g * g / (kappa * gamma)
    split = np.sqrt(2.0) * g
    shift = (kappa / 4.0) * np.sin(dphi)
    decay = -0.25j * ((np.cos(dphi) + 1.0) * kappa + gamma)
    w1 = -split + shift + decay
    w2 = split + shift + decay
    w3 = ((kappa / 2.0) * np.sin(dphi) * (np.cos(dphi) / coop - 1.0)
          - 0.5j * kappa * (np.cos(dphi) - 1.0))
    return complex(w1), complex(w2), complex(w3)


def test_approx_eigenvalue_narrowing():
    p = ModelParams.from_delta_phi(np.pi, g=100.0, kappa=20.0, gamma=1.0)
    w1, w2, w3 = approx_eigenvalues(p)
    assert -2 * w1.imag == pytest.approx(0.5, abs=1e-14)
    assert -2 * w2.imag == pytest.approx(0.5, abs=1e-14)
    assert w1.real == pytest.approx(-np.sqrt(2) * 100.0)
    assert w2.real == pytest.approx(np.sqrt(2) * 100.0)


def test_approx_third_eigenvalue_vanishes_at_zero_phase():
    p = ModelParams.from_delta_phi(0.0, g=10.0, kappa=20.0, gamma=1.0)
    assert approx_eigenvalues(p)[2] == 0.0


def test_approx_requires_finite_cooperativity():
    with pytest.raises(CooperativityUndefinedError):
        approx_eigenvalues(ModelParams(g=10.0, kappa=20.0, gamma=0.0))


def test_approx_matches_exact_doublet():
    g, kappa, gamma = 100.0, 20.0, 1.0
    for dphi in np.linspace(0.0, np.pi, 21):
        p = ModelParams.from_delta_phi(dphi, g=g, kappa=kappa, gamma=gamma)
        w1, w2, _ = approx_eigenvalues(p)
        exact = np.linalg.eigvals(coupling_matrix(p))
        exact = exact[np.argsort(exact.real)]
        assert abs(w1.real - exact[0].real) <= 0.02 * g
        assert abs(w2.real - exact[-1].real) <= 0.02 * g


# ---------------------------------------------------------------------------
# Lamb shift, local coupling, emission spectrum
# ---------------------------------------------------------------------------

def test_local_coupling_proportional_to_spectral_density():
    # both derive from the same susceptibilities: Gamma = 2 pi J pointwise
    p = ModelParams.from_delta_phi(2.2, g=3.0, kappa=15.0, gamma=0.8, r_abs=0.9)
    w = np.linspace(-80, 80, 501)
    assert_allclose(local_coupling(w, p), 2.0 * np.pi * spectral_density(w, p),
                    atol=1e-12)


def test_local_coupling_golden_rule_normalization():
    # on resonance the reference cavity gives Gamma = C gamma (Purcell C + 1)
    p = ModelParams(g=3.0, kappa=15.0, gamma=0.8, r_abs=0.0)
    coop = 8 * p.g**2 / (p.kappa * p.gamma)
    assert local_coupling(0.0, p) == pytest.approx(coop * p.gamma, rel=1e-12)


def test_local_coupling_vanishes_at_transparency_point():
    p = ModelParams.from_delta_phi(1.0, g=3.0, kappa=15.0, gamma=0.8)
    w0 = transparency_detuning(1.0, p.kappa)
    assert local_coupling(w0, p) == pytest.approx(0.0, abs=1e-13)


def test_lamb_shift_limits():
    p = ModelParams.from_delta_phi(0.0, g=3.0, kappa=15.0, gamma=0.8)
    assert abs(lamb_shift(1e7, p)) < 1e-5
    assert lamb_shift(0.0, p) == pytest.approx(0.0, abs=1e-13)


def test_se_spectrum_doublet():
    g, kappa, gamma = 100.0, 20.0, 1.0
    p = ModelParams.from_delta_phi(np.pi, g=g, kappa=kappa, gamma=gamma)
    w = np.linspace(-4 * g, 4 * g, 4001)
    series = se_spectrum(w, p)
    assert series.value.min() >= 0.0
    peaks = spectrum_peaks(series, n_peaks=2)
    split = abs(peaks[0][0] - peaks[1][0])
    assert split == pytest.approx(2 * np.sqrt(2) * g, rel=0.02)


def test_se_spectrum_linewidth_below_bare_emitter():
    g, kappa, gamma = 100.0, 20.0, 1.0
    p = ModelParams.from_delta_phi(np.pi, g=g, kappa=kappa, gamma=gamma)
    coarse = se_spectrum(np.linspace(-4 * g, 4 * g, 4001), p)
    w_pk = spectrum_peaks(coarse, n_peaks=1)[0][0]
    fine = se_spectrum(np.linspace(w_pk - 5, w_pk + 5, 20001), p)
    y = fine.value
    above = y >= y.max() / 2
    fwhm = fine.omega[above][-1] - fine.omega[above][0]
    assert fwhm < gamma


def uniform_fourier_sum(values, step: float, omega) -> np.ndarray:
    """F(w) = sum_k values_k exp(i w k step) for each w of omega (any grid).

    With k = q m + r and m = ceil(sqrt(len(values))), exp(i w k step) =
    exp(i w q m step) exp(i w r step): one (Q x m) @ (m x len(omega)) product
    and len(omega) (Q + m) exponentials in place of len(omega) len(values).
    """
    values = np.asarray(values, dtype=complex)
    omega = np.asarray(omega, dtype=float)
    m = int(np.ceil(np.sqrt(len(values))))
    blocks = np.pad(values, (0, -len(values) % m)).reshape(-1, m)
    inner = blocks @ np.exp(1j * step * np.outer(np.arange(m), omega))
    outer = np.exp(1j * (m * step) * np.outer(np.arange(len(blocks)), omega))
    return np.einsum("qw,qw->w", outer, inner)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000), n_omega=st.integers(1, 300),
       step=st.floats(1e-4, 0.1))
@settings(max_examples=40, deadline=None)
def test_factored_fourier_sum_matches_direct_sum(seed, n, n_omega, step):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    omega = np.sort(rng.uniform(-60.0, 60.0, n_omega))   # not uniform
    direct = np.exp(1j * np.outer(omega, step * np.arange(n))) @ values
    assert_allclose(uniform_fourier_sum(values, step, omega), direct,
                    rtol=0, atol=1e-12 * np.abs(values).sum())


def test_se_spectrum_peaks_match_amplitude_dynamics():
    # independent oracle: |FT of the emitter amplitude|^2 peaks at the same spots
    g, kappa, gamma = 100.0, 20.0, 1.0
    p = ModelParams.from_delta_phi(np.pi, g=g, kappa=kappa, gamma=gamma)
    t = np.linspace(0.0, 8.0, 32001)
    series = amplitude_evolve(p, excited_qubit_state(1), t)
    c_e = series.amplitudes[:, 2]
    w = np.linspace(-4 * g, 4 * g, 2001)
    # the trapezoid rule of int c_e(t) e^{iwt} dt on the uniform grid from t = 0,
    # summed in factored form (a direct sum would build a 2001 x 32001 array)
    weights = np.full(len(t), t[1] - t[0])
    weights[[0, -1]] /= 2
    ft = uniform_fourier_sum(weights * c_e, t[1] - t[0], w)
    numeric = np.abs(ft) ** 2
    analytic = se_spectrum(w, p)
    num_peaks = sorted(spectrum_peaks(
        type(analytic)(w, numeric / numeric.max()), n_peaks=2))
    ana_peaks = sorted(spectrum_peaks(analytic, n_peaks=2))
    dw = w[1] - w[0]
    for (wn, _), (wa, _) in zip(num_peaks, ana_peaks):
        assert abs(wn - wa) <= dw


# ---------------------------------------------------------------------------
# bound-state conditions
# ---------------------------------------------------------------------------

def test_delta_phi_bic_value():
    assert delta_phi_bic(20.0, 20.0) / np.pi == pytest.approx(0.770, abs=1e-3)


def test_delta_phi_bic_edge_and_domain():
    kappa = 20.0
    assert delta_phi_bic(kappa / (2 * np.sqrt(2)), kappa) == pytest.approx(0.0)
    with pytest.raises(NoBicError):
        delta_phi_bic(1.0, 20.0)


def test_bic_eigenvalue_is_real():
    g = kappa = 20.0
    dphi = delta_phi_bic(g, kappa)
    vals = np.linalg.eigvals(coupling_matrix(ep(dphi)))
    assert np.abs(vals.imag).min() <= 1e-10


def test_delta_omega_bic_values():
    assert delta_omega_bic(5.0, 20.0, 0.0) == 0.0
    assert delta_omega_bic(10.0, 20.0, np.pi / 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DivergenceError):
        delta_omega_bic(10.0, 20.0, np.pi)
    # weak coupling reduces to the transparency detuning
    weak = delta_omega_bic(0.01, 20.0, 1.0)
    assert weak == pytest.approx(transparency_detuning(1.0, 20.0), abs=1e-2)


def test_delta_omega_bic_consistent_with_bic_phase():
    # at the interference bound-state phase, the optimal detuning is zero
    g = kappa = 20.0
    dphi = delta_phi_bic(g, kappa)
    assert delta_omega_bic(g, kappa, dphi) == pytest.approx(0.0, abs=1e-10)


def test_min_decay_reference_points():
    base = ModelParams(g=20.0, kappa=20.0, gamma=1.0)
    gm = min_decay(base, 0.0)
    assert 1.0 / 25.0 <= gm <= 1.0 / 15.0
    for g in (5.0, 10.0, 20.0):
        gm_pi = min_decay(ModelParams(g=g, kappa=20.0, gamma=1.0), 0.99 * np.pi)
        assert gm_pi == pytest.approx(0.5, rel=0.05)


def test_min_decay_monotone_for_moderate_coupling():
    base = ModelParams(g=5.0, kappa=20.0, gamma=1.0)
    dphis = np.linspace(0.0, 0.99 * np.pi, 200)
    gm = np.array([min_decay(base, d) for d in dphis])
    assert np.all(np.diff(gm) >= -1e-10)
