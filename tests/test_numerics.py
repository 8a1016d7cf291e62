import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from epqed.dynamics import amplitude_evolve, excited_qubit_state
from epqed.hilbert import SpaceLayout
from epqed.master import DensityMatrix, build_liouvillian, evolve, vacuum_state, vectorize
from epqed import numerics
from epqed.numerics import (DENSE_EXPM_MAX_DIM, distinct_steps, expm, propagate,
                            uniform_powers)
from epqed.params import DriveSpec, ModelParams
from epqed.spectra import coupling_matrix


def expm_oracle(a, x0, t_grid):
    return np.array([scipy.linalg.expm(a * (t - t_grid[0])) @ x0 for t in t_grid])


def loop_oracle(step_map, x0, n):
    """The per-interval loop: one matrix-vector product per sample."""
    out = [np.asarray(x0, dtype=complex)]
    for _ in range(n - 1):
        out.append(step_map @ out[-1])
    return np.array(out)


def decaying_generator(rng, dim):
    a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
    return a - (np.abs(np.linalg.eigvals(a).real).max() + 0.1) * np.eye(dim)


def expm_error(a):
    """Largest entry error of numerics.expm against scipy.linalg.expm, relative to its
    largest entry.

    scipy (1.17) squares a triangular matrix with the superdiagonal rewritten
    from a 2x2 formula that loses every digit when neighbouring diagonal
    entries differ by rounding (0.19 off on a g = 0 Liouvillian with a qubit
    at kappa t = 1), so the reference exponentiates a symmetric permutation
    of a, which is exact and, above 2 x 2, not triangular.
    """
    perm = np.random.default_rng(len(a)).permutation(len(a))
    ref = np.empty_like(a, dtype=complex)
    ref[np.ix_(perm, perm)] = scipy.linalg.expm(a[np.ix_(perm, perm)])
    return np.abs(expm(a) - ref).max() / np.abs(ref).max()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       log_norm=st.floats(-3.0, np.log10(300.0)))
@settings(max_examples=80, deadline=None)
def test_expm_matches_scipy_on_random_matrices(seed, n, log_norm):
    # 1-norms up to 300 take up to 6 squarings.  A 1 x 1 a near -300 loses up to
    # 1.2e-12: exp(2^-s a) ~ e^-5.4 cancels in v + u and each squaring doubles
    # that error (scipy exponentiates a 1 x 1 a by np.exp)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= 10.0**log_norm / np.abs(a).sum(axis=0).max()
    assert expm_error(a) <= (2e-12 if n == 1 else 1e-12)


@given(kappa=st.floats(0.5, 50.0), phi=st.floats(-np.pi, np.pi), t=st.floats(1e-3, 100.0))
@settings(max_examples=40, deadline=None)
def test_expm_matches_scipy_at_the_chiral_ep(kappa, phi, t):
    # g = 0, |r| = 1: the cavity block of M is a defective 2x2 Jordan block; alone,
    # it is taken to kappa t = 150, where it has decayed by e^-75 and needs 6 squarings
    m = coupling_matrix(ModelParams(g=0.0, kappa=kappa, gamma=1.0, phi_prop=phi), 1)
    block = m[:2, :2]
    assert np.abs(block - m[0, 0] * np.eye(2)).max() > 0 and block[0, 1] == 0
    assert expm_error(-1j * m * t) <= 1e-12
    assert expm_error(-1j * block * min(t, 150.0 / kappa)) <= 1e-12


@given(delta_phi=st.floats(-np.pi, np.pi), g=st.floats(0.0, 20.0), kappa=st.floats(0.5, 50.0),
       gamma=st.floats(0.0, 10.0), r_abs=st.floats(0.0, 1.0), amplitude=st.floats(0.0, 2.0),
       layout=st.sampled_from([SpaceLayout(0, 2), SpaceLayout(0, 3), SpaceLayout(1, 2),
                               SpaceLayout(1, 3, max_excitations=2)]),
       log_norm=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_expm_matches_scipy_on_small_liouvillians(delta_phi, g, kappa, gamma, r_abs,
                                                  amplitude, layout, log_norm):
    # 1-norms up to 1e3 take up to 8 squarings
    p = ModelParams.from_delta_phi(delta_phi, g=g, kappa=kappa, gamma=gamma, r_abs=r_abs)
    drive = DriveSpec(omega_drive=0.3, amplitude=amplitude) if amplitude > 0 else None
    a = build_liouvillian(p, layout, drive=drive).matrix
    assert a.shape[0] <= 81
    assert expm_error(a * (10.0**log_norm / np.abs(a).sum(axis=0).max())) <= 1e-12


def fresh_interpreter(code: str) -> str:
    """Standard output of code run by a new interpreter that imports epqed from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(numerics.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_dense_propagation_does_not_load_scipy_linalg():
    # numpy's and scipy's OpenBLAS keep separate thread pools; dense propagation
    # must stay on numpy's
    code = """
import sys
import numpy as np
from epqed.dynamics import amplitude_evolve, excited_qubit_state, trapped_population
from epqed.hilbert import SpaceLayout, cavity_ops
from epqed.master import build_liouvillian, evolve, two_time_correlation, vacuum_state
from epqed.numerics import DENSE_EXPM_MAX_DIM
from epqed.params import DriveSpec, ModelParams

p = ModelParams.from_delta_phi(0.0, g=5.0, kappa=20.0, gamma=1.0)
amplitude_evolve(p, excited_qubit_state(1), np.linspace(0.0, 1.0, 11))
amplitude_evolve(p, excited_qubit_state(1), np.array([0.0, 0.1, 0.3]))
trapped_population(ModelParams.from_delta_phi(0.0, g=5.0, kappa=20.0, gamma=0.0))
lay = SpaceLayout(1, 3, max_excitations=2)
lv = build_liouvillian(p, lay, drive=DriveSpec(omega_drive=0.0, amplitude=0.5))
assert lv.generator.shape[0] <= DENSE_EXPM_MAX_DIM
rho = evolve(lv, vacuum_state(lay), np.linspace(0.0, 0.5, 6)).states[-1]
c_l = cavity_ops(lay)[0]
two_time_correlation(lv, rho, c_l.conj().T, c_l, np.linspace(0.0, 0.5, 6))
print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
"""
    assert fresh_interpreter(code).strip() == "[]"


def test_sparse_propagation_does_not_load_scipy_sparse_linalg():
    # the sparse branch is numpy and CSR products only; scipy.sparse.linalg would
    # add its modules to every master-equation process
    code = """
import sys
import numpy as np
from epqed.hilbert import SpaceLayout, cavity_ops
from epqed.master import build_liouvillian, evolve, two_time_correlation, vacuum_state
from epqed.numerics import DENSE_EXPM_MAX_DIM
from epqed.params import DriveSpec, ModelParams

p = ModelParams.from_delta_phi(0.0, g=5.0, kappa=20.0, gamma=1.0)
lay = SpaceLayout(1, 3)
lv = build_liouvillian(p, lay, drive=DriveSpec(omega_drive=0.0, amplitude=0.5))
assert lv.generator.shape[0] > DENSE_EXPM_MAX_DIM
rho = evolve(lv, vacuum_state(lay), np.linspace(0.0, 0.5, 6)).states[-1]
c_l = cavity_ops(lay)[0]
two_time_correlation(lv, rho, c_l.conj().T, c_l, np.array([0.0, 0.1, 0.3]))
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse.linalg")))
"""
    assert fresh_interpreter(code).strip() == "[]"


grids = st.one_of(
    st.builds(lambda t1, n: np.linspace(0.0, t1, n),
              st.floats(0.1, 3.0), st.integers(2, 60)),
    st.lists(st.floats(0.0, 3.0), min_size=2, max_size=40, unique=True)
    .map(lambda ts: np.sort(np.array(ts)))
    .filter(lambda t: np.diff(t).min() > 1e-6),
)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), t_grid=grids)
@settings(max_examples=60, deadline=None)
def test_propagate_matches_expm_on_random_generators(seed, dim, t_grid):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a -= (np.abs(np.linalg.eigvals(a).real).max() + 0.1) * np.eye(dim)   # decaying
    x0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    assert_allclose(propagate(a, x0, t_grid), expm_oracle(a, x0, t_grid),
                    rtol=1e-10, atol=1e-10)


@given(kappa=st.floats(0.5, 50.0), phi=st.floats(-np.pi, np.pi), t_grid=grids)
@settings(max_examples=40, deadline=None)
def test_propagate_is_exact_at_the_chiral_ep(kappa, phi, t_grid):
    # g = 0, |r| = 1: the cavity block of M is a 2x2 Jordan block
    m = coupling_matrix(ModelParams(g=0.0, kappa=kappa, gamma=1.0, phi_prop=phi), 1)
    nilpotent = m[:2, :2] - m[0, 0] * np.eye(2)
    assert np.abs(nilpotent).max() > 0 and np.abs(nilpotent @ nilpotent).max() == 0
    a = -1j * m
    x0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = propagate(a, x0, t_grid)
    assert_allclose(out, expm_oracle(a, x0, t_grid), rtol=1e-10, atol=1e-10)
    # square-Lorentzian precursor: the fed mode grows as kappa t e^{-kappa t/2}
    tau = t_grid - t_grid[0]
    assert_allclose(np.abs(out[:, 1]), kappa * tau * np.exp(-kappa * tau / 2), atol=1e-10)


# lengths of uniform grids: the smallest, the doubling's edges 2^k and 2^k +- 1
# (k <= 12), and any up to 4000
uniform_lengths = st.one_of(
    st.sampled_from([2, 3]),
    st.integers(2, 12).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
    st.integers(4, 4000),
)


def check_uniform_grid(a, x0, t_grid):
    out = propagate(a, x0, t_grid)
    step_map = scipy.linalg.expm(a * (t_grid[1] - t_grid[0]))
    assert_allclose(out, loop_oracle(step_map, x0, len(t_grid)), rtol=1e-10, atol=1e-10)
    sub = np.unique(np.r_[0:len(t_grid):max(1, len(t_grid) // 20), len(t_grid) - 1])
    assert_allclose(out[sub], expm_oracle(a, x0, t_grid[sub]), rtol=1e-10, atol=1e-10)
    return out


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), n=uniform_lengths,
       t1=st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_blocked_uniform_grid_matches_loop_and_expm(seed, dim, n, t1):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    check_uniform_grid(decaying_generator(rng, dim), x0, np.linspace(0.0, t1, n))


@given(kappa=st.floats(0.5, 50.0), phi_azim=st.floats(-np.pi, np.pi), n=uniform_lengths,
       t1=st.floats(0.1, 3.0))
@settings(max_examples=20, deadline=None)
def test_blocked_uniform_grid_at_the_chiral_ep(kappa, phi_azim, n, t1):
    # |r| = 1, delta_phi = 0: the 3x3 M holds a 2x2 Jordan block at g = 0, and
    # the 16-dim Liouvillian of the cavity at Fock cutoff 2 is defective too
    p = ModelParams.from_delta_phi(0.0, g=0.0, kappa=kappa, gamma=1.0, phi_azim=phi_azim)
    t_grid = np.linspace(0.0, t1, n)
    check_uniform_grid(-1j * coupling_matrix(p, 1), np.array([1.0, 0.0, 0.0]), t_grid)
    lay = SpaceLayout(0, 2)
    lv = build_liouvillian(p, lay)
    assert lv.matrix.shape == (16, 16)
    x0 = vectorize(np.outer(np.eye(4)[1] + np.eye(4)[2], np.eye(4)[0]))   # a QRT source
    check_uniform_grid(lv.matrix, x0, t_grid)


@given(seed=st.integers(0, 2**32 - 1), dim=st.just(1) | st.integers(17, 64), n=uniform_lengths,
       t1=st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_uniform_grid_where_the_block_size_rule_changes(seed, dim, n, t1):
    # dim 1, and maps wider than the grid is long (dim up to 64 at n down to
    # 2), where each doubling writes a block of rows thinner than the map;
    # the samples still match the loop and expm, in a C-ordered array
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    out = check_uniform_grid(decaying_generator(rng, dim), x0, np.linspace(0.0, t1, n))
    assert out.shape == (n, dim) and out.flags.c_contiguous


def test_one_sample_grid_returns_the_initial_state():
    p = ModelParams.from_delta_phi(0.6, g=5.0, kappa=20.0, gamma=1.0)
    steps, index = distinct_steps([0.0])
    assert steps.shape == index.shape == (0,)
    x0 = np.array([0.3, 0.4j, 0.5 + 0.1j])
    lay = SpaceLayout(1, 3)
    big = build_liouvillian(p, lay, drive=DriveSpec(omega_drive=0.5, amplitude=0.8)).generator
    assert big.shape[0] > DENSE_EXPM_MAX_DIM
    for a, v in ((-1j * coupling_matrix(p, 1), x0), (big, vectorize(vacuum_state(lay).entries))):
        out = propagate(a, v, [0.0])
        assert out.shape == (1, len(v)) and np.array_equal(out[0], v)
    series = amplitude_evolve(p, excited_qubit_state(1), [0.0])
    assert np.array_equal(series.amplitudes, [excited_qubit_state(1)])
    assert np.array_equal(series.leaked_kappa, [0.0])
    assert np.array_equal(series.leaked_gamma, [0.0])
    rho0 = DensityMatrix.from_ket(np.eye(lay.dim)[1])
    run = evolve(build_liouvillian(p, lay), rho0, [0.0])
    assert len(run.states) == 1 and np.array_equal(run.states[0].entries, rho0.entries)


def test_uniform_powers_block_edges():
    a = decaying_generator(np.random.default_rng(7), 5)
    step_map = scipy.linalg.expm(a * 0.01)
    x0 = np.arange(1.0, 6.0)
    for n in (1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65):
        out = uniform_powers(step_map, x0, n)
        assert out.shape == (n, 5) and out.flags.c_contiguous
        assert_allclose(out, loop_oracle(step_map, x0, n), rtol=1e-13, atol=1e-13)


def test_propagate_large_generator_uses_sparse_branch():
    p = ModelParams.from_delta_phi(0.6, g=5.0, kappa=20.0, gamma=1.0)
    lay = SpaceLayout(1, 3)
    lv = build_liouvillian(p, lay, drive=DriveSpec(omega_drive=0.5, amplitude=0.8))
    assert lv.matrix.shape[0] > DENSE_EXPM_MAX_DIM
    x0 = vectorize(vacuum_state(lay).entries)
    for t_grid in (np.linspace(0.0, 0.3, 4), np.array([0.05, 0.06, 0.2, 0.25])):
        assert_allclose(propagate(lv.matrix, x0, t_grid),
                        expm_oracle(lv.matrix, x0, t_grid), rtol=1e-10, atol=1e-10)


# random driven one-qubit models at Fock cutoff 3, N^2 = 324 > DENSE_EXPM_MAX_DIM
driven_models = st.builds(
    lambda g, kappa, gamma, r_abs, phi, amp, omega_d: (
        ModelParams(g=g, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi),
        DriveSpec(omega_drive=omega_d, amplitude=amp)),
    st.floats(0.0, 10.0), st.floats(0.5, 30.0), st.floats(0.1, 5.0), st.floats(0.0, 1.0),
    st.floats(-np.pi, np.pi), st.floats(0.0, 2.0), st.floats(-10.0, 10.0))

# uniform, mixed-spacing and one-sample grids on t <= 1, and one interval of up to
# 2, which takes tens of sub-steps
sparse_grids = st.one_of(
    st.builds(lambda t1, n: np.linspace(0.0, t1, n), st.floats(0.05, 1.0), st.integers(2, 12)),
    st.lists(st.integers(0, 40), min_size=2, max_size=12, unique=True)
    .map(lambda ks: np.sort(np.array(ks)) / 40.0),
    st.floats(0.0, 1.0).map(lambda t: np.array([t])),
    st.floats(0.2, 2.0).map(lambda t1: np.array([0.0, t1])),
)


@given(model=driven_models, seed=st.integers(0, 2**32 - 1), t_grid=sparse_grids)
@settings(max_examples=40, deadline=None)
def test_sparse_branch_matches_expm_multiply_per_interval(model, seed, t_grid):
    # the Taylor plan made once per spacing gives scipy's per-interval result (its
    # own plan each call; deviations seen up to 3e-14 of a sample's largest entry)
    p, drive = model
    lv = build_liouvillian(p, SpaceLayout(1, 3), drive=drive)
    assert lv.generator.shape[0] > DENSE_EXPM_MAX_DIM
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(324) + 1j * rng.standard_normal(324)
    ref = [x0]
    for dt in np.diff(t_grid):
        ref.append(scipy.sparse.linalg.expm_multiply(lv.generator * dt, ref[-1]))
    ref = np.array(ref)
    out = propagate(lv.generator, x0, t_grid)
    assert out.shape == ref.shape
    assert (np.abs(out - ref).max(axis=1) <= 1e-12 * np.abs(ref).max(axis=1)).all()


def test_linspace_grid_has_one_step():
    for n in (2, 1001, 20001):
        steps, index = distinct_steps(np.linspace(0.0, 0.5, n))
        assert len(steps) <= 2 and len(index) == n - 1
        assert_allclose(steps, 0.5 / (n - 1), rtol=1e-12)
    steps, index = distinct_steps(np.array([0.0, 0.1, 0.2, 0.5, 0.8]))
    assert_allclose(steps[index], [0.1, 0.1, 0.3, 0.3], rtol=1e-12)


@given(g=st.floats(0.1, 100.0), kappa=st.floats(0.1, 100.0), gamma=st.floats(0.0, 10.0),
       r_abs=st.floats(0.0, 1.0), phi=st.floats(-np.pi, np.pi),
       n_qubits=st.sampled_from([1, 2]), t_grid=grids)
@settings(max_examples=60, deadline=None)
def test_populations_and_leaks_sum_to_one(g, kappa, gamma, r_abs, phi, n_qubits, t_grid):
    p = ModelParams(g=g, kappa=kappa, gamma=gamma, r_abs=r_abs, phi_prop=phi,
                    phi_azim=(0.0, 0.3)[:n_qubits])
    series = amplitude_evolve(p, excited_qubit_state(n_qubits), t_grid, n_qubits=n_qubits)
    assert np.abs(series.total - 1.0).max() <= 1e-12


def test_leak_channels_match_quadrature():
    p = ModelParams(g=8.0, kappa=12.0, gamma=2.0, r_abs=0.9, phi_prop=2.1, phi_azim=(0.0, 0.7))
    fine = np.linspace(0.0, 1.0, 20001)
    amps = amplitude_evolve(p, excited_qubit_state(2), fine, n_qubits=2).amplitudes
    chiral = p.kappa * p.r_abs * np.exp(1j * p.phi_prop)
    rate_kappa = (p.kappa * (np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2)
                  + 2.0 * np.real(chiral * amps[:, 0] * np.conj(amps[:, 1])))
    rate_gamma = p.gamma * (np.abs(amps[:, 2:]) ** 2).sum(axis=1)
    coarse = amplitude_evolve(p, excited_qubit_state(2), fine[::2000], n_qubits=2)
    for leaked, rate in ((coarse.leaked_kappa, rate_kappa), (coarse.leaked_gamma, rate_gamma)):
        quad = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(fine))])
        assert_allclose(leaked, quad[::2000], atol=1e-6)
