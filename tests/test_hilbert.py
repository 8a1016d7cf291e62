import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from epqed.errors import EmbedError, InvalidCutoffError
from epqed.hilbert import (SpaceLayout, cavity_ops, destroy, embed, expect, product_ket,
                           qubit_lowering, sigma_minus)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def test_destroy_single_photon_truncation():
    assert_array_equal(destroy(2), np.array([[0, 1], [0, 0]], dtype=complex))


def test_destroy_ladder_element():
    assert destroy(3)[1, 2] == pytest.approx(np.sqrt(2))


def test_number_operator_diagonal():
    a = destroy(4)
    assert_allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-15)


def test_destroy_invalid_cutoff():
    with pytest.raises(InvalidCutoffError):
        destroy(1)


@given(n=st.integers(min_value=2, max_value=12))
def test_destroy_strictly_upper_bidiagonal(n):
    a = destroy(n)
    assert np.all(a[np.tril_indices(n)] == 0)
    # nonzero entries only on the first superdiagonal
    mask = np.zeros_like(a, dtype=bool)
    mask[np.arange(n - 1), np.arange(1, n)] = True
    assert np.all(a[~mask] == 0)
    # conjugate transpose raises the Fock index
    for k in range(n - 1):
        e = np.zeros(n)
        e[k] = 1.0
        assert_allclose(a.conj().T @ e, np.sqrt(k + 1) * np.eye(n)[k + 1], atol=1e-15)


def test_sigma_minus_action():
    sm = sigma_minus()
    ground = np.array([1.0, 0.0])
    excited = np.array([0.0, 1.0])
    assert_allclose(sm @ excited, ground)
    assert_allclose(sm @ ground, 0.0 * ground)
    assert_allclose(sm.conj().T @ sm, np.diag([0.0, 1.0]))


def test_layout_dimensions():
    lay = SpaceLayout(2, 5)
    assert lay.dim == 4 * 25
    assert lay.subsystem_dims == (2, 2, 5, 5)
    assert lay.cavity_L == 2 and lay.cavity_R == 3
    lay0 = SpaceLayout(0, 3)
    assert lay0.dim == 9


def test_layout_validation():
    with pytest.raises(InvalidCutoffError):
        SpaceLayout(1, 1)
    with pytest.raises(ValueError):
        SpaceLayout(-1, 2)


def test_embed_identity_is_identity():
    lay = SpaceLayout(1, 3)
    assert_array_equal(embed(identity(3), lay.cavity_L, lay), identity(lay.dim))


def test_embed_dimension_mismatch():
    lay = SpaceLayout(1, 3)
    with pytest.raises(EmbedError):
        embed(destroy(2), lay.cavity_L, lay)
    with pytest.raises(EmbedError):
        embed(destroy(3), 5, lay)


@given(n=st.integers(min_value=2, max_value=4))
@settings(max_examples=20)
def test_disjoint_slots_commute(n):
    lay = SpaceLayout(1, n)
    a = embed(destroy(n), lay.cavity_L, lay)
    s = embed(sigma_minus(), 0, lay)
    assert np.abs(a @ s - s @ a).max() == 0.0
    b = embed(destroy(n), lay.cavity_R, lay)
    assert np.abs(a @ b - b @ a).max() == 0.0


def test_truncated_commutator():
    # [a, a^dag] = 1 everywhere except the (N-1, N-1) diagonal entry
    for n in (2, 3, 5):
        a = destroy(n)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(n, dtype=complex)
        expected[n - 1, n - 1] = 1.0 - n
        assert_allclose(comm, expected, atol=1e-14)


def test_embed_preserves_spectrum():
    rng = np.random.default_rng(7)
    lay = SpaceLayout(1, 3)
    op = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    full = embed(op, lay.cavity_L, lay)
    ev_small = np.sort_complex(np.linalg.eigvals(op))
    ev_full = np.sort_complex(np.linalg.eigvals(full))
    mult = lay.dim // 3
    assert_allclose(ev_full, np.sort_complex(np.repeat(ev_small, mult)), atol=1e-10)


def test_product_ket_and_expect():
    lay = SpaceLayout(1, 3)
    ket = product_ket(lay, (1,), 2, 0)
    assert np.linalg.norm(ket) == pytest.approx(1.0)
    c_l, c_r = cavity_ops(lay)
    rho = np.outer(ket, ket.conj())
    assert expect(c_l.conj().T @ c_l, rho) == pytest.approx(2.0)
    assert expect(c_r.conj().T @ c_r, rho) == pytest.approx(0.0)
    sm = qubit_lowering(lay, 0)
    assert expect(sm.conj().T @ sm, rho) == pytest.approx(1.0)


def test_product_ket_range_checks():
    lay = SpaceLayout(1, 2)
    with pytest.raises(ValueError):
        product_ket(lay, (1,), 2, 0)
    with pytest.raises(ValueError):
        product_ket(lay, (), 0, 0)


# ---------------------------------------------------------------------------
# boxes and excitation-capped layouts, against matrix elements built state by
# state and, for boxes, against the Kronecker-product construction
# ---------------------------------------------------------------------------

capped_layouts = st.builds(SpaceLayout, st.integers(0, 2), st.integers(2, 5),
                           st.none() | st.integers(1, 9))


def kept_states(lay):
    """Product states (q1..qn, n_L, n_R) with N <= K (all for a box), in row-major box order."""
    cap = np.inf if lay.max_excitations is None else lay.max_excitations
    return [s for s in itertools.product(*map(range, lay.subsystem_dims)) if sum(s) <= cap]


def kron_embed(op, slot, lay):
    """Box operator as the Kronecker product of op with identities."""
    return reduce(np.kron, [op if k == slot else identity(d)
                            for k, d in enumerate(lay.subsystem_dims)])


def elementwise_embed(op, slot, states):
    m = np.zeros((len(states), len(states)), dtype=complex)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            if all(x == y for k, (x, y) in enumerate(zip(a, b)) if k != slot):
                m[i, j] = op[a[slot], b[slot]]
    return m


@given(lay=capped_layouts, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_capped_operators_are_box_operators_on_kept_states(lay, seed):
    states = kept_states(lay)
    assert lay.dim == len(states)
    assert_array_equal(lay.excitations, [sum(s) for s in states])
    rng = np.random.default_rng(seed)
    for slot, d in enumerate(lay.subsystem_dims):
        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        full = embed(op, slot, lay)
        assert_array_equal(full, elementwise_embed(op, slot, states))
        if lay.max_excitations is None:
            assert_array_equal(full, kron_embed(op, slot, lay))
    a = destroy(lay.fock_cutoff)
    for c, slot in zip(cavity_ops(lay), (lay.cavity_L, lay.cavity_R)):
        assert_array_equal(c, elementwise_embed(a, slot, states))
    for i in range(lay.n_qubits):
        assert_array_equal(qubit_lowering(lay, i), elementwise_embed(sigma_minus(), i, states))
    for i, s in enumerate(states):
        assert_array_equal(product_ket(lay, s[:-2], *s[-2:]), np.eye(lay.dim)[i])


def test_capped_operators_do_not_build_the_box():
    # SpaceLayout(1, 40, 4) holds 25 states of a 3200-state box (a dense box operator is 156 MiB)
    cavity_ops(SpaceLayout(1, 5, 4))   # warm the code paths
    tracemalloc.start()
    try:
        c_l, _ = cavity_ops(SpaceLayout(1, 40, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c_l.shape == (25, 25)
    assert peak < 2 * 2**20


def test_product_ket_outside_cap_raises():
    lay = SpaceLayout(1, 4, max_excitations=3)
    assert product_ket(lay, (1,), 2, 0)[lay.dim - 1] == 1.0   # the last kept state
    with pytest.raises(ValueError, match="outside the cap"):
        product_ket(lay, (1,), 2, 1)


def test_cap_below_one_rejected():
    for k in (0, -1):
        with pytest.raises(InvalidCutoffError):
            SpaceLayout(1, 4, max_excitations=k)


def test_capped_dimensions():
    # two qubits at cutoff 5 and one qubit at cutoff 8, capped at K = cutoff
    assert SpaceLayout(2, 5, 5).dim == 59 and SpaceLayout(1, 8, 8).dim == 79
    assert SpaceLayout(1, 4, 4).dim == 23 and SpaceLayout(1, 4).dim == 32
    assert SpaceLayout(1, 4).excitations.tolist() == (
        np.indices((2, 4, 4)).sum(axis=0).ravel().tolist())
