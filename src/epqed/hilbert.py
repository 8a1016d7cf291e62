"""Operator algebra on the composite space (qubits (x) two bosonic modes).

Operators are dense complex N x N matrices, N at most a few hundred (two
emitters at Fock cutoff 5: 100 box states, 59 capped at K = 5); the
N^2 x N^2 superoperators built from them in `master` are sparse.  Basis
conventions, fixed here once for all modules: qubit ground state is index 0,
excited index 1; Fock states ascend 0..N-1; slot order is [qubit_1 .. qubit_n,
cavity_L, cavity_R].  The basis is `SpaceLayout.levels`, the box's product
states in row-major order (all of them, or those with N <= K under a cap);
every operator and ket is built on that list.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmbedError, InvalidCutoffError


@dataclass(frozen=True)
class SpaceLayout:
    """Composite-space layout: n qubits followed by the two cavity modes.

    n_qubits = 0 gives the cavity-only space of the photonic correlators.
    The basis is the Fock box (each mode holds 0..fock_cutoff-1 photons), or
    with max_excitations = K its states with N <= K, N counting the photons
    in both modes plus the excited qubits.  Every Liouvillian term but the
    drive conserves or lowers N, so the capped operators multiply as the box
    ones do.
    """

    n_qubits: int
    fock_cutoff: int
    max_excitations: int | None = None

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError(f"n_qubits must be >= 0, got {self.n_qubits}")
        if self.fock_cutoff < 2:
            raise InvalidCutoffError(f"fock_cutoff must be >= 2, got {self.fock_cutoff}")
        if self.max_excitations is not None and self.max_excitations < 1:
            raise InvalidCutoffError(f"max_excitations must be >= 1, got {self.max_excitations}")

    @property
    def subsystem_dims(self) -> tuple[int, ...]:
        """Slot dimensions of the Fock box the basis is cut from."""
        return (2,) * self.n_qubits + (self.fock_cutoff, self.fock_cutoff)

    @cached_property
    def levels(self) -> np.ndarray:
        """(dim, n_slots) slot levels of the basis states, in box order (read-only)."""
        levels = np.indices(self.subsystem_dims).reshape(self.n_slots, -1).T
        if self.max_excitations is not None:
            levels = levels[levels.sum(axis=1) <= self.max_excitations]
        levels.flags.writeable = False
        return levels

    @cached_property
    def _lookup(self) -> np.ndarray:
        """Basis index of each flat box index, -1 for a state above the cap."""
        lookup = np.full(int(np.prod(self.subsystem_dims)), -1)
        lookup[np.ravel_multi_index(self.levels.T, self.subsystem_dims)] = np.arange(self.dim)
        return lookup

    @cached_property
    def excitations(self) -> np.ndarray:
        """Excitation number N of each basis state (read-only)."""
        n_exc = self.levels.sum(axis=1)
        n_exc.flags.writeable = False
        return n_exc

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def n_slots(self) -> int:
        return self.n_qubits + 2

    @property
    def cavity_L(self) -> int:
        """Slot index of the left CCW mode."""
        return self.n_qubits

    @property
    def cavity_R(self) -> int:
        """Slot index of the right CCW mode."""
        return self.n_qubits + 1

    def qubit(self, i: int) -> int:
        """Slot index of qubit i (0-based)."""
        if not 0 <= i < self.n_qubits:
            raise IndexError(f"qubit index {i} out of range for {self.n_qubits} qubits")
        return i


def destroy(n: int) -> np.ndarray:
    """Bosonic annihilation operator on the truncated space |0..n-1>."""
    if n < 2:
        raise InvalidCutoffError(f"Fock cutoff must be >= 2, got {n}")
    return np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)


def sigma_minus() -> np.ndarray:
    """Qubit lowering operator, <g|sm|e> = 1 (ground = index 0)."""
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def embed(op: np.ndarray, slot: int, layout: SpaceLayout) -> np.ndarray:
    """Single-slot operator on the layout's basis: <i|op|j> = op[i_slot, j_slot]
    where states i and j agree in every other slot, else 0."""
    dims = layout.subsystem_dims
    if not 0 <= slot < layout.n_slots:
        raise EmbedError(f"slot {slot} out of range for layout with {layout.n_slots} slots")
    op, d = np.asarray(op, dtype=complex), dims[slot]
    if op.shape != (d, d):
        raise EmbedError(f"operator shape {op.shape} does not match slot dimension {d}")
    level, stride = layout.levels[:, slot], int(np.prod(dims[slot + 1:]))
    # partners[j, a]: basis index of state j with its slot level set to a (-1 above the cap)
    partners = layout._lookup[np.ravel_multi_index(layout.levels.T, dims)[:, None]
                              + (np.arange(d) - level[:, None]) * stride]
    j, a = np.nonzero(partners >= 0)
    full = np.zeros((layout.dim, layout.dim), dtype=complex)
    full[partners[j, a], j] = op[a, level[j]]
    return full


def product_ket(layout: SpaceLayout, qubit_levels: tuple[int, ...] = (),
                n_left: int = 0, n_right: int = 0) -> np.ndarray:
    """State vector |q1..qn, n_L, n_R> in the layout's basis ordering.

    Raises ValueError for a level outside its slot or a state above the cap.
    """
    levels = tuple(qubit_levels) + (n_left, n_right)
    dims = layout.subsystem_dims
    if len(levels) != layout.n_slots or not all(0 <= n < d for n, d in zip(levels, dims)):
        raise ValueError(f"levels {levels} do not fit the slot dimensions {dims}")
    index = layout._lookup[np.ravel_multi_index(levels, dims)]
    if index < 0:
        raise ValueError(f"state with {sum(levels)} excitations lies outside the cap "
                         f"max_excitations = {layout.max_excitations}")
    return (np.arange(layout.dim) == index).astype(complex)


def expect(op: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(op @ rho)."""
    return complex(np.trace(op @ rho))


def cavity_ops(layout: SpaceLayout) -> tuple[np.ndarray, np.ndarray]:
    """(c_L, c_R) embedded in the full space."""
    a = destroy(layout.fock_cutoff)
    return embed(a, layout.cavity_L, layout), embed(a, layout.cavity_R, layout)


def qubit_lowering(layout: SpaceLayout, i: int) -> np.ndarray:
    """sigma_minus of qubit i embedded in the full space."""
    return embed(sigma_minus(), layout.qubit(i), layout)
