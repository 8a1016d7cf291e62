"""Operator algebra on the composite space (qubits (x) two bosonic modes).

Operators are dense complex N x N matrices: N is at most a few hundred
(the Fock box holds 2^2 * 5^2 = 100 states for two emitters at Fock cutoff 5
and 128 for one at cutoff 8; capped at K = cutoff total excitations they
hold 59 and 79).  The N^2 x N^2 superoperators built from them in `master`
are sparse.  Basis conventions, fixed here once for all modules: qubit
ground state is index 0, excited index 1; Fock states ascend 0..N-1; slot
order is [qubit_1 .. qubit_n, cavity_L, cavity_R], and a capped layout keeps
the box states with N <= K in the same (row-major) order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import EmbedError, InvalidCutoffError


@dataclass(frozen=True)
class SpaceLayout:
    """Composite-space layout: n qubits followed by the two cavity modes.

    n_qubits = 0 gives the cavity-only space used by the photonic
    correlation functions.  The basis is the Fock box (each mode holds
    0..fock_cutoff-1 photons); max_excitations = K keeps only its states with
    N <= K, where N counts the photons in both modes plus the excited qubits.
    Every term of the Liouvillian conserves or lowers N except the drive, so
    operators restricted to the kept states multiply as the box ones do.
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
            raise InvalidCutoffError(
                f"max_excitations must be >= 1, got {self.max_excitations}")

    @property
    def subsystem_dims(self) -> tuple[int, ...]:
        """Slot dimensions of the Fock box the basis is cut from."""
        return (2,) * self.n_qubits + (self.fock_cutoff, self.fock_cutoff)

    @cached_property
    def _box_excitations(self) -> np.ndarray:
        return np.indices(self.subsystem_dims).sum(axis=0).ravel()

    @cached_property
    def _kept(self) -> np.ndarray | None:
        """Box indices of the basis states, or None for the whole box."""
        if self.max_excitations is None:
            return None
        return np.flatnonzero(self._box_excitations <= self.max_excitations)

    @cached_property
    def excitations(self) -> np.ndarray:
        """Excitation number N of each basis state (read-only)."""
        n_exc = self._box_excitations
        if self._kept is not None:
            n_exc = n_exc[self._kept]
        n_exc.flags.writeable = False
        return n_exc

    @property
    def dim(self) -> int:
        return int(np.prod(self.subsystem_dims)) if self._kept is None else len(self._kept)

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


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def embed(op: np.ndarray, slot: int, layout: SpaceLayout) -> np.ndarray:
    """Kronecker-embed a single-slot operator into the full space."""
    dims = layout.subsystem_dims
    if not 0 <= slot < layout.n_slots:
        raise EmbedError(f"slot {slot} out of range for layout with {layout.n_slots} slots")
    op = np.asarray(op, dtype=complex)
    if op.shape != (dims[slot], dims[slot]):
        raise EmbedError(
            f"operator shape {op.shape} does not match slot dimension {dims[slot]}"
        )
    factors = [op if k == slot else identity(d) for k, d in enumerate(dims)]
    full, kept = reduce(np.kron, factors), layout._kept
    return full if kept is None else full[np.ix_(kept, kept)]


def product_ket(layout: SpaceLayout, qubit_levels: tuple[int, ...] = (),
                n_left: int = 0, n_right: int = 0) -> np.ndarray:
    """State vector |q1..qn, n_L, n_R> in the layout's basis ordering.

    Raises ValueError for a level outside its slot or a state above the cap.
    """
    levels = tuple(qubit_levels) + (n_left, n_right)
    dims = layout.subsystem_dims
    if len(levels) != layout.n_slots:
        raise ValueError(f"expected {layout.n_qubits} qubit levels, got {len(qubit_levels)}")
    vecs = []
    for lvl, d in zip(levels, dims):
        if not 0 <= lvl < d:
            raise ValueError(f"level {lvl} out of range for subsystem of dimension {d}")
        v = np.zeros(d, dtype=complex)
        v[lvl] = 1.0
        vecs.append(v)
    if layout.max_excitations is not None and sum(levels) > layout.max_excitations:
        raise ValueError(f"state with {sum(levels)} excitations lies outside the cap "
                         f"max_excitations = {layout.max_excitations}")
    ket = reduce(np.kron, vecs)
    return ket if layout._kept is None else ket[layout._kept]


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
