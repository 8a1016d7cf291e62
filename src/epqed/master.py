"""Liouvillian of the extended cascaded master equation and its solvers.

The model is defined once, by the single-excitation matrix M of
`spectra.coupling_matrix` over the modes a = (c_L, c_R, sm_1 .. sm_n); the
equation is quadratic in them, so with the frame frequency f and a drive
Omega on mode c_d it reads drho/dt = K rho + rho K^dag + sum_ij G_ij a_j rho a_i^dag,

    K = -i sum_ij (M - f)_ij a_i^dag a_j - i Omega (c_d + c_d^dag),   G = i (M - M^dag).

G holds the decays and the cascaded feed kappa |r| e^{i phi} c_L rho c_R^dag + h.c.
(Carmichael, PRL 70, 2273 (1993)).  With column stacking, vec(A rho B) =
(B^T kron A) vec(rho), L = I kron K + conj(K) kron I + sum_ij G_ij conj(a_i) kron a_j.
Undriven problems rotate at f = omega_c, driven ones at the drive frequency.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import hilbert, spectra
from .errors import (AccuracyError, BuildError, DegenerateSteadyStateError,
                     MemoryLimitError)
from .hilbert import SpaceLayout
from .numerics import propagate
from .params import DriveSpec, ModelParams

TRACE_TOL = 1e-10
HERM_TOL = 1e-12
EIG_TOL = 1e-10
TRACE_DRIFT_LIMIT = 1e-8
KERNEL_TOL = 1e-8         # singular values below this fraction of the largest span L's kernel
CONVERGENCE_TOL = 1e-6    # largest |<O>| deviation between cutoffs N and N + 1 that passes


# ---------------------------------------------------------------------------
# vectorization helpers (column stacking)
# ---------------------------------------------------------------------------

def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape(dim, dim, order="F")


def _kron_sum(terms, n: int):
    """CSR sum of w kron(b, a) over (w, b, a) from the nonzeros of dense n x n b and a:
    b_ij a_kl lands at (i n + k, j n + l), duplicates are summed, exact zeros dropped."""
    import scipy.sparse   # imported on use, to keep `import epqed` light

    parts = []
    for w, b, a in terms:
        (bi, bj), (ai, aj) = np.nonzero(b), np.nonzero(a)
        parts.append((np.multiply.outer(w * b[bi, bj], a[ai, aj]),
                      np.add.outer(bi * n, ai), np.add.outer(bj * n, aj)))
    data, rows, cols = (np.concatenate([p[k].ravel() for p in parts]) for k in range(3))
    out = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n * n, n * n), dtype=complex)
    out.eliminate_zeros()
    return out


def sprepost(a, b):
    """Superoperator of two-sided multiplication, vec(a rho b) = kron(b^T, a) vec(rho), CSR."""
    return _kron_sum([(1.0, b.T, a)], a.shape[0])


def spre(a):
    """Superoperator of left multiplication: vec(a rho), CSR."""
    return sprepost(a, np.eye(a.shape[0]))


def spost(b):
    """Superoperator of right multiplication: vec(rho b), CSR."""
    return sprepost(np.eye(b.shape[0]), b)


def _require_fits(nbytes: int, what: str):
    """Raise MemoryLimitError if an allocation of nbytes exceeds physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > have:
        raise MemoryLimitError(
            f"{what} needs {nbytes / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory")


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state (validated)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        herm = np.abs(m - m.conj().T).max()
        if herm > HERM_TOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        lo = np.linalg.eigvalsh(m).min()
        if lo < -EIG_TOL:
            raise ValueError(f"negative eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def expect(self, op: np.ndarray) -> complex:
        return hilbert.expect(op, self.entries)

    @classmethod
    def from_ket(cls, ket: np.ndarray) -> "DensityMatrix":
        k = np.asarray(ket, dtype=complex)
        k = k / np.linalg.norm(k)
        return cls(np.outer(k, k.conj()))


def vacuum_state(layout: SpaceLayout) -> DensityMatrix:
    return DensityMatrix.from_ket(hilbert.product_ket(layout, (0,) * layout.n_qubits))


def _clean(raw: np.ndarray) -> DensityMatrix:
    m = 0.5 * (raw + raw.conj().T)
    return DensityMatrix(m / np.trace(m).real)


# ---------------------------------------------------------------------------
# Liouvillian construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Liouvillian:
    """Built superoperator (CSR `generator`) and the layout it acts on."""

    generator: scipy.sparse.csr_matrix
    layout: SpaceLayout

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense copy of the generator, made on first access (for dense oracles)."""
        n2 = self.generator.shape[0]
        _require_fits(16 * n2 * n2, f"the dense {n2} x {n2} complex Liouvillian")
        return self.generator.toarray()


def build_liouvillian(params: ModelParams, layout: SpaceLayout,
                      drive: DriveSpec | None = None,
                      frame: float | None = None) -> Liouvillian:
    """Assemble L with vec(drho/dt) = L vec(rho) as a CSR matrix.

    frame overrides the rotation frequency (None = omega_drive when driven,
    else omega_c; pass 0.0 for the lab frame).  It stays for the lab-frame
    correlator and any-frame reference checks in the tests.
    """
    n = layout.n_qubits
    if n > 0 and params.n_qubits not in (1, n):
        raise BuildError(
            f"params describe {params.n_qubits} qubits but layout has {n}")
    if frame is None:
        frame = drive.omega_drive if drive is not None else params.omega_c

    c_l, c_r = hilbert.cavity_ops(layout)
    ops = [c_l, c_r] + [hilbert.qubit_lowering(layout, i) for i in range(n)]
    m = spectra.coupling_matrix(params, n)
    gen = m - frame * np.eye(n + 2)
    # sum_i (M - f)_ii a_i^dag a_i from the integer occupations (the levels in M's order),
    # each mode's counted under the first mode of equal entry, so equal energies stay equal
    d = np.diag(gen)
    to_first = (d[:, None] == d).argmax(axis=0)[:, None] == np.arange(n + 2)
    occupations = layout.levels[:, [layout.cavity_L, layout.cavity_R, *range(n)]]
    k = np.diag(-1j * (occupations @ to_first @ d))
    for i, j in zip(*np.nonzero(gen - np.diag(d))):
        k += -1j * gen[i, j] * (ops[i].conj().T @ ops[j])
    if drive is not None:
        c_d = c_l if drive.target == "cavity_L" else c_r
        k -= 1j * drive.amplitude * (c_d + c_d.conj().T)
    rates = 1j * (m - m.conj().T)
    eye = np.eye(layout.dim)
    lmat = _kron_sum([(1.0, eye, k), (1.0, k.conj(), eye)]
                     + [(rates[i, j], ops[i].conj(), ops[j]) for i, j in zip(*np.nonzero(rates))],
                     layout.dim)
    return Liouvillian(generator=lmat, layout=layout)


def _generator(lv):
    """The CSR generator of a Liouvillian, or a dense or sparse matrix as CSR."""
    import scipy.sparse

    return (lv.generator if isinstance(lv, Liouvillian)
            else scipy.sparse.csr_matrix(lv, dtype=complex))


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

@dataclass
class EvolutionResult:
    """Sequence of states plus drift diagnostics of the raw propagation."""

    times: np.ndarray
    states: list[DensityMatrix]
    max_trace_drift: float
    max_hermiticity_defect: float

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def __iter__(self):
        return iter(self.states)

    def expect(self, op: np.ndarray) -> np.ndarray:
        return np.array([s.expect(op) for s in self.states])


def evolve(lv, rho0, t_grid, step: float | None = None) -> EvolutionResult:
    """Propagate vec(drho/dt) = L vec(rho) exactly over an ascending grid;
    step is ignored, and stays only because the benchmark's workloads pass it."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be ascending and start at t >= 0")
    rho0 = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    raw = propagate(_generator(lv), vectorize(rho0), t_grid)

    mats = raw.reshape(len(t_grid), dim, dim).transpose(0, 2, 1)  # order="F" unvec
    traces = np.einsum("kii->k", mats).real
    drift = np.abs(traces - 1.0).max()
    if drift > TRACE_DRIFT_LIMIT:
        raise AccuracyError(
            f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_LIMIT:g}; "
            "the generator does not preserve the trace")
    herm = max(np.abs(m - m.conj().T).max() for m in mats)
    states = [_clean(m) for m in mats]
    return EvolutionResult(times=t_grid, states=states, max_trace_drift=float(drift),
                           max_hermiticity_defect=float(herm))


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

class SteadyStateSolver:
    """Steady states of L + s diag(d) for one generator L, one diagonal d and shifts s.

    L vec(rho) = 0 with Tr(rho) = 1 is solved by one banded LU per shift
    (LAPACK zgbsv).  The first row of L (the equation for rho_00) is replaced
    by the trace row and the completed system is put in reverse Cuthill-McKee
    order, the heuristic that minimises its bandwidth: kl = ku = 79 at
    N^2 = 529 (one qubit, K = 4).  That order, kl, ku and the band position
    of every nonzero are found once; a solve scatters the values of L into
    band storage of 16 N^2 (2 kl + ku + 1) bytes (checked against physical
    memory up front, MemoryLimitError), adds the shifted diagonal and
    factors in place.  Only when the factor is singular, or leaves a
    residual |(L + s diag(d)) v| above 1e-10, is the dense spectrum computed
    (guarded by MemoryLimitError) to classify the failure:
    DegenerateSteadyStateError when the kernel is more than one-dimensional
    within KERNEL_TOL (relative singular-value threshold), e.g. for
    gamma = 0 undriven configurations supporting bound states, else
    AccuracyError.  `residual` is the residual of the last solve.
    """

    def __init__(self, lv, diagonal=None):
        import scipy.sparse
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        self.lmat = _generator(lv)
        self.lmat.sum_duplicates()   # one band position per entry
        n2 = self.lmat.shape[0]
        self.dim = int(round(np.sqrt(n2)))
        self.diagonal = (np.zeros(n2) if diagonal is None
                         else np.asarray(diagonal, dtype=complex))
        self.residual = np.nan
        # pattern of the trace-completed system: the trace row, then rows 1.. of L
        rows = np.concatenate([np.zeros(self.dim, dtype=np.intp),
                               np.repeat(np.arange(1, n2), np.diff(self.lmat.indptr[1:]))])
        cols = np.concatenate([np.arange(0, n2, self.dim + 1),
                               self.lmat.indices[self.lmat.indptr[1]:]])
        pattern = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n2, n2))
        self.perm = reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)
        new = np.empty(n2, dtype=np.intp)
        new[self.perm] = np.arange(n2)
        rows, cols = new[rows], new[cols]
        # both >= 0: the trace row holds the diagonal entry of rho_00
        self.kl, self.ku = int((rows - cols).max()), int((cols - rows).max())
        ldab = 2 * self.kl + self.ku + 1
        _require_fits(16 * n2 * ldab, f"the steady-state band ({ldab} x {n2} complex, "
                                      f"kl = {self.kl}, ku = {self.ku})")
        # LAPACK band storage keeps A[i, j] at ab[kl + ku + i - j, j] of a Fortran
        # (ldab, N^2) array, held here as its C-ordered transpose
        band_pos = cols * ldab + self.kl + self.ku + rows - cols
        self.trace_pos, self.band_pos = band_pos[:self.dim], band_pos[self.dim:]
        self.trace_row = new[0]
        self.shift_diag = self.diagonal[self.perm]
        self.shift_diag[self.trace_row] = 0.0   # the trace row does not shift

    def __call__(self, shift: float = 0.0) -> DensityMatrix:
        from scipy.linalg.lapack import zgbsv

        n2 = self.lmat.shape[0]
        ab = np.zeros((n2, 2 * self.kl + self.ku + 1), dtype=complex)
        flat = ab.reshape(-1)
        flat[self.trace_pos] = 1.0
        flat[self.band_pos] = self.lmat.data[self.lmat.indptr[1]:]
        ab[:, self.kl + self.ku] += shift * self.shift_diag
        rhs = np.zeros((n2, 1), dtype=complex)
        rhs[self.trace_row] = 1.0
        _, _, x, info = zgbsv(self.kl, self.ku, ab.T, rhs, overwrite_ab=1, overwrite_b=1)
        if info < 0:
            raise RuntimeError(f"zgbsv rejected argument {-info}")
        residual = np.inf
        if info == 0 and np.all(np.isfinite(x)):   # info > 0: the factor is exactly singular
            v = np.empty(n2, dtype=complex)
            v[self.perm] = x[:, 0]
            residual = float(np.linalg.norm(self.lmat @ v + shift * self.diagonal * v))
        self.residual = residual
        if residual > 1e-10:
            self._classify_failure(shift, residual)
        return _clean(unvectorize(v, self.dim))

    def _classify_failure(self, shift: float, residual: float):
        import scipy.sparse

        n2 = self.lmat.shape[0]
        _require_fits(16 * n2 * n2, f"classifying the steady-state failure (a dense {n2} x {n2} "
                                    "complex array)")
        lmat = self.lmat + shift * scipy.sparse.diags(self.diagonal)
        svals = np.linalg.svd(lmat.toarray(), compute_uv=False)
        null_dim = int(np.sum(svals <= KERNEL_TOL * svals[0]))   # L = 0: all of them
        if null_dim > 1:
            raise DegenerateSteadyStateError(
                f"Liouvillian kernel is {null_dim}-dimensional; steady state not unique "
                "(bound states conserve population; use time evolution instead)")
        raise AccuracyError(f"steady-state residual {residual:.3e} exceeds 1e-10")


def steady_state(lv) -> DensityMatrix:
    """Solve L vec(rho) = 0 with Tr(rho) = 1: the unshifted case of SteadyStateSolver."""
    return SteadyStateSolver(lv)()


# ---------------------------------------------------------------------------
# two-time correlations (quantum regression theorem)
# ---------------------------------------------------------------------------

def two_time_correlation(lv, rho, a_op: np.ndarray, b_op: np.ndarray,
                         tau_grid) -> np.ndarray:
    """<A(0) B(tau)> = Tr{ B exp(L tau)[rho A] } for tau ascending from 0."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid[0] != 0 or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau_grid must be strictly ascending from tau = 0")
    rho = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    raw = propagate(_generator(lv), vectorize(rho @ a_op), tau_grid)
    xs = raw.reshape(len(tau_grid), dim, dim).transpose(0, 2, 1)
    return np.einsum("ij,kji->k", np.asarray(b_op, dtype=complex), xs)


# ---------------------------------------------------------------------------
# Fock-cutoff convergence
# ---------------------------------------------------------------------------

def convergence_check(params: ModelParams, layout: SpaceLayout, observable,
                      t_grid, drive: DriveSpec | None = None,
                      initial_state=None) -> tuple[bool, float]:
    """Repeat an expectation-value trajectory at cutoff N and N+1.

    A layout capped at K total excitations is compared with cutoff N + 1
    capped at K + 1.  observable and initial_state are callables of the
    layout (the operator and state must be rebuilt for each truncation);
    initial_state defaults to the vacuum.  Returns (deviation <=
    CONVERGENCE_TOL, max absolute deviation).
    """
    if initial_state is None:
        initial_state = vacuum_state
    cap = layout.max_excitations
    series = []
    for lay in (layout, replace(layout, fock_cutoff=layout.fock_cutoff + 1,
                                max_excitations=None if cap is None else cap + 1)):
        lv = build_liouvillian(params, lay, drive=drive)
        result = evolve(lv, initial_state(lay), t_grid)
        series.append(result.expect(observable(lay)).real)
    deviation = float(np.abs(series[0] - series[1]).max())
    return deviation <= CONVERGENCE_TOL, deviation
