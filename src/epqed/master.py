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
from .errors import (AccuracyError, BuildError, DegenerateSteadyStateError, EmbedError,
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
KRYLOV_TOL = 1e-13        # a sweep's shift is kept once its FOM residual estimate is
                          # below this fraction of |A(s0)^-1 e| (in the scaled unknowns)
KRYLOV_MAX_DIM = 400      # the basis stops at this size at most,
KRYLOV_DIM_PER_SHIFT = 5  # or at this many vectors per shift: a step costs about a
                          # twentieth of a banded solve, so open shifts fall back cheaply
KRYLOV_MIN_SHIFTS = 4     # sweeps of fewer distinct shifts solve each point by its own LU:
                          # on 2 x86_64 cores, over grids 0.4-24 wide at N^2 = 529 and
                          # 1156, the basis takes a median 1.33 times the per-point time
                          # at 3 shifts and 0.88 at 4 (up to 1.45 on wide grids, where
                          # the per-shift cap stops it before the shifts converge)


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
        _check_states(m[None])

    @classmethod
    def _checked(cls, entries: np.ndarray) -> "DensityMatrix":
        """The state of complex entries that _check_states has already passed."""
        state = object.__new__(cls)
        object.__setattr__(state, "entries", entries)
        return state

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


def _check_states(m: np.ndarray):
    """Raise ValueError unless every matrix of the (T, d, d) stack m is Hermitian
    (HERM_TOL), of unit trace (TRACE_TOL) and positive semidefinite (EIG_TOL), the
    last by one stacked eigvalsh; the message reports the first sample that fails.
    Each test passes only where its comparison is True, so a NaN entry fails it."""
    herm = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = ~(herm <= HERM_TOL)
    if bad.any():
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm[bad][0]:.3e}")
    traces = np.trace(m, axis1=1, axis2=2).real
    bad = ~(np.abs(traces - 1.0) <= TRACE_TOL)
    if bad.any():
        raise ValueError(f"trace must be 1, got {traces[bad][0]!r}")
    lows = np.linalg.eigvalsh(m)[:, 0]
    bad = ~(lows >= -EIG_TOL)
    if bad.any():
        raise ValueError(f"negative eigenvalue {lows[bad][0]:.3e}")


def _clean(raw: np.ndarray) -> np.ndarray:
    """The Hermitian part of each matrix of the (T, d, d) stack raw, scaled to unit trace
    and checked by _check_states: the states of a propagation or a solve."""
    m = raw.conj().transpose(0, 2, 1)
    m += raw
    m *= 0.5
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    _check_states(m)
    return m


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
    else omega_c; pass 0.0 for the lab frame).  blockade builds driven
    problems in the cavity frame and reaches the drive's by a
    SteadyStateSolver shift.
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


def detuning_derivative(layout: SpaceLayout) -> np.ndarray:
    """d L / d f for the frame frequency f: rho -> i (N rho - rho N) for the excitation
    number N of the layout's basis, the diagonal i (N_a - N_b) at entry a + n b of vec(rho)."""
    n_exc = layout.excitations
    return 1j * (n_exc[None, :] - n_exc[:, None]).ravel()


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

@dataclass
class EvolutionResult:
    """Checked states stacked as (T, d, d) entries, plus drift diagnostics of the raw
    propagation."""

    times: np.ndarray
    entries: np.ndarray
    max_trace_drift: float
    max_hermiticity_defect: float

    @cached_property
    def states(self) -> list[DensityMatrix]:
        return [DensityMatrix._checked(m) for m in self.entries]

    def expect(self, op: np.ndarray) -> np.ndarray:
        """Tr(op rho(t_k)) at every sample."""
        return np.einsum("ij,kji->k", op, self.entries)


def _entries(lv: Liouvillian, rho) -> np.ndarray:
    """The matrix of rho: square on lv's layout (EmbedError), and a valid state (ValueError)."""
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (lv.layout.dim, lv.layout.dim):
        raise EmbedError(f"state of shape {m.shape} does not fit the Liouvillian's "
                         f"{lv.layout.dim}-dimensional layout")
    if not isinstance(rho, DensityMatrix):   # a DensityMatrix was checked when made
        _check_states(m[None])
    return m


def evolve(lv: Liouvillian, rho0, t_grid, step: float | None = None) -> EvolutionResult:
    """Propagate vec(drho/dt) = L vec(rho) exactly over an ascending grid;
    step is ignored, and stays only because the benchmark's workloads pass it."""
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid[0] >= 0 and np.all(np.diff(t_grid) > 0)):   # NaN fails it too
        raise ValueError("t_grid must be ascending and start at t >= 0")
    dim = lv.layout.dim
    raw = propagate(lv.generator, vectorize(_entries(lv, rho0)), t_grid)
    mats = raw.reshape(len(t_grid), dim, dim).transpose(0, 2, 1)  # order="F" unvec
    traces = np.einsum("kii->k", mats).real
    drift = np.abs(traces - 1.0).max()
    if not drift <= TRACE_DRIFT_LIMIT:   # NaN fails it too
        raise AccuracyError(
            f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_LIMIT:g}; "
            "the generator does not preserve the trace")
    herm = np.abs(mats - mats.conj().transpose(0, 2, 1)).max()
    return EvolutionResult(times=t_grid, entries=_clean(mats), max_trace_drift=float(drift),
                           max_hermiticity_defect=float(herm))


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

class SteadyStateSolver:
    """Steady states of L + s D for one Liouvillian L and frame shifts s.

    D is the diagonal detuning_derivative(lv.layout), so a solve at s is the
    steady state of the generator built in a frame s above L's: for L built
    in the cavity frame, of a drive detuned by s from omega_c.  The system
    A(s) vec(rho) = e, A(s) = L' + s D', is L + s D with its first row (the
    equation for rho_00) replaced by the trace row Tr(rho) = 1, put in
    reverse Cuthill-McKee order, the heuristic that minimises its
    bandwidth: kl = ku = 79 at N^2 = 529 (one qubit, K = 4).  That order,
    kl, ku and the band position of every nonzero are found once; the band
    takes 16 N^2 (2 kl + ku + 1) bytes (checked against physical memory up
    front, MemoryLimitError).

    Every factor is one banded LU of A(s) (LAPACK zgbtrf), every solve its
    back-substitution (zgbtrs).  self(s) returns (steady state, residual
    |(L + s D) vec(rho)|) from the factor of A(s).  sweep(shifts) serves
    every shift of a sweep from one factor, of A(s0) at a grid point s0
    near the middle, by the shifted full orthogonalization method
    (Simoncini, BIT 43, 459 (2003); Frommer and Glaessner, SIAM J. Sci.
    Comput. 19, 15 (1998)): A(s0)^-1 A(s) = I + (s - s0) T with
    T = A(s0)^-1 D', so one Arnoldi basis of T started from A(s0)^-1 e
    serves every shift, each step one back-substitution and two passes of
    classical Gram-Schmidt.  The unknowns are scaled by excitation order,
    so the small entries of high orders keep their relative precision.  A
    shift is kept once its FOM residual estimate is below KRYLOV_TOL; the
    basis stops at KRYLOV_DIM_PER_SHIFT vectors per shift.  A kept shift's
    vector is formed from the basis each time it is asked for, so a sweep
    holds one vector at a time.  A shift left open, a point whose vector
    misses the residual bound, every point when A(s0) is singular, and
    every point of a sweep of fewer than KRYLOV_MIN_SHIFTS shifts is
    solved by self(s).

    A solution is accepted when its residual is at most 1e-10.  Only when
    the factor is singular, or the residual above it, does self(s) compute
    the dense spectrum (guarded by MemoryLimitError) to classify the
    failure: DegenerateSteadyStateError when the kernel is more than
    one-dimensional within KERNEL_TOL (relative singular-value threshold),
    e.g. for gamma = 0 undriven configurations supporting bound states,
    else AccuracyError.
    """

    def __init__(self, lv: Liouvillian):
        import scipy.sparse
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        self.lmat = lv.generator
        self.lmat.sum_duplicates()   # one band position per entry
        n2 = self.lmat.shape[0]
        self.dim = lv.layout.dim
        self.diagonal = detuning_derivative(lv.layout)
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
        self.order = np.add.outer(lv.layout.excitations, lv.layout.excitations).ravel()[self.perm]

    def _band(self, shift: float) -> np.ndarray:
        """A(shift) in band storage, as the C-ordered transpose zgbtrf takes."""
        ab = np.zeros((self.lmat.shape[0], 2 * self.kl + self.ku + 1), dtype=complex)
        flat = ab.reshape(-1)
        flat[self.trace_pos] = 1.0
        flat[self.band_pos] = self.lmat.data[self.lmat.indptr[1]:]
        ab[:, self.kl + self.ku] += shift * self.shift_diag
        return ab

    def _factor(self, shift: float):
        """The banded LU (lu, piv, info) of A(shift); info > 0: it is exactly singular."""
        from scipy.linalg.lapack import zgbtrf

        return zgbtrf(self._band(shift).T, self.kl, self.ku, overwrite_ab=1)

    def _trace_solution(self, lu: np.ndarray, piv: np.ndarray) -> np.ndarray:
        """A(s)^-1 e from the factor of A(s), in the solver's order."""
        from scipy.linalg.lapack import zgbtrs

        rhs = np.zeros((self.lmat.shape[0], 1), dtype=complex)
        rhs[self.trace_row] = 1.0
        return zgbtrs(lu, self.kl, self.ku, rhs, piv, overwrite_b=1)[0][:, 0]

    def _accept(self, shift: float, x: np.ndarray | None) -> tuple[DensityMatrix | None, float]:
        """(steady state, |(L + s D) vec(rho)|) of the solution x in the solver's order;
        the state is None when the residual exceeds 1e-10, and the residual inf when x
        is None (a singular factor) or not finite.  _clean's ValueError propagates."""
        if x is None or not np.all(np.isfinite(x)):
            return None, np.inf
        v = np.empty_like(x)
        v[self.perm] = x
        residual = float(np.linalg.norm(self.lmat @ v + shift * self.diagonal * v))
        if residual > 1e-10:
            return None, residual
        return DensityMatrix._checked(_clean(unvectorize(v, self.dim)[None])[0]), residual

    def __call__(self, shift: float = 0.0) -> tuple[DensityMatrix, float]:
        lu, piv, info = self._factor(shift)
        if info < 0:
            raise RuntimeError(f"zgbtrf rejected argument {-info}")
        # info > 0: the factor is exactly singular
        rho, residual = self._accept(shift, self._trace_solution(lu, piv) if info == 0 else None)
        if rho is None:
            self._classify_failure(shift, residual)
        return rho, residual

    def sweep(self, shifts):
        """(state, krylov_dim, base_shift) for the shifts of one sweep: state(shift)
        returns what self(shift) does, its finite shifts served by one factor and one
        Krylov basis of krylov_dim vectors at base_shift (0 and NaN when none was built)."""
        from scipy.linalg.blas import dznrm2, zgemm, zgemv
        from scipy.linalg.lapack import zgbtrs

        grid = np.unique(np.asarray(shifts, dtype=float))
        grid = grid[np.isfinite(grid)]
        if len(grid) < KRYLOV_MIN_SHIFTS:   # cheaper solved one by one
            return self, 0, np.nan
        base = grid[np.abs(grid - (grid[0] + grid[-1]) / 2).argmin()]
        lu, piv, info = self._factor(base)
        if info != 0:   # info > 0: A(s0) is exactly singular
            return self, 0, np.nan
        b0 = self._trace_solution(lu, piv)
        # each unknown is scaled by the largest |b0| of its excitation order, so that the
        # basis resolves the weak high orders (n_L, <c+c+cc>) to their own precision
        peak = np.zeros(self.order.max() + 1)
        np.maximum.at(peak, self.order, np.abs(b0))
        scale = np.where(peak > 0, peak, 1.0)[self.order]
        b0 /= scale
        beta, sigma = dznrm2(b0), grid - base
        # the orthonormal basis (one vector per row) and its Hessenberg matrix, both grown
        # by doubling; the loop keeps to scipy's BLAS (numpy has its own pool)
        basis, hess = np.empty((16, len(b0)), dtype=complex), np.zeros((17, 16), dtype=complex)
        basis[0] = b0 / beta
        top = min(KRYLOV_MAX_DIM, KRYLOV_DIM_PER_SHIFT * len(grid), len(b0))
        iterates = {}   # shift -> its FOM iterate, once kept
        open_, m, check = np.ones(len(grid), dtype=bool), 0, 10
        while True:
            w = zgbtrs(lu, self.kl, self.ku, (self.shift_diag * scale * basis[m])[:, None],
                       piv, overwrite_b=1)[0][:, 0] / scale
            size, known = dznrm2(w), basis[:m + 1].T
            h = zgemv(1.0, known, w, trans=2)
            w = zgemv(-1.0, known, h, beta=1.0, y=w, overwrite_y=1)
            dh = zgemv(1.0, known, w, trans=2)
            w = zgemv(-1.0, known, dh, beta=1.0, y=w, overwrite_y=1)
            hess[:m + 1, m] = h + dh
            hess[m + 1, m] = h_next = dznrm2(w)
            m += 1
            # h_next ~ 0 (or NaN): the basis spans an invariant subspace, exact for all shifts
            exact = not h_next > 1e-14 * size
            if exact or m in (check, top):
                # an open shift is kept once its FOM residual |sigma h_next y_m| is small
                check += max(10, m // 4)
                y = _shifted_fom(hess[:m, :m], sigma[open_], beta)
                now = np.flatnonzero(open_)
                ok = exact | (np.abs(sigma[now] * h_next * y[:, -1]) <= KRYLOV_TOL * beta)
                iterates.update(zip(grid[now[ok]], y[ok, :, None]))
                open_[now[ok]] = False
                if exact or m == top or not open_.any():
                    break
            if m == len(basis):
                basis = np.concatenate([basis, np.empty_like(basis)])
                hess = np.pad(hess, ((0, m), (0, m)))
            basis[m] = w / h_next

        def state(shift: float) -> tuple[DensityMatrix, float]:
            y = iterates.get(shift)
            if y is not None:   # a kept shift: its vector, one product with the basis
                try:
                    rho, residual = self._accept(
                        shift, zgemm(1.0, basis[:len(y)].T, y)[:, 0] * scale)
                except ValueError:   # self(shift) classifies it, below
                    rho = None
                if rho is not None:
                    return rho, residual
            return self(shift)

        return state, m, float(base)

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


def _shifted_fom(hess: np.ndarray, sigma: np.ndarray, beta: float) -> np.ndarray:
    """Row k solves (I + sigma_k H) y = beta e_1: batched LU solves of at most 2^18
    matrix entries each."""
    m = len(hess)
    parts = np.array_split(sigma, -(-len(sigma) * m * m // 2**18))
    return np.concatenate([np.linalg.solve(np.eye(m) + part[:, None, None] * hess,
                                           beta * (np.arange(m) == 0)) for part in parts])


def steady_state(lv: Liouvillian) -> DensityMatrix:
    """Solve L vec(rho) = 0 with Tr(rho) = 1: the unshifted case of SteadyStateSolver."""
    return SteadyStateSolver(lv)()[0]


# ---------------------------------------------------------------------------
# two-time correlations (quantum regression theorem)
# ---------------------------------------------------------------------------

def two_time_correlation(lv: Liouvillian, rho, a_op: np.ndarray, b_op: np.ndarray,
                         tau_grid) -> np.ndarray:
    """<A(0) B(tau)> = Tr{ B exp(L tau)[rho A] } for tau ascending from 0."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not (tau_grid[0] == 0 and np.all(np.diff(tau_grid) > 0)):   # NaN fails it too
        raise ValueError("tau_grid must be strictly ascending from tau = 0")
    dim = lv.layout.dim
    raw = propagate(lv.generator, vectorize(_entries(lv, rho) @ a_op), tau_grid)
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
