"""Numerical helpers shared across modules: the exact propagator of the
linear, time-independent generators, its numpy [13/13] Pade exponential
`expm` (so dense propagation stays on numpy's BLAS; see README, "BLAS") and
small curve utilities."""
from __future__ import annotations

import numpy as np


DENSE_EXPM_MAX_DIM = 256   # above this, propagate with expm_multiply on CSR

# [13/13] Pade coefficients b_0..b_13 of exp, and the 1-norm theta_13 up to which
# the approximant is accurate to double-precision unit roundoff (Higham, SIAM
# J. Matrix Anal. Appl. 26, 1179 (2005))
_PADE13 = (64764752532480000., 32382376266240000., 7771770303897600.,
           1187353796428800., 129060195264000., 10559470521600.,
           670442572800., 33522128640., 1323241920., 40840800., 960960.,
           16380., 182., 1.)
_THETA13 = 5.371920351148152


def distinct_steps(t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Distinct spacings of an ascending grid and each interval's index into them.

    Spacings equal to within the rounding of the grid's times count as one,
    represented by their mean, so a linspace grid has a single spacing.  That
    case is told in one pass; only a mixed grid is sorted.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dts = np.diff(t_grid)
    resolution = 16.0 * np.finfo(float).eps * np.abs(t_grid).max()
    rounded = np.round(dts / resolution)
    if (rounded == rounded[:1]).all():   # also a one-sample grid, with no spacing
        index = np.zeros(len(dts), dtype=np.intp)
    else:
        _, index = np.unique(rounded, return_inverse=True)
    return np.bincount(index, weights=dts) / np.bincount(index), index


def propagate(a, x0, t_grid) -> np.ndarray:
    """Samples x(t_k) = exp(a (t_k - t_0)) x0 of dx/dt = a x, shape (len(t_grid), n).

    a is a dense array or a scipy.sparse matrix.  Exact for any constant a,
    defective ones included.  Up to DENSE_EXPM_MAX_DIM, one numpy Pade
    exponential S = expm(a dt) per distinct spacing (on a dense copy of a
    sparse a); a grid with a single spacing is then sampled by uniform_powers
    (about 2 log2 len(t_grid) matrix products), any other grid by a
    matrix-vector product per interval.  Above it, Al-Mohy and
    Higham's expm_multiply per interval on a as CSR.
    """
    steps, index = distinct_steps(t_grid)
    dense = a.shape[0] <= DENSE_EXPM_MAX_DIM
    if dense:
        # duck-typed, so dense callers do not import scipy.sparse (1.5 MiB)
        a = a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=complex)
        step_maps = [expm(a * dt) for dt in steps]
        if len(step_maps) == 1:
            return uniform_powers(step_maps[0], x0, len(index) + 1)
    else:
        import scipy.sparse.linalg   # imported on use, to keep `import epqed` light

        a = scipy.sparse.csr_matrix(a, dtype=complex)   # no copy for a complex CSR a
    out = np.empty((len(index) + 1, a.shape[0]), dtype=complex)
    out[0] = x0
    for k, i in enumerate(index):
        out[k + 1] = (step_maps[i] @ out[k] if dense
                      else scipy.sparse.linalg.expm_multiply(a * steps[i], out[k]))
    return out


def expm(a) -> np.ndarray:
    """exp(a) of a square matrix: the [13/13] Pade approximant with scaling and squaring.

    a is scaled by 2^-s, s = ceil(log2(|a|_1 / theta_13)) (none at |a|_1 <=
    theta_13), so that r(b) = (v - u)^-1 (v + u), with u odd and v even in
    b = a 2^-s, equals exp(b) to unit roundoff; r is then squared s times
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  numpy only, so
    every product runs on numpy's BLAS.
    """
    a = np.asarray(a)
    norm = np.abs(a).sum(axis=0).max()
    squarings = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a * 2.0**-squarings
    b, eye = _PADE13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def uniform_powers(step_map, x0, n_samples: int) -> np.ndarray:
    """x_k = S^k x0 for k < n_samples, shape (n_samples, n), in O(log n_samples) products.

    With k = q m + r, x_k = S^r (S^m)^q x0, m = ceil(sqrt(n_samples)).  The
    powers S^0..S^(m-1), stacked side by side as their transposes, and the
    anchors (S^m)^q x0, as columns, are each built by doubling (_doubled); one
    product of the anchors with the stack then writes every sample, in C order.
    Where the stack of m n x n powers would outgrow the n_samples x n samples
    (n > m), m = 1 and the anchors are the samples.
    """
    x0 = np.asarray(x0, dtype=complex)
    n = x0.size
    m = int(np.ceil(np.sqrt(n_samples)))
    if n > m:
        m = 1
    stack = _doubled(step_map.T, np.eye(n, dtype=complex), m)
    anchors = _doubled(step_map @ stack[:, -n:].T, x0[:, None], -(-n_samples // m))
    return (anchors.T @ stack).reshape(-1, n)[:n_samples]


def _doubled(base, first, count: int) -> np.ndarray:
    """[first, base first, ..., base^(count-1) first] side by side, shape (n, count w).

    first is n x w.  Each pass writes the next as many blocks as are done,
    base^k [blocks 0..k-1], in one product, then squares base^k: about
    2 log2(count) products.
    """
    w = first.shape[1]
    out = np.empty((len(first), count * w), dtype=complex)
    out[:, :w] = first
    done = 1
    while done < count:
        more = min(done, count - done)
        np.matmul(base, out[:, :more * w], out=out[:, done * w:(done + more) * w])
        done += more
        if done < count:
            base = base @ base
    return out


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


def quadratic_extremum(x: np.ndarray, y: np.ndarray, index: int) -> tuple[float, float]:
    """Refine a discrete extremum by a parabola through its three neighbors."""
    if index <= 0 or index >= len(x) - 1:
        return float(x[index]), float(y[index])
    x0, x1, x2 = x[index - 1], x[index], x[index + 1]
    y0, y1, y2 = y[index - 1], y[index], y[index + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a == 0:
        return float(x1), float(y1)
    xs = -b / (2 * a)
    if not (min(x0, x2) <= xs <= max(x0, x2)):
        return float(x1), float(y1)
    c = y1 - a * x1**2 - b * x1
    return float(xs), float(a * xs**2 + b * xs + c)


def local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima."""
    y = np.asarray(y)
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def log_slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) over t."""
    return float(np.polyfit(t, np.log(y), 1)[0])
