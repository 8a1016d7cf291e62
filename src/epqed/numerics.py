"""Numerical helpers shared across modules: the exact propagator of the
linear, time-independent generators, its numpy [13/13] Pade exponential
`expm` (so dense propagation stays on numpy's BLAS; see README, "BLAS") and
small curve utilities."""
from __future__ import annotations

import numpy as np


DENSE_EXPM_MAX_DIM = 256   # above this, propagate by truncated Taylor series on CSR

# largest 1-norm of a h for which 55 Taylor terms reach unit roundoff (Al-Mohy and
# Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1)
_THETA55 = 9.9

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
    sparse a); a grid with a single spacing is then sampled by uniform_powers,
    which doubles the block of done samples with each product (about 2 log2
    len(t_grid) products), any other grid by a matrix-vector product per
    interval.  Above it, each interval is one step of Al-Mohy and Higham's
    truncated Taylor series (Alg. 3.2, theta_55) on a as CSR, its number of
    sub-steps planned once per distinct spacing (_taylor_action).
    """
    steps, index = distinct_steps(t_grid)
    if a.shape[0] > DENSE_EXPM_MAX_DIM:
        advance = _taylor_action(a, steps)
    else:
        # duck-typed, so dense callers do not import scipy.sparse (1.5 MiB)
        a = a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=complex)
        step_maps = [expm(a * dt) for dt in steps]
        if len(step_maps) == 1:
            return uniform_powers(step_maps[0], x0, len(index) + 1)

        def advance(i, x):
            return step_maps[i] @ x
    out = np.empty((len(index) + 1, a.shape[0]), dtype=complex)
    out[0] = x0
    for k, i in enumerate(index):
        out[k + 1] = advance(i, out[k])
    return out


def _taylor_action(a, steps):
    """advance(i, x) = exp(a steps[i]) x by truncated Taylor series on a as CSR.

    Al-Mohy and Higham's Alg. 3.2 (SIAM J. Sci. Comput. 33, 488 (2011)) with
    its plan made once: b = a - mu I with mu = tr(a)/n, and for each spacing h,
    s = ceil(|b|_1 h / theta_55) sub-steps.  A sub-step sums at most 55 terms
    of exp(b h/s) x, stopping once two successive terms are below 2^-53 of
    the sum's largest entry, and multiplies by exp(mu h/s).
    """
    import scipy.sparse   # imported on use, to keep `import epqed` light

    a = scipy.sparse.csr_matrix(a, dtype=complex)   # no copy for a complex CSR a
    n = a.shape[0]
    mu = a.diagonal().sum() / n
    b = a - mu * scipy.sparse.identity(n, dtype=complex, format="csr")
    norm = np.bincount(b.indices, weights=np.abs(b.data), minlength=n).max()
    substeps = np.maximum(np.ceil(norm * steps / _THETA55), 1).astype(int)

    def advance(i, x):
        h = steps[i] / substeps[i]
        for _ in range(substeps[i]):
            total, term = x.copy(), x
            previous = np.abs(term).max()
            for j in range(1, 56):
                term = (h / j) * (b @ term)
                size = np.abs(term).max()
                total += term
                if previous + size <= 2.0**-53 * np.abs(total).max():
                    break
                previous = size
            x = np.exp(mu * h) * total
        return x
    return advance


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

    Samples are the rows of the output, so S acts from the right as S^T.  With
    rows 0..d-1 done, one product with (S^d)^T writes rows d..2d-1, and (S^d)^T
    is squared while rows remain: about 2 log2(n_samples) products, in C order.
    """
    x0 = np.asarray(x0, dtype=complex)
    out = np.empty((n_samples, x0.size), dtype=complex)
    out[0] = x0
    power, done = step_map.T, 1
    while done < n_samples:
        more = min(done, n_samples - done)
        np.matmul(out[:more], power, out=out[done:done + more])
        done += more
        if done < n_samples:
            power = power @ power
    return out


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
