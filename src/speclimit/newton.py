"""The Poisson statistic: the NLL of given expectations (poisson_nll),
its curvature (poisson_curvature), the empty bins at mu = 0 (at_zero),
and its exact minimization where the expectation is linear.

With mu = offset + A x the negative log likelihood
sum(mu - n log mu) is convex in x, so damped Newton steps with the
analytic gradient A^T (1 - n/mu) and Hessian A^T diag(n/mu^2) A reach
its minimum (Baker & Cousins, NIM 221 (1984) 437). The domain is
mu > 0 in bins with counts and mu >= 0 in empty bins; an empty bin held
at mu = 0 is treated as an active constraint. Along a direction that
no bin with counts curves, the NLL changes only through the empty bins,
linearly, so its minimum there lies where an empty bin reaches mu = 0:
the iteration steps to that bin, which then joins the active
constraints (Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 16).

A Newton pass works on the rows still moving and on the bins with
counts: the NLL is sum(mu) - n.log(mu), the gradient the column sums
minus (n/mu) A and the Hessian (n/mu^2) times the columns' outer
products, which a call forms once with the column sums and log n!. A
one- or two-column Hessian needs no LAPACK call: Jacobi-scaled, the
2x2 one is [[1, r], [r, 1]], whose smallest eigenvalue, for the
singularity test, is 1 - |r| and whose inverse is
[[1, -r], [-r, 1]] / (1 - r^2). The held empty bins are looked for
only on a spectrum with empty bins, or where a Hessian is singular.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FitError

# Newton iterations stop once half the Newton decrement, the predicted
# decrease of the NLL, falls below this share of 1 + |NLL|, the NLL with
# its log n! constant as reported; an absolute tolerance stalls on
# rounding once the NLL reaches thousands
_NEWTON_RTOL = 1e-12
_NEWTON_MAX_ITER = 100
# smallest eigenvalue of the unit-diagonal (Jacobi-scaled) Hessian below
# which a direction counts as uncurved by the bins with counts
_SINGULAR_EIGENVALUE = 1e-12
# an empty bin whose mu is at most this share of the row's largest
# terms, |offset| + |x| @ |A|, is at zero to rounding and held there; a
# per-bin scale would shrink with mu and let the steps creep towards
# zero without end
_AT_ZERO = 1e-12


def log_factorial(counts: np.ndarray) -> np.ndarray:
    """ln n! of each count, as math.lgamma(n + 1)."""
    counts = np.asarray(counts, dtype=float)
    return np.fromiter(map(math.lgamma, (counts + 1.0).ravel().tolist()), dtype=float,
                       count=counts.size).reshape(counts.shape)


def in_poisson_domain(observed: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Whether each row of mu is positive in bins with counts and
    non-negative in empty bins."""
    return np.all(np.where(observed > 0, mu > 0, mu >= 0), axis=-1)


def poisson_nll(observed: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sum(mu - n ln mu + ln n!) over the bins of each row of mu, term by
    term; +inf for a row outside the Poisson domain."""
    inside = in_poisson_domain(observed, mu)
    zero = mu == 0
    log_mu = np.log(np.where(zero | ~inside[..., None], 1.0, mu))
    terms = np.where(zero, 0.0, mu - observed * log_mu) + log_factorial(observed)
    return np.where(inside, np.sum(terms, axis=-1), np.inf)


def poisson_curvature(observed: np.ndarray, columns: np.ndarray, mu: np.ndarray):
    """dNLL/dmu and the Hessian A^T diag(n / mu^2) A at each row of mu.
    Empty bins add no curvature and need no mu > 0: a bin held at mu = 0
    may round below it."""
    occupied = observed > 0
    if not np.all(mu[..., occupied] > 0):
        raise FitError("expected counts leave the Poisson domain; "
                       "the curvature is undefined there")
    safe = np.where(occupied, mu, 1.0)
    dl_dmu = np.where(occupied, 1.0 - observed / safe, 1.0)
    weights = np.where(occupied, observed / safe ** 2, 0.0)
    bins, k = columns.shape
    outer = (columns[:, :, None] * columns[:, None, :]).reshape(bins, k * k)
    return dl_dmu, (weights @ outer).reshape(weights.shape[:-1] + (k, k))


def at_zero(empty: np.ndarray, mu: np.ndarray, offsets: np.ndarray, x: np.ndarray,
            abs_columns: np.ndarray) -> np.ndarray:
    """The bins of the mask empty at zero to rounding (_AT_ZERO) in each
    row of mu = offsets + x @ A.T, for abs_columns = |A|."""
    scale = (np.abs(offsets) + np.abs(x) @ abs_columns.T).max(axis=-1)
    return empty & (mu <= _AT_ZERO * scale[..., None])


def jacobi_scaled(hess: np.ndarray):
    """The Hessians scaled to unit diagonal, the scale 1 / sqrt(diag), and
    whether each is singular: a zero diagonal entry, or a smallest scaled
    eigenvalue at or below _SINGULAR_EIGENVALUE. A zero diagonal entry
    keeps the scale 1."""
    diag = np.diagonal(hess, axis1=-2, axis2=-1)
    inv_sqrt = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    scaled = hess * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    singular = np.any(diag <= 0, axis=-1)
    # a 1x1 unit-diagonal matrix is exactly 1, and [[1, r], [r, 1]] has
    # the eigenvalues 1 - r and 1 + r
    k = hess.shape[-1]
    if k == 2:
        singular |= 1.0 - np.abs(scaled[..., 1, 0]) <= _SINGULAR_EIGENVALUE
    elif k > 2:
        singular |= np.linalg.eigvalsh(scaled)[..., 0] <= _SINGULAR_EIGENVALUE
    return scaled, inv_sqrt, singular


def newton_steps(curvature: np.ndarray, grad: np.ndarray):
    """The Newton steps -H^-1 g of each row's Hessian, curvature of shape
    (rows, k * k), and gradient, and whether each Hessian is singular
    (jacobi_scaled). The system is solved Jacobi-scaled, a 2x2 one by
    its closed-form inverse [[1, -r], [-r, 1]] / (1 - r^2); a singular
    row takes the identity for its scaled Hessian, a step that
    _active_set_step replaces."""
    k = grad.shape[1]
    if k == 1:
        # a 1x1 unit-diagonal Hessian is 1: singular only at zero
        singular = curvature[:, 0] <= 0.0
        return -grad / np.where(singular[:, None], 1.0, curvature), singular
    scaled, inv_sqrt, singular = jacobi_scaled(curvature.reshape(-1, k, k))
    scaled_grad = inv_sqrt * grad
    if k == 2:
        r = np.where(singular, 0.0, scaled[:, 1, 0])[:, None]
        solved = (scaled_grad - r * scaled_grad[:, ::-1]) / (1.0 - r * r)
    else:
        if singular.any():
            scaled = np.where(singular[:, None, None], np.eye(k), scaled)
        solved = np.linalg.solve(scaled, scaled_grad[:, :, None])[:, :, 0]
    return -inv_sqrt * solved, singular


def _null_space(rows: np.ndarray, k: int) -> np.ndarray:
    if not rows.shape[0]:
        return np.eye(k)
    _, sv, vt = np.linalg.svd(rows)
    return vt[int(np.sum(sv > 1e-12 * sv[0])):].T


def _active_set_step(hess, grad, rows, magnitude):
    """Step for one row whose Hessian is singular or whose empty bins
    given by rows are held at mu = 0.

    Works in the null space of the held rows, Jacobi-scaled. Along a
    direction there that the bins with counts do not curve, the NLL
    changes only through the empty bins, and linearly; if it falls
    along one, returns (the steepest such direction, True), for the
    caller to extend to the first empty bin that reaches mu = 0.
    Otherwise returns (the Newton step over the curved directions,
    False), releasing the held bin with the most negative multiplier
    until every multiplier is non-negative. magnitude bounds the
    gradient's terms, to tell a slope from rounding.
    """
    scaled, inv_sqrt, _ = jacobi_scaled(hess)
    grad, rows, magnitude = inv_sqrt * grad, rows * inv_sqrt, inv_sqrt * magnitude
    while True:
        basis = _null_space(rows, grad.size)
        values, vectors = np.linalg.eigh(basis.T @ scaled @ basis)
        uncurved = values <= _SINGULAR_EIGENVALUE
        flat = basis @ vectors[:, uncurved]
        slope = flat.T @ grad
        if np.linalg.norm(slope) > 1e-9 * np.linalg.norm(np.abs(flat).T @ magnitude):
            return -inv_sqrt * (flat @ slope), True
        curved = basis @ vectors[:, ~uncurved]
        step = -curved @ ((curved.T @ grad) / values[~uncurved])
        if not rows.shape[0]:
            return inv_sqrt * step, False
        multipliers = np.linalg.lstsq(rows.T, scaled @ step + grad, rcond=None)[0]
        if multipliers.min() >= 0.0:
            return inv_sqrt * step, False
        rows = np.delete(rows, int(np.argmin(multipliers)), axis=0)


def _supported(columns: np.ndarray) -> bool:
    """Whether the columns are linearly independent: every parameter
    direction moves some bin."""
    norms = np.linalg.norm(columns, axis=0)
    if np.any(norms == 0):
        return False
    sv = np.linalg.svd(columns / norms, compute_uv=False)
    return bool(sv[-1] > 1e-12 * sv[0])


def minimize_linear_poisson(observed, columns, offsets, starts, where):
    """Minimize the Poisson NLL of mu = offsets + x @ columns.T, row by row.

    offsets has shape (rows, bins) and starts (rows, k); every start
    must give mu > 0 in bins with counts and mu >= 0 in empty bins.
    The NLL is convex, so damped Newton steps with the analytic
    Hessian converge to its minimum. Each step is cut to the largest
    feasible fraction and then backtracked until the NLL falls. An
    empty bin whose mu reaches zero is an active constraint; mu > 0 in
    the other bins is kept by the logarithm. A direction that the bins
    with counts do not curve is followed to the first empty bin it
    takes to mu = 0 (a spectrum without counts included); a parameter
    that moves no bin at all raises FitError. where(i) names row i in
    errors, also after the rows that stopped have left the batch.
    Returns the minimizers, the NLL (with the log n! constant) and the
    number of Newton iterations.
    """
    occupied = observed > 0
    empty = ~occupied
    any_empty = bool(empty.any())
    occ = np.flatnonzero(occupied) if any_empty else slice(None)
    n_occ, cols_occ = observed[occ], columns[occ]
    k = columns.shape[1]
    outer_occ = (cols_occ[:, :, None] * cols_occ[:, None, :]).reshape(-1, k * k)
    colsum = columns.sum(axis=0)
    constant = float(np.sum(log_factorial(observed)))
    abs_cols = np.abs(columns)
    x = np.array(starts, dtype=float)
    nll = np.empty(x.shape[0])
    live, x_live, off_live = np.arange(x.shape[0]), x, offsets
    mu_live = offsets + x @ columns.T
    # the line search may try steps that leave the domain: their NLL
    # change is nan or inf, and the trial fails
    with np.errstate(invalid="ignore", divide="ignore"):
        for iteration in range(_NEWTON_MAX_ITER + 1):
            mu_occ = mu_live[:, occ]
            nll_live = mu_live.sum(axis=1) - np.log(mu_occ) @ n_occ
            ratio = n_occ / mu_occ
            grad = colsum - ratio @ cols_occ
            curvature = (ratio / mu_occ) @ outer_occ
            step, singular = newton_steps(curvature, grad)
            any_singular = bool(singular.any())
            if any_singular and not _supported(columns):
                raise FitError(f"a free parameter moves no bin at "
                               f"{where(live[np.argmax(singular)])}, so no bin constrains it")
            rays = []
            if any_empty or any_singular:
                # mu >= 0 binds in empty bins already at zero
                held = at_zero(empty, mu_live, off_live, x_live, abs_cols)
                for r in np.flatnonzero(singular | np.any(held, axis=1)):
                    ratio_r = np.zeros(observed.size)
                    ratio_r[occ] = ratio[r]
                    step[r], ray = _active_set_step(curvature[r].reshape(k, k), grad[r],
                                                    columns[held[r]],
                                                    np.abs(1.0 - ratio_r) @ abs_cols)
                    if ray:
                        rays.append(r)
                        # the NLL falls linearly along the ray: go to the first
                        # empty bin that it takes to mu = 0
                        dmu = step[r] @ columns.T
                        falling = empty & ~held[r] & (dmu < -1e-12 * np.abs(dmu).max())
                        if falling.any():
                            step[r] *= np.min(mu_live[r, falling] / -dmu[falling])
            decrement = -np.sum(grad * step, axis=1)
            moving = decrement > 2.0 * _NEWTON_RTOL * (1.0 + np.abs(nll_live + constant))
            moving[rays] = True  # a ray step, however short, adds a held bin
            if not moving.all():
                stopped = ~moving
                x[live[stopped]] = x_live[stopped]
                nll[live[stopped]] = nll_live[stopped]
                live, x_live, off_live, mu_live, mu_occ, step, decrement = (
                    live[moving], x_live[moving], off_live[moving], mu_live[moving],
                    mu_occ[moving], step[moving], decrement[moving])
                if not live.size:
                    break
            if iteration == _NEWTON_MAX_ITER:
                raise FitError(f"Poisson Newton iteration did not converge in "
                               f"{_NEWTON_MAX_ITER} steps at {where(live[0])}")
            dmu = step @ columns.T
            # largest feasible fraction of the step: mu must not cross zero
            # in any bin; rounding noise on held bins does not count
            shrinking = dmu < -1e-12 * np.abs(dmu).max(axis=1, keepdims=True)
            t = np.ones(live.size)
            if shrinking.any():
                reach = np.where(shrinking, np.maximum(mu_live, 0.0)
                                 / np.where(shrinking, -dmu, 1.0), np.inf)
                t = np.minimum(1.0, reach.min(axis=1))
            # backtrack on the NLL change, summed in log1p form so it stays
            # accurate when it is far below the NLL itself
            dmu_sum, dmu_occ = dmu.sum(axis=1), dmu[:, occ]
            pending = slice(None)  # every row, then those whose last trial failed
            for _ in range(60):
                tp = t[pending]
                change = tp * dmu_sum[pending] - np.log1p(
                    tp[:, None] * dmu_occ[pending] / mu_occ[pending]) @ n_occ
                ok = np.isfinite(change) & (change <= -1e-4 * tp * decrement[pending])
                if ok.all():
                    break
                pending = np.arange(live.size)[pending][~ok]
                t[pending] *= 0.5
            else:
                raise FitError(f"Poisson Newton line search failed at {where(live[pending][0])}")
            x_live = x_live + t[:, None] * step
            mu_live = off_live + x_live @ columns.T
    return x, nll + constant, iteration
