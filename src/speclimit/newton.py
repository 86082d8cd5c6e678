"""The Poisson statistic: the NLL of given expectations (poisson_nll),
its curvature (poisson_curvature), and its exact minimization where the
expectation is linear.

With mu = offset + A x the negative log likelihood
sum(mu - n log mu) is convex in x, so damped Newton steps with the
analytic gradient A^T (1 - n/mu) and Hessian A^T diag(n/mu^2) A reach
its minimum (Baker & Cousins, NIM 221 (1984) 437). The domain is
mu > 0 in bins with counts and mu >= 0 in empty bins. Each row keeps a
working set, the empty bins it holds at mu = 0 as active constraints
(the primal active-set method of Nocedal & Wright, Numerical
Optimization, 2nd ed., section 16.5; Lawson & Hanson, Solving Least
Squares Problems, 1974, ch. 23). It starts empty; an empty bin joins
when it blocks a step that the line search takes whole, and leaves when
its multiplier turns negative. Along a direction that no bin with
counts curves, the NLL changes only through the empty bins, linearly,
so such a step (a ray) has no limit of 1: it goes on until an empty bin
blocks it.

A Newton pass works on the rows still moving and on the bins with
counts: the NLL is sum(mu) - n.log(mu), the gradient the column sums
minus (n/mu) A and the Hessian (n/mu^2) times the columns' outer
products, which a call forms once with the column sums and log n!. A
one- or two-column Hessian needs no LAPACK call: Jacobi-scaled, the
2x2 one is [[1, r], [r, 1]], whose smallest eigenvalue, for the
singularity test, is 1 - |r| and whose inverse is
[[1, -r], [-r, 1]] / (1 - r^2). Only a row with a singular Hessian or
a non-empty working set takes the active-set step, row by row.

A caller may first move its starts by one Fisher scoring step
(scoring_step), the weighted least-squares fit with weights 1/mu at the
start. From the Neyman least-squares point, pulled low by its max(n, 1)
weights, or from a neighbour's nuisances, it lands about where a Newton
pass would, and at the cost of less than one, so the solve that follows
takes about half the passes.
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
# share of the way to zero that a step may take in a bin with counts,
# the fraction-to-boundary rule of interior-point methods (Waechter &
# Biegler, Math. Program. 106 (2006) 25; Nocedal & Wright, 2nd ed.,
# section 19.2); an empty bin is reached exactly, to join the working set
_TO_BOUNDARY = 0.995
_SMALLEST_POSITIVE = math.ulp(0.0)


def log_factorial(counts: np.ndarray) -> np.ndarray:
    """ln n! of each count, as math.lgamma(n + 1)."""
    counts = np.asarray(counts, dtype=float)
    return np.fromiter(map(math.lgamma, (counts + 1.0).ravel().tolist()), dtype=float,
                       count=counts.size).reshape(counts.shape)


def in_poisson_domain(observed: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Whether each row of mu is positive in bins with counts and
    non-negative in empty bins: mu > 0 exactly where mu is at least the
    smallest positive float, one comparison for both."""
    return np.all(mu >= np.where(observed > 0, _SMALLEST_POSITIVE, 0.0), axis=-1)


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


def scoring_step(observed, columns, offsets, starts):
    """Each row of starts moved by one Fisher scoring step toward the
    minimum of the Poisson NLL of mu = offsets + x @ columns.T.

    The step is Newton's with the expected information A^T diag(1/mu) A
    in place of the Hessian, so the scored point is the weighted
    least-squares fit of observed - offsets on the columns with weights
    1/mu at the start: one step of iteratively reweighted least squares
    with the identity link (McCullagh & Nelder, Generalized Linear
    Models, 2nd ed., section 2.5; Green, JRSS B 46 (1984) 149). It is
    solved as newton_steps solves. A row keeps its start where a bin has
    mu <= 0 there, where the system is singular or not finite, or where
    the scored point leaves the Poisson domain.
    """
    mu = offsets + starts @ columns.T
    usable = mu.min(axis=1) > 0.0
    if not usable.any():
        return starts
    k = columns.shape[1]
    outer = (columns[:, :, None] * columns[:, None, :]).reshape(-1, k * k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_mu = 1.0 / mu
        information = inv_mu @ outer
        usable &= np.isfinite(information.sum(axis=1))
        # a row set to zero is singular, and the solve passes it over
        step, singular = newton_steps(np.where(usable[:, None], information, 0.0),
                                      columns.sum(axis=0) - (observed * inv_mu) @ columns)
        usable &= ~singular & np.isfinite(step.sum(axis=1))
        usable &= in_poisson_domain(observed, mu + step @ columns.T)
    return np.where(usable[:, None], starts + step, starts)


def _null_space(rows: np.ndarray, k: int) -> np.ndarray:
    if not rows.shape[0]:
        return np.eye(k)
    _, sv, vt = np.linalg.svd(rows)
    return vt[int(np.sum(sv > 1e-12 * sv[0])):].T


def _active_set_step(hess, grad, rows, magnitude):
    """Step for one row whose Hessian is singular or whose working set,
    the empty bins given by rows, is not empty.

    Works in the null space of the held rows, Jacobi-scaled. Along a
    direction there that the bins with counts do not curve, the NLL
    changes only through the empty bins, and linearly; if it falls
    along one, the step is the steepest such direction, a ray for the
    caller to follow until an empty bin blocks it. Otherwise the step
    is Newton's over the curved directions, releasing the held bin with
    the most negative multiplier until every multiplier is
    non-negative. magnitude bounds the gradient's terms, to tell a
    slope from rounding. Returns the step, whether it is a ray, and
    which of rows stay held.
    """
    scaled, inv_sqrt, _ = jacobi_scaled(hess)
    grad, rows, magnitude = inv_sqrt * grad, rows * inv_sqrt, inv_sqrt * magnitude
    kept = np.ones(rows.shape[0], dtype=bool)
    while True:
        basis = _null_space(rows[kept], grad.size)
        values, vectors = np.linalg.eigh(basis.T @ scaled @ basis)
        uncurved = values <= _SINGULAR_EIGENVALUE
        flat = basis @ vectors[:, uncurved]
        slope = flat.T @ grad
        if np.linalg.norm(slope) > 1e-9 * np.linalg.norm(np.abs(flat).T @ magnitude):
            return -inv_sqrt * (flat @ slope), True, kept
        curved = basis @ vectors[:, ~uncurved]
        step = -curved @ ((curved.T @ grad) / values[~uncurved])
        if not kept.any():
            return inv_sqrt * step, False, kept
        multipliers = np.linalg.lstsq(rows[kept].T, scaled @ step + grad, rcond=None)[0]
        if multipliers.min() >= 0.0:
            return inv_sqrt * step, False, kept
        kept[np.flatnonzero(kept)[np.argmin(multipliers)]] = False


def _supported(columns: np.ndarray) -> bool:
    """Whether the columns are linearly independent: every parameter
    direction moves some bin."""
    norms = np.linalg.norm(columns, axis=0)
    if np.any(norms == 0):
        return False
    sv = np.linalg.svd(columns / norms, compute_uv=False)
    return bool(sv[-1] > 1e-12 * sv[0])


def _require_finite(values, live, where):
    """Raise FitError naming the first row whose value is nan or inf: a
    Newton pass has put a bin with counts at mu <= 0. NLLs and
    decrements lie far inside the float range, so their sum is finite
    exactly when each is, and costs less to test."""
    if not math.isfinite(values.sum()):
        raise FitError(f"Poisson Newton iteration left the Poisson domain at "
                       f"{where(live[np.argmin(np.isfinite(values))])}")


def minimize_linear_poisson(observed, columns, offsets, starts, where):
    """Minimize the Poisson NLL of mu = offsets + x @ columns.T, row by row.

    offsets has shape (rows, bins) and starts (rows, k); every start
    must give mu > 0 in bins with counts and mu >= 0 in empty bins.
    Each step is cut where the first bin reaches zero, a bin with counts
    at _TO_BOUNDARY of its reach, with no limit of 1 on a ray, and then
    backtracked until the NLL falls. Each row's working set of empty
    bins held at mu = 0 starts empty. The first bin to reach zero joins
    it if it is empty and the cut is taken whole, and the row's
    parameters are then corrected in least squares to put its held bins
    at mu = 0; a bin leaves when its multiplier turns negative
    (_active_set_step). A parameter that moves no bin, or a row whose
    NLL or Newton decrement is not finite, raises FitError. where(i)
    names row i in errors, also after the rows that stopped have left
    the batch. Returns the minimizers, the NLL (with
    the log n! constant), the number of Newton iterations and each
    row's working set, a mask of bins.
    """
    occupied = observed > 0
    empty = ~occupied
    any_empty = bool(empty.any())  # without one no bin is ever held
    occ = np.flatnonzero(occupied) if any_empty else slice(None)
    n_occ, cols_occ = observed[occ], columns[occ]
    k = columns.shape[1]
    outer_occ = (cols_occ[:, :, None] * cols_occ[:, None, :]).reshape(-1, k * k)
    colsum = columns.sum(axis=0)
    constant = float(np.sum(log_factorial(observed)))
    abs_cols = np.abs(columns)
    x = np.array(starts, dtype=float)
    nll = np.empty(x.shape[0])
    held = np.zeros((x.shape[0], observed.size), dtype=bool)
    live, x_live, off_live, held_live = np.arange(x.shape[0]), x, offsets, held.copy()
    mu_live = offsets + x @ columns.T
    # the line search may try steps that leave the domain: their NLL
    # change is nan or inf, and the trial fails
    with np.errstate(invalid="ignore", divide="ignore"):
        for iteration in range(_NEWTON_MAX_ITER + 1):
            mu_occ = mu_live[:, occ]
            nll_live = mu_live.sum(axis=1) - np.log(mu_occ) @ n_occ
            _require_finite(nll_live, live, where)  # before a nan reaches the Hessian
            ratio = n_occ / mu_occ
            grad = colsum - ratio @ cols_occ
            curvature = (ratio / mu_occ) @ outer_occ
            step, singular = newton_steps(curvature, grad)
            any_singular = bool(singular.any())
            if any_singular and not _supported(columns):
                raise FitError(f"a free parameter moves no bin at "
                               f"{where(live[np.argmax(singular)])}, so no bin constrains it")
            limit = np.ones(live.size)  # the cut's upper limit: none on a ray
            if any_empty or any_singular:
                for r in np.flatnonzero(singular | held_live.any(axis=1)):
                    ratio_r = np.zeros(observed.size)
                    ratio_r[occ] = ratio[r]
                    bins = np.flatnonzero(held_live[r])
                    step[r], ray, held_live[r, bins] = _active_set_step(
                        curvature[r].reshape(k, k), grad[r], columns[bins],
                        np.abs(1.0 - ratio_r) @ abs_cols)
                    if ray:
                        limit[r] = np.inf
            decrement = -np.sum(grad * step, axis=1)
            moving = decrement > 2.0 * _NEWTON_RTOL * (1.0 + np.abs(nll_live + constant))
            moving |= limit > 1.0  # a ray step, however short, adds a held bin
            if not moving.all():
                stopped = ~moving
                # a nan decrement fails the test above, yet is no minimum
                _require_finite(decrement[stopped], live[stopped], where)
                x[live[stopped]] = x_live[stopped]
                nll[live[stopped]] = nll_live[stopped]
                held[live[stopped]] = held_live[stopped]
                live, x_live, off_live, held_live, mu_live, mu_occ, step, decrement, limit = (
                    live[moving], x_live[moving], off_live[moving], held_live[moving],
                    mu_live[moving], mu_occ[moving], step[moving], decrement[moving],
                    limit[moving])
                if not live.size:
                    break
            if iteration == _NEWTON_MAX_ITER:
                raise FitError(f"Poisson Newton iteration did not converge in "
                               f"{_NEWTON_MAX_ITER} steps at {where(live[0])}")
            dmu = step @ columns.T
            # largest feasible fraction of the step: mu must not cross zero
            # in a bin outside the working set; rounding noise does not count
            shrinking = dmu < -1e-12 * np.abs(dmu).max(axis=1, keepdims=True)
            t = limit
            blocked = shrinking.any()
            if blocked:
                if any_empty:
                    shrinking &= ~held_live
                reach = np.where(shrinking, np.maximum(mu_live, 0.0)
                                 / np.where(shrinking, -dmu, 1.0), np.inf)
                # a bin with counts blocks at a fraction of its reach: at
                # the exact cut its mu, recomputed, rounds to <= 0
                reach[:, occ] *= _TO_BOUNDARY
                first = reach.min(axis=1)
                t = np.minimum(limit, first)
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
            if blocked and any_empty:
                # the correction removes the held bins' rounding residue, which
                # a later warm start would take for a tiny positive mu
                blocking = reach.argmin(axis=1)
                for r in np.flatnonzero((t == first) & empty[blocking]):
                    held_live[r, blocking[r]] = True
                    bins = held_live[r]
                    x_live[r] -= np.linalg.lstsq(columns[bins], mu_live[r, bins],
                                                 rcond=None)[0]
                    mu_live[r] = off_live[r] + columns @ x_live[r]
    return x, nll + constant, iteration, held
