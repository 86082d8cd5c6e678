"""Exact minimization of a Poisson NLL whose expectation is linear.

With mu = offset + A x the negative log likelihood
sum(mu - n log mu) is convex in x, so damped Newton steps with the
analytic gradient A^T (1 - n/mu) and Hessian A^T diag(n/mu^2) A reach
its minimum (Baker & Cousins, NIM 221 (1984) 437). The domain is
mu > 0 in bins with counts and mu >= 0 in empty bins; an empty bin held
at mu = 0 is treated as an active constraint.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import FitError

# Newton iterations stop once half the Newton decrement, the predicted
# decrease of the NLL, falls below this share of 1 + |NLL|, the NLL with
# its log n! constant as reported; an absolute tolerance stalls on
# rounding once the NLL reaches thousands
_NEWTON_RTOL = 1e-12
_NEWTON_MAX_ITER = 100
# smallest eigenvalue of the unit-diagonal (Jacobi-scaled) Hessian below
# which a parameter counts as unconstrained by the bins with counts
_SINGULAR_EIGENVALUE = 1e-12


def in_poisson_domain(observed: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Whether each row of mu is positive in bins with counts and
    non-negative in empty bins."""
    return np.all(np.where(observed > 0, mu > 0, mu >= 0), axis=-1)


def poisson_hessian(columns: np.ndarray, observed: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """A^T diag(n / mu^2) A for mu of shape (bins,) or (rows, bins).

    Empty bins add no curvature: their NLL term, mu, is linear.
    """
    occupied = observed > 0
    weights = np.where(occupied, observed / np.where(occupied, mu, 1.0) ** 2, 0.0)
    bins, k = columns.shape
    outer = (columns[:, :, None] * columns[:, None, :]).reshape(bins, k * k)
    return (weights @ outer).reshape(weights.shape[:-1] + (k, k))


def _active_set_step(hess, grad, rows):
    """Newton step with mu held at zero in the empty bins given by rows.

    Solves the step in the null space of the active rows and releases
    the constraint with the most negative multiplier until every
    multiplier is non-negative.
    """
    k = grad.size
    while True:
        if rows.shape[0]:
            _, sv, vt = np.linalg.svd(rows)
            rank = int(np.sum(sv > 1e-12 * sv[0]))
            basis = vt[rank:].T
        else:
            basis = np.eye(k)
        step = np.zeros(k)
        if basis.shape[1]:
            step = -basis @ np.linalg.solve(basis.T @ hess @ basis, basis.T @ grad)
        if not rows.shape[0]:
            return step
        multipliers = np.linalg.lstsq(rows.T, hess @ step + grad, rcond=None)[0]
        if multipliers.min() >= 0.0:
            return step
        rows = np.delete(rows, int(np.argmin(multipliers)), axis=0)


def minimize_linear_poisson(observed, columns, offsets, starts, where):
    """Minimize the Poisson NLL of mu = offsets + x @ columns.T, row by row.

    offsets has shape (rows, bins) and starts (rows, k); every start
    must give mu > 0 in bins with counts and mu >= 0 in empty bins.
    The NLL is convex, so damped Newton steps with the analytic
    Hessian converge to its minimum. Each step is cut to the largest
    feasible fraction and then backtracked until the NLL falls. An
    empty bin whose mu reaches zero is an active constraint; mu > 0 in
    the other bins is kept by the logarithm. where(i) names row i in
    errors. Returns the minimizers, the NLL (with the log n! constant)
    and the number of Newton iterations.
    """
    occupied = observed > 0
    empty = ~occupied
    constant = float(np.sum(gammaln(observed + 1.0)))
    abs_cols = np.abs(columns)
    x = np.array(starts, dtype=float)
    mu = offsets + x @ columns.T
    nll = np.empty(x.shape[0])
    live = np.arange(x.shape[0])
    for iteration in range(_NEWTON_MAX_ITER + 1):
        x_live, mu_live = x[live], mu[live]
        nll[live] = np.sum(mu_live - observed * np.log(np.where(occupied, mu_live, 1.0)), axis=1)
        ratio = np.where(occupied, observed / np.where(occupied, mu_live, 1.0), 0.0)
        grad = (1.0 - ratio) @ columns
        hess = poisson_hessian(columns, observed, mu_live)
        diag = np.diagonal(hess, axis1=1, axis2=2)
        flat = np.any(diag <= 0, axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
        scaled = hess * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]
        flat |= np.linalg.eigvalsh(scaled)[:, 0] <= _SINGULAR_EIGENVALUE
        if np.any(flat):
            raise FitError(f"singular Poisson Hessian at {where(live[np.argmax(flat)])}: "
                           "a free parameter gets no curvature from the bins with counts")
        step = -inv_sqrt * np.linalg.solve(scaled, (inv_sqrt * grad)[:, :, None])[:, :, 0]
        # mu >= 0 binds in empty bins already at zero, to the rounding
        # of the row's largest terms; a per-bin scale would shrink with
        # mu and let the steps creep towards zero without end
        mu_scale = (np.abs(offsets[live]) + np.abs(x_live) @ abs_cols.T).max(axis=1)
        at_zero = empty & (mu_live <= 1e-12 * mu_scale[:, None])
        for r in np.flatnonzero(np.any(at_zero, axis=1)):
            step[r] = _active_set_step(hess[r], grad[r], columns[at_zero[r]])
        decrement = -np.sum(grad * step, axis=1)
        moving = decrement > 2.0 * _NEWTON_RTOL * (1.0 + np.abs(nll[live] + constant))
        live, x_live, mu_live, step, decrement = (
            live[moving], x_live[moving], mu_live[moving], step[moving], decrement[moving])
        if not live.size:
            break
        if iteration == _NEWTON_MAX_ITER:
            raise FitError(f"Poisson Newton iteration did not converge in "
                           f"{_NEWTON_MAX_ITER} steps at {where(live[0])}")
        dmu = step @ columns.T
        # largest feasible fraction of the step: mu must not cross zero
        # in any bin; rounding noise on held bins does not count
        noise = 1e-12 * np.abs(dmu).max(axis=1, keepdims=True)
        shrinking = dmu < -noise
        reach = np.where(shrinking, np.maximum(mu_live, 0.0) / np.where(shrinking, -dmu, 1.0),
                         np.inf)
        t = np.minimum(1.0, reach.min(axis=1))
        # backtrack on the NLL change, summed in log1p form so it stays
        # accurate when it is far below the NLL itself
        pending = np.ones(live.size, dtype=bool)
        for _ in range(60):
            frac = t[pending, None] * dmu[pending]
            ratio = frac / np.where(occupied, mu_live[pending], 1.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                change = np.sum(frac - np.where(occupied, observed * np.log1p(ratio), 0.0),
                                axis=1)
            ok = np.isfinite(change) & (change <= -1e-4 * t[pending] * decrement[pending])
            idx = np.flatnonzero(pending)
            pending[idx[ok]] = False
            t[idx[~ok]] *= 0.5
            if not pending.any():
                break
        else:
            raise FitError(f"Poisson Newton line search failed at {where(live[pending][0])}")
        x[live] = x_live + t[:, None] * step
        mu[live] = offsets[live] + x[live] @ columns.T
    return x, nll + constant, iteration
