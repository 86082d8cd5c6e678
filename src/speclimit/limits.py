"""Fitting and upper-limit machinery for binned spectra.

Provides the two fit statistics (Neyman chi-square with an empty-bin
variance floor, and the Poisson negative log likelihood), a fit that
minimizes either, flat prior Bayesian upper limits on a non-negative
signal amplitude with background nuisances profiled out, and a seeded
pseudo-experiment harness with coverage accounting.

Every problem is solved exactly. Where every free parameter enters the
prediction linearly, the chi-square is a weighted least-squares
parabola, so its fit and its profile are closed form, and the Poisson
NLL is convex, so a damped Newton iteration with the analytic Hessian
A^T diag(n/mu^2) A finds its fit and profile (Baker & Cousins, NIM 221
(1984) 437), holding empty bins at mu = 0 where that constraint binds.
One or two free line centroids are a variable projection (Golub &
Pereyra, SIAM J. Numer. Anal. 10 (1973) 413): the linear parameters are
solved exactly at each centroid value, and a grid-seeded Newton
iteration with the exact gradient and Hessian refines the centroids
inside the fit window, for the fit and for each profile point; the
columns no centroid moves are projected out once per fit or limit. A
shape that no exact solver takes (a centroid as the signal, more than
two free centroids, a free centroid whose amplitude is fixed) is
refused when the FitProblem is built. The only bound is the signal's floor at zero.

Posterior convention: for the chi-square statistic the posterior
density on the signal s >= 0 is proportional to exp(-chi2_prof(s)/2);
for the Poisson likelihood it is exp(-(nll_prof(s) - min)). A linear
chi-square problem profiles to the parabola (s - shat)^2 / sigma^2 +
const, so its posterior is a Gaussian truncated at zero and its bound
the closed-form quantile; a chi-square ensemble solves the normal
equations of its toys in stacked batches. Only the Newton and
projection limits scan, solving the profile at every 8th scan point
and filling the rest by cubics, refined until the quantile is
grid-stable.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateMapError,
    DomainError,
    FitError,
    ScanRangeError,
    ShapeError,
)
from .fileio import canonical_config_hash
from .newton import (
    _NEWTON_MAX_ITER,
    _NEWTON_RTOL,
    LinearPoisson,
    in_poisson_domain,
    jacobi_scaled,
    minimize_linear_poisson,
    poisson_curvature,
    poisson_nll,
    scoring_step,
)
from .spectra import (
    BinnedSpectrum,
    EnergyGrid,
    PolynomialBackground,
    SpectralModel,
    _gaussian_bin_fractions,
    _line_fractions_and_derivatives,
    _poisson_counts,
    component_bin_counts,
    model_description,
    predict_counts,
)

__all__ = [
    "FitProblem",
    "FitResult",
    "GaussianResidualProblem",
    "LimitResult",
    "EnsembleResult",
    "fit_minimize",
    "parameter_uncertainties",
    "bayesian_upper_limit",
    "run_pseudo_experiments",
]

STATISTICS = ("chi2", "poisson_nll")


def _variance_floor(observed: np.ndarray) -> np.ndarray:
    # Neyman convention with max(n, 1) so empty bins keep finite weight
    return np.maximum(observed.astype(float), 1.0)


def _chi2_from_mu(observed: np.ndarray, mu: np.ndarray) -> float:
    resid = observed - mu
    return float(np.sum(resid * resid / _variance_floor(observed)))


# ---------------------------------------------------------------------------
# parameter references into a SpectralModel


def _ref_name(ref) -> str:
    if ref[1] == "coefficients":
        return f"c{ref[0]}.coefficients[{ref[2]}]"
    return f"c{ref[0]}.{ref[1]}"


def _ref_get(model: SpectralModel, ref):
    comp = model.components[ref[0]]
    if ref[1] == "coefficients":
        return comp.coefficients[ref[2]]
    return getattr(comp, ref[1])


def _apply_params(model: SpectralModel, refs, values) -> SpectralModel:
    comps = list(model.components)
    for ref, value in zip(refs, values):
        comp = comps[ref[0]]
        if ref[1] == "coefficients":
            coeffs = list(comp.coefficients)
            coeffs[ref[2]] = float(value)
            comps[ref[0]] = replace(comp, coefficients=tuple(coeffs))
        else:
            comps[ref[0]] = replace(comp, **{ref[1]: float(value)})
    return replace(model, components=tuple(comps))


def _unit_component(component, ref):
    """The component with the referenced parameter at 1 and every other
    linear parameter at 0: its counts are that parameter's column."""
    if ref[1] == "coefficients":
        coefficients = [0.0] * len(component.coefficients)
        coefficients[ref[2]] = 1.0
        return replace(component, coefficients=tuple(coefficients))
    return replace(component, **{ref[1]: 1.0})


def _validate_ref(model: SpectralModel, ref):
    if not isinstance(ref, tuple) or len(ref) not in (2, 3):
        raise DomainError(f"parameter reference {ref!r} must be (component, attr[, index])")
    if not 0 <= ref[0] < len(model.components):
        raise DomainError(f"parameter reference {ref!r} points past the component list")
    comp = model.components[ref[0]]
    if ref[1] == "coefficients":
        if not isinstance(comp, PolynomialBackground):
            raise DomainError(f"component {ref[0]} has no coefficients")
        if len(ref) != 3 or not 0 <= ref[2] < len(comp.coefficients):
            raise DomainError(f"coefficient index out of range in {ref!r}")
    elif not hasattr(comp, ref[1]):
        raise DomainError(f"component {ref[0]} has no attribute {ref[1]!r}")


# ---------------------------------------------------------------------------
# fit problems


@dataclass(frozen=True)
class FitProblem:
    """Binned data plus a model template with designated free parameters.

    Exactly one free parameter is the signal, a linear one bounded
    below by zero; the remaining free parameters are background
    nuisances. At most two line centroids may be free, each with its
    line's amplitude. The problem is frozen and keeps a read-only copy
    of the observed values, so its design and, without free centroids,
    its least-squares core are built on first use and hold for its
    lifetime.
    """

    grid: EnergyGrid
    observed: np.ndarray
    model: SpectralModel
    free: tuple
    signal: tuple
    statistic: str = "chi2"

    def __post_init__(self):
        observed = np.array(self.observed, dtype=float)
        if observed.shape != (self.grid.n_bins,):
            raise ShapeError("observed array does not match the grid")
        if np.any(observed < 0) or np.any(~np.isfinite(observed)):
            raise DomainError("observed values must be finite and non-negative")
        observed.flags.writeable = False
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "free", tuple(tuple(r) for r in self.free))
        object.__setattr__(self, "signal", tuple(self.signal))
        if self.statistic not in STATISTICS:
            raise DomainError(f"unknown statistic {self.statistic!r}")
        if len(set(self.free)) != len(self.free):
            raise DomainError("free parameter references must be unique")
        for ref in self.free:
            _validate_ref(self.model, ref)
        if self.signal not in self.free:
            raise DomainError("the signal parameter must be among the free parameters")
        # the shapes that no exact solver takes
        if self.signal[1] == "centroid_kev":
            raise DomainError("the signal must be a parameter that enters linearly, "
                              "not a line centroid")
        centroids = [ref for ref in self.free if ref[1] == "centroid_kev"]
        if len(centroids) > 2:
            raise DomainError(f"at most two line centroids may be free, got {len(centroids)}")
        for ref in centroids:
            if (ref[0], "amplitude") not in self.free:
                raise DomainError(f"the centroid of component {ref[0]} is free but its "
                                  "amplitude is not; free both")

    @classmethod
    def from_spectrum(cls, spectrum: BinnedSpectrum, model: SpectralModel,
                      free, signal, statistic: str = "chi2") -> "FitProblem":
        return cls(spectrum.grid, spectrum.counts, model, free, signal, statistic)

    def parameter_name(self, ref) -> str:
        return _ref_name(tuple(ref))

    def initial_values(self) -> np.ndarray:
        return np.array([_ref_get(self.model, ref) for ref in self.free], dtype=float)

    def signal_index(self) -> int:
        return self.free.index(self.signal)

    def with_values(self, values) -> SpectralModel:
        """The template model with the free parameters set to values."""
        return _apply_params(self.model, self.free, np.asarray(values, dtype=float))

    @cached_property
    def _design(self) -> "_Design":
        # one design per problem, shared by its fit, uncertainties and limit
        return _Design(self)

    @cached_property
    def _core(self) -> "_LinearGaussianCore":
        # the least-squares solution of the problem's counts, shared by its
        # chi-square fit, uncertainties and limit and its Poisson starts; a
        # free centroid moves the columns, so it has none
        if not self._design.linear:
            raise DomainError("a problem with a free line centroid has no fixed "
                              "least-squares core")
        return _core_from_fit_problem(self, self.observed)


class _Design:
    """Expected counts mu = base + columns @ theta[linear_idx] for a problem.

    Every column is the unit integral of one linear parameter, built
    once. A line whose centroid is free has its column, and the
    column's first two centroid derivatives, rebuilt only when that
    centroid moves. Without free centroids the columns never change
    and mu is linear in the free parameters. point evaluates mu and its
    first and second derivatives at one theta together.
    """

    def __init__(self, problem: FitProblem):
        free, model, grid = problem.free, problem.model, problem.grid
        self.response = model.response
        self.edges = grid.bin_edges
        self.eff = self.response.efficiency_for(grid)
        self.centroid_idx = [i for i, ref in enumerate(free) if ref[1] == "centroid_kev"]
        self.linear_idx = [i for i, ref in enumerate(free) if ref[1] != "centroid_kev"]
        self.linear = not self.centroid_idx
        lines = [free[i][0] for i in self.centroid_idx]
        # each free centroid's amplitude, as a free parameter and a column
        self.amplitude_idx = [free.index((c, "amplitude")) for c in lines]
        self.line_columns = [self.linear_idx.index(i) for i in self.amplitude_idx]
        # the signal's column, and the columns that no free centroid moves
        self.signal_column = self.linear_idx.index(problem.signal_index())
        self.static_columns = [p for p in range(len(self.linear_idx))
                               if p not in self.line_columns]
        # the base holds what no free parameter moves: the template's
        # counts with the free linear parameters at zero
        linear = [free[i] for i in self.linear_idx]
        self.base = predict_counts(_apply_params(model, linear, np.zeros(len(linear))), grid)
        self.columns = np.column_stack([
            np.zeros(grid.n_bins) if i in self.amplitude_idx else
            component_bin_counts(_unit_component(model.components[free[i][0]], free[i]),
                                 grid, self.response) * self.eff
            for i in self.linear_idx])
        self.centroids = np.full(len(lines), np.nan)
        self.first = np.zeros((grid.n_bins, len(lines)))
        self.second = np.zeros((grid.n_bins, len(lines)))
        template = [model.components[c].centroid_kev for c in lines]
        # centroid grid spacing and the largest Newton step: FWHM / 4
        self.spacing = min((self.response.fwhm_at(c) for c in template), default=0.0) / 4.0
        self.order = 1.0 if len(lines) < 2 or template[1] >= template[0] else -1.0
        self.window = (grid.lo_kev, grid.hi_kev)

    def at(self, centroids) -> np.ndarray:
        """The columns with the free lines at the given centroids, the
        lines that moved rebuilt in one call."""
        centroids = np.asarray(centroids, dtype=float)
        moved = [k for k, c in enumerate(centroids) if c != self.centroids[k]]
        if moved:
            fractions, first, second = _line_fractions_and_derivatives(
                self.edges, centroids[moved], self.response)
            eff = self.eff[:, None]
            self.columns[:, [self.line_columns[k] for k in moved]] = fractions * eff
            self.first[:, moved] = first * eff
            self.second[:, moved] = second * eff
            self.centroids[moved] = centroids[moved]
        return self.columns

    def point(self, theta):
        """mu, d mu / d theta (bins x free parameters) and the non-zero
        d2 mu / d theta_i d theta_j as (i, j, per-bin vector) at theta,
        from one call of at."""
        theta = np.asarray(theta, dtype=float)
        columns = self.at(theta[self.centroid_idx])
        jac = np.empty((columns.shape[0], theta.size))
        jac[:, self.linear_idx] = columns
        jac[:, self.centroid_idx] = self.first * theta[self.amplitude_idx]
        terms = []
        for k, (i, a) in enumerate(zip(self.centroid_idx, self.amplitude_idx)):
            terms.append((i, i, theta[a] * self.second[:, k]))
            terms.append((i, a, self.first[:, k]))
        return self.base + columns @ theta[self.linear_idx], jac, terms


# ---------------------------------------------------------------------------
# fits


@dataclass
class FitResult:
    values: np.ndarray
    statistic: float
    n_evaluations: int

    def by_name(self, problem: FitProblem) -> dict:
        return {problem.parameter_name(ref): float(v)
                for ref, v in zip(problem.free, self.values)}


def fit_minimize(problem: FitProblem, *, seed: int = 0) -> FitResult:
    """Minimize the fit statistic exactly.

    A linear problem is solved in one call: weighted least squares for
    chi-square, the signal clipped at zero with the nuisances solved at
    that signal (the parabola is convex with one bound), on the
    problem's least-squares core, which its uncertainties and limit
    then read rather than build again, and damped
    Newton for the convex Poisson NLL, the signal held at zero when its
    free optimum falls below. A design the solve cannot invert raises
    FitError. With one or two free line centroids the fit is a variable
    projection: the linear parameters are solved exactly at each
    centroid value, the centroids start near the best point of a grid
    about FWHM / 4 apart, whose unit line columns are built once per
    grid object and response, at the vertex of the parabola through the
    grid's scores along each, and a damped Newton iteration on the
    reduced statistic refines them inside the fit window; its
    evaluations count the grid tuples and the inner solves. The grid and
    every trial solve share one _Projection of the fit's counts, whose
    statics are projected out once per fit. A fit that cannot converge
    raises FitError. seed selects nothing; it is kept for callers that
    pass it.
    """
    return _global_fit(problem)[0]


def _global_fit(problem: FitProblem):
    """fit_minimize's fit, from which a limit's profile also starts: the
    FitResult, a Counter of the profile points it solved and the Newton
    iterations it took, and the _Projection it built (None if linear)."""
    design = problem._design
    counts, space = Counter(newton_iterations=0, profile_points=0), None  # metadata order
    if not design.linear:
        space = _Projection(problem)
        start = problem.initial_values()
        start[design.centroid_idx], n_grid = _grid_start(space)
        values, stat, solves, iterations = _reduced_newton(space, start)
        counts.update(newton_iterations=iterations, profile_points=1)
        return FitResult(values, stat, n_grid + solves), counts, space
    try:
        if problem.statistic == "chi2":
            core = problem._core
            values = core.values_at(max(core.best_signal(), 0.0))
            stat = _chi2_from_mu(problem.observed, design.base + design.columns @ values)
        else:
            x, nll = _poisson_solve(problem, None, None, "the fit", counts)[:2]
            values, stat = x[0], float(nll[0])
    except DegenerateMapError as err:  # a design the solve cannot invert fails the fit
        raise FitError(str(err)) from err
    return FitResult(values, stat, 1), counts, space


def _curvature(problem: FitProblem, theta: np.ndarray):
    """Gradient and Hessian of l = chi2 / 2, or of the Poisson NLL, at theta.

    The Hessian is exact: J^T diag(d2l/dmu2) J plus sum_i dl/dmu_i
    d2mu_i / dtheta^2, whose second term only free centroids make
    non-zero. Its inverse is the covariance for either statistic. mu and
    both derivatives come from one design.point.
    """
    observed = problem.observed
    mu, jac, terms = problem._design.point(theta)
    if problem.statistic == "chi2":
        variance = _variance_floor(observed)
        dl_dmu = (mu - observed) / variance
        hess = jac.T @ (jac / variance[:, None])
    else:
        dl_dmu, hess = poisson_curvature(observed, jac, mu)
    for i, j, d2mu in terms:
        term = dl_dmu @ d2mu
        hess[i, j] += term
        if i != j:
            hess[j, i] += term
    return dl_dmu @ jac, hess


def parameter_uncertainties(problem: FitProblem, values: np.ndarray) -> np.ndarray:
    """One-sigma uncertainties from the statistic's exact curvature.

    The covariance is the inverse Hessian of chi2 / 2 or of the
    Poisson NLL: (A^T W A)^-1 and (A^T diag(n/mu^2) A)^-1 for linear
    problems, with the residual-weighted second derivatives of mu added
    for free centroids; values holds one per free parameter, else
    ShapeError. A linear chi-square Hessian is constant, so the
    values are not read there: the covariance is the inverse normal
    matrix of the problem's least-squares core, the one its fit and
    limit solve with, and a design that core cannot solve (a signal
    column that vanishes, dependent columns) raises FitError. A Poisson
    Hessian that jacobi_scaled calls singular (an empty bin pins a
    direction no bin with counts curves) raises FitError, as the Newton
    profile treats it; a free-centroid chi-square weights every bin, so
    only np.linalg.inv judges its curvature.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(problem.free),):
        raise ShapeError(f"{len(problem.free)} parameter values expected, got {values.shape}")
    if _solver_for(problem) == "exact-gaussian":
        try:
            cov = problem._core.cov[0]
        except DegenerateMapError as err:
            raise FitError(str(err)) from err
    else:
        _, hess = _curvature(problem, values)
        if problem.statistic == "poisson_nll" and jacobi_scaled(hess)[2]:
            raise FitError("singular curvature matrix: a direction that no bin with counts "
                           "curves")
        try:
            cov = np.linalg.inv(hess)
        except np.linalg.LinAlgError as err:
            raise FitError(f"singular curvature matrix: {err}") from err
    diag = np.diag(cov)
    if np.any(diag <= 0):
        raise FitError("curvature matrix is not positive definite at the minimum")
    return np.sqrt(diag)


# ---------------------------------------------------------------------------
# exact linear solves, and variable projection over free line centroids
# (Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973) 413): every other free
# parameter is linear and solved exactly at each centroid value, leaving
# a problem in 1-2 centroids


def _poisson_starts(problem: FitProblem, signals, starts):
    """The candidate starts of _poisson_solve, rows of linear parameters,
    in order: starts (None for none), the weighted least-squares values
    at each row's signal (the free signal clipped at zero), unless the
    design cannot give them, and the template's. _poisson_solve scores
    the candidate it picks, so these need only lie inside the domain.
    A linear design reads the problem's own core, so its free fit and
    its fit held at zero share one; a free-centroid trial builds a core
    at the design's current centroids."""
    if starts is not None:
        yield starts
    design = problem._design
    try:
        core = (problem._core if design.linear else
                _core_from_fit_problem(problem, problem.observed))
    except (FitError, DegenerateMapError):
        pass  # a singular least-squares core: Newton names the cause
    else:
        if signals is None:
            signals = np.array([max(core.best_signal(), 0.0)])
        yield core.values_at(signals)
    yield problem.initial_values()[design.linear_idx][None]


def _poisson_solve(problem: FitProblem, signals, starts, where, counts):
    """The linear parameters minimizing the Poisson NLL at the design's
    current centroids, the NLL, the empty bins held at mu = 0 (the
    working set of minimize_linear_poisson, a mask of bins) and whether
    the signal is held: a row per held value of the array signals, or
    one row with the signal free for signals None. A free signal that
    falls below zero is solved again held there, from the same starts
    (the NLL is convex: the bounded optimum has the signal at zero).

    A held row that leaves a bin with counts at mu <= 0 where every
    free column is 0 lies outside the Poisson domain for any values of
    the free parameters: its NLL is +inf, with no Newton solve and no
    bin held, at the template's values. A held signal with no other linear
    parameter is this rule with no free column, its NLL its own. Every
    other row starts from the first of _poisson_starts inside the
    domain, moved by one Fisher scoring step (newton.scoring_step, which
    keeps a start it cannot improve inside the domain); a row that no
    candidate puts inside raises FitError, naming where. Counts the rows
    into counts["profile_points"] and the Newton iterations into
    counts["newton_iterations"], a free signal's second solve included.
    This is the one caller of scoring_step and minimize_linear_poisson,
    which share the one LinearPoisson it builds at each call.
    """
    design = problem._design
    observed, columns = problem.observed, design.columns
    pos = design.signal_column
    held = signals is not None
    keep = [p for p in range(columns.shape[1]) if not held or p != pos]
    offsets = design.base + signals[:, None] * columns[:, pos] if held else design.base[None]
    counts["profile_points"] += len(offsets)

    def where_row(i):
        return f"signal = {float(signals[i])!r}, {where}" if held else where

    if not keep:
        return (signals[:, None], poisson_nll(observed, offsets),
                np.zeros(offsets.shape, dtype=bool), True)
    cols = columns[:, keep]
    system = LinearPoisson.of(observed, cols)
    x = np.full((len(offsets), columns.shape[1]), np.nan)  # nan: no start inside yet
    rows = None  # the rows that Newton solves, where not every row
    if held:
        unreached = (observed > 0) & ~cols.any(axis=1)
        if unreached.any():
            outside = np.any(offsets[:, unreached] <= 0.0, axis=1)
            x[outside] = problem.initial_values()[design.linear_idx]
            rows = np.flatnonzero(~outside)
    for candidate in _poisson_starts(problem, signals, starts):
        inside = in_poisson_domain(observed, offsets + candidate[:, keep] @ cols.T)
        x = np.where((inside & np.isnan(x[:, 0]))[:, None], candidate, x)
        if not np.isnan(x[:, 0]).any():
            break
    else:
        raise FitError(f"no feasible start for the linear parameters at "
                       f"{where_row(int(np.argmax(np.isnan(x[:, 0]))))}")
    if rows is None:
        x[:, keep], nll, iterations, bins = minimize_linear_poisson(
            system, offsets, scoring_step(system, offsets, x[:, keep]), where_row)
    else:
        nll, bins, iterations = np.full(len(offsets), np.inf), np.zeros(offsets.shape, bool), 0
        if rows.size:
            solved = np.ix_(rows, keep)
            x[solved], nll[rows], iterations, bins[rows] = minimize_linear_poisson(
                system, offsets[rows], scoring_step(system, offsets[rows], x[solved]),
                lambda i: where_row(rows[i]))
    counts["newton_iterations"] += iterations
    if held:
        x[:, pos] = signals
    elif not x[0, pos] >= 0.0:
        return _poisson_solve(problem, np.zeros(1), starts, where, counts)
    return x, nll, bins, held


def _reduced_curvature(problem: FitProblem, theta, held, held_bins):
    """Gradient and Hessian over the centroids of the Poisson NLL, with
    the linear parameters re-solved at each centroid (the chi-square's
    come from _Projection.solve's workspace).

    held and held_bins are what _poisson_solve returned at theta: the
    linear parameters the inner solve leaves free are those other than
    a held signal, and the empty bins held_bins, its working set at
    mu = 0 (linearly independent rows), constrain them. The gradient is
    the centroid part of the Lagrangian's gradient, its multipliers
    fitted to the linear part (envelope theorem), and the Hessian the
    Schur complement of the Lagrangian's Hessian over the linear
    directions the held bins leave free, in least squares where no bin
    with counts curves one of them.
    """
    design = problem._design
    cidx = design.centroid_idx
    linear = [i for i in design.linear_idx if not (held and i == problem.signal_index())]
    score, hess = _curvature(problem, theta)
    if held_bins.size:
        _, jac, terms = design.point(theta)
        rows = jac[held_bins]
        multipliers = np.linalg.solve(rows[:, linear] @ rows[:, linear].T,
                                      rows[:, linear] @ score[linear])
        score = score - multipliers @ rows
        for i, j, d2mu in terms:
            term = multipliers @ d2mu[held_bins]
            hess[i, j] -= term
            if i != j:
                hess[j, i] -= term
    n = len(linear)
    hess = hess[np.ix_(linear + cidx, linear + cidx)]
    h_ll, h_lc, h_cc = hess[:n, :n], hess[:n, n:], hess[n:, n:]
    gradient = score[cidx]
    if held_bins.size:
        # tangent coordinates: d theta[linear] = follow @ d centroids +
        # inner @ w keeps the held bins at zero
        inner = np.linalg.svd(rows[:, linear])[2][held_bins.size:].T
        follow = -np.linalg.pinv(rows[:, linear]) @ rows[:, cidx]
        h_lc = h_ll @ follow + h_lc
        h_cc = h_cc + follow.T @ h_lc + hess[n:, :n] @ follow
        gradient = gradient + follow.T @ score[linear]
        h_ll, h_lc = inner.T @ h_ll @ inner, inner.T @ h_lc
    if not h_ll.size:
        return gradient, h_cc
    if jacobi_scaled(h_ll)[2]:
        return gradient, h_cc - h_lc.T @ np.linalg.lstsq(h_ll, h_lc, rcond=None)[0]
    return gradient, h_cc - h_lc.T @ np.linalg.solve(h_ll, h_lc)


def _descent_step(reduced, gradient):
    """Newton step on the absolute eigenvalues of the reduced Hessian,
    floored at 1e-8 of the largest, so that an indefinite one descends."""
    eigenvalues, vectors = np.linalg.eigh(reduced)
    magnitude = np.abs(eigenvalues)
    magnitude = np.maximum(magnitude, max(1e-8 * magnitude.max(initial=0.0), 1e-12))
    return -vectors @ ((vectors.T @ gradient) / magnitude)


def _reduced_newton(space: "_Projection", start, signal=None):
    """Minimize the statistic over the centroids, the linear parameters
    solved exactly at each, from the centroids of start.

    Each trial is one space.solve, which returns the reduced gradient
    and Hessian with the statistic; the Poisson solve is warm-started
    from the last accepted parameters. Steps are _descent_step's, move a
    centroid by at most FWHM / 4, stop at the edge of the fit window,
    are backtracked until the statistic falls, and may not reorder the
    lines; a trial whose solve raises counts as failed. A centroid on
    the window's edge that the step pushes outwards is held there, out
    of the step and out of the stop test. Stops once the predicted
    decrease falls below 1e-12 (1 + |stat|), or at the start where its
    statistic is +inf. Returns the parameters, the statistic, the
    number of inner solves and Newton iterations.
    """
    design = space.design
    k = 2.0 if space.problem.statistic == "chi2" else 1.0  # statistic = k * l, l = chi2 / 2
    cidx = design.centroid_idx
    lo, hi = design.window
    edge = 1e-12 * (hi - lo)
    theta, stat, gradient, reduced = space.solve(start[cidx], start, signal)
    solves = 1
    if stat == np.inf:  # the held signal leaves counts that no free column reaches
        return theta, stat, solves, 0
    for iteration in range(_NEWTON_MAX_ITER + 1):
        centroids = theta[cidx]
        at_lo, at_hi = centroids <= lo + edge, centroids >= hi - edge
        move = np.ones(len(cidx), dtype=bool)
        step = _descent_step(reduced, gradient)
        while np.any(outwards := (at_lo & (step < 0)) | (at_hi & (step > 0))):
            move &= ~outwards
            step = np.zeros(len(cidx))
            step[move] = _descent_step(reduced[np.ix_(move, move)], gradient[move])
        decrement = -gradient @ step
        if k * decrement <= 2.0 * _NEWTON_RTOL * (1.0 + abs(stat)):
            return theta, stat, solves, iteration
        if iteration == _NEWTON_MAX_ITER:
            break
        step = step * min(1.0, design.spacing / np.abs(step).max())
        slope = k * (gradient @ step)
        t = 1.0
        outside = (centroids + step < lo) | (centroids + step > hi)
        if outside.any():  # the step stops at the window's edge
            room = np.where(step > 0, hi - centroids, lo - centroids)
            t = float(np.min(room[outside] / step[outside]))
        for _ in range(60):
            trial_centroids = np.clip(centroids + t * step, lo, hi)
            if len(cidx) < 2 or design.order * (trial_centroids[1] - trial_centroids[0]) > 0:
                try:
                    trial = space.solve(trial_centroids, theta, signal)
                except (FitError, DegenerateMapError):
                    trial = None
                solves += 1
                if trial is not None and trial[1] <= stat + 1e-4 * t * slope:
                    theta, stat, gradient, reduced = trial
                    break
            t *= 0.5
        else:
            raise FitError(f"centroid line search failed at {list(map(float, centroids))!r}")
    raise FitError(f"centroid Newton iteration did not converge in {_NEWTON_MAX_ITER} steps")


def _static_basis(statics: np.ndarray):
    """An orthonormal basis of the span of the static columns, their
    pseudo-inverse, which maps a residual to their coefficients, and
    whether they are linearly independent (singular values above 1e-12
    of the largest)."""
    if not statics.shape[1]:
        return np.zeros((statics.shape[0], 0)), np.zeros((0, statics.shape[0])), True
    u, s, vt = np.linalg.svd(statics, full_matrices=False)
    keep = s > 1e-12 * s[0]
    u = u[:, keep]
    return u, (vt[keep].T / s[keep]) @ u.T, bool(keep.all())


def _small_inverse(gram: np.ndarray, centroids) -> np.ndarray:
    """The inverse of a 0 x 0, 1 x 1 or 2 x 2 Gram of line columns in
    closed form; FitError where it is singular."""
    k = gram.shape[0]
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0] if k == 2 else (
        gram[0, 0] if k else 1.0)
    if not det > 0.0:
        raise FitError(f"degenerate signal/nuisance basis: singular line columns at centroids "
                       f"{list(map(float, centroids))!r}")
    if k == 2:
        return np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    return 1.0 / gram


class _Projection:
    """One problem's observed counts in weighted least-squares form, with
    the columns that no free centroid moves (the statics) projected out
    once: variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10
    (1973) 413; O'Leary & Rust, Comput. Optim. Appl. 54 (2013) 579).

    Holds the Neyman root weights 1 / sqrt(max(n, 1)), the weighted data
    y less the base, the weighted statics, an orthonormal basis of their
    span and their pseudo-inverse, and, for a static signal, a second
    basis and pseudo-inverse without it, for the signal held. Built once
    per fit or limit and never kept on the problem: _grid_start scores
    its grid on it for either statistic, and each trial of
    _reduced_newton is one solve. inner counts the rows and Newton
    passes of the Poisson trial solves.
    """

    def __init__(self, problem: FitProblem):
        design = problem._design
        self.problem, self.design = problem, design
        self.root_weights = 1.0 / np.sqrt(_variance_floor(problem.observed))
        self.y = (problem.observed - design.base) * self.root_weights
        static = design.static_columns
        self.static_idx = [design.linear_idx[p] for p in static]
        self.statics = design.columns[:, static] * self.root_weights[:, None]
        self.basis, self.pinv, self.independent = _static_basis(self.statics)
        self.y_out = self.project(self.y)
        pos = design.signal_column
        self.line_signal = pos in design.line_columns
        # the signal's index among the lines or among the statics
        self.signal = design.line_columns.index(pos) if self.line_signal else static.index(pos)
        if not self.line_signal:
            self.held_basis, self.held_pinv, _ = _static_basis(
                np.delete(self.statics, self.signal, axis=1))
            self.held_y_out = self.project(self.y, held=True)
            self.held_signal_out = self.project(self.statics[:, self.signal], held=True)
        self.label = problem.parameter_name(problem.signal)
        self.inner = Counter()

    def project(self, v: np.ndarray, held: bool = False) -> np.ndarray:
        """v less its least-squares fit by the statics, or by the statics
        other than a static signal held."""
        basis = self.held_basis if held else self.basis
        return v - basis @ (basis.T @ v)

    def solve(self, centroids, start=None, signal=None):
        """One trial of _reduced_newton: the full parameter vector at the
        given centroids, its linear parameters minimizing the statistic
        with the signal clipped at zero (signal None) or held at a value,
        the statistic, and the gradient and Hessian over the centroids of
        l = chi2 / 2 or of the Poisson NLL (None where it is +inf). The
        Poisson NLL's come from one _poisson_solve, warm-started from the
        linear values of start (None for none) and counted into inner,
        and from _reduced_curvature; the chi-square's from _solve. A
        chi-square signal column that vanishes raises DegenerateMapError,
        statics that are linearly dependent or a singular line Gram
        FitError.
        """
        problem, design = self.problem, self.design
        if problem.statistic == "poisson_nll":
            design.at(centroids)
            linear = design.linear_idx
            theta = np.zeros(len(problem.free)) if start is None else np.array(start, dtype=float)
            theta[design.centroid_idx] = centroids
            x, nll, bins, held = _poisson_solve(
                problem, None if signal is None else np.array([float(signal)]),
                None if start is None else theta[linear][None],
                f"centroids {list(map(float, centroids))!r}", self.inner)
            theta[linear], stat = x[0], float(nll[0])
            if stat == np.inf:
                return theta, stat, None, None
            return (theta, stat) + _reduced_curvature(problem, theta, held,
                                                      np.flatnonzero(bins[0]))
        lines = design.at(centroids)[:, design.line_columns] * self.root_weights[:, None]
        column = lines[:, self.signal] if self.line_signal else self.statics[:, self.signal]
        if not column.any():
            raise DegenerateMapError(f"signal shape for {self.label!r} vanishes on the fit window")
        if not self.independent:
            raise FitError("degenerate nuisance basis: the columns that no free centroid "
                           "moves are linearly dependent")
        return self._solve(centroids, lines, None if signal is None else float(signal))

    def _solve(self, centroids, lines, signal):
        """solve's chi-square on the workspace, the signal None (free) or
        held: the line columns projected, their amplitudes solved in
        closed form, the statics recovered by the pseudo-inverse, and a
        free signal below zero solved again held there. With r the
        weighted residual, a_k the amplitudes and d1_k, d2_k the weighted
        centroid derivatives of the line columns, the reduced gradient is
        the envelope -a_k d1_k . r, and the Hessian the Schur complement
        over the fitted amplitudes of the Hessian with the statics
        projected out: J^T J - diag(a_k d2_k . r) in the centroids, with
        J = a_k (d1_k less its statics fit), and L^T J - diag(d1_k . r)
        between the fitted lines' projected columns L and the centroids.
        """
        static_held = signal is not None and not self.line_signal
        if static_held:
            basis, pinv = self.held_basis, self.held_pinv
            target = self.held_y_out - signal * self.held_signal_out
        else:
            basis, pinv, target = self.basis, self.pinv, self.y_out
        projected = lines - basis @ (basis.T @ lines)
        amplitudes = np.zeros(lines.shape[1])
        free = list(range(lines.shape[1]))
        if signal is not None and self.line_signal:
            free.remove(self.signal)
            amplitudes[self.signal] = signal
            target = target - signal * projected[:, self.signal]
        columns = projected[:, free]
        inverse = _small_inverse(columns.T @ columns, centroids)
        amplitudes[free] = inverse @ (columns.T @ target)
        residual = target - columns @ amplitudes[free]
        rest = self.y - lines @ amplitudes
        if static_held:
            statics = np.insert(pinv @ (rest - signal * self.statics[:, self.signal]),
                                self.signal, signal)
        else:
            statics = pinv @ rest
        design = self.design
        theta = np.empty(len(self.problem.free))
        theta[design.centroid_idx] = centroids
        theta[design.amplitude_idx] = amplitudes
        theta[self.static_idx] = statics
        if signal is None and not theta[self.problem.signal_index()] >= 0.0:
            # the chi-square is convex: the bounded optimum has the signal at zero
            return self._solve(centroids, lines, 0.0)
        weights = self.root_weights[:, None]
        first, second = design.first * weights, design.second * weights
        first_r, second_r = first.T @ residual, second.T @ residual
        moved = (first - basis @ (basis.T @ first)) * amplitudes
        h_cc = moved.T @ moved - np.diag(amplitudes * second_r)
        h_lc = columns.T @ moved
        h_lc[range(len(free)), free] -= first_r[free]
        return (theta, float(residual @ residual), -amplitudes * first_r,
                h_cc - h_lc.T @ inverse @ h_lc)


def _tuple_scorer(lines: np.ndarray, y: np.ndarray):
    """A function of tuples (rows) of one or two line columns that
    gives the residual sum of squares of y and the amplitudes of its
    least-squares fit by each tuple, in closed form over one Gram.
    Jacobi scaled with a tiny ridge, so a degenerate tuple stays
    solvable; the grid only picks the Newton start."""
    total = float(y @ y)
    gram = lines.T @ lines
    d = np.sqrt(np.diagonal(gram))
    d = np.where(d > 0, d, 1.0)
    scaled = gram / (d[:, None] * d[None, :])
    diagonal = np.diagonal(scaled) + 1e-12
    b = (lines.T @ y) / d

    def score(tuples):
        i = tuples[:, 0]
        if tuples.shape[1] == 1:
            x = b[i] / diagonal[i]
            return total - x * b[i], (x / d[i])[:, None]
        j = tuples[:, 1]
        g_ii, g_jj, g_ij = diagonal[i], diagonal[j], scaled[i, j]
        det = g_ii * g_jj - g_ij * g_ij
        x_i = (g_jj * b[i] - g_ij * b[j]) / det
        x_j = (g_ii * b[j] - g_ij * b[i]) / det
        return (total - (x_i * b[i] + x_j * b[j]),
                np.column_stack([x_i / d[i], x_j / d[j]]))
    return score


@lru_cache(maxsize=1)
def _grid_lines(grid: EnergyGrid, response, n_points: int, n_lines: int, order: float):
    """_grid_start's data-free part: the grid points, each one's unit line
    column (bins x points, the transpose of _gaussian_bin_fractions'
    layout) and the index tuples of one or two points, in the template's
    centroid order, all read-only. They depend on the grid, the response
    and the grid size alone, so repeated fits on one grid object build
    them once; one entry holds one grid's columns, as a fit did anyway."""
    points = grid.lo_kev + (np.arange(n_points) + 0.5) * (grid.hi_kev - grid.lo_kev) / n_points
    points = points[points > 0]
    sigmas = np.array([response.sigma_at(p) for p in points])
    unit = _gaussian_bin_fractions(grid.bin_edges, points[:, None], sigmas[:, None]).T
    if n_lines == 1:
        tuples = np.arange(points.size)[:, None]
    else:
        first, second = np.triu_indices(points.size, 1)
        tuples = np.column_stack([first, second] if order > 0 else [second, first])
    points.flags.writeable = unit.flags.writeable = tuples.flags.writeable = False
    return points, unit, tuples


def _grid_start(space: _Projection):
    """Newton's start: the best tuple of a weighted least-squares grid of
    centroids about FWHM / 4 apart across the window, in the template's
    centroid order, each centroid moved by at most half a grid step to
    the vertex of the parabola through the tuple's score and its two
    grid neighbours' along it (Brent, 1973, ch. 5), unless a neighbour
    is off the grid or out of order or the parabola is not convex.

    The grid's unit line columns come from _grid_lines, built once per
    grid object, response and grid size; only their weighting by the
    fit's efficiency and root weights is per fit. The workspace has the
    columns no free centroid moves (the statics) projected out; each
    grid tuple is then a closed-form 1 x 1 or 2 x 2 solve over the
    reduced Gram of the grid's line columns. A tuple whose signal comes
    out negative is scored with the signal held at zero, as in the exact
    fit: without its line (the other line's score, one per grid point),
    or, for a static signal, over the projection that leaves the signal
    out. Returns the centroids and the number of tuples.
    """
    problem, design = space.problem, space.design
    grid = problem.grid
    n_points = max(int(np.ceil((grid.hi_kev - grid.lo_kev) / design.spacing)),
                   len(design.line_columns))
    points, unit, tuples = _grid_lines(grid, design.response, n_points,
                                       len(design.line_columns), design.order)
    lines = unit * (design.eff * space.root_weights)[:, None]
    score = _tuple_scorer(space.project(lines), space.y_out)
    stat, amplitudes = score(tuples)
    k = space.signal
    if space.line_signal:
        clipped = amplitudes[:, k] < 0
        if tuples.shape[1] == 2:  # the other line alone, scored once per grid point
            stat[clipped] = score(np.arange(points.size)[:, None])[0][tuples[clipped, 1 - k]]
        else:  # no line left: the statics' fit
            stat[clipped] = float(space.y_out @ space.y_out)
    else:
        signal = (space.pinv[k] @ space.y
                  - np.sum((space.pinv[k] @ lines)[tuples] * amplitudes, axis=1))
        clipped = signal < 0
        if clipped.any():
            held = _tuple_scorer(space.project(lines, held=True), space.held_y_out)
            stat[clipped] = held(tuples[clipped])[0]
    best = tuples[int(np.argmin(stat))]
    # each tuple's score at its grid indices, +inf off the grid and out of order
    table = np.full((points.size + 2,) * best.size, np.inf)
    table[tuple(tuples.T + 1)] = stat
    steps = np.eye(best.size, dtype=int)
    lower, upper = (table[tuple((best + 1 + d * steps).T)] for d in (-1, 1))
    curvature = lower - 2.0 * stat.min() + upper
    bend = (curvature > 0.0) & (curvature < np.inf)
    vertex = points[best]
    shift = np.clip((lower[bend] - upper[bend]) / (2.0 * curvature[bend]), -0.5, 0.5)
    # a line never moves towards the other from the next grid point, so
    # two lines stay at least a grid step apart and in order
    vertex[bend] += shift * (grid.hi_kev - grid.lo_kev) / n_points
    return vertex, len(tuples)


# ---------------------------------------------------------------------------
# upper limits


@dataclass
class LimitResult:
    """Upper bound on one parameter with the profiled-statistic scan."""

    parameter: str
    confidence_level: float
    upper_bound: float
    scan: np.ndarray  # columns: parameter value, profiled statistic
    method: str
    metadata: dict = field(default_factory=dict)


@dataclass
class GaussianResidualProblem:
    """Gaussian-error measurements with a linear signal shape.

    Covers residual spectra (and, with a single bin of unit sigma, the
    textbook truncated-Gaussian counting measurement).
    """

    values: np.ndarray
    sigmas: np.ndarray
    signal_shape: np.ndarray
    name: str = "signal"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        self.signal_shape = np.asarray(self.signal_shape, dtype=float)
        if self.values.shape != self.sigmas.shape or self.values.shape != self.signal_shape.shape:
            raise ShapeError("values, sigmas and signal shape must have equal length")
        if np.any(self.sigmas <= 0):
            raise DomainError("all sigmas must be positive")


class _LinearGaussianCore:
    """Weighted least squares of one or more rows of data on one design,
    shared by every row: bins x k columns in the design's order, the
    signal's at index signal.

    y and variance hold one row per data set (a 1-D array is one row).
    The inverses of all rows' k x k normal matrices come from one
    stacked call, so a batch of chi-square toys costs one. A row's
    profiled chi-square is exactly the parabola chi2_min + (s - shat)^2
    / sigma^2 with sigma^2 the signal's entry of the inverse, and its
    nuisances at s are their conditional mean. A signal column that
    vanishes raises DegenerateMapError and a singular system FitError,
    naming the basis that fails: both belong to the design, so they
    fail every row alike.
    """

    def __init__(self, y, variance, columns, signal, label):
        self.y = np.atleast_2d(np.asarray(y, dtype=float))
        self.w = 1.0 / np.atleast_2d(np.asarray(variance, dtype=float))
        self.columns = np.asarray(columns, dtype=float)
        self.signal = signal
        self.label = label
        if not np.any(self.columns[:, signal] != 0):
            raise DegenerateMapError(
                f"signal shape for {label!r} vanishes on the fit window"
            )
        weighted = self.columns.T * self.w[:, None, :]  # rows x k x bins
        gram = weighted @ self.columns
        try:
            self.cov = np.linalg.inv(gram)
        except np.linalg.LinAlgError as err:
            nuisances = [p for p in range(gram.shape[1]) if p != signal]
            try:
                np.linalg.inv(gram[:, nuisances][:, :, nuisances])
            except np.linalg.LinAlgError:
                raise FitError(f"degenerate nuisance basis: {err}") from err
            raise FitError(f"degenerate signal/nuisance basis: {err}") from err
        self.theta = (self.cov @ (weighted @ self.y[:, :, None]))[:, :, 0]

    def best_signal(self, row: int = 0) -> float:
        """The unclipped least-squares signal."""
        return float(self.theta[row, self.signal])

    def signal_and_sigma(self, row: int = 0):
        """The unclipped signal and the parabola's exact 1-sigma width."""
        shat = self.best_signal(row)
        variance = float(self.cov[row, self.signal, self.signal])
        if not (math.isfinite(shat) and math.isfinite(variance) and variance > 0):
            raise DegenerateMapError(f"flat profiled statistic for {self.label!r}")
        return shat, math.sqrt(variance)

    def values_at(self, signal, row: int = 0) -> np.ndarray:
        """The parameters with the signal held at the given value and the
        nuisances at their conditional mean, one row per value for an
        array of signals."""
        cov, theta, pos = self.cov[row], self.theta[row], self.signal
        shift = np.asarray(signal, dtype=float)[..., None] - theta[pos]
        values = theta + cov[:, pos] / cov[pos, pos] * shift
        values[..., pos] = signal
        return values

    def chi2_min(self, row: int = 0) -> float:
        """The chi-square at the unclipped least-squares point."""
        resid = self.y[row] - self.columns @ self.theta[row]
        return float(np.sum(self.w[row] * resid * resid))


def _core_from_fit_problem(problem: FitProblem, observed: np.ndarray):
    """The Gaussian core of the problem's linear parameters at its
    design's current centroids, for the given observed counts, one row
    per spectrum. The columns go in Fortran-ordered: BLAS rounds the
    normal matrices by memory layout, and the chi-square results keep
    the last bits of this one."""
    design = problem._design
    return _LinearGaussianCore(
        y=observed - design.base,
        variance=_variance_floor(observed),
        columns=np.asfortranarray(design.columns),
        signal=design.signal_column,
        label=problem.parameter_name(problem.signal),
    )


def _core_from_residual_problem(problem: GaussianResidualProblem):
    # the signal's column as np.column_stack lays it out: BLAS rounds by
    # memory layout, and the pep bound keeps the last bits of this one
    return _LinearGaussianCore(
        y=problem.values,
        variance=problem.sigmas ** 2,
        columns=np.column_stack([problem.signal_shape]),
        signal=0,
        label=problem.name,
    )


def _solver_for(problem: FitProblem) -> str:
    """The solver for the fit, the uncertainties and the profile: linear
    problems are solved exactly ("exact-gaussian" for chi2, "newton" for
    the Poisson NLL), one or two free centroids by "projection"."""
    if problem._design.linear:
        return "exact-gaussian" if problem.statistic == "chi2" else "newton"
    return "projection"


def _log_mills_ratio(x: float) -> float:
    """log R(x), R(x) = Q(x) / phi(x) the normal tail over the density,
    from its continued fraction 1 / (x + 1 / (x + 2 / (x + ...))): for
    x >= 30 forty terms leave it exact to rounding."""
    r = x
    for k in range(40, 0, -1):
        r = x + k / r
    return -math.log(r)


def _deep_deficit_quantile(x: float, cl: float) -> float:
    """t with Q(x + t) = (1 - cl) Q(x), for x = -shat / sigma >= 30.

    In logs: g(t) = log R(x + t) - log R(x) - x t - t^2 / 2 - log(1 - cl)
    = 0. g falls with slope -1 / R(x + t) and is concave, so Newton's
    method from the first-order root -log(1 - cl) / x, where g < 0,
    descends monotonically onto the root.
    """
    target = math.log1p(-cl)
    log_r0 = _log_mills_ratio(x)
    t = -target / x
    for _ in range(50):
        log_r = _log_mills_ratio(x + t)
        step = (log_r - log_r0 - x * t - 0.5 * t * t - target) * math.exp(log_r)
        t += step
        if abs(step) <= 1e-15 * t:
            break
    return t


# Wichura's AS241 (PPND16) rational approximations of Phi^-1, numerator
# and denominator coefficients highest power first: for |p - 0.5| <= 0.425,
# then in r = sqrt(-log(min(p, 1 - p))) - 1.6 for r <= 5, and r - 5 beyond
_AS241 = (
    ((2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
      4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
      1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
     (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
      2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
      4.23133_30701_60091_1252e+1, 1.0)),
    ((7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
      1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
      4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
     (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
      1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
      2.05319_16266_37758_82187e+0, 1.0)),
    ((2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
      2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
      5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
     (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
      7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
      5.99832_20655_58879_37690e-1, 1.0)),
)


def _horner(coefficients, r: float) -> float:
    value = 0.0
    for c in coefficients:
        value = value * r + c
    return value


def _normal_quantile(p: float) -> float:
    """Phi^-1(p) for 0 < p < 1 by AS241 (Wichura, Appl. Statist. 37 (1988)
    477), in the operation order of CPython 3.11's NormalDist.inv_cdf,
    whose results it repeats bit for bit without importing statistics."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241[0]
        return _horner(num, r) * q / _horner(den, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    num, den = _AS241[1] if r <= 5.0 else _AS241[2]
    r = r - 1.6 if r <= 5.0 else r - 5.0
    x = _horner(num, r) / _horner(den, r)
    return -x if q < 0.0 else x


def _truncated_gaussian_upper(shat: float, sigma: float, cl: float) -> float:
    """Quantile cl of N(shat, sigma^2) truncated to s >= 0: the flat-prior
    bound of a linear Gaussian problem.

    Upper-tail form u = shat - sigma Phi^-1((1 - cl) Phi(shat / sigma)),
    which keeps its digits for shat << 0. Where (1 - cl) Phi(shat / sigma)
    is no longer a normal float (shat / sigma below about -37), the bound
    is sigma t from the log-space root of _deep_deficit_quantile.
    """
    z = shat / sigma
    tail = (1.0 - cl) * 0.5 * math.erfc(-z / math.sqrt(2.0))
    if tail >= sys.float_info.min:
        return shat - sigma * _normal_quantile(tail)
    return sigma * _deep_deficit_quantile(-z, cl)


def _exact_gaussian_limit(core: _LinearGaussianCore, cl: float):
    """The closed-form bound of a one-row core, its exact profiled
    parabola sampled at 513 points from zero to 10 sigma above the
    clipped signal, the clipped signal and the chi-square there.

    This is where the range rule of _scan ends: it widens the range by
    1.7 until the posterior tail at its end is below 1e-10, and on the
    exact parabola the tail 10 sigma above the clipped signal is at
    most exp(-50).
    """
    shat, sigma = core.signal_and_sigma()
    chi2_min = core.chi2_min()

    def profiled(s):
        return chi2_min + ((s - shat) / sigma) ** 2

    clipped = max(shat, 0.0)
    s = np.linspace(0.0, clipped + 10.0 * sigma, 513)
    return _truncated_gaussian_upper(shat, sigma, cl), s, profiled(s), clipped, profiled(clipped)


def _profiler(problem: FitProblem):
    """Profiled statistic of a linear Poisson problem, or of a problem
    with free centroids, from _global_fit, fit_minimize's own fit, and
    on its _Projection.

    The solved points, the fit's included, are kept in signal order. A
    linear problem solves a batch of signal values in one _poisson_solve
    from the parameters interpolated between them (np.interp holds the
    end values beyond), each row scored once there before Newton; free
    centroids run _reduced_newton per value from the nearest, their
    trial solves' Newton passes kept as inner_newton_iterations. The scan
    scale is the signal's sigma from the inverse exact Hessian at the
    fit, None when the fit holds the signal at zero (the curvature below
    zero says nothing of the posterior above it) or the Hessian is
    singular (an empty bin pins a parameter no bin with counts curves):
    the scan then brackets the profile's rise.
    """
    idx = problem.signal_index()
    fit, counts, space = _global_fit(problem)
    info = {"profile_solver": _solver_for(problem), **counts}
    theta, stat_min = fit.values, fit.statistic
    known_s, known = theta[idx:idx + 1], theta[None]

    def remember(s, solved):
        nonlocal known_s, known
        order = np.argsort(np.concatenate([known_s, s]), kind="stable")
        known_s = np.concatenate([known_s, s])[order]
        known = np.concatenate([known, solved])[order]

    def pstat(s_values):
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        if space is None:
            starts = np.column_stack([np.interp(s, known_s, column) for column in known.T])
            solved, nll, _, _ = _poisson_solve(problem, s, starts, "the profile", info)
            remember(s, solved)
            return nll
        nll = np.empty(s.size)
        for k in range(s.size):
            start = known[np.argmin(np.abs(known_s - s[k]))]
            solved, nll[k], _, iterations = _reduced_newton(space, start, s[k])
            info["newton_iterations"] += iterations
            info["profile_points"] += 1
            remember(s[k:k + 1], solved[None])
        info["inner_newton_iterations"] = space.inner["newton_iterations"]
        return nll

    sigma = None
    if theta[idx] > 0.0:
        hess = _curvature(problem, theta)[1]
        if not jacobi_scaled(hess)[2]:
            sigma = float(np.sqrt(np.linalg.inv(hess)[idx, idx]))
    return pstat, float(theta[idx]), stat_min, sigma, info


def _posterior_weight(pstat_values: np.ndarray, stat_min: float, statistic: str) -> np.ndarray:
    delta = pstat_values - stat_min
    if statistic == "chi2":
        return np.exp(-0.5 * delta)
    return np.exp(-delta)


@cache
def _cubic_stencil(n_nodes: int):
    """The Lagrange weights of _cubic_fill's scan points for n_nodes
    nodes, and the indices of each point's four nodes, both (4, points).
    The node counts of a scan are 2**j + 1, so few are ever built."""
    position = np.arange(8 * (n_nodes - 1) + 1) / 8.0
    first = np.clip(position.astype(int) - 1, 0, n_nodes - 4)
    u = position - first
    lagrange = np.array([-(u - 1) * (u - 2) * (u - 3) / 6, u * (u - 2) * (u - 3) / 2,
                         -u * (u - 1) * (u - 3) / 2, u * (u - 1) * (u - 2) / 6])
    index = first + np.arange(4)[:, None]
    lagrange.flags.writeable = index.flags.writeable = False
    return lagrange, index


def _cubic_fill(nodes: np.ndarray) -> np.ndarray:
    """The profile at 8 scan points per node interval, each point from the
    cubic through the four nearest nodes (the first and last four at the
    ends), so exact for a cubic profile. A point whose four nodes are not
    all finite takes +inf, zero posterior weight."""
    lagrange, index = _cubic_stencil(nodes.size)
    stencil = nodes[index]
    with np.errstate(invalid="ignore"):
        values = np.sum(lagrange * stencil, axis=0)
    values[~np.all(np.isfinite(stencil), axis=0)] = np.inf
    values[::8] = nodes
    return values


# rungs of the bracketing ladder requested at once: a fit held at zero
# needs about 14 on the benchmark's 4 counts/bin spectra, so 3 requests
_BRACKET_RUNGS = 6


def _profile_at(s, stat_min, label):
    """Request the profile at the signal values s, and return the values
    sent back. A value below stat_min, beyond rounding, means the profile
    found a lower minimum than the global fit did, so the posterior is
    normalised to the wrong peak: that raises ScanRangeError."""
    values = yield s
    if np.any(values < stat_min - 1e-9 * (1.0 + abs(stat_min))):
        k = int(np.argmin(values))
        raise ScanRangeError(
            f"profiled statistic for {label!r} at signal = {float(s[k])!r} is "
            f"{float(values[k])!r}, below the fit's minimum {stat_min!r}: "
            "the profile missed the global fit")
    return values


def _scan(shat, stat_min, statistic, cl, grid_rtol, sigma_hint=None, label="signal"):
    """Adaptive quantile of the truncated posterior exp(-delta_stat / k)
    for the Newton and projection profiles, as a generator: it yields each
    array of signal values it needs the profile at, through _profile_at,
    is sent the values there, and returns the bound, the fill's points
    and its values. It calls no profile; _scan_upper_bound drives it.

    The scan grid runs from zero to s_max in 257, 513, 1025, ... points.
    The profile is requested at every 8th point, the nodes; every other
    point takes the cubic through its four nearest nodes (_cubic_fill).
    The scale sigma is sigma_hint where given, else it brackets the
    profile's rise: the first delta = 1e-3 max(|shat|, 1) 2**j, j < 60,
    at which the profile has risen by at least 1 above stat_min, the
    ladder requested _BRACKET_RUNGS rungs at a time. s_max starts 10
    sigma above the clipped signal. The first level's 65 nodes are one
    request, and they are also the range probe: until the posterior
    weight at the last of them is below 1e-10, s_max grows by 1.7 and a
    fresh set is requested. The scan then compares the 257-point fill
    from the 33 even nodes with the 513-point fill from all 65, and each
    refinement after that requests only the new midpoints, 64, 128, ...
    It stops at the first level where both the bound moved by less than
    grid_rtol and the fill misplaced at most a share grid_rtol of the
    posterior at the new nodes: sum |w(solved) - w(previous fill)| times
    the old node spacing, over the integral of w. The second test
    catches a kink that the bound alone can pass over, such as where an
    empty bin reaches mu = 0 on a sparse spectrum.
    """
    if sigma_hint is not None and np.isfinite(sigma_hint) and sigma_hint > 0:
        sigma = sigma_hint
    else:
        # bracket the rise of the profiled statistic to scale the scan
        ladder = max(abs(shat), 1.0) * 1e-3 * 2.0 ** np.arange(60)
        sigma = None
        for first in range(0, ladder.size, _BRACKET_RUNGS):
            deltas = ladder[first:first + _BRACKET_RUNGS]
            risen = (yield from _profile_at(shat + deltas, stat_min, label)) - stat_min >= 1.0
            if risen.any():
                sigma = float(deltas[np.argmax(risen)])
                break
        if sigma is None:
            raise ScanRangeError(f"profiled statistic for {label!r} is flat; "
                                 "posterior cannot be normalized")

    s_max = max(shat, 0.0) + 10.0 * sigma
    for _ in range(60):
        # the first level's nodes; the last one is the range probe
        nodes = yield from _profile_at(np.linspace(0.0, s_max, 65), stat_min, label)
        if _posterior_weight(nodes[-1:], stat_min, statistic)[0] < 1e-10:
            break
        s_max *= 1.7
    else:
        raise ScanRangeError(f"posterior for {label!r} does not decay on any "
                             "attempted scan range")

    def quantile(nodes):
        """The bound from the cubic fill of nodes on [0, s_max], the fill's
        points and values, their posterior weights and its integral."""
        values = _cubic_fill(nodes)
        s = np.linspace(0.0, s_max, values.size)
        weights = _posterior_weight(values, stat_min, statistic)
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(s) * 0.5 * (weights[1:] + weights[:-1]))])
        norm = cdf[-1]
        if norm <= 0 or not np.isfinite(norm):
            raise ScanRangeError(f"posterior for {label!r} has no integrable mass on the scan")
        return float(np.interp(cl * norm, cdf, s)), s, values, weights, norm

    previous_bound, _, _, previous_weights, _ = quantile(nodes[::2])
    while True:
        bound, s, values, weights, norm = quantile(nodes)
        # the new nodes are every 16th point from the 8th; the previous
        # fill had them every 8th from the 4th, 16 points apart
        misplaced = np.sum(np.abs(weights[8::16] - previous_weights[4::8])) * 16 * s[1] / norm
        if abs(bound - previous_bound) <= grid_rtol * max(bound, 1e-300) \
                and misplaced <= grid_rtol:
            return bound, s, values
        if values.size > 200_000:
            raise ScanRangeError(f"scan for {label!r} failed to stabilize the quantile")
        previous_bound, previous_weights = bound, weights
        refined = np.empty(2 * nodes.size - 1)
        refined[::2] = nodes
        refined[1::2] = yield from _profile_at(np.linspace(0.0, s_max, refined.size)[1::2],
                                               stat_min, label)
        nodes = refined


def _scan_upper_bound(pstat, *args, **kwargs):
    """_scan(*args, **kwargs) driven from one profile: each array of
    signal values it requests goes to pstat, and its values go back."""
    scan = _scan(*args, **kwargs)
    s = next(scan)
    while True:
        values = pstat(s)
        try:
            s = scan.send(values)
        except StopIteration as done:
            return done.value


def bayesian_upper_limit(problem, cl: float, *, seed: int = 0,
                         grid_rtol: float = 1e-3) -> LimitResult:
    """Upper bound at credibility cl with a flat prior on the signal >= 0.

    Background nuisances are profiled exactly. A linear chi-square
    problem, residual or FitProblem, profiles to an exact parabola, so
    its bound is the closed-form truncated-Gaussian quantile and its
    scan that parabola at 513 points. Every other problem goes through
    _profiler, from fit_minimize's own global fit, whose statistic and
    clipped signal are the metadata's statistic_min and best_signal:
    damped Newton for a linear Poisson NLL, each solve started by the
    one rule of _poisson_solve, and variable projection with the signal
    held for free centroids. The scan generator _scan requests that
    profile at every 8th point of a 513, 1025, ... point grid, the first
    65 nodes at once, fills the rest by cubics, and refines until the
    bound moves by less than grid_rtol and the fill misplaced at most
    that share of the posterior; _scan_upper_bound solves each request
    with the profile's pstat. The metadata names the profile solver
    ("exact-gaussian", "newton" or "projection"), and for the last two
    the Newton iterations taken and profile_points, the points at which
    the profile was solved: the global fit, any bracketing, any node
    sets discarded by the range probe, and the scan's nodes. A Newton
    profile's iterations are minimize_linear_poisson's passes, a
    projection's the outer centroid iterations; a projection also
    records inner_newton_iterations, the minimize_linear_poisson passes
    of all its trial solves (0 for chi-square). A cl or grid_rtol
    outside (0, 1) raises DomainError.
    seed selects nothing; it is kept for callers that pass it.
    """
    _require_fractions(cl, grid_rtol)
    core = None
    if isinstance(problem, GaussianResidualProblem):
        core = _core_from_residual_problem(problem)
        statistic = "chi2"
        label = problem.name
        method = "bayesian-gaussian-residual"
    elif isinstance(problem, FitProblem):
        statistic = problem.statistic
        label = problem.parameter_name(problem.signal)
        method = f"bayesian-{statistic}-profile"
        if _solver_for(problem) == "exact-gaussian":
            core = problem._core
        else:
            profile = _profiler(problem)
    else:
        raise DomainError(f"cannot set a limit on {type(problem).__name__}")

    if core is not None:
        bound, s, values, shat, stat_min = _exact_gaussian_limit(core, cl)
        solved = values
        info = {"profile_solver": "exact-gaussian"}
    else:
        pstat, shat, stat_min, sigma_hint, info = profile
        bound, s, values = _scan_upper_bound(pstat, shat, stat_min, statistic, cl,
                                             grid_rtol, sigma_hint, label)
        solved = values[::8]  # the nodes; the cubic fill between may dip below them
    scan = _thin_scan(s, values)
    return LimitResult(
        parameter=label,
        confidence_level=cl,
        upper_bound=bound,
        scan=scan,
        method=method,
        metadata={
            "prior": "flat on signal >= 0",
            "statistic": statistic,
            "best_signal": shat,
            "statistic_min": stat_min,
            "scan_max": float(s[-1]),
            "scan_points": int(s.size),
            "profile_min_excess": float(solved.min() - stat_min),
            **info,
        },
    )


def _require_fractions(cl: float, grid_rtol: float):
    """DomainError unless cl and grid_rtol lie strictly between 0 and 1."""
    for value, name in ((cl, "confidence level"), (grid_rtol, "grid_rtol")):
        if not 0.0 < value < 1.0:
            raise DomainError(f"{name} must lie strictly between 0 and 1")


def _thin_scan(s: np.ndarray, values: np.ndarray) -> np.ndarray:
    if s.size > 513:
        idx = np.unique(np.linspace(0, s.size - 1, 513).astype(int))
        s, values = s[idx], values[idx]
    return np.column_stack([s, values])


# ---------------------------------------------------------------------------
# pseudo-experiments


@dataclass
class EnsembleResult:
    bounds: np.ndarray
    true_signal: float
    coverage: float
    confidence_level: float
    n_requested: int
    failures: tuple
    config_hash: str
    seed: int
    best_signals: np.ndarray

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def n_completed(self) -> int:
        return self.n_requested - self.n_failed

    @property
    def failure_counts(self) -> dict:
        """The number of failed toys per exception class."""
        return dict(Counter(message.split(":", 1)[0] for _, message in self.failures))


def _ensemble_config_hash(truth: SpectralModel, grid: EnergyGrid, free, signal,
                          cl, statistic, n) -> str:
    payload = {
        "model": model_description(truth),
        "grid": [float(e) for e in grid.bin_edges],
        "free": [list(map(str, ref)) for ref in free],
        "signal": list(map(str, signal)),
        "cl": cl,
        "statistic": statistic,
        "n": n,
    }
    return canonical_config_hash(payload)


# toys drawn and solved together, so that an ensemble's memory stays
# bounded however many toys it has
_TOYS_PER_BATCH = 1024


def _chi2_toys(problem: FitProblem, counts: np.ndarray, cl: float) -> list:
    """Each linear chi-square toy's bound and clipped best signal, or the
    error that failed it, from one stacked solve on the problem's design
    (one row of counts per toy).

    The same closed form as bayesian_upper_limit of each toy; a design
    that cannot be solved fails every toy with the error it raises.
    """
    try:
        core = _core_from_fit_problem(problem, counts.astype(float))
    except (FitError, DegenerateMapError) as err:
        return [err] * len(counts)
    outcomes = []
    for row in range(len(counts)):
        try:
            shat, sigma = core.signal_and_sigma(row)
        except DegenerateMapError as err:
            outcomes.append(err)
            continue
        outcomes.append((_truncated_gaussian_upper(shat, sigma, cl), max(shat, 0.0)))
    return outcomes


def _toy_limit(problem: FitProblem, observed: np.ndarray, cl: float, grid_rtol: float):
    """A toy's bound and best signal, or the error that failed it. The toy
    takes the problem's design, which never reads the observed counts."""
    toy = replace(problem, observed=observed)
    vars(toy)["_design"] = problem._design  # the cached property's slot
    try:
        limit = bayesian_upper_limit(toy, cl, grid_rtol=grid_rtol)
    except (FitError, ScanRangeError, DegenerateMapError) as err:
        return err
    return limit.upper_bound, limit.metadata["best_signal"]


def run_pseudo_experiments(truth: SpectralModel, grid: EnergyGrid, free, signal,
                           *, n: int, cl: float, seed: int,
                           statistic: str = "chi2",
                           grid_rtol: float = 1e-3) -> EnsembleResult:
    """Simulate, fit and limit n times; report coverage of the truth.

    Each cycle draws its RNG stream from a child of the top-level seed,
    so cycles are independent and the whole ensemble is reproducible.
    The toys share the truth's design, built once: a linear chi-square
    ensemble solves its toys together, 1024 at a time, with the
    closed-form bound of bayesian_upper_limit, and Newton and projection
    ensembles set each toy's limit in turn on that design. Cycles whose
    fit or scan fails are excluded from coverage and recorded with their
    error message (failure_counts tallies them by class); when every
    cycle fails, bounds are empty and coverage is NaN. A cl or grid_rtol
    outside (0, 1) raises DomainError before any toy is drawn.
    """
    if n < 1:
        raise DomainError("ensemble needs at least one pseudo-experiment")
    _require_fractions(cl, grid_rtol)
    free = tuple(tuple(r) for r in free)
    signal = tuple(signal)
    truth_value = float(_ref_get(truth, signal))

    seeds = [int(child.generate_state(1)[0])
             for child in np.random.SeedSequence(seed).spawn(n)]
    mu = predict_counts(truth, grid)  # every cycle draws from the same expectation
    bounds, best, failures = [], [], []
    for first in range(0, n, _TOYS_PER_BATCH):
        counts = _poisson_counts(mu, seeds[first:first + _TOYS_PER_BATCH])
        if first == 0:
            problem = FitProblem(grid, counts[0], truth, free, signal, statistic)
            batched = _solver_for(problem) == "exact-gaussian"
        if batched:
            outcomes = _chi2_toys(problem, counts, cl)
        else:
            outcomes = [_toy_limit(problem, observed, cl, grid_rtol) for observed in counts]
        for i, outcome in enumerate(outcomes, start=first):
            if isinstance(outcome, Exception):
                failures.append((i, f"{type(outcome).__name__}: {outcome}"))
            else:
                bounds.append(outcome[0])
                best.append(outcome[1])

    bounds_arr = np.asarray(bounds, dtype=float)
    coverage = float(np.mean(bounds_arr >= truth_value)) if bounds_arr.size else math.nan
    return EnsembleResult(
        bounds=bounds_arr,
        true_signal=truth_value,
        coverage=coverage,
        confidence_level=cl,
        n_requested=n,
        failures=tuple(failures),
        config_hash=_ensemble_config_hash(truth, grid, free, signal, cl, statistic, n),
        seed=seed,
        best_signals=np.asarray(best, dtype=float),
    )
