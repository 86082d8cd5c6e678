"""Fit statistics, the exact fits and posterior upper bounds.

The Gaussian-residual bound has a closed form (a truncated normal
quantile); several frozen values from that formula anchor the scan
machinery. Fit closure uses noiseless expectations so recovery is
exact up to minimizer tolerance, never up to luck.
"""

import itertools
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import gammaincinv, gammaln
from scipy.stats import norm, poisson

import speclimit.limits as limits_module
import speclimit.newton as newton_module
from speclimit.newton import (
    LinearPoisson,
    in_poisson_domain,
    jacobi_scaled,
    log_factorial,
    minimize_linear_poisson,
    newton_steps,
    poisson_curvature,
    poisson_nll,
    scoring_step,
)
from speclimit import (
    DegenerateMapError,
    DetectorResponse,
    DomainError,
    EnergyGrid,
    FitError,
    FitProblem,
    GaussianLine,
    GaussianResidualProblem,
    OneOverEContinuum,
    PolynomialBackground,
    ScanRangeError,
    ShapeError,
    SpectralModel,
    ToolkitError,
    bayesian_upper_limit,
    component_bin_counts,
    fit_minimize,
    parameter_uncertainties,
    predict_counts,
    run_pseudo_experiments,
    simulate_spectrum,
)

RESPONSE = DetectorResponse(fwhm_kev_at_ref=0.32, reference_energy_kev=8.0)

# truncated-normal quantiles, frozen from scipy.stats.norm
HALF_GAUSS_BOUND_90 = 1.6448536269514722
HALF_GAUSS_BOUND_95 = 1.959963984540054
TRUNC_BOUND_Y1_S2_95 = 4.634926034649536
TRUNC_BOUND_YM1_S1_95 = 1.411994395787202


def _truncated_normal_bound(y, sigma, cl):
    """Analytic flat-prior bound for a single measurement y +- sigma.

    Survival-function form: stable even for deep deficits, where the
    equivalent cdf form rounds catastrophically next to 1.
    """
    return y + sigma * norm.isf((1.0 - cl) * norm.sf(-y / sigma))


def _line_model(amplitude=30.0, background=500.0, alpha=0.0, centroid=7.7):
    components = [GaussianLine(centroid_kev=centroid, amplitude=amplitude)]
    if alpha:
        components.append(OneOverEContinuum(alpha=alpha))
    components.append(PolynomialBackground((background,)))
    return SpectralModel(components=tuple(components), response=RESPONSE)


# ---------------------------------------------------------------------------
# binned statistics


def _recomputed(statistic, problem, values):
    """The problem's statistic at values, recomputed from the expected
    counts of its model with the statistic functions the fits share."""
    mu = predict_counts(problem.with_values(values), problem.grid)
    if statistic == "chi2":
        return limits_module._chi2_from_mu(problem.observed, mu)
    return float(poisson_nll(problem.observed, mu))


def test_chi2_matches_hand_rolled_sum():
    grid = EnergyGrid.uniform(6.5, 9.5, 3)
    model = SpectralModel(components=(PolynomialBackground((10.0,)),),
                          response=RESPONSE)
    mu = predict_counts(model, grid)
    expected = sum((n - m) ** 2 / n for n, m in zip([4, 9, 16], mu))
    assert limits_module._chi2_from_mu(np.array([4.0, 9.0, 16.0]), mu) == pytest.approx(
        expected, rel=1e-12)


def test_chi2_floors_empty_bin_variance_at_one():
    grid = EnergyGrid.uniform(6.5, 9.5, 2)
    # flat density 2/3 per keV over 1.5 keV bins -> exactly 1 expected count
    model = SpectralModel(components=(PolynomialBackground((2.0 / 3.0,)),),
                          response=RESPONSE)
    mu = predict_counts(model, grid)
    assert limits_module._chi2_from_mu(np.array([0.0, 2.0]), mu) == pytest.approx(
        1.0 + 0.5, rel=1e-12)


def test_poisson_nll_matches_scipy_logpmf():
    grid = EnergyGrid.uniform(6.5, 9.5, 4)
    counts = np.array([0, 3, 7, 12])
    model = SpectralModel(components=(PolynomialBackground((8.0,)),),
                          response=RESPONSE)
    mu = predict_counts(model, grid)
    assert poisson_nll(counts.astype(float), mu) == pytest.approx(
        -poisson.logpmf(counts, mu).sum(), rel=1e-12)


def test_log_factorial_matches_scipy_gammaln():
    counts = np.arange(1_000_001, dtype=float)
    expected = gammaln(counts + 1.0)
    values = log_factorial(counts)
    assert values[0] == values[1] == 0.0
    np.testing.assert_allclose(values, expected, rtol=1e-15, atol=0)
    np.testing.assert_allclose(log_factorial(counts[:12].reshape(3, 4)),
                               expected[:12].reshape(3, 4), rtol=1e-15, atol=0)


def test_poisson_nll_zero_expectation_rules():
    grid = EnergyGrid.uniform(6.5, 9.5, 1)
    model = SpectralModel(components=(PolynomialBackground((0.0,)),),
                          response=RESPONSE)
    mu = predict_counts(model, grid)
    assert poisson_nll(np.array([0.0]), mu) == 0.0
    # counts where nothing is expected lie outside the Poisson domain
    assert np.isposinf(poisson_nll(np.array([3.0]), mu))


def test_poisson_nll_of_a_batch_of_rows_equals_each_rows_binned_nll():
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = simulate_spectrum(_line_model(20.0, 30.0), grid, seed=11).counts.astype(float)
    models = [_line_model(a, b) for a, b in [(20.0, 30.0), (0.0, 12.5), (75.0, 3.0)]]
    rows = np.array([predict_counts(model, grid) for model in models])
    nll = poisson_nll(observed, rows)
    assert nll.tolist() == [float(poisson_nll(observed, row)) for row in rows]


def test_poisson_nll_is_infinite_outside_the_domain_without_a_warning():
    observed = np.array([0.0, 2.0, 1.0])
    rows = np.array([[0.0, 1.5, 0.5],     # an empty bin at mu = 0: inside
                     [1.0, 0.0, 0.5],     # mu = 0 in a bin with counts
                     [-0.5, -1.0, -2.0],  # negative throughout
                     [-1e-300, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nll = poisson_nll(observed, rows)
    assert nll[0] == pytest.approx(-poisson.logpmf(observed, rows[0]).sum(), rel=1e-14)
    assert np.isposinf(nll[1:]).all()


def test_single_empty_bin_nll_equals_expectation():
    # with n = 0, -ln P(0 | mu) = mu exactly
    grid = EnergyGrid.uniform(6.5, 9.5, 1)
    model = SpectralModel(components=(PolynomialBackground((2.5,)),),
                          response=RESPONSE)
    mu = predict_counts(model, grid)
    assert poisson_nll(np.array([0.0]), mu) == pytest.approx(float(mu[0]), rel=1e-12)


# ---------------------------------------------------------------------------
# fit problems and closure


def test_fit_problem_validation():
    grid = EnergyGrid.uniform(6.5, 9.5, 10)
    model = _line_model()
    counts = np.ones(10)
    with pytest.raises(DomainError):
        FitProblem(grid=grid, observed=counts, model=model,
                   free=((0, "amplitude"),), signal=(1, "coefficients", 0))
    with pytest.raises(DomainError):
        FitProblem(grid=grid, observed=counts, model=model,
                   free=((0, "amplitude"), (0, "amplitude")),
                   signal=(0, "amplitude"))
    with pytest.raises(DomainError):
        FitProblem(grid=grid, observed=counts, model=model,
                   free=((0, "wavelength"),), signal=(0, "wavelength"))
    with pytest.raises(ShapeError):
        FitProblem(grid=grid, observed=np.ones(9), model=model,
                   free=((0, "amplitude"),), signal=(0, "amplitude"))
    # the shapes no exact solver takes: a centroid as the signal, more
    # than two free centroids, a free centroid with its amplitude fixed
    with pytest.raises(DomainError, match="not a line centroid"):
        FitProblem(grid=grid, observed=counts, model=model,
                   free=((0, "centroid_kev"), (0, "amplitude")), signal=(0, "centroid_kev"))
    three = SpectralModel(components=tuple(GaussianLine(c, 10.0) for c in (7.0, 8.0, 9.0)),
                          response=RESPONSE)
    with pytest.raises(DomainError, match="at most two line centroids"):
        FitProblem(grid=grid, observed=counts, model=three,
                   free=tuple((c, attr) for c in range(3) for attr in ("centroid_kev",
                                                                       "amplitude")),
                   signal=(0, "amplitude"))
    with pytest.raises(DomainError, match="amplitude is not"):
        FitProblem(grid=grid, observed=counts, model=model,
                   free=((0, "centroid_kev"), (1, "coefficients", 0)),
                   signal=(1, "coefficients", 0))


def test_fit_problem_keeps_its_own_read_only_copy_of_the_observed_values():
    # the caller edits its float array after the problem was built, and
    # again after the fit solved it: the problem, its fit, uncertainties
    # and limit are those of the values it was given
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(40.0, 300.0)
    values = simulate_spectrum(truth, grid, seed=7).counts.astype(float)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    pristine = FitProblem(grid, values.copy(), truth, free, free[0])
    problem = FitProblem(grid, values, truth, free, free[0])
    values[20:30] += 50.0
    first = fit_minimize(problem)
    values[:] = 0.0
    expected = fit_minimize(pristine)
    for fit in (first, fit_minimize(problem)):
        np.testing.assert_array_equal(fit.values, expected.values)
        assert fit.statistic == expected.statistic
    np.testing.assert_array_equal(parameter_uncertainties(problem, first.values),
                                  parameter_uncertainties(pristine, expected.values))
    assert (bayesian_upper_limit(problem, 0.95).upper_bound
            == bayesian_upper_limit(pristine, 0.95).upper_bound)
    np.testing.assert_array_equal(problem.observed, pristine.observed)
    assert not problem.observed.flags.writeable
    with pytest.raises(ValueError):
        problem.observed[0] = 1.0
    # nor can the values be swapped under the memoised design and core
    with pytest.raises(AttributeError):
        problem.observed = values


TRUTH_AMPLITUDE = 37.0
TRUTH_ALPHA = 12.0
TRUTH_BACKGROUND = 55.0


def _closure_problem(statistic):
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(TRUTH_AMPLITUDE, TRUTH_BACKGROUND, alpha=TRUTH_ALPHA)
    observed = predict_counts(truth, grid)
    start = _line_model(TRUTH_AMPLITUDE * 1.7, TRUTH_BACKGROUND * 0.6,
                        alpha=TRUTH_ALPHA * 2.5)
    free = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0))
    return FitProblem(grid, observed, start, free=free,
                      signal=(0, "amplitude"), statistic=statistic)


@pytest.mark.parametrize("statistic", ["chi2", "poisson_nll"])
def test_noiseless_linear_closure(statistic):
    problem = _closure_problem(statistic)
    result = fit_minimize(problem, seed=0)
    fitted = result.by_name(problem)
    assert fitted["c0.amplitude"] == pytest.approx(TRUTH_AMPLITUDE, rel=1e-6)
    assert fitted["c1.alpha"] == pytest.approx(TRUTH_ALPHA, rel=1e-6)
    assert fitted["c2.coefficients[0]"] == pytest.approx(TRUTH_BACKGROUND, rel=1e-6)


def test_noiseless_nonlinear_centroid_closure():
    grid = EnergyGrid.uniform(6.5, 9.5, 120)
    truth = _line_model(600.0, 500.0, centroid=7.7)
    observed = predict_counts(truth, grid)
    start = _line_model(450.0, 520.0, centroid=7.64)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem(grid, observed, start, free=free,
                         signal=(0, "amplitude"))
    result = fit_minimize(problem, seed=0)
    fitted = result.by_name(problem)
    assert fitted["c0.centroid_kev"] == pytest.approx(7.7, rel=1e-6)
    assert fitted["c0.amplitude"] == pytest.approx(600.0, rel=1e-6)
    assert fitted["c1.coefficients[0]"] == pytest.approx(500.0, rel=1e-6)


def test_signal_amplitude_respects_zero_lower_bound():
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    background_only = SpectralModel(components=(PolynomialBackground((100.0,)),),
                                    response=RESPONSE)
    observed = predict_counts(background_only, grid)
    # carve a deficit where the line would sit, so the unbounded
    # optimum would be a negative amplitude
    centers = grid.centers
    observed = observed * np.where(np.abs(centers - 7.7) < 0.3, 0.8, 1.0)
    template = _line_model(10.0, 100.0)
    problem = FitProblem(grid, observed, template,
                         free=((0, "amplitude"), (1, "coefficients", 0)),
                         signal=(0, "amplitude"))
    result = fit_minimize(problem, seed=0)
    assert result.by_name(problem)["c0.amplitude"] == pytest.approx(0.0, abs=1e-9)


def test_parameter_uncertainty_matches_linear_algebra():
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(40.0, 80.0)
    spectrum = simulate_spectrum(truth, grid, seed=7, tag="measured")
    problem = FitProblem.from_spectrum(spectrum, truth,
                                       free=((0, "amplitude"),),
                                       signal=(0, "amplitude"))
    result = fit_minimize(problem, seed=0)
    sigma = parameter_uncertainties(problem, result.values)[0]

    # single linear parameter: sigma^2 = 1 / sum(shape^2 / variance)
    zero = _line_model(0.0, 80.0)
    unit = _line_model(1.0, 80.0)
    shape = predict_counts(unit, grid) - predict_counts(zero, grid)
    variance = np.maximum(spectrum.counts.astype(float), 1.0)
    analytic = 1.0 / math.sqrt(float(np.sum(shape**2 / variance)))
    assert sigma == pytest.approx(analytic, rel=1e-4)


def test_linear_chi2_fit_is_the_bounded_weighted_least_squares_optimum():
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    line = predict_counts(_line_model(1.0, 0.0), grid)
    flat = predict_counts(_line_model(0.0, 1.0), grid)
    excess = simulate_spectrum(_line_model(40.0, 80.0), grid, seed=7).counts.astype(float)
    # a deficit where the line would sit: the unbounded optimum is negative
    deficit = 80.0 * flat * np.where(np.abs(grid.centers - 7.7) < 0.3, 0.8, 1.0)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    for observed, clipped in ((excess, False), (deficit, True)):
        problem = FitProblem(grid, observed, _line_model(10.0, 50.0),
                             free=free, signal=free[0])
        result = fit_minimize(problem, seed=0)
        root_w = 1.0 / np.sqrt(np.maximum(observed, 1.0))
        design = np.column_stack([line, flat]) * root_w[:, None]
        expected, *_ = np.linalg.lstsq(design, observed * root_w, rcond=None)
        if clipped:
            assert expected[0] < 0
            # the signal sits on its bound; the flat term is fitted alone
            (flat_only,), *_ = np.linalg.lstsq(design[:, 1:], observed * root_w, rcond=None)
            expected = np.array([0.0, flat_only])
        else:
            assert expected[0] > 0
        np.testing.assert_allclose(result.values, expected, rtol=1e-12)
        resid = (observed - expected[0] * line - expected[1] * flat) * root_w
        assert result.statistic == pytest.approx(float(resid @ resid), rel=1e-12)
        assert result.n_evaluations == 1

    # a line far outside the grid gives a signal column of zeros
    problem = FitProblem(grid, excess, _line_model(10.0, 50.0, centroid=20.0),
                         free=free, signal=free[0])
    with pytest.raises(ToolkitError, match="vanishes"):
        fit_minimize(problem, seed=0)


@pytest.mark.parametrize("statistic", ["chi2", "poisson_nll"])
def test_linear_uncertainties_are_the_exact_inverse_curvature(statistic):
    # the 1/E amplitude fits near zero, where a finite-difference step
    # of 1e-4 barely moves the statistic and the nearly collinear 1/E
    # and flat columns amplify its rounding in the inverse
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = SpectralModel(components=(GaussianLine(7.7, 60.0), OneOverEContinuum(0.0),
                                      PolynomialBackground((400.0,))), response=RESPONSE)
    spectrum = simulate_spectrum(truth, grid, seed=3, tag="measured")
    free = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0))
    problem = FitProblem.from_spectrum(spectrum, truth, free=free, signal=free[0],
                                       statistic=statistic)
    values = fit_minimize(problem, seed=0).values
    sigma = parameter_uncertainties(problem, values)

    def expected(line=0.0, alpha=0.0, flat=0.0):
        return predict_counts(SpectralModel(components=(
            GaussianLine(7.7, line), OneOverEContinuum(alpha),
            PolynomialBackground((flat,))), response=RESPONSE), grid)

    columns = np.column_stack([expected(line=1.0), expected(alpha=1.0), expected(flat=1.0)])
    n = spectrum.counts.astype(float)
    if statistic == "chi2":
        weights = 1.0 / np.maximum(n, 1.0)
    else:
        weights = n / (columns @ values) ** 2
    exact = np.sqrt(np.diag(np.linalg.inv(columns.T @ (columns * weights[:, None]))))
    assert abs(values[1]) < exact[1]  # the 1/E amplitude really fits near zero
    np.testing.assert_allclose(sigma, exact, rtol=1e-9)


def test_linear_chi2_uncertainties_do_not_read_the_values_passed():
    # the Hessian of chi2 / 2 is the constant A^T W A: the uncertainties
    # at the fit and at the template are the same bits, and they are
    # the inverse of _curvature's Hessian at either
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = SpectralModel(components=(GaussianLine(7.7, 60.0), OneOverEContinuum(1600.0),
                                      PolynomialBackground((400.0,))), response=RESPONSE)
    free = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0))
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=3), truth, free,
                                       free[0])
    fitted = fit_minimize(problem).values
    template = problem.initial_values()
    assert not np.array_equal(fitted, template)
    sigma = parameter_uncertainties(problem, fitted)
    np.testing.assert_array_equal(parameter_uncertainties(problem, template), sigma)
    with pytest.raises(ShapeError):  # though they must be one per free parameter
        parameter_uncertainties(problem, fitted[:2])
    for values in (fitted, template):
        hess = limits_module._curvature(problem, values)[1]
        np.testing.assert_allclose(sigma, np.sqrt(np.diag(np.linalg.inv(hess))), rtol=1e-12)


@pytest.mark.parametrize("components, free", [
    ((GaussianLine(40.0, 0.0), PolynomialBackground((200.0,))),
     ((0, "amplitude"), (1, "coefficients", 0))),
    ((GaussianLine(7.7, 0.0), PolynomialBackground((100.0,)), PolynomialBackground((100.0,))),
     ((0, "amplitude"), (1, "coefficients", 0), (2, "coefficients", 0))),
], ids=["vanishing-signal", "dependent-nuisances"])
def test_linear_chi2_uncertainties_of_a_degenerate_design_raise_fit_error(components, free):
    # the one class that speclimit fit reports as unavailable curvature
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    model = SpectralModel(components=components, response=RESPONSE)
    problem = FitProblem(grid, np.full(30, 100.0), model, free, free[0])
    with pytest.raises(FitError) as err:
        parameter_uncertainties(problem, problem.initial_values())
    assert not isinstance(err.value, DegenerateMapError)


def _counted_cores(monkeypatch):
    """A list that gets one entry per _LinearGaussianCore built."""
    built = []
    real = limits_module._LinearGaussianCore.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(limits_module._LinearGaussianCore, "__init__", counted)
    return built


def test_a_linear_chi2_problem_builds_one_least_squares_core(monkeypatch):
    # its fit, uncertainties and limit solve on the same normal matrix
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(40.0, 300.0, alpha=100.0)
    free = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0))
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=5), truth, free,
                                       free[0])
    built = _counted_cores(monkeypatch)
    fit = fit_minimize(problem)
    parameter_uncertainties(problem, fit.values)
    limit = bayesian_upper_limit(problem, 0.95)
    assert limit.metadata["profile_solver"] == "exact-gaussian"
    assert len(built) == 1


def test_a_poisson_limit_held_at_zero_builds_one_least_squares_core(monkeypatch):
    # the free fit and the fit held at zero start from the same core
    problem = _poisson_bench_problem(4.0, 4)
    built = _counted_cores(monkeypatch)
    result = bayesian_upper_limit(problem, 0.95, grid_rtol=3e-3)
    assert result.metadata["best_signal"] == 0.0
    assert len(built) == 1


def test_a_free_centroid_problem_has_no_fixed_least_squares_core():
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(40.0, 300.0)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=5), truth, free,
                                       free[1])
    with pytest.raises(DomainError, match="free line centroid"):
        problem._core
    # its uncertainties keep the exact curvature at the values passed
    fit = fit_minimize(problem)
    assert not np.array_equal(parameter_uncertainties(problem, fit.values),
                              parameter_uncertainties(problem, problem.initial_values()))


@pytest.mark.parametrize("signal", [37.5, np.array([-20.0, 0.0, 37.5, 400.0])],
                         ids=["scalar", "array"])
def test_gaussian_core_values_at_holds_a_middle_signal_as_least_squares(signal):
    # the line amplitude is the middle of three columns: at each held
    # value the other two are numpy's weighted least squares of the data
    # less the signal's column, and the signal stays in its place
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(30.0, 300.0, alpha=100.0)
    free = ((1, "alpha"), (0, "amplitude"), (2, "coefficients", 0))
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=5), truth, free,
                                       free[1])
    design = problem._design
    observed = problem.observed
    core = limits_module._core_from_fit_problem(problem, observed)
    values = core.values_at(signal)
    assert values.shape == np.shape(signal) + (3,)
    root_w = 1.0 / np.sqrt(np.maximum(observed, 1.0))
    nuisances = design.columns[:, [0, 2]] * root_w[:, None]
    for s, row in zip(np.atleast_1d(signal), np.atleast_2d(values)):
        assert row[1] == s
        y = (observed - design.base - s * design.columns[:, 1]) * root_w
        expected, *_ = np.linalg.lstsq(nuisances, y, rcond=None)
        np.testing.assert_allclose(row[[0, 2]], expected, rtol=1e-12)


@pytest.mark.parametrize("third, message", [
    (PolynomialBackground((100.0,)), "degenerate nuisance basis"),
    (GaussianLine(7.7, 10.0), "degenerate signal/nuisance basis"),
], ids=["nuisances", "signal"])
def test_linear_chi2_fit_names_the_degenerate_basis_beside_a_middle_signal(third, message):
    # the signal line sits between a flat term and a copy of the flat
    # term or of the signal's own column
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    model = SpectralModel((PolynomialBackground((100.0,)), GaussianLine(7.7, 10.0), third),
                          response=RESPONSE)
    free = ((0, "coefficients", 0), (1, "amplitude"),
            (2, "coefficients", 0) if isinstance(third, PolynomialBackground) else (2, "amplitude"))
    problem = FitProblem(grid, predict_counts(model, grid), model, free, free[1])
    with pytest.raises(FitError, match=message):
        fit_minimize(problem)


def test_poisson_fit_starts_from_the_template_when_the_least_squares_start_is_infeasible():
    # two counts side by side at 0.05 counts per bin: the least-squares
    # start, the core's nuisances at the clipped signal, has a negative
    # flat term and mu < 0 in the empty bins, so the Newton fit starts
    # from the template
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = np.zeros(60)
    observed[[21, 22]] = 1.0
    truth = _line_model(3.0, 1.0)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem(grid, observed, truth, free=free, signal=free[0],
                         statistic="poisson_nll")
    design = problem._design
    core = limits_module._core_from_fit_problem(problem, observed)
    start = core.values_at(max(core.best_signal(), 0.0))
    assert start == pytest.approx([2.176, -0.0585], abs=1e-3)
    assert not in_poisson_domain(observed, design.point(start)[0])

    result = fit_minimize(problem, seed=0)
    columns = np.column_stack([predict_counts(_line_model(1.0, 0.0), grid),
                               predict_counts(_line_model(0.0, 1.0), grid)])
    x, nll = minimize_linear_poisson(LinearPoisson.of(observed, columns), np.zeros((1, 60)),
                                     problem.initial_values()[None], lambda i: "the test")[:2]
    # Newton holds the flat term at mu = 0 in the empty bins exactly
    assert abs(result.statistic - nll[0]) <= 1e-9 * (1.0 + nll[0])
    assert result.values[0] == pytest.approx(x[0, 0], rel=0.05)


# ---------------------------------------------------------------------------
# free line centroids by variable projection


def _two_line_problem(statistic, resolution_model="constant"):
    """Acceptance 7: the forbidden line 300 eV below K-alpha at 170 eV
    FWHM, both centroids free."""
    response = DetectorResponse(fwhm_kev_at_ref=0.170, reference_energy_kev=8.0,
                                resolution_model=resolution_model)
    truth = SpectralModel(components=(GaussianLine(7.7, 1.0e5), GaussianLine(8.0, 1.0e5),
                                      PolynomialBackground((1.0e3,))), response=response)
    template = SpectralModel(components=(GaussianLine(7.72, 8.0e4), GaussianLine(7.98, 8.0e4),
                                         PolynomialBackground((800.0,))), response=response)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "centroid_kev"), (1, "amplitude"),
            (2, "coefficients", 0))
    spectrum = simulate_spectrum(truth, EnergyGrid.uniform(6.5, 9.5, 150), seed=42)
    return FitProblem.from_spectrum(spectrum, template, free, free[1], statistic=statistic)


def test_design_reproduces_the_model_with_free_centroids():
    # a line with both parameters free and one free coefficient of a
    # two-term polynomial, the other held in the base
    response = DetectorResponse(fwhm_kev_at_ref=0.17, resolution_model="sqrt")
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    model = SpectralModel(components=(GaussianLine(7.7, 300.0),
                                      PolynomialBackground((10.0, 2.0))), response=response)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 1))
    problem = FitProblem(grid, predict_counts(model, grid), model, free, free[1])
    design = problem._design
    assert limits_module._solver_for(problem) == "projection"
    for theta in ([7.6, 500.0, 3.0], [7.75, 800.0, 1.5]):
        theta = np.array(theta)
        np.testing.assert_allclose(design.point(theta)[0],
                                   predict_counts(problem.with_values(theta), grid),
                                   rtol=1e-13, atol=0)


def test_design_base_is_the_zeroed_templates_prediction_and_plus_zero_when_all_free():
    # the line's amplitude and the 1/E amplitude are free, the polynomial
    # keeps one fixed term: the base is bit for bit the prediction of the
    # template with the free linear parameters at zero
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    model = SpectralModel(components=(GaussianLine(7.7, 300.0), OneOverEContinuum(40.0),
                                      PolynomialBackground((10.0, 2.0))), response=RESPONSE)
    free = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 1))
    problem = FitProblem(grid, predict_counts(model, grid), model, free, free[0])
    zeroed = problem.with_values(np.zeros(3))
    assert np.array_equal(problem._design.base, predict_counts(zeroed, grid))
    # every linear parameter free: the base is exactly +0
    free += ((2, "coefficients", 0),)
    everything = FitProblem(grid, predict_counts(model, grid), model, free, free[0])
    assert np.array_equal(everything._design.base, np.zeros(60))
    assert not np.signbit(everything._design.base).any()


# Nelder-Mead fits of _two_line_problem with seeded restarts, frozen from
# the release before the simplex left the package: statistic, parameter
# values and whether the accepted run met its tolerances
SIMPLEX_TWO_LINE_FITS = {
    "chi2": (163.23563546417188, (7.700139440754889, 100236.55969846359, 8.000435023769231,
                                  99868.32822984667, 935.6251924541173), True),
    "poisson_nll": (537.4896056372247, (7.700131131518712, 100243.1752019719,
                                        8.000436164901787, 99864.89390765801,
                                        988.9771473276265), False),
}


@pytest.mark.parametrize("statistic", ["chi2", "poisson_nll"])
def test_free_centroid_fit_is_no_worse_than_the_simplex(statistic):
    problem = _two_line_problem(statistic)
    simplex_statistic, simplex_values, simplex_converged = SIMPLEX_TWO_LINE_FITS[statistic]
    result = fit_minimize(problem)
    assert result.statistic <= simplex_statistic + 1e-9 * (1.0 + abs(simplex_statistic))
    assert result.statistic == pytest.approx(_recomputed(statistic, problem, result.values),
                                             rel=1e-12)
    # the Poisson simplex spent its 4800 evaluations on this spectrum
    # without meeting its tolerances, so only its statistic is an oracle
    if simplex_converged:
        sigma = parameter_uncertainties(problem, result.values)
        for i in (0, 2):
            assert abs(result.values[i] - simplex_values[i]) <= 1e-3 * sigma[i]


@pytest.mark.parametrize("statistic", ["chi2", "poisson_nll"])
def test_free_centroid_stays_inside_the_fit_window(statistic):
    # the line sits above the window, so the unconstrained optimum is
    # outside it; the fit holds the centroid at the window's edge, the
    # lowest statistic on a 10 meV scan of centroids inside
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = predict_counts(_line_model(400.0, 100.0, centroid=9.7), grid)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem(grid, observed, _line_model(100.0, 100.0, centroid=9.0),
                         free, free[1], statistic=statistic)
    result = fit_minimize(problem)
    assert result.values[0] == 9.5
    scan = [fit_minimize(FitProblem(grid, observed,
                                    _line_model(100.0, 100.0, centroid=c),
                                    free[1:], free[1], statistic=statistic))
            for c in np.linspace(6.5, 9.5, 301)]
    assert result.statistic <= min(fit.statistic for fit in scan) + 1e-9
    assert bayesian_upper_limit(problem, 0.95).metadata["profile_solver"] == "projection"


def _grid_step(problem):
    """The spacing of the centroid grid of _grid_start, in keV."""
    grid, design = problem.grid, problem._design
    width = grid.hi_kev - grid.lo_kev
    return width / max(int(np.ceil(width / design.spacing)), len(design.line_columns))


def _grid_start_oracle(problem):
    """The grid tuple of lowest weighted residual sum of squares, one
    np.linalg.lstsq per tuple over its lines and the columns no centroid
    moves, refitted without the signal where the signal comes out
    negative. Returns the centroids with and without that clipping, the
    clipped tuple's centroids each moved to the vertex of the parabola
    through its score and its two grid neighbours' along that centroid
    (at most half a grid step; none where a neighbour is no tuple or
    the parabola is not convex), and every tuple's clipped score."""
    design = problem._design
    grid, observed = problem.grid, problem.observed
    n_lines = len(design.line_columns)
    n_points = max(int(np.ceil((grid.hi_kev - grid.lo_kev) / design.spacing)), n_lines)
    points = grid.lo_kev + (np.arange(n_points) + 0.5) * (grid.hi_kev - grid.lo_kev) / n_points
    root_weights = 1.0 / np.sqrt(np.maximum(observed, 1.0))
    lines = [component_bin_counts(GaussianLine(c, 1.0), grid, design.response) * root_weights
             for c in points]
    y = (observed - design.base) * root_weights
    pos = design.linear_idx.index(problem.signal_index())
    tuples = [t if design.order > 0 else t[::-1]
              for t in itertools.combinations(range(n_points), n_lines)]
    clipped_stats, free_stats = [], []
    for t in tuples:
        columns = design.columns * root_weights[:, None]
        for k, point in enumerate(t):
            columns[:, design.line_columns[k]] = lines[point]
        x = np.linalg.lstsq(columns, y, rcond=None)[0]
        free_stats.append(float(np.sum((y - columns @ x) ** 2)))
        if x[pos] < 0:
            columns = np.delete(columns, pos, axis=1)
            x = np.linalg.lstsq(columns, y, rcond=None)[0]
        clipped_stats.append(float(np.sum((y - columns @ x) ** 2)))
    scores = dict(zip(tuples, clipped_stats))
    best = tuples[int(np.argmin(clipped_stats))]
    vertex = points[list(best)]
    for m in range(n_lines):
        lower, upper = (scores.get(best[:m] + (best[m] + d,) + best[m + 1:]) for d in (-1, 1))
        if lower is not None and upper is not None and lower + upper > 2.0 * scores[best]:
            shift = (lower - upper) / (2.0 * (lower + upper - 2.0 * scores[best]))
            vertex[m] += min(max(shift, -0.5), 0.5) * _grid_step(problem)
    return (points[list(best)], points[list(tuples[int(np.argmin(free_stats))])], vertex,
            np.array(clipped_stats))


# every grid-start case shares one grid object, the key of the grid's cached unit columns
_GRID_START_GRID = EnergyGrid.uniform(6.5, 9.5, 150)


def _grid_start_case(case, fwhm):
    response = DetectorResponse(fwhm_kev_at_ref=fwhm, reference_energy_kev=8.0)
    grid = _GRID_START_GRID
    two = case.startswith("two")
    free = [(0, "centroid_kev"), (0, "amplitude")]
    free += [(1, "centroid_kev"), (1, "amplitude")] * two + [(1 + two, "coefficients", 0)]
    if case == "one line":
        truth = (GaussianLine(7.7, 2000.0), PolynomialBackground((1000.0,)))
    elif case.endswith("signal clipped") and "flat" not in case:
        # a dip at 7.3 keV: the best unclipped tuple puts the signal
        # line there with a negative amplitude; a weak line at 8.6 keV
        # is where the clipped start goes
        truth = ((GaussianLine(7.3, -1500.0), GaussianLine(8.6, 300.0))
                 + (GaussianLine(8.0, 5000.0),) * two + (PolynomialBackground((10000.0,)),))
    elif "flat" in case:
        # a background falling to zero at 6.5 keV drives the flat term
        # negative; held at zero, the slope leaves a deficit at low
        # energies that moves the start
        truth = (GaussianLine(7.0, 3000.0), GaussianLine(8.5, 300.0), PolynomialBackground(
            (1000.0,) if case.endswith("term") else (-1950.0, 300.0)))
    else:
        truth = (GaussianLine(7.7, 3000.0), GaussianLine(8.0, 5000.0),
                 PolynomialBackground((1000.0,)))
    observed = predict_counts(SpectralModel(truth, response), grid)
    if case == "one line":
        observed = simulate_spectrum(SpectralModel(truth, response), grid, seed=5).counts
    template = (GaussianLine(7.6, 1000.0),) + (GaussianLine(8.1, 1000.0),) * two
    if "flat" in case:
        # the flat term is the signal beside a free slope
        template += (PolynomialBackground((500.0, 1.0)),)
        free.append((1 + two, "coefficients", 1))
        signal = (1 + two, "coefficients", 0)
    else:
        template += (PolynomialBackground((500.0,)),)
        signal = (0, "amplitude")
    return FitProblem(grid, observed, SpectralModel(template, response),
                      free, signal)


@pytest.mark.parametrize("case", ["one line", "one line, signal clipped", "two lines",
                                  "two lines, signal clipped", "two lines, flat term",
                                  "two lines, flat signal clipped"])
def test_grid_start_picks_the_least_squares_tuple(case, monkeypatch):
    # the first array a tuple scorer returns is the grid's scores, which
    # _grid_start then clips in place
    scorer, scores = limits_module._tuple_scorer, []

    def recording(lines, y):
        score = scorer(lines, y)

        def recorded(tuples):
            stat, amplitudes = score(tuples)
            scores.append(stat)
            return stat, amplitudes
        return recorded

    monkeypatch.setattr(limits_module, "_tuple_scorer", recording)
    # two responses in turn on one grid: each must miss the other's columns
    for fwhm in (0.17, 0.32):
        problem = _grid_start_case(case, fwhm)
        clipped, free, vertex, stats = _grid_start_oracle(problem)
        scores.clear()
        centroids, n_grid = limits_module._grid_start(
            limits_module._Projection(problem))
        np.testing.assert_allclose(scores[0], stats, rtol=1e-8, atol=0)
        np.testing.assert_allclose(centroids, vertex, rtol=0, atol=1e-10)
        # the start stays within half a grid step of the least-squares tuple
        assert np.abs(centroids - clipped).max() <= 0.5 * _grid_step(problem) + 1e-12
        assert n_grid == stats.size
        # the clipping decides the start only where the case says so
        assert (not np.allclose(clipped, free)) == case.endswith("clipped"), fwhm
    # a cold fit builds the columns, a warm one on a fresh problem reuses them
    cached, built = limits_module._grid_lines, []

    def recorded(*key):
        built.append(cached(*key))
        return built[-1]

    monkeypatch.setattr(limits_module, "_grid_lines", recorded)
    cached.cache_clear()
    cold = fit_minimize(problem)
    warm = fit_minimize(replace(problem))
    assert built[1] is built[0] and cached.cache_info().misses == 1
    assert np.array_equal(warm.values, cold.values) and warm.statistic == cold.statistic
    assert not any(array.flags.writeable for array in built[0])


def _twenty_count_line_problem(statistic):
    """A 20-count line at 7.7 keV on 3 counts/bin, centroid, amplitude
    and flat term free, the amplitude the signal."""
    response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0)
    truth = SpectralModel((GaussianLine(7.7, 20.0), PolynomialBackground((60.0,))), response)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    spectrum = simulate_spectrum(truth, EnergyGrid.uniform(6.5, 9.5, 60), 0)
    return FitProblem.from_spectrum(spectrum, truth, free, free[1], statistic=statistic)


@pytest.mark.parametrize("lines, statistic", [("two", "chi2"), ("one", "chi2"),
                                              ("one", "poisson_nll")])
def test_the_vertex_start_saves_a_trial_solve(lines, statistic):
    # the parabola's vertex lies within half a grid step of the best
    # tuple and closer to the converged centroids, so Newton needs one
    # trial solve fewer than from the tuple itself
    problem = (_two_line_problem if lines == "two" else _twenty_count_line_problem)(statistic)
    design = problem._design
    space = limits_module._Projection(problem)
    tuple_centroids = _grid_start_oracle(problem)[0]
    start, n_grid = limits_module._grid_start(space)
    assert np.abs(start - tuple_centroids).max() <= 0.5 * _grid_step(problem) + 1e-12
    fit = fit_minimize(problem)
    converged = fit.values[design.centroid_idx]
    assert np.abs(start - converged).max() < np.abs(tuple_centroids - converged).max()
    from_tuple = problem.initial_values()
    from_tuple[design.centroid_idx] = tuple_centroids
    solves = limits_module._reduced_newton(space, from_tuple)[2]
    assert fit.n_evaluations - n_grid == solves - 1


@pytest.mark.parametrize("resolution_model", ["constant", "sqrt"])
@pytest.mark.parametrize("statistic", ["chi2", "poisson_nll"])
def test_free_centroid_uncertainties_match_a_central_difference_hessian(statistic,
                                                                       resolution_model):
    problem = _two_line_problem(statistic, resolution_model)
    values = fit_minimize(problem).values
    sigma = parameter_uncertainties(problem, values)

    def stat(theta):  # chi2 / 2 or the NLL, both with covariance H^-1
        value = _recomputed(statistic, problem, theta)
        return value / 2.0 if statistic == "chi2" else value

    n = values.size
    steps = np.diag(1e-2 * sigma)
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            a, b = steps[i], steps[j]
            hess[i, j] = (stat(values + a + b) - stat(values + a - b) - stat(values - a + b)
                          + stat(values - a - b)) / (4.0 * a[i] * b[j])
    np.testing.assert_allclose(sigma, np.sqrt(np.diag(np.linalg.inv(hess))), rtol=1e-4)


@pytest.mark.parametrize("offset", [0.0, 0.04, -0.06])
def test_reduced_curvature_with_held_bins_matches_central_differences(offset):
    # a 2-count line on a 0.4 counts/keV flat: the fit puts the flat term
    # at zero, where an empty bin holds the inner solve at mu = 0, and the
    # reduced gradient and Hessian come from the held block
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(2.0, 0.4)
    spectrum = simulate_spectrum(truth, grid, 7002)
    assert np.flatnonzero(spectrum.counts).tolist() == [29, 31]
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem.from_spectrum(spectrum, truth, free, free[1], statistic="poisson_nll")
    design = problem._design
    fit = fit_minimize(problem)
    assert fit.values[0] == pytest.approx(8.025, abs=1e-6)
    centroid = fit.values[0] + offset
    space = limits_module._Projection(problem)
    theta = space.solve([centroid], fit.values)[0]
    design.at([centroid])
    _, _, bins, held = limits_module._poisson_solve(
        problem, None, fit.values[design.linear_idx][None], "the test", Counter())
    held_bins = np.flatnonzero(bins[0])
    assert not held
    # the flat term's row ties in every bin far from the line: the solve
    # holds the first, at mu = 0 to rounding
    mu = design.point(theta)[0]
    assert held_bins.tolist() == [0]
    assert abs(mu[0]) <= 1e-15 * mu.max()
    gradient, hess = limits_module._reduced_curvature(problem, theta, held, held_bins)

    def stat(c):
        return space.solve([c], theta)[1]

    h = 1e-4
    up, mid, down = stat(centroid + h), stat(centroid), stat(centroid - h)
    # at the fit the gradient is about 9e-7
    assert gradient[0] == pytest.approx((up - down) / (2.0 * h), rel=1e-6, abs=1e-6)
    assert hess[0, 0] == pytest.approx((up - 2.0 * mid + down) / h ** 2, rel=1e-6)


def _chi2_projection_case(case, resolution_model):
    """A chi-square problem with one or two free lines on 60 bins of
    Poisson counts, the centroids to evaluate it at and the value to
    hold its signal at (None: free, clipped at zero)."""
    response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0,
                                resolution_model=resolution_model)
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    two = case.startswith("two")
    flat = "flat" in case
    if "line clipped" in case:
        # a dip at 7.3 keV: the signal line's free amplitude is negative
        truth = [GaussianLine(7.3, -1500.0), GaussianLine(8.0, 5000.0),
                 PolynomialBackground((10000.0,))]
        centroids = [7.31, 8.02]
    elif flat:
        # a background falling to zero at 6.5 keV drives the flat term,
        # the signal beside a free slope, negative
        truth = ([GaussianLine(7.0, 3000.0)] + [GaussianLine(8.5, 300.0)] * two
                 + [PolynomialBackground((-1950.0, 300.0))])
        centroids = [7.02, 8.47][:1 + two]
    else:
        truth = ([GaussianLine(7.7, 2000.0)] + [GaussianLine(8.0, 5000.0)] * two
                 + [PolynomialBackground((1000.0,))])
        centroids = [7.72, 7.97][:1 + two]
    mu = predict_counts(SpectralModel(tuple(truth), response), grid)
    observed = np.random.default_rng(3).poisson(mu).astype(float)
    last = len(truth) - 1
    free = [(0, "centroid_kev"), (0, "amplitude")]
    free += [(1, "centroid_kev"), (1, "amplitude")] * two + [(last, "coefficients", 0)]
    template = truth[:last] + [PolynomialBackground((500.0, 1.0) if flat else (500.0,))]
    if flat:
        free.append((last, "coefficients", 1))
    signal = (last, "coefficients", 0) if flat else (0, "amplitude")
    problem = FitProblem(grid, observed, SpectralModel(tuple(template), response),
                         free, signal)
    return problem, np.array(centroids), 1500.0 if "held" in case else None


@pytest.mark.parametrize("resolution_model", ["constant", "sqrt"])
@pytest.mark.parametrize("case", ["one line", "one line, held", "one line, flat clipped",
                                  "two lines", "two lines, held", "two lines, line clipped",
                                  "two lines, flat clipped"])
def test_chi2_reduced_curvature_matches_central_differences(case, resolution_model):
    # the chi-square over the centroids with the linear parameters
    # re-solved at each, away from its minimum so that the residual
    # terms of the Hessian count
    problem, centroids, held = _chi2_projection_case(case, resolution_model)
    space = limits_module._Projection(problem)
    theta, stat, gradient, hess = space.solve(centroids, None, held)
    assert stat == pytest.approx(_recomputed("chi2", problem, theta), rel=1e-13)
    np.testing.assert_array_equal(theta[problem.free.index((0, "centroid_kev"))], centroids[0])

    def stat_at(c):  # chi2 / 2, with the signal in the same state at every point
        values, value, _, _ = space.solve(c, None, held)
        signal = values[problem.signal_index()]
        if held is not None:
            assert signal == held
        else:
            assert (signal == 0.0) == case.endswith("clipped")
        return value / 2.0

    h, n = 1e-4, centroids.size
    steps = h * np.eye(n)
    numeric_gradient = [(stat_at(centroids + e) - stat_at(centroids - e)) / (2.0 * h)
                        for e in steps]
    numeric_hess = [[(stat_at(centroids + a + b) - stat_at(centroids + a - b)
                      - stat_at(centroids - a + b) + stat_at(centroids - a - b)) / (4.0 * h * h)
                     for b in steps] for a in steps]
    # the truncation error of the differences is about 2e-6 of the largest entry
    np.testing.assert_allclose(gradient, numeric_gradient, rtol=0,
                               atol=2e-5 * np.abs(gradient).max())
    np.testing.assert_allclose(hess, numeric_hess, rtol=0, atol=2e-5 * np.abs(hess).max())
    if case == "two lines, line clipped":
        # the signal line has no amplitude, so its centroid moves nothing
        assert gradient[0] == 0.0 and not hess[0].any() and not hess[:, 0].any()


def test_chi2_projection_raises_for_a_vanishing_signal_and_a_singular_basis(monkeypatch):
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    # no efficiency below 8 keV, where a 50 eV line leaves no count
    response = DetectorResponse(fwhm_kev_at_ref=0.05, efficiency=(0.0,) * 30 + (1.0,) * 30)
    two = SpectralModel((GaussianLine(7.0, 100.0), GaussianLine(8.5, 100.0),
                         PolynomialBackground((100.0,))), response)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "centroid_kev"), (1, "amplitude"),
            (2, "coefficients", 0))
    problem = FitProblem(grid, predict_counts(two, grid), two, free, free[1])
    space = limits_module._Projection(problem)
    with pytest.raises(DegenerateMapError, match="vanishes on the fit window"):
        space.solve(np.array([7.0, 8.5]))
    # two lines on one centroid have a singular Gram
    with pytest.raises(FitError, match="singular line columns"):
        space.solve(np.array([8.5, 8.5]))
    assert space.solve(np.array([8.2, 8.5]))[1] >= 0.0
    # two flat terms: statics that are linearly dependent
    doubled = SpectralModel(two.components + (PolynomialBackground((100.0,)),), response)
    dependent = FitProblem(grid, predict_counts(doubled, grid), doubled,
                           free + ((3, "coefficients", 0),), free[1])
    with pytest.raises(FitError, match="degenerate nuisance basis"):
        limits_module._Projection(dependent).solve(np.array([8.2, 8.5]))

    # the line search takes a trial whose solve raises as failed, and halves the step
    problem = _two_line_problem("chi2")
    space = limits_module._Projection(problem)
    start = problem.initial_values()
    start[[0, 2]] = limits_module._grid_start(space)[0]
    clean = limits_module._reduced_newton(space, start)
    real, calls = space.solve, []

    def failing(centroids, start=None, signal=None):
        calls.append(np.array(centroids))
        if len(calls) in (2, 3):  # the first line-search trial, then its half step
            raise (DegenerateMapError if len(calls) == 2 else FitError)("forced")
        return real(centroids, start, signal)

    monkeypatch.setattr(space, "solve", failing)
    theta, stat, solves, _ = limits_module._reduced_newton(space, start)
    # the third trial is the second one's half step from the same point
    np.testing.assert_allclose(calls[2] - calls[0], (calls[1] - calls[0]) / 2.0, rtol=1e-12)
    assert solves > clean[2]
    assert stat == pytest.approx(clean[1], rel=1e-12)
    np.testing.assert_allclose(theta[[0, 2]], clean[0][[0, 2]], rtol=0, atol=1e-6)


@pytest.mark.parametrize("statistic", ["chi2", "poisson_nll"])
def test_lone_free_line_fit_and_profile_match_a_centroid_search(statistic):
    # a line whose centroid and amplitude are the only free parameters:
    # no static column to project out. The fit and three profile points
    # match a golden-section search over the centroid, the amplitude in
    # closed form at each for the fit and held for the profile
    problem = _background_free_free_centroid_problem(3)
    problem = replace(problem, observed=problem.observed * 10.0, statistic=statistic)
    assert not problem._design.static_columns
    variance = np.maximum(problem.observed, 1.0)

    def unit(c):
        return predict_counts(replace(problem.model, components=(GaussianLine(c, 1.0),)),
                              problem.grid)

    def stat(c, amplitude=None):
        if amplitude is None:
            column = unit(c)
            if statistic == "chi2":  # weighted least squares
                amplitude = float(np.sum(problem.observed * column / variance)
                                  / np.sum(column * column / variance))
            else:  # N / C
                amplitude = float(problem.observed.sum() / column.sum())
        return _recomputed(statistic, problem, [c, amplitude])

    fit = fit_minimize(problem)
    centroid = fit.values[0]
    oracle = _golden_minimum(stat, centroid - 0.05, centroid + 0.05)
    assert fit.statistic <= oracle + 1e-10 * (1.0 + abs(oracle))
    pstat, shat, stat_min, _, _ = limits_module._profiler(problem)
    assert (shat, stat_min) == (fit.values[1], fit.statistic)
    for s in (0.8 * shat, 1.1 * shat, 1.3 * shat):
        oracle = _golden_minimum(lambda c: stat(c, s), centroid - 0.05, centroid + 0.05)
        assert pstat([s])[0] == pytest.approx(oracle, rel=1e-10)
    result = bayesian_upper_limit(problem, 0.95)
    assert np.isfinite(result.upper_bound) and result.upper_bound > shat


def test_projection_fit_and_limit_carry_no_state_between_calls(monkeypatch):
    # a fresh problem, and one whose shared design was last moved to
    # other centroids by another problem's fit: fit and limit agree bit
    # for bit, and each problem builds its design once
    built = []
    real_init = limits_module._Design.__init__

    def counted(self, problem):
        built.append(problem)
        real_init(self, problem)

    monkeypatch.setattr(limits_module._Design, "__init__", counted)
    truth = SpectralModel(components=(GaussianLine(7.7, 150.0), PolynomialBackground((300.0,))),
                          response=RESPONSE)
    grid = EnergyGrid.uniform(7.0, 8.5, 30)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    spectrum = simulate_spectrum(truth, grid, seed=1)

    def outcome(problem):
        fit = fit_minimize(problem)
        limit = bayesian_upper_limit(problem, 0.95)
        return (fit.values.tolist(), fit.statistic, fit.n_evaluations,
                limit.upper_bound, limit.scan.tolist(), limit.metadata)

    fresh = FitProblem.from_spectrum(spectrum, truth, free, free[1])
    moved = FitProblem.from_spectrum(spectrum, truth, free, free[1])
    other = replace(moved, observed=simulate_spectrum(truth, grid, seed=2).counts)
    vars(other)["_design"] = moved._design
    fit_minimize(other)
    moved._design.at([8.4])
    assert outcome(moved) == outcome(fresh)
    assert built == [moved, fresh]


def test_chi2_free_centroid_work_counters_stay_pinned():
    # the deterministic counters a regression gate keys on: the 2485
    # grid tuples and the inner solves of the two-line fit, and the
    # profile points and Newton iterations of its limit
    for resolution_model, evaluations, iterations in (("constant", 2488, 262),
                                                      ("sqrt", 2560, 263)):
        problem = _two_line_problem("chi2", resolution_model)
        assert fit_minimize(problem).n_evaluations == evaluations
        limit = bayesian_upper_limit(problem, 0.95)
        assert limit.metadata["profile_points"] == 130
        assert limit.metadata["newton_iterations"] == iterations


# nested-simplex bounds (the `simplex` profile, as run before variable
# projection) with the centroid held to 7.4-8.0 keV by explicit bounds;
# with the centroid free that profile kept the line where the signal-free
# point left it and gave 355.5 (chi2) and 536.5 (Poisson)
NESTED_CENTROID_BOUND_CHI2 = 197.5433196168731
NESTED_CENTROID_BOUND_POISSON = 193.25795275359624


@pytest.mark.parametrize("statistic, nested", [("chi2", NESTED_CENTROID_BOUND_CHI2),
                                               ("poisson_nll", NESTED_CENTROID_BOUND_POISSON)])
def test_free_centroid_limit_matches_the_nested_simplex(statistic, nested):
    grid_rtol = 1e-3
    truth = SpectralModel(components=(GaussianLine(7.7, 150.0), PolynomialBackground((300.0,))),
                          response=RESPONSE)
    spectrum = simulate_spectrum(truth, EnergyGrid.uniform(7.0, 8.5, 30), seed=1)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem.from_spectrum(spectrum, truth, free, free[1], statistic=statistic)
    result = bayesian_upper_limit(problem, 0.95, grid_rtol=grid_rtol)
    assert result.upper_bound == pytest.approx(nested, rel=grid_rtol)
    assert result.metadata["profile_solver"] == "projection"
    assert result.metadata["newton_iterations"] > 0


# ---------------------------------------------------------------------------
# Gaussian-residual bounds against the analytic truncated normal


def test_half_gaussian_oracle_bounds():
    problem = GaussianResidualProblem(values=[0.0], sigmas=[1.0], signal_shape=[1.0])
    r90 = bayesian_upper_limit(problem, 0.90, grid_rtol=1e-5)
    r95 = bayesian_upper_limit(problem, 0.95, grid_rtol=1e-5)
    assert r90.upper_bound == pytest.approx(HALF_GAUSS_BOUND_90, rel=1e-14)
    assert r95.upper_bound == pytest.approx(HALF_GAUSS_BOUND_95, rel=1e-14)
    assert r90.method == "bayesian-gaussian-residual"
    assert r90.metadata["statistic"] == "chi2"


def test_truncated_normal_oracle_off_zero():
    up = bayesian_upper_limit(
        GaussianResidualProblem(values=[1.0], sigmas=[2.0], signal_shape=[1.0]),
        0.95, grid_rtol=1e-5)
    down = bayesian_upper_limit(
        GaussianResidualProblem(values=[-1.0], sigmas=[1.0], signal_shape=[1.0]),
        0.95, grid_rtol=1e-5)
    assert up.upper_bound == pytest.approx(TRUNC_BOUND_Y1_S2_95, rel=1e-14)
    assert down.upper_bound == pytest.approx(TRUNC_BOUND_YM1_S1_95, rel=1e-14)


def _weighted_least_squares_signal(columns, observed):
    """The signal (column 0) and its sigma from numpy's least squares on
    the Neyman-weighted design, independently of speclimit's solver."""
    root = 1.0 / np.sqrt(np.maximum(observed, 1.0))
    a = columns * root[:, None]
    theta = np.linalg.lstsq(a, observed * root, rcond=None)[0]
    return theta[0], math.sqrt(np.linalg.inv(a.T @ a)[0, 0])


@pytest.mark.parametrize("seed, line", [(4, 40.0), (5, 0.0), (6, 0.0)])
def test_exact_gaussian_bound_is_the_truncated_normal_quantile(seed, line):
    # 60 bins, a line on a 1/E continuum and a flat background, both
    # profiled: the bound is y + sigma isf((1 - cl) sf(-y / sigma)) of
    # the weighted least-squares signal y and its sigma
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(line, 200.0, alpha=300.0)
    observed = simulate_spectrum(truth, grid, seed=seed).counts.astype(float)
    free = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0))
    problem = FitProblem(grid, observed, truth, free, free[0])
    columns = np.column_stack([
        component_bin_counts(component, grid, RESPONSE)
        for component in (GaussianLine(7.7, 1.0), OneOverEContinuum(1.0),
                          PolynomialBackground((1.0,)))])
    shat, sigma = _weighted_least_squares_signal(columns, observed)
    for cl in (0.9, 0.95):
        result = bayesian_upper_limit(problem, cl)
        assert result.metadata["profile_solver"] == "exact-gaussian"
        assert result.upper_bound == pytest.approx(_truncated_normal_bound(shat, sigma, cl),
                                                   rel=1e-10)
        assert result.metadata["best_signal"] == pytest.approx(max(shat, 0.0), rel=1e-10,
                                                               abs=1e-10 * sigma)
        # the scan samples the exact parabola at 513 points up to 10 sigma
        # above the clipped signal
        s, chi2 = result.scan.T
        assert s.size == result.metadata["scan_points"] == 513
        assert result.metadata["scan_max"] == pytest.approx(max(shat, 0.0) + 10.0 * sigma,
                                                            rel=1e-10)
        np.testing.assert_allclose(chi2 - result.metadata["statistic_min"],
                                   ((s - shat) ** 2 - (max(shat, 0.0) - shat) ** 2) / sigma**2,
                                   rtol=1e-9, atol=1e-9)


def _log_space_bound(shat, sigma, cl):
    """sigma t with log Q(x + t) - log Q(x) = log(1 - cl), x = -shat / sigma,
    from scipy's log_ndtr and a bracketing root finder."""
    from scipy.optimize import brentq
    from scipy.special import log_ndtr

    x = -shat / sigma

    def excess(t):
        return log_ndtr(-(x + t)) - log_ndtr(-x) - math.log1p(-cl)

    hi = 1.0
    while excess(hi) > 0:
        hi *= 2.0
    return sigma * brentq(excess, 0.0, hi, xtol=1e-300, rtol=1e-15)


@pytest.mark.parametrize("z", [-5.0, -40.0, -1000.0])
@pytest.mark.parametrize("cl", [0.9, 0.95])
def test_deep_deficit_bounds_match_a_log_space_oracle(z, cl):
    # at shat / sigma below about -37, Phi(shat / sigma) underflows; the
    # bound stays finite, positive and on the log-space quantile
    sigma = 2.0
    result = bayesian_upper_limit(
        GaussianResidualProblem(values=[z * sigma], sigmas=[sigma], signal_shape=[1.0]), cl)
    assert math.isfinite(result.upper_bound) and result.upper_bound > 0.0
    assert result.upper_bound == pytest.approx(_log_space_bound(z * sigma, sigma, cl),
                                               rel=1e-6)
    assert result.metadata["best_signal"] == 0.0


def test_closed_form_is_continuous_where_the_deficit_goes_to_log_space():
    # on both sides of the switch (near shat / sigma = -37 at 95% CL)
    for z in np.linspace(-36.0, -38.0, 41):
        bound = limits_module._truncated_gaussian_upper(z, 1.0, 0.95)
        assert bound == pytest.approx(_log_space_bound(z, 1.0, 0.95), rel=1e-10)


def test_normal_quantile_repeats_normal_dist_bit_for_bit():
    # AS241 as the standard library runs it, on random p, on each branch
    # of the approximation and on both tails down to 1e-299
    from statistics import NormalDist

    p = np.concatenate([np.random.default_rng(3).random(20_000),
                        [0.075, 0.5, 0.925, 0.0749999999, 0.9250000001],
                        10.0 ** -np.arange(1, 300), 1.0 - 10.0 ** -np.arange(1, 16)])
    inv_cdf = NormalDist().inv_cdf
    mismatched = [float(x) for x in p
                  if limits_module._normal_quantile(float(x)) != inv_cdf(float(x))]
    assert mismatched == []


@settings(max_examples=25, deadline=None)
@given(y=st.floats(min_value=-3.0, max_value=3.0),
       sigma=st.floats(min_value=0.3, max_value=3.0),
       cl=st.floats(min_value=0.6, max_value=0.99))
def test_residual_bound_matches_analytic_quantile(y, sigma, cl):
    problem = GaussianResidualProblem(values=[y], sigmas=[sigma], signal_shape=[1.0])
    result = bayesian_upper_limit(problem, cl, grid_rtol=1e-4)
    oracle = _truncated_normal_bound(y, sigma, cl)
    assert result.upper_bound == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(values=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4),
       cl=st.floats(min_value=0.6, max_value=0.94),
       k=st.floats(min_value=0.05, max_value=20.0))
def test_residual_bound_is_monotone_in_cl_and_scales_inversely_with_the_shape(values, cl, k):
    shape = np.array([0.2, 1.0, 0.7, 0.1])

    def bound(scale, level):
        problem = GaussianResidualProblem(values=values, sigmas=np.ones(4),
                                          signal_shape=scale * shape)
        return bayesian_upper_limit(problem, level).upper_bound

    base = bound(1.0, cl)
    assert base < bound(1.0, cl + 0.05)
    assert bound(k, cl) == pytest.approx(base / k, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       cl=st.floats(min_value=0.6, max_value=0.94),
       k=st.floats(min_value=0.05, max_value=1.0))
def test_exact_gaussian_bound_is_monotone_in_cl_and_scales_inversely_with_the_shape(seed,
                                                                                   cl, k):
    # an efficiency k multiplies every column, the signal's included,
    # so the amplitudes and with them the bound scale as 1 / k
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = simulate_spectrum(_line_model(20.0, 300.0), grid, seed=seed).counts
    free = ((0, "amplitude"), (1, "coefficients", 0))

    def bound(efficiency, level):
        response = DetectorResponse(fwhm_kev_at_ref=0.32, efficiency=efficiency)
        template = replace(_line_model(20.0, 300.0), response=response)
        problem = FitProblem(grid, observed, template, free=free, signal=free[0])
        result = bayesian_upper_limit(problem, level)
        assert result.metadata["profile_solver"] == "exact-gaussian"
        return result.upper_bound

    base = bound(1.0, cl)
    assert base < bound(1.0, cl + 0.05)
    assert bound(k, cl) == pytest.approx(base / k, rel=1e-12)


def test_bound_grows_with_observed_excess():
    lo = bayesian_upper_limit(
        GaussianResidualProblem(values=[-0.5], sigmas=[1.0], signal_shape=[1.0]), 0.95)
    hi = bayesian_upper_limit(
        GaussianResidualProblem(values=[1.5], sigmas=[1.0], signal_shape=[1.0]), 0.95)
    assert hi.upper_bound > lo.upper_bound


def test_multi_bin_shape_combines_information():
    # two bins measuring the same signal: effective sigma is 1/sqrt(2)
    problem = GaussianResidualProblem(values=[0.0, 0.0], sigmas=[1.0, 1.0],
                                      signal_shape=[1.0, 1.0])
    result = bayesian_upper_limit(problem, 0.90, grid_rtol=1e-5)
    assert result.upper_bound == pytest.approx(HALF_GAUSS_BOUND_90 / math.sqrt(2.0),
                                               rel=1e-14)


def test_linear_nuisance_is_profiled_out():
    # a pedestal under the line is a free flat term, which the closed-form
    # core profiles out: the template starts both at zero, and the fit
    # finds the truth's line and pedestal within their noise
    grid = EnergyGrid.uniform(6.5, 9.5, 40)
    observed = simulate_spectrum(_line_model(400.0, 300.0), grid, seed=5).counts
    free = ((0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem(grid, observed, _line_model(0.0, 0.0), free, free[0])
    result = bayesian_upper_limit(problem, 0.95, grid_rtol=1e-4)
    assert result.metadata["profile_solver"] == "exact-gaussian"
    fit = fit_minimize(problem)
    sigmas = parameter_uncertainties(problem, fit.values)
    assert result.metadata["best_signal"] == fit.values[0]
    assert fit.values == pytest.approx([400.0, 300.0], abs=3.0 * sigmas.max())
    assert result.upper_bound > result.metadata["best_signal"]


def test_degenerate_signal_shape_raises():
    problem = GaussianResidualProblem(values=[1.0, 2.0], sigmas=[1.0, 1.0],
                                      signal_shape=[0.0, 0.0])
    with pytest.raises(DegenerateMapError):
        bayesian_upper_limit(problem, 0.95)


def test_confidence_level_must_be_interior():
    problem = GaussianResidualProblem(values=[0.0], sigmas=[1.0], signal_shape=[1.0])
    with pytest.raises(DomainError):
        bayesian_upper_limit(problem, 1.0)
    with pytest.raises(DomainError):
        bayesian_upper_limit(problem, 0.0)


@pytest.mark.parametrize("cl, grid_rtol", [(1.5, 1e-3), (0.95, 0.0), (0.95, -0.5),
                                           (0.95, 1.0), (0.95, math.nan)])
def test_limits_and_ensembles_refuse_a_cl_or_grid_rtol_outside_zero_one(cl, grid_rtol):
    # refused before any solve, even where the closed-form bound ignores grid_rtol
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    truth = _line_model(10.0, 200.0)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem(grid, predict_counts(truth, grid), truth, free, free[0],
                         statistic="poisson_nll")
    residual = GaussianResidualProblem(values=[0.0], sigmas=[1.0], signal_shape=[1.0])
    for limited in (problem, residual):
        with pytest.raises(DomainError, match="strictly between 0 and 1"):
            bayesian_upper_limit(limited, cl, grid_rtol=grid_rtol)
    for statistic in ("chi2", "poisson_nll"):
        with pytest.raises(DomainError, match="strictly between 0 and 1"):
            run_pseudo_experiments(truth, grid, free, free[0], n=2, cl=cl, seed=1,
                                   statistic=statistic, grid_rtol=grid_rtol)


# ---------------------------------------------------------------------------
# FitProblem limits: fast linear path vs nested profiling vs Poisson


def _limit_fixture(statistic="chi2"):
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(0.0, 300.0)
    spectrum = simulate_spectrum(truth, grid, seed=11, tag="measured")
    template = _line_model(5.0, 300.0)
    return FitProblem.from_spectrum(
        spectrum, template,
        free=((0, "amplitude"), (1, "coefficients", 0)),
        signal=(0, "amplitude"), statistic=statistic)


# bounds of _limit_fixture profiled by nested Nelder-Mead runs, frozen
# from the release before the simplex left the package: chi2 at
# grid_rtol 1e-4, and Poisson at 1e-3 with its minimum NLL
NESTED_SIMPLEX_BOUND_CHI2 = 19.866248320322054
NESTED_SIMPLEX_BOUND_POISSON = 24.914313949019434
NESTED_SIMPLEX_NLL_MIN_POISSON = 172.2439024255463


def test_linear_fast_path_agrees_with_nested_profiler():
    fast = bayesian_upper_limit(_limit_fixture(), 0.95, grid_rtol=1e-4)
    assert fast.method == "bayesian-chi2-profile"
    assert NESTED_SIMPLEX_BOUND_CHI2 == pytest.approx(fast.upper_bound, rel=1e-4)
    assert fast.metadata["profile_solver"] == "exact-gaussian"


def test_newton_poisson_profile_agrees_with_nested_simplex():
    grid_rtol = 1e-3
    newton = bayesian_upper_limit(_limit_fixture("poisson_nll"), 0.95, grid_rtol=grid_rtol)
    assert newton.method == "bayesian-poisson_nll-profile"
    assert newton.metadata["profile_solver"] == "newton"
    assert newton.metadata["newton_iterations"] > 0
    assert newton.upper_bound == pytest.approx(NESTED_SIMPLEX_BOUND_POISSON, rel=grid_rtol)
    assert newton.metadata["statistic_min"] == pytest.approx(
        NESTED_SIMPLEX_NLL_MIN_POISSON, rel=1e-9)


def _profile_flat_background(observed, line, flat, s, iterations=200):
    """Poisson NLL minimized over a flat background b >= the empty-bin
    floor, by bisection on its monotone score; returns (nll, binding)."""
    occupied = observed > 0
    floor = np.max(-s * line[~occupied] / flat[~occupied])

    def score(b):
        mu = s * line + b * flat
        with np.errstate(divide="ignore"):  # at s = 0 the floor leaves mu = 0
            return np.sum(flat) - np.sum(observed[occupied] * flat[occupied] / mu[occupied])

    binding = score(floor) >= 0.0
    lo, hi = floor, observed.sum() / flat.sum() + 1.0
    if not binding:
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if score(mid) > 0 else (mid, hi)
    b = floor if binding else 0.5 * (lo + hi)
    mu = s * line + b * flat
    nll = np.sum(mu) - np.sum(observed[occupied] * np.log(mu[occupied]))
    return nll + np.sum([math.lgamma(n + 1.0) for n in observed]), binding


def test_poisson_uncertainties_refuse_a_curvature_the_newton_calls_singular():
    # two counts at 0.02 counts per bin put the flat term at zero, and
    # the bins with counts then curve the line and the flat term alike;
    # np.linalg.inv still inverts the Hessian, to sigmas of about 1e8
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(2.0, 0.4)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=8088), truth, free,
                                       free[0], statistic="poisson_nll")
    assert np.count_nonzero(problem.observed) == 2
    fit = fit_minimize(problem)
    hess = limits_module._curvature(problem, fit.values)[1]
    assert jacobi_scaled(hess)[2]
    assert np.sqrt(np.diag(np.linalg.inv(hess))).min() > 1e6
    with pytest.raises(FitError, match="singular curvature"):
        parameter_uncertainties(problem, fit.values)


def _stacked_2x2_hessians():
    """Hessians of two parameters: random SPD ones, ones with a scaled
    off-diagonal of +-(1 - 1e-13), exactly singular ones and ones with a
    zero diagonal entry."""
    rng = np.random.default_rng(11)
    r = np.concatenate([rng.uniform(-0.95, 0.95, 24), [1.0 - 1e-13, -(1.0 - 1e-13)] * 4])
    a, b = rng.uniform(0.1, 10.0, (2, r.size))
    off = r * np.sqrt(a * b)
    correlated = np.stack([np.stack([a, off], -1), np.stack([off, b], -1)], -2)
    # exactly singular: the outer product of one column with itself
    column = rng.normal(size=(8, 2))
    singular = column[:, :, None] * column[:, None, :]
    zero_diagonal = np.array([[[0.0, 0.0], [0.0, 2.5]], [[3.0, 0.0], [0.0, 0.0]]])
    return np.concatenate([correlated, singular, zero_diagonal])


def test_a_2x2_singularity_test_flags_what_eigvalsh_flags():
    hess = _stacked_2x2_hessians()
    scaled, _, singular = jacobi_scaled(hess)
    diag = np.diagonal(hess, axis1=-2, axis2=-1)
    by_eigenvalue = np.any(diag <= 0, axis=-1) | (
        np.linalg.eigvalsh(scaled)[:, 0] <= newton_module._SINGULAR_EIGENVALUE)
    assert np.array_equal(singular, by_eigenvalue)
    assert not singular[:24].any() and singular[24:].all()


def test_a_2x2_newton_step_matches_a_linear_solve():
    hess = _stacked_2x2_hessians()
    grad = np.random.default_rng(12).normal(size=(hess.shape[0], 2))
    step, singular = newton_steps(hess.reshape(-1, 4), grad)
    scaled, inv_sqrt, flagged = jacobi_scaled(hess)
    assert np.array_equal(singular, flagged)
    # a singular row solves with the identity, for the active-set step to replace
    scaled[flagged] = np.eye(2)
    solved = -inv_sqrt * np.linalg.solve(scaled, (inv_sqrt * grad)[:, :, None])[:, :, 0]
    error = np.abs(step - solved).max(axis=1)
    assert np.all(error <= 1e-13 * np.abs(solved).max(axis=1))


def test_newton_profile_holds_empty_bins_at_zero_expectation():
    # counts only under the line: at large signal the background wants
    # to go negative and mu >= 0 in the empty bins stops it
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = np.zeros(60)
    observed[22:27] = [2.0, 6.0, 9.0, 6.0, 2.0]
    problem = FitProblem(grid, observed, _line_model(20.0, 10.0),
                         free=((0, "amplitude"), (1, "coefficients", 0)),
                         signal=(0, "amplitude"), statistic="poisson_nll")
    result = bayesian_upper_limit(problem, 0.95)
    line = predict_counts(_line_model(1.0, 0.0), grid)
    flat = predict_counts(_line_model(0.0, 1.0), grid)
    binding = 0
    for s, value in result.scan[::8]:
        expected, bound_active = _profile_flat_background(observed, line, flat, s)
        binding += bound_active
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)
    assert binding > 10
    # a template background of zero puts no start inside the domain at
    # zero signal, so the starts come from the solved points or least squares
    zero = replace(problem, model=_line_model(20.0, 0.0))
    assert bayesian_upper_limit(zero, 0.95).upper_bound == pytest.approx(result.upper_bound,
                                                                         rel=1e-9)
    # from a start far above the optimum the first Newton steps overshoot
    # onto the floor, which must be released where the optimum is interior
    s = np.linspace(0.5, 60.0, 120)
    nll = minimize_linear_poisson(LinearPoisson.of(observed, flat[:, None]), s[:, None] * line,
                                  np.full((s.size, 1), 50.0), str)[1]
    expected = np.array([_profile_flat_background(observed, line, flat, v) for v in s])
    assert 0 < expected[:, 1].sum() < s.size
    np.testing.assert_allclose(nll, expected[:, 0], rtol=1e-10)


# a spectrum with empty bins at both ends, and the columns of the batch
# tests: a flat, a slope and a line, and a column that moves only the two
# empty bins at the low end, which no bin with counts curves
_BATCH_BINS = np.arange(24)
_BATCH_OBSERVED = np.array([0, 0, 3, 1, 2, 4, 2, 5, 7, 9, 12, 10, 8, 6, 3, 2, 1, 2, 0, 1,
                            0, 0, 0, 0], dtype=float)
_BATCH_COLUMNS = {
    "curved": [np.ones(24), _BATCH_BINS / 23.0,
               np.exp(-0.5 * ((_BATCH_BINS - 10.5) / 2.0) ** 2)],
    "ray": [np.where(_BATCH_BINS >= 2, 1.0, 0.0),
            np.where(_BATCH_BINS >= 2, _BATCH_BINS / 23.0, 0.0),
            np.where(_BATCH_BINS < 2, 1.0, 0.0)],
}


def _batch(kind, k):
    """Columns, offsets (a held signal from 0.5 to 60) and starts of a
    five-row batch: the first k columns, the uncurved one last for "ray"."""
    columns = _BATCH_COLUMNS[kind]
    columns = np.column_stack(columns[:k] if kind == "curved" else columns[:k - 1] + columns[2:])
    signal = np.exp(-0.5 * ((_BATCH_BINS - 9.0) / 3.0) ** 2)
    offsets = np.array([0.5, 1.0, 2.0, 30.0, 60.0])[:, None] * signal
    starts = np.full((5, k), 2.0)
    starts[1], starts[2] = 20.0, 0.3
    if kind == "ray":
        # the third row starts with its lowest bin at mu = 0
        starts[:, -1] = [1.0, 3.0, -offsets[2, 0], 1e-3, 0.5]
    return columns, offsets, starts


@pytest.mark.parametrize("kind", ["curved", "ray"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_newton_rows_solved_in_a_batch_match_each_row_solved_alone(kind, k):
    # the rows stop on different passes and drop out of the batch as they
    # do, and some end with empty bins held at mu = 0; with the uncurved
    # column each row but the third starts above the floor, steps along a
    # ray to the first of the two low bins that reaches mu = 0 and ends there
    columns, offsets, starts = _batch(kind, k)
    system = LinearPoisson.of(_BATCH_OBSERVED, columns)
    x, nll, iterations, working = minimize_linear_poisson(system, offsets, starts, str)
    passes, held = [], []
    for r in range(offsets.shape[0]):
        x_r, nll_r, passes_r, working_r = minimize_linear_poisson(
            system, offsets[r:r + 1], starts[r:r + 1], str)
        assert abs(nll[r] - nll_r[0]) <= 1e-12 * (1.0 + abs(nll_r[0]))
        np.testing.assert_allclose(x[r], x_r[0], rtol=1e-9, atol=1e-12)
        assert np.array_equal(working[r], working_r[0])
        mu = offsets[r] + columns @ x_r[0]
        passes.append(passes_r)
        at_zero = (_BATCH_OBSERVED == 0) & (mu <= 1e-9 * mu.max())
        held.append(int(at_zero.sum()))
        if kind == "ray":
            assert at_zero[:2].any()
    assert iterations == max(passes)
    # with the uncurved column alone every row is one ray step, and all
    # stop on the next pass; otherwise they stop on different passes
    assert len(set(passes)) == 1 if (kind, k) == ("ray", 1) else len(set(passes)) > 1
    assert max(held) > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scoring_step_is_the_reweighted_least_squares_fit(k):
    # weights 1/mu at the start: the first three curved rows score inside
    # the domain; the last two, with a held signal of 30 and 60 above
    # counts of at most 12, score outside it and keep their starts
    columns, offsets, starts = _batch("curved", k)
    system = LinearPoisson.of(_BATCH_OBSERVED, columns)
    scored = scoring_step(system, offsets, starts)
    for r in range(5):
        root_w = 1.0 / np.sqrt(offsets[r] + columns @ starts[r])
        oracle = np.linalg.lstsq(root_w[:, None] * columns,
                                 root_w * (_BATCH_OBSERVED - offsets[r]), rcond=None)[0]
        inside = in_poisson_domain(_BATCH_OBSERVED, offsets[r] + columns @ oracle)
        assert inside == (r < 3)
        if inside:
            np.testing.assert_allclose(scored[r], oracle, rtol=1e-12, atol=0.0)
        else:
            assert np.array_equal(scored[r], starts[r])


def test_scoring_step_keeps_a_start_with_a_bin_at_zero():
    # the third ray row starts with its lowest bin, an empty one, at mu = 0
    columns, offsets, starts = _batch("ray", 3)
    system = LinearPoisson.of(_BATCH_OBSERVED, columns)
    assert (offsets[2] + columns @ starts[2])[0] == 0.0
    assert np.array_equal(scoring_step(system, offsets, starts)[2], starts[2])


@pytest.mark.parametrize("kind", ["curved", "ray"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_newton_from_a_scored_start_reaches_the_unscored_minimum(kind, k):
    columns, offsets, starts = _batch(kind, k)
    system = LinearPoisson.of(_BATCH_OBSERVED, columns)
    plain = minimize_linear_poisson(system, offsets, starts, str)
    scored = minimize_linear_poisson(system, offsets, scoring_step(system, offsets, starts),
                                     str)
    assert np.all(np.abs(scored[1] - plain[1]) <= 2e-12 * (1.0 + np.abs(plain[1])))
    assert np.array_equal(scored[3], plain[3])


def test_newton_errors_name_the_original_row_after_the_batch_shrinks(monkeypatch):
    import speclimit.newton as newton_module

    columns, offsets, starts = _batch("curved", 1)
    system = LinearPoisson.of(_BATCH_OBSERVED, columns)
    passes = [minimize_linear_poisson(system, offsets[r:r + 1], starts[r:r + 1], str)[2]
              for r in range(5)]
    # every row but the slowest stops within the pass limit
    slowest = int(np.argmax(passes))
    limit = sorted(passes)[-2]
    assert slowest != 0 and passes[slowest] > limit
    monkeypatch.setattr(newton_module, "_NEWTON_MAX_ITER", limit)
    with pytest.raises(FitError, match=f"did not converge in {limit} steps at row {slowest}$"):
        minimize_linear_poisson(system, offsets, starts, lambda i: f"row {i}")


def _assert_no_row_stopped_early(system, offsets, solved):
    """Each returned row with no bin held meets the stop test, its Newton
    decrement g^T H^-1 g recomputed from poisson_curvature at most
    2e-12 (1 + |NLL|); returns how many rows were checked."""
    x, nll, _, held = solved
    free = ~held.any(axis=1)
    mu = offsets[free] + x[free] @ system.columns.T
    dl_dmu, hess = poisson_curvature(system.observed, system.columns, mu)
    grad = dl_dmu @ system.columns
    assert not jacobi_scaled(hess)[2].any()
    decrement = np.sum(grad * np.linalg.solve(hess, grad[:, :, None])[:, :, 0], axis=1)
    assert np.all(decrement <= 2e-12 * (1.0 + np.abs(nll[free])))
    return int(free.sum())


def test_the_quadratic_stop_certificate_never_stops_a_batch_row_early():
    # with every count at least 1 a full quadratic step bounds the next
    # decrement by (lambda / (1 - lambda))^4, and the solve may stop on
    # that bound without computing the decrement; the batch's empty bins
    # keep the cut but not the bound. With two columns every row ends
    # with a bin held
    checked = 0
    for k in (1, 2, 3):
        columns, offsets, starts = _batch("curved", k)
        system = LinearPoisson.of(_BATCH_OBSERVED, columns)
        assert system.self_concordant and system.any_empty
        solved = minimize_linear_poisson(system, offsets, starts, str)
        checked += _assert_no_row_stopped_early(system, offsets, solved)
    assert checked >= 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), k=st.integers(min_value=1, max_value=3),
       level=st.sampled_from([0.5, 2.0, 8.0, 40.0]))
def test_the_quadratic_stop_certificate_never_stops_a_generated_row_early(seed, k, level):
    # integer counts on a flat, a slope and a line column, some bins empty
    # at low levels, and a held line of six heights as the offsets
    rng = np.random.default_rng(seed)
    bins = np.arange(30)
    columns = np.column_stack([
        np.ones(30), bins / 29.0,
        np.exp(-0.5 * ((bins - rng.uniform(5.0, 25.0)) / rng.uniform(1.0, 4.0)) ** 2)])[:, :k]
    observed = rng.poisson(level * (columns @ rng.uniform(0.2, 1.0, k))).astype(float)
    assume(observed.sum() >= 3.0)
    offsets = rng.uniform(0.0, level, (6, 1)) * np.exp(-0.5 * ((bins - 15.0) / 3.0) ** 2)
    starts = rng.uniform(0.5, 2.0, (6, k)) * level
    system = LinearPoisson.of(observed, columns)
    assert system.self_concordant
    _assert_no_row_stopped_early(system, offsets,
                                 minimize_linear_poisson(system, offsets, starts, str))


@pytest.mark.parametrize("k", [1, 2])
def test_counts_below_one_take_the_damped_path_to_the_minimum(k):
    # a count in (0, 1) has |phi'''| above 2 phi''^(3/2) somewhere, so the
    # NLL is not standard self-concordant and neither the full step nor
    # the stop bound holds: the line search runs, from a far start too
    from scipy.optimize import minimize

    rng = np.random.default_rng(7)
    bins = np.arange(24)
    columns = np.column_stack([np.ones(24), np.exp(-0.5 * ((bins - 11.0) / 2.5) ** 2)])[:, :k]
    observed = np.round(rng.uniform(0.05, 0.95, 24), 2)
    observed[[4, 11, 12]] = [3.0, 2.5, 1.0]
    offsets = np.full((1, 24), 0.05)
    system = LinearPoisson.of(observed, columns)
    assert not system.self_concordant and not system.any_empty

    def nll(x):
        mu = offsets[0] + columns @ x
        return float(poisson_nll(observed, mu)) if np.all(mu > 0) else np.inf

    for start in (np.full(k, 0.5), np.full(k, 30.0)):
        x, value = minimize_linear_poisson(system, offsets, start[None], str)[:2]
        oracle = minimize(nll, start, method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20000})
        assert oracle.success
        assert value[0] <= oracle.fun + 1e-12 * (1.0 + abs(oracle.fun))
        np.testing.assert_allclose(x[0], oracle.x, rtol=1e-5)


@pytest.mark.parametrize("seed", range(100, 140))
def test_background_free_line_fit_and_limit_match_the_gamma_posterior(seed):
    # with the amplitude s the only free parameter, mu = s c, so the NLL is
    # s C - N ln s + const with N = sum(n) and C = sum(c): the fit is N / C
    # and the flat-prior posterior s^N exp(-s C) has the Gamma quantile
    # gammaincinv(N + 1, cl) / C. Every tail bin is empty with c far below
    # 1e-12 of the peak, and none may hold the fit at its start
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = SpectralModel(components=(GaussianLine(7.7, 4.0),), response=RESPONSE)
    spectrum = simulate_spectrum(truth, grid, seed)
    problem = FitProblem.from_spectrum(spectrum, truth, ((0, "amplitude"),), (0, "amplitude"),
                                       statistic="poisson_nll")
    column = predict_counts(replace(truth, components=(GaussianLine(7.7, 1.0),)), grid)
    n, c = float(spectrum.counts.sum()), float(column.sum())
    exact = float(poisson_nll(spectrum.counts.astype(float), (n / c) * column))
    fit = fit_minimize(problem)
    # the Newton stop on the decrement leaves the value about 1e-6 from N / C
    assert fit.statistic - exact <= 2e-12 * (1.0 + abs(exact))
    assert abs(fit.values[0] - n / c) <= 1e-5 * (n / c)
    bound = bayesian_upper_limit(problem, 0.95).upper_bound
    assert bound == pytest.approx(gammaincinv(n + 1.0, 0.95) / c, rel=1e-3)


def _background_free_free_centroid_problem(seed):
    """A 20-count line at 8.0 keV on 80 bins over 7-9 keV at 200 eV FWHM,
    its centroid and amplitude free and nothing else."""
    grid = EnergyGrid.uniform(7.0, 9.0, 80)
    response = DetectorResponse(fwhm_kev_at_ref=0.2, reference_energy_kev=8.0)
    truth = SpectralModel(components=(GaussianLine(8.0, 20.0),), response=response)
    free = ((0, "centroid_kev"), (0, "amplitude"))
    return FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed), truth, free, free[1],
                                    statistic="poisson_nll")


@pytest.mark.parametrize("seed", range(20))
def test_background_free_free_centroid_fit_and_limit_match_the_gamma_posterior(seed):
    # the free-centroid twin of the test above: at any centroid well
    # inside the window the amplitude s gives the NLL s C - N ln s + a
    # term in the centroid alone, so the fit is N / C at the fitted
    # centroid and the posterior the same Gamma. The profile at s = 0 is
    # +inf: no centroid puts a count where the line is held at zero
    problem = _background_free_free_centroid_problem(seed)
    fit = fit_minimize(problem)
    unit = replace(problem.model, components=(GaussianLine(fit.values[0], 1.0),))
    n, c = float(problem.observed.sum()), float(predict_counts(unit, problem.grid).sum())
    assert abs(fit.values[1] - n / c) <= 1e-5 * (n / c)
    result = bayesian_upper_limit(problem, 0.95)
    assert result.upper_bound == pytest.approx(gammaincinv(n + 1.0, 0.95) / c, rel=1e-3)
    assert result.scan[0, 1] == np.inf


@pytest.mark.parametrize("seed", range(3))
def test_a_free_centroid_poisson_fit_reads_the_columns_of_its_own_centroid(seed):
    # every centroid trial rewrites the design's line column in place, so
    # its Poisson system is built at each trial; one kept from an earlier
    # centroid would report the NLL of that centroid's columns
    response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0)
    truth = SpectralModel((GaussianLine(7.7, 20.0), PolynomialBackground((60.0,))), response)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    for problem in (FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed), truth, free,
                                             free[1], statistic="poisson_nll"),
                    _background_free_free_centroid_problem(seed)):
        fit = fit_minimize(problem)
        nll = float(poisson_nll(problem.observed, problem._design.point(fit.values)[0]))
        assert abs(fit.statistic - nll) <= 1e-12 * (1.0 + abs(nll))


def test_newton_from_far_above_reaches_the_minimum_of_a_near_start():
    # the batch counts on a flat and a slope column, and a held signal
    # whose two lowest bins are zero: from (20, 20) the second pass lands
    # at x = (0, 0), with one count in bin 19 at mu = 2.2e-10 and empty
    # bins at zero; the working set must not take a released bin back at
    # a zero-length step
    columns = np.column_stack([np.ones(24), 1.0 - _BATCH_BINS / 23.0])
    system = LinearPoisson.of(_BATCH_OBSERVED, columns)
    offsets = np.exp(-0.5 * ((_BATCH_BINS - 9.0) / 1.5) ** 2)[None]
    offsets[:, :2] = 0.0
    near = minimize_linear_poisson(system, offsets, np.array([[2.0, 2.0]]),
                                   str)
    far = minimize_linear_poisson(system, offsets, np.array([[20.0, 20.0]]),
                                  str)
    assert near[1][0] == pytest.approx(62.1129, abs=1e-4)
    assert abs(far[1][0] - near[1][0]) <= 1e-12 * abs(near[1][0])
    assert np.array_equal(far[3], near[3]) and far[3].any()


def test_a_scored_far_start_skips_the_doubling_stall():
    # the stall row above from (20, 20): the scoring step lands inside the
    # domain, away from the near-empty bin 19, and Newton then takes 3
    # passes, not 10, to the same minimum and working set
    columns = np.column_stack([np.ones(24), 1.0 - _BATCH_BINS / 23.0])
    system = LinearPoisson.of(_BATCH_OBSERVED, columns)
    offsets = np.exp(-0.5 * ((_BATCH_BINS - 9.0) / 1.5) ** 2)[None]
    offsets[:, :2] = 0.0
    near = minimize_linear_poisson(system, offsets, np.array([[2.0, 2.0]]),
                                   str)
    far = np.array([[20.0, 20.0]])
    assert minimize_linear_poisson(system, offsets, far, str)[2] == 10
    scored = minimize_linear_poisson(system, offsets,
                                     scoring_step(system, offsets, far), str)
    assert scored[2] == 3
    assert abs(scored[1][0] - near[1][0]) <= 1e-14 * abs(near[1][0])
    assert np.array_equal(scored[3], near[3])


def _line_on_a_continuum_problem(seed, signal):
    # 3 counts/bin, 60% of them from the 1/E term, a 20-count line at 7.7 keV
    grid = EnergyGrid(np.linspace(6.5, 9.5, 61))
    response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0)
    truth = SpectralModel((GaussianLine(7.7, 20.0), OneOverEContinuum(288.0),
                           PolynomialBackground((24.0,))), response)
    free = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0))
    return FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed), truth, free, signal,
                                    statistic="poisson_nll")


@pytest.mark.parametrize("seed, signal", [(1003, (1, "alpha")), (1009, (2, "coefficients", 0))])
def test_newton_steps_stop_short_of_a_bin_with_counts(monkeypatch, seed, signal):
    # cut at a bin's exact reach, the bin's recomputed mu rounds to <= 0;
    # the next pass's nan decrement read as converged, the profile point
    # came back nan and the scan found no integrable mass
    nlls, unscored = [], []
    real_solve, real_score = limits_module.minimize_linear_poisson, limits_module.scoring_step

    def recorded(*args):
        result = real_solve(*args)
        nlls.append(result[1])
        return result

    def scored(*args):
        unscored.append(args)
        return real_score(*args)

    monkeypatch.setattr(limits_module, "minimize_linear_poisson", recorded)
    monkeypatch.setattr(limits_module, "scoring_step", scored)
    problem = _line_on_a_continuum_problem(seed, signal)
    result = bayesian_upper_limit(problem, 0.95)
    assert np.isfinite(result.upper_bound) and result.upper_bound > 0.0
    assert np.all(np.isfinite(np.concatenate(nlls)))
    # the first level's 65 rows from their starts before scoring, which
    # are the ones a solve without the scoring step takes: the cut holds
    # them inside the domain, and with the exact cut a row that leaves it
    # is named, not converged, whatever the start rule
    system, offsets, starts = unscored[-1]
    assert len(offsets) == 65
    assert np.all(np.isfinite(minimize_linear_poisson(system, offsets, starts,
                                                      str)[1]))
    monkeypatch.setattr(newton_module, "_TO_BOUNDARY", 1.0)
    with pytest.raises(FitError, match="left the Poisson domain at "):
        minimize_linear_poisson(system, offsets, starts, str)
    with pytest.raises(FitError, match="left the Poisson domain at signal = "):
        bayesian_upper_limit(problem, 0.95)


def test_free_centroid_limit_on_a_sparse_spectrum_gets_a_bound():
    # eight single counts at 0.05 counts/bin: several hundred inner Newton
    # solves, each warm-started from a solved neighbour, and none may fail
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(3.0, 0.05 / 0.05)
    spectrum = simulate_spectrum(truth, grid, np.random.SeedSequence(7).spawn(17)[16])
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem.from_spectrum(spectrum, truth, free, free[1], statistic="poisson_nll")
    result = bayesian_upper_limit(problem, 0.95)
    assert np.isfinite(result.upper_bound) and result.upper_bound > 0.0


def test_two_line_poisson_limit_raises_only_toolkit_errors():
    # no line at 7.7 keV beside a 3000-count K-alpha: a global-fit step
    # cut at a bin's exact reach left a bin with counts at mu <= 0, and
    # numpy's LinAlgError escaped from the eigenvalues of its nan Hessian
    grid = EnergyGrid(np.linspace(6.5, 9.5, 61))
    response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0)

    def model(weak):
        return SpectralModel((GaussianLine(7.7, weak), GaussianLine(8.0, 3000.0),
                              PolynomialBackground((200.0,))), response)

    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "centroid_kev"), (1, "amplitude"),
            (2, "coefficients", 0))
    problem = FitProblem.from_spectrum(simulate_spectrum(model(0.0), grid, seed=5), model(30.0),
                                       free, free[1], statistic="poisson_nll")
    try:
        result = bayesian_upper_limit(problem, 0.95)
    except ToolkitError:
        return
    assert np.isfinite(result.upper_bound) and result.upper_bound > 0.0


def test_a_held_bins_rounding_residue_costs_no_newton_passes():
    # 2 counts in 60 bins at 0.02 counts/bin: without the least-squares
    # correction onto mu = 0, a held bin's residue reaches a warm start,
    # and Newton doubles a tiny mu for about 55 passes of the limit's 70
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(2.0, 0.02 / 0.05)
    spectrum = simulate_spectrum(truth, grid, np.random.SeedSequence(8).spawn(99)[98])
    free = ((0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem.from_spectrum(spectrum, truth, free, free[0], statistic="poisson_nll")
    assert bayesian_upper_limit(problem, 0.95).metadata["newton_iterations"] <= 20


def _golden_minimum(f, lo, hi, iterations=200):
    """Minimum of a convex function on [lo, hi] by golden-section search."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    for _ in range(iterations):
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        a, b = (a, d) if f(c) <= f(d) else (c, b)
    return f(0.5 * (a + b))


def test_newton_profile_holds_an_uncurved_nuisance_at_an_empty_bin():
    # the second line lies where every bin is empty, so no bin with
    # counts curves its amplitude; the NLL falls linearly as it drops,
    # until an empty bin reaches mu = 0
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = predict_counts(_line_model(30.0, 200.0), grid).round()
    observed[grid.upper_edges > 8.16] = 0.0
    far_line = predict_counts(SpectralModel(components=(GaussianLine(9.3, 1.0),),
                                            response=RESPONSE), grid)
    assert np.all(far_line[observed > 0] == 0.0)
    template = SpectralModel(components=(GaussianLine(7.7, 30.0), GaussianLine(9.3, 1.0),
                                         PolynomialBackground((200.0,))), response=RESPONSE)
    problem = FitProblem(grid, observed, template,
                         free=((0, "amplitude"), (1, "amplitude"),
                               (2, "coefficients", 0)),
                         signal=(0, "amplitude"), statistic="poisson_nll")
    result = bayesian_upper_limit(problem, 0.95)
    assert result.metadata["profile_solver"] == "newton"
    line = predict_counts(_line_model(1.0, 0.0), grid)
    flat = predict_counts(_line_model(0.0, 1.0), grid)
    occupied, reaches = observed > 0, far_line > 0
    constant = sum(math.lgamma(n + 1.0) for n in observed)

    def oracle(s):
        # the far amplitude drops until the first empty bin it reaches
        # hits mu = 0; the flat term is then a convex 1-d problem
        def nll(b):
            near = s * line + b * flat
            far = np.max(-near[reaches] / far_line[reaches])
            mu = near + far * far_line
            return np.sum(mu) - np.sum(observed[occupied] * np.log(mu[occupied])) + constant

        floor = np.max(-s * line[occupied] / flat[occupied])
        return _golden_minimum(nll, floor + 1e-9, 10.0 * observed.sum() / flat.sum())

    for s, value in result.scan[::32]:
        assert value == pytest.approx(oracle(s), rel=1e-10, abs=1e-10)


def test_newton_profile_rejects_a_nuisance_without_counts():
    # a line far above the window gives a column of zeros: no bin at all,
    # empty or not, constrains its amplitude, and the fit and the limit
    # fail alike
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = predict_counts(_line_model(30.0, 200.0), grid).round()
    template = SpectralModel(components=(GaussianLine(7.7, 30.0), GaussianLine(40.0, 1.0),
                                         PolynomialBackground((200.0,))), response=RESPONSE)
    assert np.all(predict_counts(replace(template, components=template.components[1:2]),
                                 grid) == 0.0)
    problem = FitProblem(grid, observed, template,
                         free=((0, "amplitude"), (1, "amplitude"),
                               (2, "coefficients", 0)),
                         signal=(0, "amplitude"), statistic="poisson_nll")
    with pytest.raises(FitError, match="moves no bin") as fit_error:
        fit_minimize(problem)
    with pytest.raises(FitError, match="moves no bin") as limit_error:
        bayesian_upper_limit(problem, 0.95)
    assert str(limit_error.value) == str(fit_error.value)


def test_linear_poisson_limit_takes_the_global_fit_of_fit_minimize():
    # the limit's minimum and best signal are the fit's, bit for bit: a
    # sparse spectrum, a deficit whose free signal falls below zero, and
    # a signal on a fixed background as the only free parameter
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    flat = predict_counts(_line_model(0.0, 100.0), grid)
    deficit = np.round(flat * np.where(np.abs(grid.centers - 7.7) < 0.3, 0.5, 1.0))
    both = ((0, "amplitude"), (1, "coefficients", 0))
    cases = [
        (simulate_spectrum(_line_model(3.0, 1.0), grid, seed=7).counts, both),
        (deficit, both),
        (simulate_spectrum(_line_model(20.0, 100.0), grid, seed=3).counts, both[:1]),
    ]
    held = []
    for observed, free in cases:
        problem = FitProblem(grid, observed.astype(float), _line_model(10.0, 100.0),
                             free=free, signal=free[0], statistic="poisson_nll")
        fit = fit_minimize(problem)
        limit = bayesian_upper_limit(problem, 0.95)
        assert limit.metadata["statistic_min"] == fit.statistic
        assert limit.metadata["best_signal"] == max(fit.values[0], 0.0)
        held.append(fit.values[0] == 0.0)
    assert held == [False, True, False]


def test_poisson_fit_and_limit_of_a_spectrum_without_counts():
    # every bin empty: the NLL is sum(mu), no bin curves it, and the
    # flat term drops until the bin with the lowest line-to-flat ratio
    # reaches mu = 0; the profile is then linear in the signal,
    # s (L - F min(line / flat)), and the bound an exponential quantile
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    problem = FitProblem(grid, np.zeros(60), _line_model(3.0, 1.0 / 0.05),
                         free=((0, "amplitude"), (1, "coefficients", 0)),
                         signal=(0, "amplitude"), statistic="poisson_nll")
    fit = fit_minimize(problem)
    np.testing.assert_allclose(fit.values, 0.0, atol=1e-12)
    assert fit.statistic == pytest.approx(0.0, abs=1e-12)
    line = predict_counts(_line_model(1.0, 0.0), grid)
    flat = predict_counts(_line_model(0.0, 1.0), grid)
    slope = line.sum() - flat.sum() * np.min(line / flat)
    limit = bayesian_upper_limit(problem, 0.95, grid_rtol=1e-4)
    assert limit.upper_bound == pytest.approx(-math.log(0.05) / slope, rel=1e-3)


def test_sparse_continuum_poisson_limits_start_the_profile_from_least_squares():
    # the CSL limit's defaults: a 1/E signal over a flat background whose
    # template value is 0, so the template puts mu = 0 under counts at
    # zero signal; where the fit's nuisances interpolated to zero signal
    # leave the domain too, only the least-squares start is inside
    grid = EnergyGrid.uniform(4.5, 48.5, 88)
    response = DetectorResponse(fwhm_kev_at_ref=0.3)
    truth = SpectralModel(components=(PolynomialBackground((0.02 / 0.5,)),), response=response)
    template = SpectralModel(components=(OneOverEContinuum(1.0), PolynomialBackground((0.0,))),
                             response=response)
    free = ((0, "alpha"), (1, "coefficients", 0))
    for seed in range(60):
        problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed), template,
                                           free, free[0], statistic="poisson_nll")
        assert math.isfinite(bayesian_upper_limit(problem, 0.95).upper_bound)


@pytest.mark.parametrize("statistic, free", [
    ("poisson_nll", ((0, "amplitude"), (1, "coefficients", 0))),
    ("chi2", ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))),
    ("poisson_nll", ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))),
], ids=["linear poisson", "free centroid chi2", "free centroid poisson"])
def test_profile_scale_is_the_signal_uncertainty_at_the_fit(statistic, free):
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(150.0, 300.0)
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=1), truth, free,
                                       (0, "amplitude"), statistic=statistic)
    idx = problem.signal_index()
    fit = fit_minimize(problem)
    assert fit.values[idx] > 0.0
    sigma = limits_module._profiler(problem)[3]
    assert sigma == pytest.approx(parameter_uncertainties(problem, fit.values)[idx], rel=1e-12)


def test_profile_scale_is_none_when_the_fit_holds_the_signal_at_zero():
    # a deficit under the line: the free optimum is negative
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = predict_counts(_line_model(0.0, 300.0), grid).round()
    observed[22:27] -= 6.0
    free = ((0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem(grid, observed, _line_model(20.0, 300.0), free=free,
                         signal=free[0], statistic="poisson_nll")
    assert fit_minimize(problem).values[0] == 0.0
    _, shat, _, sigma, _ = limits_module._profiler(problem)
    assert shat == 0.0 and sigma is None


def test_profile_errors_name_the_signal_as_a_float(monkeypatch):
    # numpy 2 prints a numpy scalar as np.float64(0.0)
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(60.0, 300.0)
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=4), truth,
                                       ((0, "amplitude"), (1, "coefficients", 0)),
                                       (0, "amplitude"), statistic="poisson_nll")
    real = limits_module.minimize_linear_poisson

    def failing(system, offsets, starts, where):
        if "signal" in where(0):  # a profile row, not the fit
            raise FitError(f"stalled at {where(0)}")
        return real(system, offsets, starts, where)

    monkeypatch.setattr(limits_module, "minimize_linear_poisson", failing)
    with pytest.raises(FitError) as raised:
        bayesian_upper_limit(problem, 0.95)
    assert "signal = 0.0, " in str(raised.value)
    assert "np.float64" not in str(raised.value)


def test_chi2_and_poisson_bounds_agree_at_high_counts():
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    truth = _line_model(0.0, 10_000.0)   # about 1000 counts per bin
    spectrum = simulate_spectrum(truth, grid, seed=23, tag="measured")
    template = _line_model(10.0, 10_000.0)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    chi2_problem = FitProblem.from_spectrum(spectrum, template, free=free,
                                            signal=(0, "amplitude"))
    nll_problem = FitProblem.from_spectrum(spectrum, template, free=free,
                                           signal=(0, "amplitude"),
                                           statistic="poisson_nll")
    chi2_bound = bayesian_upper_limit(chi2_problem, 0.95, grid_rtol=1e-4)
    nll_bound = bayesian_upper_limit(nll_problem, 0.95, grid_rtol=1e-4)
    assert nll_bound.upper_bound == pytest.approx(chi2_bound.upper_bound, rel=0.02)
    assert nll_bound.method == "bayesian-poisson_nll-profile"


def test_scan_refinement_profiles_only_the_new_midpoints():
    # the scan solves the profile at every 8th grid point, each once, and
    # fills the points between by cubics, which a cubic profile passes
    # unchanged
    calls = []

    def cubic(s_values):
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        calls.append(s)
        return (s - 1.0) ** 2 * (1.0 + s / 10.0)

    bound, s, values = limits_module._scan_upper_bound(
        cubic, 1.0, 0.0, "chi2", 0.95, 1e-9, sigma_hint=1.0)
    solved = np.concatenate(calls)
    assert s.size > 513
    assert np.array_equal(np.sort(solved), s[::8])
    np.testing.assert_allclose(values, cubic(s), rtol=1e-12, atol=1e-12)


def test_scan_generator_requests_rungs_then_the_first_level_then_midpoints():
    # driven by hand with a profile whose fit holds the signal at zero, the
    # scan asks for the bracket's rungs, at most _BRACKET_RUNGS at a time,
    # then the first level's 65 nodes, then each refinement's new
    # midpoints; the one-profile driver returns the same triple
    def held_at_zero(s):
        return s * (1.0 + s)

    args = (0.0, 0.0, "chi2", 0.95, 1e-6)
    scan, sizes = limits_module._scan(*args), []
    s = next(scan)
    while True:
        sizes.append(s.size)
        try:
            s = scan.send(held_at_zero(s))
        except StopIteration as done:
            by_hand = done.value
            break
    rungs = sizes.index(65)
    assert rungs > 1
    assert all(0 < size <= limits_module._BRACKET_RUNGS for size in sizes[:rungs])
    assert len(sizes) > rungs + 2
    assert sizes[rungs + 1:] == [64 * 2**k for k in range(len(sizes) - rungs - 1)]
    driven = limits_module._scan_upper_bound(held_at_zero, *args)
    assert by_hand[0] == driven[0]
    assert np.array_equal(by_hand[1], driven[1]) and np.array_equal(by_hand[2], driven[2])


def _trapezoid_quantile(s, values, stat_min, k, cl=0.95):
    weights = np.exp(-(values - stat_min) / k)
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(s) * (weights[1:] + weights[:-1]) / 2.0)])
    return float(np.interp(cl * cdf[-1], cdf, s))


def test_scan_refines_past_a_kink_that_the_bound_alone_misses():
    # the NLL steepens by 20 per unit signal at s = 2.5, as where an empty
    # bin reaches mu = 0; filled from 33 and 65 nodes the bound moves by
    # less than grid_rtol yet sits 0.6% off, so only the fill's misplaced
    # mass sends the scan on
    def kinked(s_values):
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        return 0.5 * (s - 1.0) ** 2 + 20.0 * np.maximum(s - 2.5, 0.0)

    grid_rtol, s_max = 1e-3, 11.0
    fine = np.linspace(0.0, s_max, 2**20 + 1)
    converged = _trapezoid_quantile(fine, kinked(fine), 0.0, 1.0)
    coarse, finer = (_trapezoid_quantile(np.linspace(0.0, s_max, 8 * m + 1),
                                         limits_module._cubic_fill(kinked(
                                             np.linspace(0.0, s_max, m + 1))), 0.0, 1.0)
                     for m in (32, 64))
    assert abs(finer - coarse) <= grid_rtol * finer
    assert abs(finer - converged) > 5.0 * grid_rtol * converged
    bound, s, _ = limits_module._scan_upper_bound(kinked, 1.0, 0.0, "poisson_nll", 0.95,
                                                  grid_rtol, sigma_hint=1.0)
    assert s[-1] == s_max and s.size > 513
    assert bound == pytest.approx(converged, rel=grid_rtol / 3.0)


def _every_point_bound(problem, scan_max, cl, grid_rtol):
    """The bound from the problem's own profiler solved at every point of
    a 257, 513, ... point grid over [0, scan_max], refined until it moves
    by less than grid_rtol."""
    pstat, _, stat_min, _, _ = limits_module._profiler(problem)
    k = 2.0 if problem.statistic == "chi2" else 1.0
    s, previous = np.linspace(0.0, scan_max, 257), None
    values = pstat(s)
    while True:
        bound = _trapezoid_quantile(s, values, stat_min, k, cl)
        if previous is not None and abs(bound - previous) <= grid_rtol * bound:
            return bound
        previous, s = bound, np.linspace(0.0, scan_max, 2 * s.size - 1)
        values = np.insert(values, np.arange(1, values.size), pstat(s[1::2]))


# the sparse Poisson sets: counts per bin of the flat background, counts
# in the 7.7 keV line and the seed whose children draw the spectra
SPARSE_SETS = {"0.02 per bin": (0.02, 2.0, 8), "0.05 per bin": (0.05, 3.0, 7),
               "0.3 per bin": (0.3, 5.0, 9)}


def _oracle_case_problems(case):
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    if case in SPARSE_SETS:
        per_bin, line, seed = SPARSE_SETS[case]
        truth = _line_model(line, per_bin / 0.05)
        free = ((0, "amplitude"), (1, "coefficients", 0))
        return _toy_problems(truth, grid, free, 10, seed, "poisson_nll")
    if case == "lone signal":
        # no background: the profile is infinite at zero signal
        truth = SpectralModel(components=(GaussianLine(7.7, 20.0),), response=RESPONSE)
        return _toy_problems(truth, grid, ((0, "amplitude"),), 2, 1, "poisson_nll")
    if case.startswith("flat signal"):
        # the flat term is the signal beside a 400-count line at 8.0 keV, a
        # 40-count line at 7.7 keV held in the template beside a free
        # centroid: held at zero, the flat term leaves the counts far from
        # the lines where no free column reaches, so the profile is +inf
        response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0)
        lines = (GaussianLine(8.0, 400.0),)
        free = ((0, "amplitude"), (1, "coefficients", 0))
        seeds = range(300, 310)
        if case.endswith("free centroid"):
            lines += (GaussianLine(7.7, 40.0),)
            free = ((0, "centroid_kev"), (0, "amplitude"), (2, "coefficients", 0))
            seeds = range(200, 202)
        truth = SpectralModel(lines + (PolynomialBackground((30.0,)),), response)
        return [FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed), truth, free,
                                         free[-1], statistic="poisson_nll") for seed in seeds]
    statistic = case.split()[-1]
    truth = _line_model(150.0, 300.0)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    return [FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=1), truth, free,
                                     free[1], statistic=statistic)]


@pytest.mark.parametrize("case", [*SPARSE_SETS, "lone signal", "flat signal",
                                  "flat signal, free centroid", "free centroid, chi2",
                                  "free centroid, poisson_nll"])
def test_scan_bound_matches_an_every_point_scan(case):
    grid_rtol = 1e-3
    for problem in _oracle_case_problems(case):
        result = bayesian_upper_limit(problem, 0.95, grid_rtol=grid_rtol)
        oracle = _every_point_bound(problem, result.metadata["scan_max"], 0.95, 1e-5)
        assert result.upper_bound == pytest.approx(oracle, rel=grid_rtol / 3.0)
        # taken over the solved points, which lie on or above the fit
        stat_min = result.metadata["statistic_min"]
        assert result.metadata["profile_min_excess"] >= -1e-9 * (1.0 + abs(stat_min))


@pytest.mark.parametrize("sigma_hint, dip", [
    (None, 1.0 + 1e-3 * 2.0**9),  # the second request of the ladder
    (1.0, float(np.linspace(0.0, 11.0, 65)[40])),
    (1.0, float(np.linspace(0.0, 11.0, 129)[81])),  # a new midpoint of the first refinement
], ids=["bracket-rung", "first-level", "refinement"])
def test_scan_rejects_a_profile_below_the_fit_minimum(sigma_hint, dip):
    # a second, deeper minimum at one signal value that the global fit
    # missed; the scan first requests it as a bracket rung, a node of the
    # first level or a refinement midpoint, and names it
    def dipping(s_values):
        s = np.atleast_1d(np.asarray(s_values, dtype=float))
        return np.where(s == dip, -0.5, (s - 1.0) ** 2)

    with pytest.raises(ScanRangeError,
                       match=re.escape(f"at signal = {dip!r} is -0.5, below the fit's minimum")):
        limits_module._scan_upper_bound(dipping, 1.0, 0.0, "chi2", 0.95, 1e-9,
                                        sigma_hint=sigma_hint)


@pytest.mark.parametrize("free, solver", [
    (((0, "amplitude"), (1, "coefficients", 0)), "minimize_linear_poisson"),
    (((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0)), "_reduced_newton"),
], ids=["newton", "projection"])
def test_profile_points_count_the_solved_profile_values(monkeypatch, free, solver):
    # a Newton profile solves one point per row of its batched solves, a
    # projection profile one per reduced Newton run, the fit's included
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(60.0, 300.0)
    problem = FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=4), truth, free,
                                       (0, "amplitude"), statistic="poisson_nll")
    solved = []
    real = getattr(limits_module, solver)

    def counted(*args):
        solved.append(len(args[2]) if solver == "minimize_linear_poisson" else 1)
        return real(*args)

    monkeypatch.setattr(limits_module, solver, counted)
    result = bayesian_upper_limit(problem, 0.95)
    assert result.metadata["profile_points"] == sum(solved)
    assert result.metadata["profile_points"] * 4 < result.metadata["scan_points"]
    assert "profile_points" not in bayesian_upper_limit(_limit_fixture(), 0.95).metadata


def _poisson_bench_problem(level, seed):
    """A Poisson limit on the benchmark's geometry: 30 bins over 7.0-8.5
    keV, 0.32 keV FWHM, a line of 2 * level counts at 7.7 keV on a flat
    level counts per bin, both amplitudes free."""
    grid = EnergyGrid.uniform(7.0, 8.5, 30)
    truth = _line_model(2.0 * level, level / 0.05)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    return FitProblem.from_spectrum(simulate_spectrum(truth, grid, seed=seed), truth, free,
                                    free[0], statistic="poisson_nll")


@pytest.mark.parametrize("level, seed, iterations", [(4.0, 0, 4), (24.0, 0, 3)])
def test_poisson_limit_work_counters_stay_pinned(level, seed, iterations):
    # the deterministic counters a regression gate keys on: the global
    # fit and the first level's 65 nodes from the signal's sigma
    result = bayesian_upper_limit(_poisson_bench_problem(level, seed), 0.95, grid_rtol=3e-3)
    assert result.metadata["best_signal"] > 0.0
    assert result.metadata["profile_points"] == 66
    assert result.metadata["newton_iterations"] == iterations


def test_a_fit_held_at_zero_brackets_the_scan_scale_in_three_profile_calls(monkeypatch):
    # the bracketing needs 14 rungs of its ladder here, six per call
    problem = _poisson_bench_problem(4.0, 4)
    rows = []
    real = limits_module._poisson_solve

    def counted(problem, signals, *args):
        rows.append(None if signals is None else len(signals))
        return real(problem, signals, *args)

    monkeypatch.setattr(limits_module, "_poisson_solve", counted)
    result = bayesian_upper_limit(problem, 0.95, grid_rtol=3e-3)
    assert result.metadata["best_signal"] == 0.0
    # the free fit, the fit held at zero, the bracketing, the first level
    assert rows == [None, 1, 6, 6, 6, 65]
    assert result.metadata["profile_points"] == 85
    assert result.metadata["newton_iterations"] == 7


def _counted_newton_passes(monkeypatch):
    """A list that records each minimize_linear_poisson call's return
    value, the function patched to fill it."""
    calls = []
    real = limits_module.minimize_linear_poisson

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(limits_module, "minimize_linear_poisson", counted)
    return calls


def test_a_free_signal_below_zero_is_solved_again_held_at_zero(monkeypatch):
    # a dip where the line sits: the free signal's optimum is negative,
    # and the bounded one is the row solved with the signal held at zero
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    observed = np.round(predict_counts(_line_model(-60.0, 300.0), grid))
    free = ((0, "amplitude"), (1, "coefficients", 0))
    problem = FitProblem(grid, observed, _line_model(20.0, 300.0), free, free[0],
                         statistic="poisson_nll")
    design = problem._design
    calls = _counted_newton_passes(monkeypatch)
    counts = Counter()
    x, nll, bins, held = limits_module._poisson_solve(problem, None, None, "the fit",
                                                      counts)
    assert held and len(calls) == 2
    assert calls[0][0][0, design.signal_column] < 0.0
    assert counts == Counter(profile_points=2, newton_iterations=calls[0][2] + calls[1][2])
    held_counts = Counter()
    x0, nll0, bins0, held0 = limits_module._poisson_solve(problem, np.zeros(1), None,
                                                          "the fit", held_counts)
    assert held0 and x[0, design.signal_column] == 0.0
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(nll, nll0)
    np.testing.assert_array_equal(bins, bins0)
    assert held_counts == Counter(profile_points=1, newton_iterations=calls[1][2])


def test_a_free_centroid_limit_records_its_inner_newton_passes(monkeypatch):
    # newton_iterations counts the outer centroid iterations, and
    # inner_newton_iterations the minimize_linear_poisson passes of every
    # trial solve, the fit's included
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0)
    truth = SpectralModel((GaussianLine(7.7, 20.0), PolynomialBackground((60.0,))), response)
    free = ((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0))
    spectrum = simulate_spectrum(truth, grid, 0)
    problem = FitProblem.from_spectrum(spectrum, truth, free, free[1], statistic="poisson_nll")
    calls = _counted_newton_passes(monkeypatch)
    metadata = bayesian_upper_limit(problem, 0.95).metadata
    assert metadata["inner_newton_iterations"] == sum(call[2] for call in calls) == 82
    assert metadata["newton_iterations"] == 118
    chi2 = FitProblem.from_spectrum(spectrum, truth, free, free[1])
    assert bayesian_upper_limit(chi2, 0.95).metadata["inner_newton_iterations"] == 0
    linear = FitProblem.from_spectrum(spectrum, truth, free[1:], free[1], statistic="poisson_nll")
    assert "inner_newton_iterations" not in bayesian_upper_limit(linear, 0.95).metadata


def test_a_linear_poisson_limit_takes_two_newton_calls(monkeypatch):
    # the global fit, then the first level's 65 nodes, whose fills from
    # 33 and 65 nodes agree within grid_rtol
    rows = []
    real = limits_module.minimize_linear_poisson

    def counted(system, offsets, *args):
        rows.append(len(offsets))
        return real(system, offsets, *args)

    monkeypatch.setattr(limits_module, "minimize_linear_poisson", counted)
    result = bayesian_upper_limit(_poisson_bench_problem(24.0, 0), 0.95, grid_rtol=3e-3)
    assert rows == [1, 65]
    assert result.metadata["scan_points"] == 513


def test_limit_metadata_and_scan_contents():
    result = bayesian_upper_limit(_limit_fixture(), 0.95)
    assert result.parameter == "c0.amplitude"
    assert set(result.metadata) >= {"prior", "statistic", "best_signal",
                                    "statistic_min", "scan_max", "scan_points",
                                    "profile_min_excess"}
    assert result.metadata["profile_min_excess"] == (
        result.scan[:, 1].min() - result.metadata["statistic_min"])
    scan = result.scan
    assert scan.ndim == 2 and scan.shape[1] == 2
    assert scan[0, 0] == 0.0
    assert np.all(np.diff(scan[:, 0]) > 0)
    # profiled statistic has its minimum at the best signal
    assert scan[:, 1].min() >= result.metadata["statistic_min"] - 1e-9


# ---------------------------------------------------------------------------
# pseudo-experiment ensembles


def test_ensemble_reproducible_and_seed_sensitive():
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    truth = _line_model(0.0, 200.0)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    kwargs = dict(n=40, cl=0.95, statistic="chi2")
    a = run_pseudo_experiments(truth, grid, free, (0, "amplitude"), seed=3, **kwargs)
    b = run_pseudo_experiments(truth, grid, free, (0, "amplitude"), seed=3, **kwargs)
    c = run_pseudo_experiments(truth, grid, free, (0, "amplitude"), seed=4, **kwargs)
    assert np.array_equal(a.bounds, b.bounds)
    assert not np.array_equal(a.bounds, c.bounds)
    # the configuration hash identifies the ensemble, not its RNG stream
    assert a.config_hash == c.config_hash
    assert a.n_failed == 0
    assert a.n_completed == 40
    assert a.true_signal == 0.0
    assert 0.8 <= a.coverage <= 1.0


def test_ensemble_config_hash_is_stable():
    # frozen from the release before the ensemble hash went through
    # fileio.canonical_config_hash: the digest names the same ensemble
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    result = run_pseudo_experiments(_line_model(0.0, 200.0), grid, free, (0, "amplitude"),
                                    n=2, cl=0.95, seed=3)
    assert result.config_hash == (
        "d8c59c6ad390763d14d00ac6a23eb95c8293eab8c76e50b10a53c20af0a28ba0")


def test_ensemble_chi2_mean_near_bin_count():
    grid = EnergyGrid.uniform(6.5, 9.5, 40)
    truth = _line_model(0.0, 400.0)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    result = run_pseudo_experiments(truth, grid, free, (0, "amplitude"),
                                    n=200, cl=0.95, seed=9)
    assert result.n_failed == 0
    # chi-square at the optimum has roughly n_bins - 2 degrees of freedom
    assert np.mean(result.best_signals >= 0.0)
    assert 0.9 <= result.coverage <= 1.0


def test_poisson_ensemble_covers_an_injected_line_at_low_counts():
    # about 3 counts per bin and a 20-count line: the regime where the
    # Poisson likelihood, not chi-square, is the right statistic
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(20.0, 3.0 / 0.05)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    n, cl = 300, 0.95
    result = run_pseudo_experiments(truth, grid, free, (0, "amplitude"), n=n, cl=cl,
                                    seed=7, statistic="poisson_nll")
    assert result.n_failed == 0
    assert result.coverage >= cl - 3.0 * math.sqrt(cl * (1.0 - cl) / n)


def test_poisson_ensemble_covers_on_the_sample_continuum_geometry():
    # the geometry of sample_configs/limit_continuum.json, whose statistic
    # is the Poisson NLL: 88 bins over 4.5-48.5 keV, 1/E with alpha = 20 on
    # a flat 4 counts/bin, where a chi2 bound undercovers (about 0.9)
    grid = EnergyGrid.uniform(4.5, 48.5, 88)
    truth = SpectralModel((OneOverEContinuum(20.0), PolynomialBackground((8.0,))),
                          DetectorResponse(0.5, 10.0))
    free = ((0, "alpha"), (1, "coefficients", 0))
    n, cl = 400, 0.95
    result = run_pseudo_experiments(truth, grid, free, free[0], n=n, cl=cl, seed=7,
                                    statistic="poisson_nll")
    assert result.n_failed == 0
    assert result.coverage >= cl - 3.0 * math.sqrt(cl * (1.0 - cl) / n)


def test_chi2_ensemble_covers_an_injected_line():
    # unlike a zero truth, which every bound >= 0 covers, an injected
    # signal can fall above a bound that is too tight
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(100.0, 30.0 / 0.05)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    n, cl = 300, 0.95
    result = run_pseudo_experiments(truth, grid, free, (0, "amplitude"), n=n, cl=cl, seed=7)
    assert result.n_failed == 0
    assert result.coverage >= cl - 3.0 * math.sqrt(cl * (1.0 - cl) / n)


def _toy_problems(truth, grid, free, n, seed, statistic="chi2", signal=None):
    """The ensemble's spectra by its documented seeding: toy i draws from
    child i of the ensemble seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [FitProblem.from_spectrum(
        simulate_spectrum(truth, grid, int(child.generate_state(1)[0])), truth, free,
        signal or free[0], statistic=statistic) for child in children]


@pytest.mark.parametrize("free", [
    ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0)),
    ((1, "alpha"), (0, "amplitude"), (2, "coefficients", 0)),
], ids=["amplitude-first", "amplitude-middle"])
def test_batched_chi2_ensemble_equals_per_toy_limits(free):
    # a zero truth, so about half the toys fit a negative signal
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(0.0, 300.0, alpha=100.0)
    signal = (0, "amplitude")
    n, cl, seed = 60, 0.95, 12
    result = run_pseudo_experiments(truth, grid, free, signal, n=n, cl=cl, seed=seed)
    assert result.n_failed == 0 and result.failure_counts == {}
    limits = [bayesian_upper_limit(p, cl)
              for p in _toy_problems(truth, grid, free, n, seed, signal=signal)]
    np.testing.assert_allclose(result.bounds, [r.upper_bound for r in limits],
                               rtol=1e-12, atol=0)
    best = np.array([r.metadata["best_signal"] for r in limits])
    assert 10 < np.count_nonzero(best == 0.0) < n - 10
    np.testing.assert_allclose(result.best_signals, best,
                               rtol=1e-12, atol=1e-12 * np.max(result.bounds))


@pytest.mark.parametrize("free, n", [
    (((0, "amplitude"), (1, "coefficients", 0)), 30),
    (((0, "centroid_kev"), (0, "amplitude"), (1, "coefficients", 0)), 10),
], ids=["newton", "projection"])
def test_poisson_ensemble_builds_one_design_and_keeps_each_toys_limit(monkeypatch, free, n):
    # the toys share one design; a free centroid moves its line columns
    # from toy to toy, yet each bound is the one a fresh limit gives
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    truth = _line_model(20.0, 3.0 / 0.05)
    builds = []

    class CountedDesign(limits_module._Design):
        def __init__(self, problem):
            builds.append(problem)
            super().__init__(problem)

    monkeypatch.setattr(limits_module, "_Design", CountedDesign)
    result = run_pseudo_experiments(truth, grid, free, (0, "amplitude"), n=n, cl=0.95, seed=7,
                                    statistic="poisson_nll")
    assert len(builds) == 1 and result.n_failed == 0
    limits = [bayesian_upper_limit(p, 0.95)
              for p in _toy_problems(truth, grid, free, n, 7, "poisson_nll", (0, "amplitude"))]
    assert len(builds) == 1 + n
    assert np.array_equal(result.bounds, [r.upper_bound for r in limits])
    assert np.array_equal(result.best_signals, [r.metadata["best_signal"] for r in limits])


def test_chi2_ensemble_batches_keep_each_toys_seed_and_index():
    # 1100 toys are solved in two batches (1024 + 76); the toys on both
    # sides of the seam are the ones each toy's own limit gives
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    truth = _line_model(0.0, 200.0)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    n, seed = 1100, 5
    result = run_pseudo_experiments(truth, grid, free, free[0], n=n, cl=0.95, seed=seed)
    assert result.n_failed == 0 and result.bounds.size == n
    children = np.random.SeedSequence(seed).spawn(n)
    for i in (0, 1022, 1023, 1024, 1025, n - 1):
        spectrum = simulate_spectrum(truth, grid, int(children[i].generate_state(1)[0]))
        limit = bayesian_upper_limit(FitProblem.from_spectrum(spectrum, truth, free, free[0]),
                                     0.95)
        assert result.bounds[i] == pytest.approx(limit.upper_bound, rel=1e-12)


@pytest.mark.parametrize("components, free, message", [
    ((GaussianLine(40.0, 0.0), PolynomialBackground((200.0,))),
     ((0, "amplitude"), (1, "coefficients", 0)),
     "DegenerateMapError: signal shape for 'c0.amplitude' vanishes on the fit window"),
    ((GaussianLine(7.7, 0.0), PolynomialBackground((100.0,)), PolynomialBackground((100.0,))),
     ((0, "amplitude"), (1, "coefficients", 0), (2, "coefficients", 0)),
     "FitError: degenerate nuisance basis: Singular matrix"),
    ((GaussianLine(7.7, 0.0), GaussianLine(7.7, 0.0), PolynomialBackground((100.0,))),
     ((0, "amplitude"), (1, "amplitude"), (2, "coefficients", 0)),
     "FitError: degenerate signal/nuisance basis: Singular matrix"),
])
def test_degenerate_chi2_design_fails_every_toy_with_its_message(components, free, message):
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    truth = SpectralModel(components=components, response=RESPONSE)
    result = run_pseudo_experiments(truth, grid, free, free[0], n=5, cl=0.95, seed=1)
    assert result.n_failed == result.n_requested == 5
    assert result.failures == tuple((i, message) for i in range(5))
    assert result.failure_counts == {message.split(":")[0]: 5}
    assert result.bounds.size == result.best_signals.size == 0
    assert math.isnan(result.coverage)
    # the message each toy's own limit raises
    toy = _toy_problems(truth, grid, free, 1, 1)[0]
    with pytest.raises((FitError, DegenerateMapError)) as err:
        bayesian_upper_limit(toy, 0.95)
    assert f"{type(err.value).__name__}: {err.value}" == message


def test_poisson_ensemble_counts_failures_by_class(monkeypatch):
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    free = ((0, "amplitude"), (1, "coefficients", 0))
    # a nuisance line at 40 keV moves no bin: every toy's Newton solve fails
    truth = SpectralModel(components=(GaussianLine(7.7, 10.0), GaussianLine(40.0, 0.0),
                                      PolynomialBackground((20.0,))), response=RESPONSE)
    result = run_pseudo_experiments(truth, grid, ((0, "amplitude"), (1, "amplitude")),
                                    (0, "amplitude"), n=4, cl=0.95, seed=2,
                                    statistic="poisson_nll")
    assert result.n_failed == 4
    assert result.failure_counts == {"FitError": 4}
    assert all("moves no bin" in message for _, message in result.failures)

    # mixed classes: the per-toy limit raises on chosen toys
    real = limits_module.bayesian_upper_limit
    calls = []

    def failing(problem, cl, **kwargs):
        calls.append(None)
        if len(calls) % 3 == 1:
            raise ScanRangeError("forced")
        if len(calls) % 3 == 2 and len(calls) < 6:
            raise DegenerateMapError("forced")
        return real(problem, cl, **kwargs)

    monkeypatch.setattr(limits_module, "bayesian_upper_limit", failing)
    result = run_pseudo_experiments(_line_model(10.0, 20.0 / 0.05), grid, free, free[0],
                                    n=9, cl=0.95, seed=3, statistic="poisson_nll")
    assert result.failure_counts == {"ScanRangeError": 3, "DegenerateMapError": 2}
    assert result.n_failed == 5 and result.bounds.size == 4
    assert [i for i, _ in result.failures] == [0, 1, 3, 4, 6]


def test_ensemble_requires_at_least_one_cycle():
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    truth = _line_model(0.0, 200.0)
    with pytest.raises(DomainError):
        run_pseudo_experiments(truth, grid, ((0, "amplitude"),), (0, "amplitude"),
                               n=0, cl=0.95, seed=1)
