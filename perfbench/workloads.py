"""The benchmark's four workloads.

Each workload builds its inputs from the seed in `prepare`, lists one
round of operations in `items` (the same operations on the same inputs
every round), and checks the first round's outputs against
`reference`, which does not import speclimit. Why each workload exists
is recorded in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref

CL = 0.95


def derived_seeds(tag: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(2 ** 32) for _ in range(count)]


def close(value, expected, rtol) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


class Workload:
    """One round is `items()`; `ops_per_round` unit operations per round.

    A traced round runs `trace_items()`, `trace_ops_per_round` unit
    operations.

    Items look speclimit's functions up when they run, through the
    package, so the wrappers a traced round installs see the calls.
    """

    ops_per_round = 1
    min_rounds = 1
    # items that run fresh interpreter processes are timed against the
    # reference import rather than the in-process kernel (calibrate.py)
    starts_processes = False

    def prepare(self, seed: int, workdir: Path, env: dict):
        raise NotImplementedError

    def items(self):
        """[(name, callable)]; each callable returns a comparable output."""
        raise NotImplementedError

    def trace_items(self):
        return self.items()

    @property
    def trace_ops_per_round(self):
        return self.ops_per_round

    def before_round(self):
        pass

    def round_outputs(self) -> dict:
        """Outputs the round left outside the item return values."""
        return {}

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError

    def peak_rss_kb(self):
        """Peak RSS of the processes doing the work; None means this one."""
        return None


# ---------------------------------------------------------------------------


class PoissonLimits(Workload):
    """Poisson-NLL flat-prior limits on 30-bin line-plus-flat spectra."""

    LEVELS = (4.0, 24.0)  # flat background, counts per bin
    EDGES = np.linspace(7.0, 8.5, 31)
    FWHM = 0.32
    LINE_KEV = 7.7
    # 3e-3 keeps every seed at the 257 -> 513 point refinement; at the
    # default 1e-3 a few percent of spectra refine to 1025 points and
    # double their cost, which would make op_s depend on the seed
    GRID_RTOL = 3e-3

    def prepare(self, seed, workdir, env):
        import speclimit as sl
        response = sl.DetectorResponse(fwhm_kev_at_ref=self.FWHM, reference_energy_kev=8.0)
        grid = sl.EnergyGrid(self.EDGES)
        self.problems = {}
        for level, spectrum_seed in zip(self.LEVELS, derived_seeds("poisson", seed, 2)):
            width = self.EDGES[1] - self.EDGES[0]
            truth = sl.SpectralModel((sl.GaussianLine(self.LINE_KEV, 2.0 * level),
                                      sl.PolynomialBackground((level / width,))), response)
            spectrum = sl.simulate_spectrum(truth, grid, spectrum_seed)
            self.problems[f"limit_{level:g}_per_bin"] = sl.FitProblem.from_spectrum(
                spectrum, truth, free=((0, "amplitude"), (1, "coefficients", 0)),
                signal=(0, "amplitude"), statistic="poisson_nll")
        self.ops_per_round = len(self.problems)

    def items(self):
        import speclimit as sl

        def limit(problem):
            return sl.bayesian_upper_limit(problem, CL, seed=0,
                                           grid_rtol=self.GRID_RTOL).upper_bound
        return [(name, lambda p=p: limit(p)) for name, p in self.problems.items()]

    def check(self, outputs):
        problems = []
        line = ref.line_fractions(self.EDGES, self.LINE_KEV, self.FWHM)
        flat = ref.power_column(self.EDGES, 0)
        for name, problem in self.problems.items():
            expected = ref.poisson_upper_limit(problem.observed, line, flat, CL)
            if not close(outputs[name], expected, self.GRID_RTOL):
                problems.append(f"{name}: bound {outputs[name]!r}, Poisson profile "
                                f"reference {expected!r}")
        return problems


# ---------------------------------------------------------------------------


class ToyEnsemble(Workload):
    """Chi-square ensemble plus a fit and its uncertainties per toy."""

    N_TOYS = 100
    EDGES = np.linspace(6.5, 9.5, 61)
    FWHM = 0.32
    LINE_KEV = 7.7
    LINE_COUNTS = 60.0
    ALPHA = 1600.0  # about 10 counts per bin from the 1/E continuum
    FLAT = 400.0    # 20 counts per bin
    GRID_RTOL = 1e-3
    FREE = ((0, "amplitude"), (1, "alpha"), (2, "coefficients", 0))
    COVERAGE_TOYS = 1000
    COVERAGE_SEED = 20260819

    def prepare(self, seed, workdir, env):
        import speclimit as sl
        response = sl.DetectorResponse(fwhm_kev_at_ref=self.FWHM, reference_energy_kev=8.0)
        self.grid = sl.EnergyGrid(self.EDGES)
        self.truth = sl.SpectralModel((sl.GaussianLine(self.LINE_KEV, self.LINE_COUNTS),
                                       sl.OneOverEContinuum(self.ALPHA),
                                       sl.PolynomialBackground((self.FLAT,))), response)
        (self.ensemble_seed,) = derived_seeds("toys", seed, 1)
        # the ensemble's documented seeding: toy i draws from child i of
        # the ensemble seed, so the per-toy fits see the ensemble's spectra
        children = np.random.SeedSequence(self.ensemble_seed).spawn(self.N_TOYS)
        self.problems = [
            sl.FitProblem.from_spectrum(
                sl.simulate_spectrum(self.truth, self.grid, int(c.generate_state(1)[0])),
                self.truth, free=self.FREE, signal=self.FREE[0], statistic="chi2")
            for c in children
        ]
        self.ops_per_round = self.N_TOYS

    def items(self):
        import speclimit as sl

        def ensemble():
            result = sl.run_pseudo_experiments(self.truth, self.grid, self.FREE, self.FREE[0],
                                               n=self.N_TOYS, cl=CL, seed=self.ensemble_seed,
                                               grid_rtol=self.GRID_RTOL)
            return (tuple(result.bounds), tuple(result.best_signals), result.n_failed)

        def fit(problem):
            best = sl.fit_minimize(problem, seed=0)
            sigmas = sl.parameter_uncertainties(problem, best.values)
            return tuple(best.values), best.statistic, tuple(sigmas)

        return [("ensemble", ensemble)] + [
            (f"fit_{i}", lambda p=p: fit(p)) for i, p in enumerate(self.problems)]

    def check(self, outputs):
        problems = []
        bounds, best_signals, n_failed = outputs["ensemble"]
        if n_failed or len(bounds) != self.N_TOYS:
            return [f"ensemble: {n_failed} of {self.N_TOYS} toys failed"]
        columns = np.column_stack([ref.line_fractions(self.EDGES, self.LINE_KEV, self.FWHM),
                                   ref.inverse_e_column(self.EDGES),
                                   ref.power_column(self.EDGES, 0)])
        lower = [0.0, -np.inf, -np.inf]
        for i, problem in enumerate(self.problems):
            n = problem.observed
            weights = 1.0 / np.maximum(n, 1.0)
            bound, mean, _ = ref.linear_chi2_upper_limit(columns, n, weights, 0, CL)
            if abs(best_signals[i] - max(mean, 0.0)) > 1e-6 * max(abs(mean), 1.0):
                problems.append(f"toy {i}: ensemble best signal {best_signals[i]!r} is not the "
                                f"least-squares {mean!r}; toys no longer follow the seeding")
            if not close(bounds[i], bound, self.GRID_RTOL):
                problems.append(f"toy {i}: bound {bounds[i]!r}, truncated Gaussian {bound!r}")
            x, chi2 = ref.bounded_least_squares(columns, n, weights, lower)
            sigma = np.sqrt(np.diag(ref.least_squares_covariance(columns, weights)))
            values, statistic, uncertainties = outputs[f"fit_{i}"]
            if np.any(np.abs(np.array(values) - x) > 1e-6 * np.maximum(np.abs(x), sigma)):
                problems.append(f"toy {i}: fit {values} != bounded least squares {tuple(x)}")
            if abs(statistic - chi2) > 1e-9 * max(chi2, 1.0):
                problems.append(f"toy {i}: chi2 {statistic!r} != least squares {chi2!r}")
            # only the signal's: the finite-difference Hessian misses the
            # nuisance uncertainties by up to 12% when a fitted nuisance
            # lies near zero (see CHANGES.md), the signal's by below 2e-3
            if not close(uncertainties[0], sigma[0], 1e-2):
                problems.append(f"toy {i}: signal uncertainty {uncertainties[0]!r}, "
                                f"least squares {sigma[0]!r}")
        # Coverage is a statistical verdict; on the run's own 100 toys a
        # correct program (true coverage 0.946 here) would fail the 3-sigma
        # floor in about 1% of seeds, so it is taken on a fixed ensemble
        import speclimit as sl
        check = sl.run_pseudo_experiments(self.truth, self.grid, self.FREE, self.FREE[0],
                                          n=self.COVERAGE_TOYS, cl=CL, seed=self.COVERAGE_SEED)
        floor = CL - 3.0 * math.sqrt(CL * (1.0 - CL) / self.COVERAGE_TOYS)
        if check.n_failed or check.coverage < floor:
            problems.append(f"coverage {check.coverage} of {self.COVERAGE_TOYS} toys "
                            f"({check.n_failed} failed) below {floor:.4f}")
        return problems


# ---------------------------------------------------------------------------


class LineFit(Workload):
    """Two-line fits with free centroids, forbidden line beside K-alpha."""

    # fits cost 1.2k, 3k or 4.8k evaluations depending on the spectrum,
    # so op_s follows the seed through the mean over the round's spectra:
    # at 40 spectra the mean ranged 2240-2900 evaluations over 8 seeds.
    # 120 spectra shrink that by sqrt(3) and make a round of 15-30 s.
    # A traced fit costs 1.8x, so the traced run fits the first 40
    N_SPECTRA = 120
    TRACE_SPECTRA = 40
    EDGES = np.linspace(6.5, 9.5, 151)
    FWHM = 0.170
    TRUTH = ((7.7, 1.0e5), (8.0, 1.0e5), 1.0e3)
    START = ((7.72, 8.0e4), (7.98, 8.0e4), 800.0)
    FREE = ((0, "centroid_kev"), (0, "amplitude"),
            (1, "centroid_kev"), (1, "amplitude"), (2, "coefficients", 0))

    def _model(self, sl, spec, response):
        (c1, a1), (c2, a2), flat = spec
        return sl.SpectralModel((sl.GaussianLine(c1, a1), sl.GaussianLine(c2, a2),
                                 sl.PolynomialBackground((flat,))), response)

    def prepare(self, seed, workdir, env):
        import speclimit as sl
        response = sl.DetectorResponse(fwhm_kev_at_ref=self.FWHM, reference_energy_kev=8.0)
        grid = sl.EnergyGrid(self.EDGES)
        truth = self._model(sl, self.TRUTH, response)
        template = self._model(sl, self.START, response)
        self.problems = {
            f"fit_{i}": sl.FitProblem.from_spectrum(
                sl.simulate_spectrum(truth, grid, s), template, free=self.FREE,
                signal=self.FREE[1], statistic="chi2")
            for i, s in enumerate(derived_seeds("lines", seed, self.N_SPECTRA))
        }
        self.ops_per_round = len(self.problems)

    def items(self):
        import speclimit as sl

        def fit(problem):
            best = sl.fit_minimize(problem, seed=0)
            return tuple(best.values), best.statistic
        return [(name, lambda p=p: fit(p)) for name, p in self.problems.items()]

    def trace_items(self):
        return self.items()[:self.TRACE_SPECTRA]

    trace_ops_per_round = TRACE_SPECTRA

    def _expected(self, c1, a1, c2, a2, flat):
        return (a1 * ref.line_fractions(self.EDGES, c1, self.FWHM)
                + a2 * ref.line_fractions(self.EDGES, c2, self.FWHM)
                + flat * ref.power_column(self.EDGES, 0))

    def check(self, outputs):
        problems = []
        (c1, a1), (c2, a2), flat = self.TRUTH
        for name, problem in self.problems.items():
            if name not in outputs:  # a traced run fits the first TRACE_SPECTRA
                continue
            values, statistic = outputs[name]
            if abs(values[0] - c1) >= 0.010 or abs(values[2] - c2) >= 0.010:
                problems.append(f"{name}: centroids {values[0]!r}, {values[2]!r} off by 10 eV")
            at_fit = ref.neyman_chi2(problem.observed, self._expected(*values))
            at_truth = ref.neyman_chi2(problem.observed, self._expected(c1, a1, c2, a2, flat))
            if at_fit > at_truth:
                problems.append(f"{name}: chi2 {at_fit!r} above the truth's {at_truth!r}")
            if not close(statistic, at_fit, 1e-9):
                problems.append(f"{name}: reported chi2 {statistic!r}, recomputed {at_fit!r}")
        return problems


# ---------------------------------------------------------------------------


class CliPipeline(Workload):
    """The README demo pipeline as fresh `speclimit` processes."""

    starts_processes = True
    # a round with its reference imports takes 12-18 s; the second
    # round is what the byte-identical check compares with the first
    min_rounds = 2

    STEPS = (
        ("simulate_on", ["simulate", "--config", "simulate_on.json", "--out", "runs/on"]),
        ("simulate_off", ["simulate", "--config", "simulate_off.json", "--out", "runs/off"]),
        ("simulate_continuum", ["simulate", "--config", "simulate_continuum.json",
                                "--out", "runs/continuum"]),
        ("subtract", ["subtract", "--on", "runs/on/spectrum.txt",
                      "--off", "runs/off/spectrum.txt", "--out", "runs/residual"]),
        ("limit_pep", ["limit", "--config", "limit_pep.json", "--out", "limits/pep"]),
        ("limit_csl", ["limit", "--config", "limit_csl.json", "--out", "limits/csl"]),
        ("fit", ["fit", "--config", "fit_line.json", "--out", "fits/line"]),
        ("project", ["project", "--out", "project"]),
        ("constants", ["constants", "--out", "constants"]),
    )
    OUTPUT_DIRS = ("runs", "limits", "fits", "project", "constants", "stdout")
    LINE_GRID = {"lo_kev": 6.5, "hi_kev": 9.5, "n_bins": 120}
    LINE_RESPONSE = {"fwhm_kev_at_ref": 0.32, "reference_energy_kev": 8.0}
    CONTINUUM_GRID = {"lo_kev": 4.5, "hi_kev": 48.5, "n_bins": 88}
    CONTINUUM_RESPONSE = {"fwhm_kev_at_ref": 0.5, "reference_energy_kev": 10.0}
    RUN = {"current_a": 40.0, "duration_s": 94608000.0, "geometric_acceptance": 0.01,
           "detection_efficiency": 0.5, "capture_cascade_factor": 0.1,
           "capture_opportunities": 100000.0}
    CONTINUUM_EXPOSURE = {"mass_kg": 2.0, "live_time_days": 40.0}
    GE_MOLAR_MASS_KG = 0.07263
    GE_QUASI_FREE = 4.0
    GRID_RTOL = 1e-3  # the limit command's default

    def prepare(self, seed, workdir, env):
        import speclimit.cli  # noqa: F401  (set-up covers the import)
        self.work = workdir
        self.env = env
        self.children_rss_kb = 0
        line_model = {"components": [
            {"kind": "gaussian_line", "centroid_kev": 8.0, "amplitude": 600.0},
            {"kind": "polynomial_background", "coefficients": [547.5]}],
            "response": self.LINE_RESPONSE}
        on_seed, off_seed, continuum_seed = derived_seeds("cli", seed, 3)
        exposure = {"mass_kg": 1.0, "live_time_days": 1095.0}
        configs = {
            "simulate_on.json": {"kind": "simulate", "seed": on_seed, "tag": "current_on",
                                 "grid": self.LINE_GRID, "model": line_model,
                                 "exposure": exposure, "acquisition_days": 1095.0},
            "simulate_off.json": {"kind": "simulate", "seed": off_seed, "tag": "current_off",
                                  "grid": self.LINE_GRID, "model": line_model,
                                  "exposure": exposure, "acquisition_days": 1095.0},
            "simulate_continuum.json": {
                "kind": "simulate", "seed": continuum_seed, "tag": "measured",
                "grid": self.CONTINUUM_GRID,
                "model": {"components": [{"kind": "polynomial_background",
                                          "coefficients": [8.0]}],
                          "response": self.CONTINUUM_RESPONSE},
                "exposure": self.CONTINUUM_EXPOSURE, "acquisition_days": 40.0},
            "limit_pep.json": {
                "kind": "limit", "analysis": "pep", "on": "runs/on/spectrum.txt",
                "off": "runs/off/spectrum.txt",
                "transition": {"normal_energy_kev": 8.0, "shift_kev": 0.30},
                "response": self.LINE_RESPONSE, "run": self.RUN,
                "confidence_level": CL, "window_fwhm_multiple": 1.5, "seed": 0},
            "limit_csl.json": {
                "kind": "limit", "analysis": "csl", "spectrum": "runs/continuum/spectrum.txt",
                "background": {"coefficients": [8.0]}, "response": self.CONTINUUM_RESPONSE,
                "target": {"element": "Ge"}, "confidence_level": CL, "statistic": "chi2",
                "correlation_length_m": 1e-07, "detection_efficiency": 1.0, "seed": 0},
            "fit_line.json": {
                "kind": "fit", "spectrum": "runs/on/spectrum.txt", "model": {
                    "components": [
                        {"kind": "gaussian_line", "centroid_kev": 8.0, "amplitude": 100.0},
                        {"kind": "polynomial_background", "coefficients": [500.0]}],
                    "response": self.LINE_RESPONSE},
                "free": [[0, "amplitude"], [1, "coefficients", 0]],
                "signal": [0, "amplitude"], "statistic": "chi2", "seed": 0},
        }
        workdir.mkdir(parents=True, exist_ok=True)
        for name, config in configs.items():
            (workdir / name).write_text(json.dumps(config, indent=2) + "\n")

    def before_round(self):
        # each subcommand process starts with empty integral caches; the
        # in-process passes of a traced run start the same way
        for name, module in list(sys.modules.items()):
            if name == "speclimit" or name.startswith("speclimit."):
                for value in list(vars(module).values()):
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
        for name in self.OUTPUT_DIRS:
            shutil.rmtree(self.work / name, ignore_errors=True)
        (self.work / "stdout").mkdir()

    def _subprocess_step(self, name, argv):
        stdout_path = self.work / "stdout" / f"{name}.txt"
        stderr_path = self.work / "stdout" / f"{name}.err"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "speclimit.cli", *argv],
                                    cwd=self.work, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children_rss_kb = max(self.children_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"speclimit {argv[0]} exited {proc.returncode}: "
                               f"{stderr_path.read_text().strip()}")
        stderr_path.unlink()
        return proc.returncode

    def _inprocess_step(self, name, argv):
        from speclimit import cli
        captured = io.StringIO()
        here = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
        finally:
            os.chdir(here)
        (self.work / "stdout" / f"{name}.txt").write_text(captured.getvalue())
        if code != 0:
            raise RuntimeError(f"speclimit {argv[0]} returned {code}")
        return code

    def items(self):
        return [(name, lambda n=name, a=argv: self._subprocess_step(n, a))
                for name, argv in self.STEPS]

    def trace_items(self):
        return [(name, lambda n=name, a=argv: self._inprocess_step(n, a))
                for name, argv in self.STEPS]

    def round_outputs(self):
        digests = {}
        for name in self.OUTPUT_DIRS:
            for path in sorted((self.work / name).rglob("*")):
                if path.is_file():
                    rel = str(path.relative_to(self.work))
                    digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return {"files": digests}

    def peak_rss_kb(self):
        return self.children_rss_kb or None

    # -- checks ----------------------------------------------------------

    def _spectrum(self, rel):
        header, edges, (counts,) = ref.read_bins(self.work / rel)
        return header, edges, counts

    def check(self, outputs):
        problems = []
        report = lambda rel: ref.read_report(self.work / rel)  # noqa: E731
        for step in ("on", "off", "continuum"):
            _, _, counts = self._spectrum(f"runs/{step}/spectrum.txt")
            total = int(report(f"runs/{step}/report.txt")["total-counts"])
            if total != int(counts.sum()):
                problems.append(f"simulate {step}: report says {total} counts, "
                                f"file holds {int(counts.sum())}")

        on_header, edges, on = self._spectrum("runs/on/spectrum.txt")
        off_header, _, off = self._spectrum("runs/off/spectrum.txt")
        ratio = float(on_header["acquisition-days"]) / float(off_header["acquisition-days"])
        values = on - ratio * off
        sigmas = np.sqrt(on + ratio * ratio * off)
        for rel in ("runs/residual/residual.txt", "limits/pep/residual.txt"):
            _, res_edges, (res_values, res_sigmas) = ref.read_bins(self.work / rel)
            if not (np.array_equal(res_edges, edges)
                    and np.allclose(res_values, values, rtol=0, atol=1e-9)
                    and np.allclose(res_sigmas, sigmas, rtol=1e-12, atol=0)):
                problems.append(f"{rel} does not equal on - r off from the spectrum files")

        # forbidden line: truncated Gaussian on the window bins
        fwhm = self.LINE_RESPONSE["fwhm_kev_at_ref"]
        center = 8.0 - 0.30
        lo, hi = center - 1.5 * fwhm, center + 1.5 * fwhm
        mask = (edges[1:] > lo) & (edges[:-1] < hi)
        idx = np.flatnonzero(mask)
        window = np.append(edges[:-1][idx], edges[1:][idx[-1]])
        shape = ref.line_fractions(window, center, fwhm)
        weights = 1.0 / np.maximum(sigmas[mask], 1.0) ** 2
        counts_bound, _, _ = ref.linear_chi2_upper_limit(shape[:, None], values[mask],
                                                         weights, 0, CL)
        run = self.RUN
        unit_yield = (run["current_a"] * run["duration_s"] / ref.ELEMENTARY_CHARGE_C
                      * run["capture_opportunities"] * run["capture_cascade_factor"]
                      * run["geometric_acceptance"] * run["detection_efficiency"])
        pep = report("limits/pep/report.txt")
        for key, expected in (("excess-counts-upper-bound", counts_bound),
                              ("beta2-over-2-upper-bound", counts_bound / unit_yield)):
            if not close(float(pep[key]), expected, self.GRID_RTOL):
                problems.append(f"limit pep: {key} {pep[key]}, oracle {expected!r}")

        # continuum: 1/E amplitude with a flat background profiled
        _, c_edges, c_counts = self._spectrum("runs/continuum/spectrum.txt")
        columns = np.column_stack([ref.inverse_e_column(c_edges), ref.power_column(c_edges, 0)])
        alpha_bound, _, _ = ref.linear_chi2_upper_limit(
            columns, c_counts, 1.0 / np.maximum(c_counts, 1.0), 0, CL)
        csl = report("limits/csl/report.txt")
        if not close(float(csl["continuum-amplitude-upper-bound"]), alpha_bound, self.GRID_RTOL):
            problems.append(f"limit csl: amplitude bound "
                            f"{csl['continuum-amplitude-upper-bound']}, oracle {alpha_bound!r}")
        alpha_em, hbar_c_kev_m, avogadro = 7.2973525693e-3, 1.973269804e-10, 6.02214076e23
        per_lambda = (alpha_em * hbar_c_kev_m ** 2
                      / (4.0 * math.pi ** 2 * 1e-7 ** 2 * ref.ELECTRON_MASS_KEV ** 2)
                      * self.GE_QUASI_FREE * avogadro / self.GE_MOLAR_MASS_KG
                      * self.CONTINUUM_EXPOSURE["mass_kg"]
                      * self.CONTINUUM_EXPOSURE["live_time_days"] * 86400.0)
        reported_alpha = float(csl["continuum-amplitude-upper-bound"])
        if not close(float(csl["lambda-upper-bound-per-s"]), reported_alpha / per_lambda, 1e-9):
            problems.append(f"limit csl: lambda {csl['lambda-upper-bound-per-s']} does not map "
                            f"the amplitude bound")
        mass_ratio = (ref.NUCLEON_MASS_KEV / ref.ELECTRON_MASS_KEV) ** 2
        if not close(float(csl["mass-mode-ratio"]), mass_ratio, 1e-9):
            problems.append(f"limit csl: mass-mode ratio {csl['mass-mode-ratio']}")

        # fit: bounded weighted least squares on the current-on spectrum
        columns = np.column_stack([ref.line_fractions(edges, 8.0, fwhm),
                                   ref.power_column(edges, 0)])
        weights = 1.0 / np.maximum(on, 1.0)
        x, _ = ref.bounded_least_squares(columns, on, weights, [0.0, -np.inf])
        sigma = np.sqrt(np.diag(ref.least_squares_covariance(columns, weights)))
        fit = report("fits/line/report.txt")
        fitted = np.array([float(fit["fit.c0.amplitude"]), float(fit["fit.c1.coefficients[0]"])])
        if np.any(np.abs(fitted - x) > 1e-6 * np.maximum(np.abs(x), sigma)):
            problems.append(f"fit: {tuple(fitted)} != bounded least squares {tuple(x)}")

        overall = report("project/report.txt").get("overall improvement", "")
        try:
            low, high = (float(v) for v in overall.split(" - "))
        except ValueError:
            low = high = math.nan
        if not 113.0 <= low <= high <= 160.0:
            problems.append(f"project: overall improvement {overall!r} outside 113-160")
        constants = report("constants/report.txt")
        if float(constants.get("electron-mass-kev", "nan")) != ref.ELECTRON_MASS_KEV:
            problems.append("constants: electron mass missing or changed")
        return problems


WORKLOADS = {
    "poisson_limits": PoissonLimits,
    "toy_ensemble": ToyEnsemble,
    "line_fit": LineFit,
    "cli_pipeline": CliPipeline,
}
