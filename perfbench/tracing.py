"""Spans and counters recorded around calls into speclimit's modules.

The wrappers live here, not in the program: installing a Tracer
replaces each traced function in its home module and in every speclimit
module that bound it by name, so calls made from inside the package go
through the wrapper too. A name the package no longer defines is
skipped, which leaves its metrics at zero.

Counters accumulate in memory; spans are kept only while `keep_spans`
is set and at most MAX_SPANS of them, so a run holds part of one
round's spans, and the caller writes them out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from collections import defaultdict


def _count_minimize(totals, args, kwargs, result):
    totals["limits.minimize.nfev"] += int(getattr(result, "nfev", 0))


def _count_fit(totals, args, kwargs, result):
    totals["limits.fit_minimize.evals"] += int(getattr(result, "n_evaluations", 0))
    totals["limits.fit_minimize.restarts"] += int(getattr(result, "n_restarts", 0))


def _count_limit(totals, args, kwargs, result):
    totals["limits.scan_points"] += int(getattr(result, "metadata", {}).get("scan_points", 0))


def _count_ensemble(totals, args, kwargs, result):
    totals["limits.run_pseudo_experiments.toys"] += int(getattr(result, "n_requested", 0))


def _count_read(totals, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    totals["fileio.bytes_read"] += os.path.getsize(path)


def _count_written(totals, args, kwargs, result):
    totals["fileio.bytes_written"] += os.path.getsize(result)


# (home module, function, layer label, extra counter). The label names
# the module a caller sees, so scipy's minimize counts as the simplex
# runs made from speclimit.limits.
TARGETS = (
    ("scipy.optimize", "minimize", "limits.minimize", _count_minimize),
    ("speclimit.limits", "fit_minimize", "limits.fit_minimize", _count_fit),
    ("speclimit.limits", "parameter_uncertainties", "limits.parameter_uncertainties", None),
    ("speclimit.limits", "bayesian_upper_limit", "limits.bayesian_upper_limit", _count_limit),
    ("speclimit.limits", "run_pseudo_experiments", "limits.run_pseudo_experiments",
     _count_ensemble),
    ("speclimit.spectra", "predict_counts", "spectra.predict_counts", None),
    ("speclimit.spectra", "component_bin_counts", "spectra.component_bin_counts", None),
    ("speclimit.spectra", "simulate_spectrum", "spectra.simulate_spectrum", None),
    ("speclimit.pep", "pep_upper_limit", "pep.pep_upper_limit", None),
    ("speclimit.csl", "lambda_from_alpha", "csl.lambda_from_alpha", None),
    ("speclimit.fileio", "load_config", "fileio.load_config", _count_read),
    ("speclimit.fileio", "load_spectrum", "fileio.load_spectrum", _count_read),
    ("speclimit.fileio", "write_spectrum", "fileio.write_spectrum", _count_written),
    ("speclimit.fileio", "write_residual", "fileio.write_residual", _count_written),
    ("speclimit.fileio", "write_report", "fileio.write_report", _count_written),
    ("speclimit.fileio", "write_table", "fileio.write_table", _count_written),
)


MAX_SPANS = 50_000


class Tracer:
    """Wraps TARGETS while installed and records what the calls did."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.spans = []  # (span id, parent id, item, name, start, end)
        self.keep_spans = False
        self.item = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    def reset_totals(self):
        self.totals = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.totals[name + ".s"] += end - start
            self.totals[name + ".calls"] += 1
            if self.keep_spans and len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, self.item, name, start, end))

    def _wrap(self, label, original, extra):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(label, original, *args, **kwargs)
            if extra is not None:
                extra(self.totals, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        if self._patches:
            return
        # a module imported while the wrappers are in place would keep
        # them after uninstall, so every speclimit module is loaded first
        import speclimit
        for info in pkgutil.iter_modules(speclimit.__path__):
            importlib.import_module(f"speclimit.{info.name}")
        for home_name, fname, label, extra in TARGETS:
            home = importlib.import_module(home_name)
            original = getattr(home, fname, None)
            if original is None:
                continue
            wrapper = self._wrap(label, original, extra)
            modules = [home] + [m for n, m in sorted(sys.modules.items())
                                if n == "speclimit" or n.startswith("speclimit.")]
            for module in modules:
                if vars(module).get(fname) is original:
                    setattr(module, fname, wrapper)
                    self._patches.append((module, fname, original))

    def uninstall(self):
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches = []
