"""Import budget: each run loads only the modules it needs.

Importing numpy dominates the wall time of a short `speclimit` process,
so the package namespace is lazy and each subcommand imports what it
runs, and the runtime needs numpy alone: no subcommand loads scipy.
Every check starts a fresh interpreter, because the test process itself
has long since imported everything.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import speclimit
from speclimit.cli import main

SRC_DIR = Path(speclimit.__file__).resolve().parent.parent
SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_configs"

# runs the CLI with the given arguments, then reports which modules it loaded
_CLI_PROBE = """
import json, sys
from speclimit.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _fresh_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_modules(argv, cwd):
    result = _fresh_python(_CLI_PROBE, *argv, cwd=cwd)
    assert result["code"] == 0
    return result["modules"]


def _under(modules, *packages):
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in packages))


def test_import_speclimit_loads_no_numeric_module():
    modules = _fresh_python("import json, sys, speclimit; print(json.dumps(sorted(sys.modules)))")
    assert _under(modules, "numpy", "scipy") == []
    assert _under(modules, "speclimit") == ["speclimit"]


def test_constants_subcommand_loads_no_numeric_module(tmp_path):
    assert _under(_cli_modules(["constants"], tmp_path), "numpy", "scipy") == []


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Sample configs plus the spectra the later steps read."""
    work = tmp_path_factory.mktemp("pipeline")
    for config in SAMPLE_DIR.glob("*.json"):
        shutil.copy(config, work / config.name)
    for argv in (["simulate", "--config", str(work / "simulate_forbidden_on.json"),
                  "--out", str(work / "runs/on")],
                 ["simulate", "--config", str(work / "simulate_forbidden_off.json"),
                  "--out", str(work / "runs/off")],
                 ["simulate", "--config", str(work / "simulate_continuum.json"),
                  "--out", str(work / "runs/continuum")]):
        assert main(argv) == 0
    fit = json.loads((work / "fit_forbidden_line.json").read_text())
    fit["free"].insert(0, [0, "centroid_kev"])
    (work / "fit_free_centroid.json").write_text(json.dumps(fit))
    for name in ("fit_forbidden_line", "fit_free_centroid", "limit_continuum"):
        config = json.loads((work / f"{name}.json").read_text())
        config["statistic"] = "poisson_nll"
        (work / f"{name}_poisson.json").write_text(json.dumps(config))
    # the sample continuum limit is Poisson; its chi2 variant takes the closed form
    chi2 = {**json.loads((work / "limit_continuum.json").read_text()), "statistic": "chi2"}
    (work / "limit_continuum_chi2.json").write_text(json.dumps(chi2))
    return work


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "simulate_continuum.json", "--out", "check/simulate"],
    ["subtract", "--on", "runs/on/spectrum.txt", "--off", "runs/off/spectrum.txt",
     "--out", "check/subtract"],
    ["limit", "--config", "limit_forbidden.json", "--out", "check/pep"],
    ["limit", "--config", "limit_continuum_chi2.json", "--out", "check/csl"],
    ["fit", "--config", "fit_forbidden_line.json", "--out", "check/fit"],
    ["fit", "--config", "fit_free_centroid.json", "--out", "check/fit-centroid"],
    ["fit", "--config", "fit_forbidden_line_poisson.json", "--out", "check/fit-poisson"],
    ["fit", "--config", "fit_free_centroid_poisson.json",
     "--out", "check/fit-centroid-poisson"],
    ["limit", "--config", "limit_continuum_poisson.json", "--out", "check/csl-poisson"],
], ids=["simulate", "subtract", "limit-pep", "limit-csl", "fit", "fit-free-centroid",
        "fit-poisson", "fit-free-centroid-poisson", "limit-csl-poisson"])
def test_pipeline_subcommands_skip_optimize_and_integrate(pipeline_dir, argv):
    modules = _cli_modules(argv, pipeline_dir)
    assert "numpy" in modules
    assert _under(modules, "scipy") == []


@pytest.mark.parametrize("argv", [
    ["limit", "--config", "limit_forbidden.json", "--out", "check/pep-stdlib"],
    ["limit", "--config", "limit_continuum_chi2.json", "--out", "check/csl-stdlib"],
], ids=["limit-pep", "limit-csl"])
def test_closed_form_limits_load_no_statistics_module(pipeline_dir, argv):
    # the normal quantile of a linear chi-square bound is speclimit's own,
    # so no limit loads statistics, and with it fractions and decimal
    assert _under(_cli_modules(argv, pipeline_dir), "statistics", "fractions", "decimal") == []


def test_no_module_names_scipy():
    # every fit and limit runs on an exact solver of its own, and erf
    # and log n! come from the standard library's math module
    named = [path.name for path in sorted((SRC_DIR / "speclimit").glob("*.py"))
             if re.search(r"\bscipy\b", path.read_text())]
    assert named == []


# runs each command line in turn with scipy unimportable
_PIPELINE_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from speclimit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_pipeline_runs_with_scipy_unimportable(pipeline_dir, tmp_path):
    for config in pipeline_dir.glob("*.json"):
        shutil.copy(config, tmp_path / config.name)
    pipeline = [
        ["simulate", "--config", "simulate_forbidden_on.json", "--out", "runs/on"],
        ["simulate", "--config", "simulate_forbidden_off.json", "--out", "runs/off"],
        ["simulate", "--config", "simulate_continuum.json", "--out", "runs/continuum"],
        ["subtract", "--on", "runs/on/spectrum.txt", "--off", "runs/off/spectrum.txt",
         "--out", "runs/residual"],
        ["limit", "--config", "limit_forbidden.json", "--out", "limits/pep"],
        ["limit", "--config", "limit_continuum.json", "--out", "limits/csl"],
        ["fit", "--config", "fit_forbidden_line.json", "--out", "fits/line"],
        ["fit", "--config", "fit_forbidden_line_poisson.json", "--out", "fits/poisson"],
        ["fit", "--config", "fit_free_centroid.json", "--out", "fits/free-centroid"],
    ]
    result = _fresh_python(_PIPELINE_WITHOUT_SCIPY, json.dumps(pipeline), cwd=tmp_path)
    assert result["codes"] == [0] * len(pipeline)
    assert _under(result["modules"], "scipy") == ["scipy"]  # the blocked entry itself


def test_lazy_namespace_resolves_every_public_name():
    probe = """
import json, speclimit
resolved = [name for name in speclimit.__all__ if getattr(speclimit, name, None) is not None]
try:
    speclimit.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"all": speclimit.__all__, "resolved": resolved, "dir": dir(speclimit),
                  "stored": sorted(set(vars(speclimit)) & set(speclimit.__all__)),
                  "unknown": unknown}))
"""
    result = _fresh_python(probe)
    assert len(result["all"]) == len(set(result["all"])) == 84
    assert result["resolved"] == result["all"]
    assert set(result["all"]) <= set(result["dir"])
    # names are looked up on each access, never cached in the package
    assert result["stored"] == []
    assert result["unknown"] == "AttributeError"


def test_each_module_lists_the_names_the_package_exports():
    # one list of public names: a module's __all__ is its row of the
    # package's lazy export table, no more and no fewer
    for module, names in speclimit._EXPORTS.items():
        listed = importlib.import_module(f"speclimit.{module}").__all__
        assert len(listed) == len(set(listed)), module
        assert sorted(listed) == sorted(names), module


def test_a_function_replaced_in_its_home_module_is_what_the_package_returns(monkeypatch):
    import speclimit.limits as home

    original = home.fit_minimize
    assert speclimit.fit_minimize is original

    def replaced(problem, *, seed=0):
        return None

    monkeypatch.setattr(home, "fit_minimize", replaced)
    assert speclimit.fit_minimize is replaced
    monkeypatch.undo()
    assert speclimit.fit_minimize is original
    assert "fit_minimize" not in vars(speclimit)
