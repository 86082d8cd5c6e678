"""On-disk formats and the command-line front end.

File writers must be deterministic down to the byte (floats are written
with repr, which round-trips exactly), and every parse failure must name
the offending file, line, and row.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from speclimit import (
    ConfigError,
    DetectorResponse,
    EnergyGrid,
    Exposure,
    GaussianLine,
    PolynomialBackground,
    SpectralModel,
    SpectrumFormatError,
    canonical_config_hash,
    format_number,
    load_config,
    load_spectrum,
    model_from_description,
    simulate_spectrum,
    subtract_spectra,
    write_report,
    write_residual,
    write_spectrum,
    write_table,
)
from speclimit.cli import main

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_configs"

MASS_RATIO_SQ = 3371456.6401267243  # (m_N / m_e)^2


def _small_spectrum(seed=11, tag="current_on"):
    grid = EnergyGrid.uniform(6.5, 9.5, 12)
    model = SpectralModel(
        components=(GaussianLine(centroid_kev=8.0, amplitude=40.0),
                    PolynomialBackground((30.0,))),
        response=DetectorResponse(fwhm_kev_at_ref=0.32, reference_energy_kev=8.0),
    )
    return simulate_spectrum(model, grid, seed=seed,
                             exposure=Exposure(1.0, 10.0),
                             acquisition_days=10.0, tag=tag)


# ---------------------------------------------------------------------------
# writers and parsers


def test_format_number_is_exact_and_compact():
    assert format_number(5) == "5"
    assert format_number(np.int64(7)) == "7"
    assert format_number(0.1) == "0.1"
    assert format_number(2.5e-18) == "2.5e-18"
    assert format_number(160.0) == "160.0"
    assert float(format_number(1 / 3)) == 1 / 3


def test_spectrum_round_trip_preserves_everything(tmp_path):
    spectrum = _small_spectrum()
    first = tmp_path / "a.txt"
    write_spectrum(first, spectrum, extra_header={"note": "smoke"})
    assert "# note: smoke" in first.read_text().splitlines()
    loaded = load_spectrum(first)
    assert loaded.grid == spectrum.grid
    assert np.array_equal(loaded.counts, spectrum.counts)
    assert loaded.tag == "current_on"
    assert loaded.exposure.mass_kg == 1.0
    assert loaded.exposure.live_time_days == 10.0
    assert loaded.acquisition_days == 10.0
    second = tmp_path / "b.txt"
    write_spectrum(second, loaded, extra_header={"note": "smoke"})
    assert first.read_bytes() == second.read_bytes()


def test_missing_header_key_is_named(tmp_path):
    spectrum = _small_spectrum()
    path = write_spectrum(tmp_path / "s.txt", spectrum)
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("# mass-kg:")]
    broken = tmp_path / "broken.txt"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectrumFormatError, match="missing required header 'mass-kg'"):
        load_spectrum(broken)


def test_wrong_units_format_and_tag_are_rejected(tmp_path):
    spectrum = _small_spectrum()
    path = write_spectrum(tmp_path / "s.txt", spectrum)
    text = path.read_text()

    for original, replacement, message in [
        ("# units-energy: keV", "# units-energy: eV", "unsupported energy unit"),
        ("# format: speclimit-spectrum/1", "# format: other/9", "unsupported format"),
        ("# tag: current_on", "# tag: mystery", "unknown tag"),
    ]:
        broken = tmp_path / "broken.txt"
        broken.write_text(text.replace(original, replacement))
        with pytest.raises(SpectrumFormatError, match=message):
            load_spectrum(broken)


HEADER = """\
# format: speclimit-spectrum/1
# units-energy: keV
# units-counts: counts
# tag: measured
# mass-kg: 1.0
# live-time-days: 10.0
# acquisition-days: 10.0
# columns: bin_lo_kev bin_hi_kev counts
"""


def test_overlapping_rows_name_line_and_row(tmp_path):
    path = tmp_path / "overlap.txt"
    path.write_text(HEADER + "6.5 7.0 3\n6.9 7.5 4\n")
    with pytest.raises(SpectrumFormatError) as err:
        load_spectrum(path)
    message = str(err.value)
    assert f"{path}:10: row 2 overlaps the previous bin" in message
    assert "starts at 6.9, previous ends at 7.0" in message


def test_gapped_rows_name_line_and_row(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text(HEADER + "6.5 7.0 3\n7.2 7.5 4\n")
    with pytest.raises(SpectrumFormatError, match="row 2 leaves a gap"):
        load_spectrum(path)


def test_inverted_edges_and_column_count_are_rejected(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text(HEADER + "7.0 6.5 3\n")
    with pytest.raises(SpectrumFormatError, match="upper edge 6.5 <= lower edge 7.0"):
        load_spectrum(path)
    path.write_text(HEADER + "6.5 7.0 3 99\n")
    with pytest.raises(SpectrumFormatError, match="expected 3 columns, got 4"):
        load_spectrum(path)
    path.write_text(HEADER)
    with pytest.raises(SpectrumFormatError, match="no data rows"):
        load_spectrum(path)


def test_counts_must_be_plain_nonnegative_integers(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(HEADER + "6.5 7.0 1.5\n")
    with pytest.raises(SpectrumFormatError, match="row 1 counts must be a plain integer"):
        load_spectrum(path)
    path.write_text(HEADER + "6.5 7.0 3\n7.0 7.5 -2\n")
    with pytest.raises(SpectrumFormatError, match=f"{path}:10: row 2 has negative counts"):
        load_spectrum(path)


def _read_residual(path):
    """The header rows and the float columns of a residual file, parsed
    here: the package writes residuals and reads none back."""
    header, rows = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        else:
            rows.append([float(token) for token in line.split()])
    return header, np.array(rows)


def test_residual_round_trip_and_format_guard(tmp_path):
    on = _small_spectrum(seed=1, tag="current_on")
    off = _small_spectrum(seed=2, tag="current_off")
    residual = subtract_spectra(on, off)
    first = tmp_path / "r.txt"
    write_residual(first, residual)
    header, rows = _read_residual(first)
    assert header["format"] == "speclimit-residual/1"
    assert header["units-energy"] == "keV"
    assert header["columns"] == "bin_lo_kev bin_hi_kev residual sigma"
    # repr floats read back bit for bit
    assert np.array_equal(rows[:, 0], residual.grid.lower_edges)
    assert np.array_equal(rows[:, 1], residual.grid.upper_edges)
    assert np.array_equal(rows[:, 2], residual.values)
    assert np.array_equal(rows[:, 3], residual.sigmas)
    assert float(header["normalization-ratio"]) == residual.normalization_ratio
    assert float(header["on-days"]) == 10.0
    assert float(header["off-days"]) == 10.0
    second = tmp_path / "r2.txt"
    write_residual(second, residual)
    assert first.read_bytes() == second.read_bytes()


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(ConfigError, match="no such config file"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(bad)


def test_config_hash_is_order_invariant_and_seed_sensitive():
    a = {"kind": "simulate", "seed": 1, "grid": {"lo_kev": 6.5, "hi_kev": 9.5}}
    b = {"grid": {"hi_kev": 9.5, "lo_kev": 6.5}, "seed": 1, "kind": "simulate"}
    assert canonical_config_hash(a) == canonical_config_hash(b)
    assert canonical_config_hash({**a, "seed": 2}) != canonical_config_hash(a)
    assert len(canonical_config_hash(a)) == 64


def test_write_report_formats_each_value_kind(tmp_path):
    path = write_report(tmp_path / "report.txt", [
        ("name", "verbatim string"),
        ("count", 12),
        ("value", 0.25),
        ("window", (7.22, 8.18)),
    ])
    assert path.read_text() == (
        "name: verbatim string\n"
        "count: 12\n"
        "value: 0.25\n"
        "window: 7.22 8.18\n"
    )


def test_write_table_layout_and_length_check(tmp_path):
    path = write_table(tmp_path / "t.dat", ("x", "y"),
                       ([1.0, 2.0], [3.5, 4.5]), header_lines=("hash: abc",))
    assert path.read_text() == (
        "# hash: abc\n"
        "# columns: x y\n"
        "1.0 3.5\n"
        "2.0 4.5\n"
    )
    with pytest.raises(ValueError):
        write_table(tmp_path / "bad.dat", ("x", "y"), ([1.0], [1.0, 2.0]))


# ---------------------------------------------------------------------------
# command-line front end


def _copy_sample_configs(tmp_path):
    for config in SAMPLE_DIR.glob("*.json"):
        shutil.copy(config, tmp_path / config.name)
    return tmp_path


def _report_dict(path):
    rows = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(": ")
        rows[key] = value
    return rows


def test_cli_rejects_kind_mismatch(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    code = main(["simulate", "--config", str(tmp_path / "fit_forbidden_line.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [config]:")
    assert "kind" in err


def test_cli_reports_io_stage_for_missing_spectrum(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    code = main(["limit", "--config", str(tmp_path / "limit_forbidden.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [io]:")
    assert "no such file" in err


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_cli_subtract_refuses_a_ratio_that_is_not_finite(tmp_path, capsys, ratio):
    _copy_sample_configs(tmp_path)
    for name, out in [("simulate_forbidden_on.json", "runs/on"),
                      ("simulate_forbidden_off.json", "runs/off")]:
        assert main(["simulate", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    code = main(["subtract", "--on", str(tmp_path / "runs/on/spectrum.txt"),
                 "--off", str(tmp_path / "runs/off/spectrum.txt"), "--ratio", ratio,
                 "--out", str(tmp_path / "runs/residual")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [build]: normalization ratio must be finite")
    assert not (tmp_path / "runs/residual/residual.txt").exists()


def test_cli_forbidden_line_chain(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    for name, out in [("simulate_forbidden_on.json", "runs/on"),
                      ("simulate_forbidden_off.json", "runs/off")]:
        assert main(["simulate", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / out)]) == 0
    on_report = _report_dict(tmp_path / "runs/on/report.txt")
    on_spectrum = load_spectrum(tmp_path / "runs/on/spectrum.txt")
    assert int(on_report["total-counts"]) == int(on_spectrum.total_counts)
    assert on_report["tag"] == "current_on"

    assert main(["subtract", "--on", str(tmp_path / "runs/on/spectrum.txt"),
                 "--off", str(tmp_path / "runs/off/spectrum.txt"),
                 "--out", str(tmp_path / "runs/residual")]) == 0
    assert _report_dict(tmp_path / "runs/residual/report.txt")["normalization-ratio"] == "1.0"

    assert main(["limit", "--config", str(tmp_path / "limit_forbidden.json"),
                 "--out", str(tmp_path / "limit")]) == 0
    out = capsys.readouterr().out
    assert "beta^2/2 upper bound at 0.95 CL:" in out
    report = _report_dict(tmp_path / "limit/report.txt")
    assert report["analysis"] == "pep"
    assert report["method"] == "bayesian-gaussian-residual"
    bound = float(report["beta2-over-2-upper-bound"])
    assert 1e-30 < bound < 1e-27
    assert float(report["window-lo-kev"]) == pytest.approx(7.22, rel=1e-12)
    assert float(report["window-hi-kev"]) == pytest.approx(8.18, rel=1e-12)
    # scan table carries the config hash and beta^2/2 scan column
    scan_text = (tmp_path / "limit/scan.dat").read_text().splitlines()
    assert scan_text[0] == f"# config-hash: {report['config-hash']}"
    assert scan_text[1] == "# columns: beta2_over_2 profiled_statistic"


def test_cli_seed_override_changes_output_and_hash(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    config = str(tmp_path / "simulate_forbidden_on.json")
    for out, seed in [("a", "7"), ("b", "7"), ("c", "8")]:
        assert main(["simulate", "--config", config, "--seed", seed,
                     "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    a = (tmp_path / "a/spectrum.txt").read_bytes()
    b = (tmp_path / "b/spectrum.txt").read_bytes()
    c = (tmp_path / "c/spectrum.txt").read_bytes()
    assert a == b
    assert a != c
    assert (_report_dict(tmp_path / "a/report.txt")["config-hash"]
            != _report_dict(tmp_path / "c/report.txt")["config-hash"])


@pytest.mark.parametrize("command", ["fit", "limit"])
def test_cli_fit_and_limit_take_no_seed(tmp_path, capsys, command):
    # no fit or limit draws a random number, so neither has a seed to set
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", "x.json", "--seed", "1", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_pep_limit_defaults_are_the_library_defaults(tmp_path, capsys):
    # the sample pep config with its optional keys left out, and with the
    # library types' defaults written out, report the same rows
    _copy_sample_configs(tmp_path)
    for name, out in [("simulate_forbidden_on.json", "runs/on"),
                      ("simulate_forbidden_off.json", "runs/off")]:
        assert main(["simulate", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / out)]) == 0
    sample = json.loads((tmp_path / "limit_forbidden.json").read_text())
    bare = {**sample, "response": {"fwhm_kev_at_ref": sample["response"]["fwhm_kev_at_ref"]},
            "run": {key: sample["run"][key] for key in ("current_a", "duration_s",
                                                         "geometric_acceptance",
                                                         "detection_efficiency")}}
    del bare["transition"], bare["window_fwhm_multiple"]
    written = {**bare, "transition": {"normal_energy_kev": 8.0, "shift_kev": 0.30},
               "response": {**bare["response"], "reference_energy_kev": 8.0,
                            "resolution_model": "constant", "efficiency": 1.0},
               "run": {**bare["run"], "capture_cascade_factor": 0.1,
                       "capture_opportunities": 1.0},
               "window_fwhm_multiple": 1.5}
    reports = []
    for name, config in [("bare", bare), ("written", written)]:
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        assert main(["limit", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
        report = _report_dict(tmp_path / name / "report.txt")
        assert report.pop("config-hash")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["forbidden-energy-kev"] == "7.7"
    assert (tmp_path / "bare/scan.dat").read_text().split("\n", 1)[1] == (
        tmp_path / "written/scan.dat").read_text().split("\n", 1)[1]


def test_cli_continuum_limit_reports_mass_mode_ratio(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_continuum.json"),
                 "--out", str(tmp_path / "runs/continuum")]) == 0
    assert main(["limit", "--config", str(tmp_path / "limit_continuum.json"),
                 "--out", str(tmp_path / "limit")]) == 0
    out = capsys.readouterr().out
    assert "lambda upper bound at 0.95 CL:" in out
    report = _report_dict(tmp_path / "limit/report.txt")
    assert report["analysis"] == "csl"
    lam = float(report["lambda-upper-bound-per-s"])
    lam_mass = float(report["lambda-mass-proportional-upper-bound-per-s"])
    ratio = float(report["mass-mode-ratio"])
    assert ratio == pytest.approx(MASS_RATIO_SQ, rel=1e-6)
    assert lam_mass / lam == pytest.approx(ratio, rel=1e-12)
    assert report["target-element"] == "Ge"
    assert float(report["exposure-kg-day"]) == 80.0


def test_cli_continuum_limit_rejects_a_relativistic_window(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    simulate = json.loads((tmp_path / "simulate_continuum.json").read_text())
    simulate["grid"] = {"lo_kev": 4.5, "hi_kev": 300.0, "n_bins": 59}
    (tmp_path / "simulate_continuum.json").write_text(json.dumps(simulate))
    assert main(["simulate", "--config", str(tmp_path / "simulate_continuum.json"),
                 "--out", str(tmp_path / "runs/continuum")]) == 0
    capsys.readouterr()
    code = main(["limit", "--config", str(tmp_path / "limit_continuum.json"),
                 "--out", str(tmp_path / "limit")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [build]:")
    assert "non-relativistic" in err
    assert not (tmp_path / "limit").exists()


@pytest.mark.parametrize("name", ["limit_continuum.json", "limit_forbidden.json"])
def test_cli_limit_refuses_a_confidence_level_above_one_and_writes_nothing(tmp_path, capsys,
                                                                            name):
    # refused by the config check, before the spectra (not simulated here) are read
    _copy_sample_configs(tmp_path)
    code = main(["limit", "--config", str(tmp_path / name), "--cl", "1.5",
                 "--out", str(tmp_path / "limits/cl15")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [config]: config value 'confidence_level' "
                          "must lie strictly between 0 and 1, got 1.5")
    assert not (tmp_path / "limits").exists()


@pytest.mark.parametrize("key, value", [("grid_rtol", 0), ("grid_rtol", -0.5),
                                        ("grid_rtol", 1), ("confidence_level", 0)])
def test_cli_limit_refuses_a_fraction_outside_zero_one_and_writes_nothing(tmp_path, capsys,
                                                                          key, value):
    _copy_sample_configs(tmp_path)
    limit = json.loads((tmp_path / "limit_continuum.json").read_text())
    limit[key] = value
    (tmp_path / "limit_continuum.json").write_text(json.dumps(limit))
    code = main(["limit", "--config", str(tmp_path / "limit_continuum.json"),
                 "--out", str(tmp_path / "limits/csl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"speclimit: error [config]: config value {key!r} must lie "
                          f"strictly between 0 and 1, got {value!r}")
    assert not (tmp_path / "limits").exists()


@pytest.mark.parametrize("response_efficiency", [0.8, [0.9] * 88])
def test_cli_continuum_limit_refuses_two_efficiencies(tmp_path, capsys, response_efficiency):
    # the response efficiency already scales the fitted columns; dividing
    # the bound by detection_efficiency as well would apply it twice
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_continuum.json"),
                 "--out", str(tmp_path / "runs/continuum")]) == 0
    limit = json.loads((tmp_path / "limit_continuum.json").read_text())
    limit["response"]["efficiency"] = response_efficiency
    limit["detection_efficiency"] = 0.5
    (tmp_path / "limit_continuum.json").write_text(json.dumps(limit))
    capsys.readouterr()
    code = main(["limit", "--config", str(tmp_path / "limit_continuum.json"),
                 "--out", str(tmp_path / "limit")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [config]:")
    assert "detection_efficiency and response efficiency" in err
    assert not (tmp_path / "limit/report.txt").exists()
    # either knob alone is accepted
    for response_eff, detection_eff in ((response_efficiency, 1.0), (1.0, 0.5)):
        limit["response"]["efficiency"] = response_eff
        limit["detection_efficiency"] = detection_eff
        (tmp_path / "limit_continuum.json").write_text(json.dumps(limit))
        assert main(["limit", "--config", str(tmp_path / "limit_continuum.json"),
                     "--out", str(tmp_path / "limit")]) == 0


def test_cli_pep_limit_refuses_two_efficiencies_and_writes_nothing(tmp_path, capsys):
    # the pep fit folds the response efficiency into the line shape and its
    # unit yield applies run.detection_efficiency (0.5 in the sample): both
    # at 0.5 would bound beta^2/2 as one efficiency of 0.25. Refused by the
    # config check, before the spectra (not simulated here) are read
    _copy_sample_configs(tmp_path)
    limit = json.loads((tmp_path / "limit_forbidden.json").read_text())
    limit["response"]["efficiency"] = 0.5
    (tmp_path / "limit_forbidden.json").write_text(json.dumps(limit))
    code = main(["limit", "--config", str(tmp_path / "limit_forbidden.json"),
                 "--out", str(tmp_path / "limits/pep")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [config]: detection_efficiency and response "
                          "efficiency both differ from 1")
    assert not (tmp_path / "limits").exists()


def test_cli_continuum_limit_reports_both_amplitudes_before_detection(tmp_path, capsys):
    # the bound, the best fit and scan.dat's amplitudes are all divided by
    # detection_efficiency, so at 0.5 each is exactly twice its value at 1;
    # scan.dat once stayed in detected units. The profiled statistic is
    # the same profile at either efficiency
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_continuum.json"),
                 "--out", str(tmp_path / "runs/continuum")]) == 0
    limit = json.loads((tmp_path / "limit_continuum.json").read_text())
    reports, scans = {}, {}
    for efficiency in (1.0, 0.5):
        limit["detection_efficiency"] = efficiency
        (tmp_path / "limit_continuum.json").write_text(json.dumps(limit))
        assert main(["limit", "--config", str(tmp_path / "limit_continuum.json"),
                     "--out", str(tmp_path / f"limit-{efficiency}")]) == 0
        reports[efficiency] = _report_dict(tmp_path / f"limit-{efficiency}/report.txt")
        scans[efficiency] = np.loadtxt(tmp_path / f"limit-{efficiency}/scan.dat")
    for row in ("continuum-amplitude-upper-bound", "best-fit-amplitude"):
        assert float(reports[0.5][row]) == 2.0 * float(reports[1.0][row]) > 0.0, row
    assert scans[1.0][-1, 0] > 0.0
    np.testing.assert_array_equal(scans[0.5][:, 0], 2.0 * scans[1.0][:, 0])
    np.testing.assert_array_equal(scans[0.5][:, 1], scans[1.0][:, 1])


def _limit_refused_before_reading(tmp_path, capsys, name, path, value):
    """stderr of a sample limit config run with the setting at path set
    to value, which must fail, writing nothing. No spectrum is simulated,
    so a run that got as far as reading one would fail as [io]."""
    _copy_sample_configs(tmp_path)
    config = json.loads((tmp_path / name).read_text())
    section = config
    for step in path[:-1]:
        section = section[step]
    section[path[-1]] = value
    (tmp_path / name).write_text(json.dumps(config))
    code = main(["limit", "--config", str(tmp_path / name), "--out", str(tmp_path / "limits/x")])
    assert code == 1
    assert not (tmp_path / "limits").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("name, path", [
    *(("limit_forbidden.json", ("run", key))
      for key in ("current_a", "duration_s", "geometric_acceptance", "detection_efficiency",
                  "capture_cascade_factor", "capture_opportunities")),
    ("limit_continuum.json", ("detection_efficiency",)),
], ids=["pep-current", "pep-duration", "pep-acceptance", "pep-efficiency", "pep-cascade",
        "pep-opportunities", "csl-efficiency"])
def test_cli_limit_refuses_a_factor_of_zero_before_reading_a_spectrum(tmp_path, capsys, name,
                                                                      path):
    # a factor of 0 leaves no expected counts to bound: a pep run factor
    # of 0 once passed the config check and failed as [limit] after both
    # spectra were read
    err = _limit_refused_before_reading(tmp_path, capsys, name, path, 0)
    assert err.startswith(f"speclimit: error [config]: config value {'.'.join(path)!r} must ")
    assert err.rstrip().endswith("got 0")


@pytest.mark.parametrize("name, path, value", [
    ("limit_forbidden.json", ("window_fwhm_multiple",), 0),
    ("limit_forbidden.json", ("ratio",), 0),
    ("limit_forbidden.json", ("ratio",), -1),
    ("limit_continuum.json", ("correlation_length_m",), 0),
    ("limit_continuum.json", ("target", "quasi_free_electrons"), 0),
], ids=["pep-window", "pep-ratio-zero", "pep-ratio-negative", "csl-correlation-length",
        "csl-quasi-free-electrons"])
def test_cli_limit_refuses_a_setting_that_must_be_positive(tmp_path, capsys, name, path, value):
    # each of these once passed the config check and failed as [build] or
    # [limit] after the spectra were read
    err = _limit_refused_before_reading(tmp_path, capsys, name, path, value)
    assert err.startswith(f"speclimit: error [config]: config value {'.'.join(path)!r} "
                          f"must be positive, got {value}")


@pytest.mark.parametrize("name, path, value", [
    ("simulate_continuum.json", ("exposure", "mass_kg"), 0),
    ("simulate_continuum.json", ("exposure", "live_time_days"), 0),
    ("simulate_forbidden_off.json", ("exposure", "live_time_days"), -1),
    ("simulate_forbidden_off.json", ("acquisition_days",), 0),
], ids=["mass", "live-time", "live-time-negative", "acquisition-time"])
def test_cli_simulate_refuses_an_exposure_that_is_not_positive(tmp_path, capsys, name, path,
                                                               value):
    # a mass of 0 once wrote a spectrum whose limit failed as [limit], and
    # an acquisition time of 0 one that subtract refused as [build]
    _copy_sample_configs(tmp_path)
    config = json.loads((tmp_path / name).read_text())
    section = config
    for step in path[:-1]:
        section = section[step]
    section[path[-1]] = value
    (tmp_path / name).write_text(json.dumps(config))
    code = main(["simulate", "--config", str(tmp_path / name), "--out", str(tmp_path / "runs/x")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"speclimit: error [config]: config value {'.'.join(path)!r} must be positive, "
        f"got {value}")
    assert not (tmp_path / "runs").exists()


def test_cli_fit_writes_a_loadable_model(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_forbidden_on.json"),
                 "--out", str(tmp_path / "runs/on")]) == 0
    assert main(["fit", "--config", str(tmp_path / "fit_forbidden_line.json"),
                 "--out", str(tmp_path / "fit")]) == 0
    out = capsys.readouterr().out
    assert "chi2 = " in out
    report = _report_dict(tmp_path / "fit/report.txt")
    assert "fit.c0.amplitude" in report
    assert "uncertainty.c0.amplitude" in report
    fitted = model_from_description(
        json.loads((tmp_path / "fit/fitted_model.json").read_text()))
    assert fitted.components[0].amplitude == float(report["fit.c0.amplitude"])
    # simulated line amplitude is 600 with sqrt(600)-level noise
    assert fitted.components[0].amplitude == pytest.approx(600.0, abs=150.0)
    # and its description passes a fit config's schema as that config's model
    config = json.loads((tmp_path / "fit_forbidden_line.json").read_text())
    config["model"] = json.loads((tmp_path / "fit/fitted_model.json").read_text())
    (tmp_path / "refit.json").write_text(json.dumps(config))
    assert main(["fit", "--config", str(tmp_path / "refit.json"),
                 "--out", str(tmp_path / "refit")]) == 0
    refit = _report_dict(tmp_path / "refit/report.txt")
    assert refit["fit.c0.amplitude"] == report["fit.c0.amplitude"]


def test_cli_fit_rejects_a_signal_that_vanishes_on_the_grid(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_forbidden_on.json"),
                 "--out", str(tmp_path / "runs/on")]) == 0
    config = json.loads((tmp_path / "fit_forbidden_line.json").read_text())
    config["model"]["components"][0]["centroid_kev"] = 20.0
    (tmp_path / "fit_forbidden_line.json").write_text(json.dumps(config))
    capsys.readouterr()
    code = main(["fit", "--config", str(tmp_path / "fit_forbidden_line.json"),
                 "--out", str(tmp_path / "fit")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [fit]:")
    assert "vanishes" in err
    assert not (tmp_path / "fit/report.txt").exists()


def test_cli_fit_takes_the_first_linear_parameter_as_the_signal(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_forbidden_on.json"),
                 "--out", str(tmp_path / "runs/on")]) == 0
    config = json.loads((tmp_path / "fit_forbidden_line.json").read_text())
    del config["signal"]
    config["free"].insert(0, [0, "centroid_kev"])
    (tmp_path / "fit_forbidden_line.json").write_text(json.dumps(config))
    assert main(["fit", "--config", str(tmp_path / "fit_forbidden_line.json"),
                 "--out", str(tmp_path / "fit")]) == 0
    report = _report_dict(tmp_path / "fit/report.txt")
    assert float(report["fit.c0.centroid_kev"]) == pytest.approx(8.0, abs=0.05)
    assert float(report["fit.c0.amplitude"]) == pytest.approx(600.0, abs=150.0)


@pytest.mark.parametrize("change, message", [
    ({"signal": [0, "centroid_kev"], "free": [[0, "centroid_kev"], [0, "amplitude"]]},
     "not a line centroid"),
    ({"free": [[0, "centroid_kev"], [1, "coefficients", 0]]}, "amplitude is not"),
    ({"free": [[c, attr] for c in (0, 2, 3) for attr in ("centroid_kev", "amplitude")]},
     "at most two line centroids"),
], ids=["centroid-signal", "fixed-amplitude", "three-centroids"])
def test_cli_fit_refuses_shapes_no_exact_solver_takes(tmp_path, capsys, change, message):
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_forbidden_on.json"),
                 "--out", str(tmp_path / "runs/on")]) == 0
    config = json.loads((tmp_path / "fit_forbidden_line.json").read_text())
    config.pop("signal")
    config["model"]["components"] += [{"kind": "gaussian_line", "centroid_kev": c,
                                       "amplitude": 10.0} for c in (7.0, 9.0)]
    config.update(change)
    (tmp_path / "fit_forbidden_line.json").write_text(json.dumps(config))
    capsys.readouterr()
    code = main(["fit", "--config", str(tmp_path / "fit_forbidden_line.json"),
                 "--out", str(tmp_path / "fit")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [build]:")
    assert message in err
    assert not (tmp_path / "fit").exists()


def test_cli_fit_names_a_missing_component_key(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_forbidden_on.json"),
                 "--out", str(tmp_path / "runs/on")]) == 0
    config = json.loads((tmp_path / "fit_forbidden_line.json").read_text())
    del config["model"]["components"][0]["amplitude"]
    (tmp_path / "fit_forbidden_line.json").write_text(json.dumps(config))
    capsys.readouterr()
    code = main(["fit", "--config", str(tmp_path / "fit_forbidden_line.json"),
                 "--out", str(tmp_path / "fit")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "speclimit: error [build]: component 0 (gaussian_line) lacks 'amplitude'\n"
    assert not (tmp_path / "fit/report.txt").exists()


def test_cli_limit_names_a_missing_response_key(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    for name, out in [("simulate_forbidden_on.json", "runs/on"),
                      ("simulate_forbidden_off.json", "runs/off")]:
        assert main(["simulate", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / out)]) == 0
    config = json.loads((tmp_path / "limit_forbidden.json").read_text())
    del config["response"]["fwhm_kev_at_ref"]
    (tmp_path / "limit_forbidden.json").write_text(json.dumps(config))
    capsys.readouterr()
    code = main(["limit", "--config", str(tmp_path / "limit_forbidden.json"),
                 "--out", str(tmp_path / "limit")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [")
    assert "fwhm_kev_at_ref" in err
    assert not (tmp_path / "limit/report.txt").exists()


@pytest.mark.parametrize("name, change, key", [
    ("fit_forbidden_line.json", {"free": []}, "'free'"),
    ("fit_forbidden_line.json", {"free": [["a", "amplitude"]]}, "'free'"),
    ("limit_continuum.json", {"confidence_level": "high"}, "'confidence_level'"),
    ("simulate_continuum.json", {"grid": {"lo_kev": 4.5, "hi_kev": 48.5, "n_bins": "many"}},
     "'grid.n_bins'"),
    ("fit_forbidden_line.json", {("model", "components", 0, "amplitude"): "big"},
     "'components[0].amplitude'"),
    ("limit_continuum.json", {("response", "fwhm_kev_at_ref"): "wide"},
     "'response.fwhm_kev_at_ref'"),
    ("simulate_continuum.json", {"grid": {"edges": "abc"}}, "'grid.edges'"),
    ("simulate_continuum.json", {"exposure": 5}, "'exposure'"),
    ("limit_continuum.json", {("background", "coefficients"): 5}, "'background.coefficients'"),
    ("simulate_continuum.json", {("model", "components"): 5}, "'components'"),
    ("simulate_continuum.json", {("model", "components"): [5]}, "'components[0]'"),
    ("simulate_continuum.json", {("model", "response"): 5}, "'response'"),
    ("simulate_continuum.json", {("model", "response", "efficiency"): "high"},
     "'response.efficiency'"),
    ("simulate_continuum.json", {("model", "response", "efficiency"): ["x"]},
     "'response.efficiency'"),
    ("simulate_continuum.json", {("model", "response", "efficiency"): [[0.5]]},
     "'response.efficiency'"),
    ("fit_forbidden_line.json", {("model", "response", "fwhm_kev_at_ref"): float("nan")},
     "'response.fwhm_kev_at_ref'"),
    ("fit_forbidden_line.json", {("model", "components", 0, "amplitude"): float("inf")},
     "'components[0].amplitude'"),
    ("fit_forbidden_line.json", {"spectrum": ["runs/on/spectrum.txt"]}, "'spectrum'"),
    ("limit_forbidden.json", {"on": 5}, "'on'"),
    ("fit_forbidden_line.json", {("model", "components", 0, "kind"): ["gaussian_line"]},
     "'components[0].kind'"),
    ("limit_continuum.json", {("target", "element"): ["Ge"]}, "'target.element'"),
    ("limit_continuum.json", {("target", "quasi_free_electrons"): "four"},
     "'target.quasi_free_electrons'"),
    ("simulate_continuum.json", {("grid", "n_bins"): 88.7}, "'grid.n_bins'"),
    ("simulate_continuum.json", {("grid", "n_bins"): True}, "'grid.n_bins'"),
    ("simulate_continuum.json", {"seed": "7"}, "'seed'"),
    ("limit_continuum.json", {"confidence_level": True}, "'confidence_level'"),
    ("fit_forbidden_line.json", {"statistic": ["chi2"]}, "'statistic'"),
    ("fit_forbidden_line.json", {"statistic": 3}, "'statistic'"),
    ("fit_forbidden_line.json", {"statistic": None}, "'statistic'"),
    ("limit_continuum.json", {"statistic": ["chi2"]}, "'statistic'"),
    ("limit_continuum.json", {"statistic": 3}, "'statistic'"),
    ("limit_continuum.json", {"statistic": None}, "'statistic'"),
    ("fit_forbidden_line.json", {"free": [[0, 5]]}, "'free'"),
    ("limit_continuum.json", {"seed": "banana"}, "'seed'"),
    ("fit_forbidden_line.json", {"seed": "banana"}, "'seed'"),
    ("simulate_continuum.json", {("grid", "edges"): [4.5, 26.5, 48.5]}, "'edges'"),
], ids=["empty-free", "named-component", "word-confidence-level", "word-bin-count",
        "word-amplitude", "word-fwhm", "word-edges", "number-exposure", "number-coefficients",
        "number-components", "number-component", "number-response", "word-efficiency",
        "word-in-efficiency", "nested-efficiency", "nan-fwhm", "infinite-amplitude",
        "list-spectrum", "number-on-file", "list-kind", "list-element",
        "word-electron-count", "fractional-bin-count", "boolean-bin-count", "word-seed",
        "boolean-confidence-level", "list-fit-statistic", "number-fit-statistic",
        "null-fit-statistic", "list-limit-statistic", "number-limit-statistic",
        "null-limit-statistic", "number-attribute", "word-limit-seed", "word-fit-seed",
        "edges-and-uniform-grid"])
def test_cli_malformed_config_values_fail_with_the_config_stage(tmp_path, capsys, name,
                                                                 change, key):
    _copy_sample_configs(tmp_path)
    for simulate, out in [("simulate_forbidden_on.json", "runs/on"),
                          ("simulate_continuum.json", "runs/continuum")]:
        assert main(["simulate", "--config", str(tmp_path / simulate),
                     "--out", str(tmp_path / out)]) == 0
    config = json.loads((tmp_path / name).read_text())
    config.pop("signal", None)
    # a tuple key is the path to a nested value
    for path, value in change.items():
        *parents, last = path if isinstance(path, tuple) else (path,)
        section = config
        for step in parents:
            section = section[step]
        section[last] = value
    (tmp_path / name).write_text(json.dumps(config))
    capsys.readouterr()
    code = main([config["kind"], "--config", str(tmp_path / name), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [config]:")
    assert key in err
    assert not (tmp_path / "x/report.txt").exists()


@pytest.mark.parametrize("name, section, key, typo, path", [
    ("fit_forbidden_line.json", (), "statistic", "statistc", ""),
    ("limit_continuum.json", (), "statistic", "statistc", ""),
    ("limit_forbidden.json", (), "confidence_level", "confidence_levl", ""),
    ("simulate_continuum.json", (), "acquisition_days", "acquisition_day", ""),
    ("project_upgrade.json", (), "linear_factors", "linear_factor", ""),
    ("simulate_continuum.json", ("grid",), "n_bins", "n_bin", "grid."),
    # a model description's paths start at the description, as in fitted_model.json
    ("fit_forbidden_line.json", ("model", "components", 0), "amplitude", "amplitud",
     "components[0]."),
    ("limit_forbidden.json", ("response",), "fwhm_kev_at_ref", "fwhm_kev", "response."),
    ("simulate_continuum.json", ("exposure",), "mass_kg", "mass", "exposure."),
    ("limit_forbidden.json", ("run",), "current_a", "current", "run."),
    ("limit_forbidden.json", ("transition",), "shift_kev", "shift", "transition."),
    ("limit_continuum.json", ("target",), "element", "elemnt", "target."),
    ("limit_continuum.json", ("background",), "coefficients", "coeffs", "background."),
], ids=["fit", "limit-csl", "limit-pep", "simulate", "project", "grid", "component",
        "response", "exposure", "run", "transition", "target", "background"])
def test_cli_refuses_a_misspelt_key_and_names_the_known_one(tmp_path, capsys, name, section,
                                                            key, typo, path):
    # with the key spelt right each config runs; an unknown key once fell
    # back to the default of the key it misspelt, without a word
    _copy_sample_configs(tmp_path)
    for simulate, out in [("simulate_forbidden_on.json", "runs/on"),
                          ("simulate_forbidden_off.json", "runs/off"),
                          ("simulate_continuum.json", "runs/continuum")]:
        assert main(["simulate", "--config", str(tmp_path / simulate),
                     "--out", str(tmp_path / out)]) == 0
    config = json.loads((tmp_path / name).read_text())
    entry = config
    for step in section:
        entry = entry[step]
    entry[typo] = entry.pop(key)
    (tmp_path / name).write_text(json.dumps(config))
    capsys.readouterr()
    code = main([config["kind"], "--config", str(tmp_path / name), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("speclimit: error [config]:")
    assert f"'{path}{typo}'" in err
    assert f"did you mean '{path}{key}'?" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name, section, key, path, typo, value", [
    ("fit_forbidden_line.json", (), "statistic", "statistic", "poison_nll", "poisson_nll"),
    ("limit_continuum.json", (), "statistic", "statistic", "poison_nll", "poisson_nll"),
    ("simulate_forbidden_on.json", (), "tag", "tag", "curent_on", "current_on"),
    ("limit_continuum.json", ("response",), "resolution_model", "response.resolution_model",
     "sqr", "sqrt"),
    ("fit_forbidden_line.json", ("model", "components", 0), "kind", "components[0].kind",
     "gausian_line", "gaussian_line"),
    ("limit_forbidden.json", (), "analysis", "analysis", "pepp", "pep"),
], ids=["fit-statistic", "limit-statistic", "simulate-tag", "resolution-model",
        "component-kind", "analysis"])
def test_cli_refuses_a_misspelt_value_and_names_the_nearest_one(tmp_path, capsys, name,
                                                               section, key, path, typo,
                                                               value):
    # a value no setting takes once failed as [build], after the output
    # directory was made
    _copy_sample_configs(tmp_path)
    config = json.loads((tmp_path / name).read_text())
    entry = config
    for step in section:
        entry = entry[step]
    entry[key] = typo
    (tmp_path / name).write_text(json.dumps(config))
    code = main([config["kind"], "--config", str(tmp_path / name), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"speclimit: error [config]: config value '{path}' must be one of")
    assert f"got '{typo}', did you mean '{value}'?" in err
    assert not (tmp_path / "x").exists()


def test_cli_project_prints_headline_rows(tmp_path, capsys):
    assert main(["project"]) == 0
    assert capsys.readouterr().out == (
        "total linear factor: 8\n"
        "background reduction: 200 - 400\n"
        "overall improvement: 113.14 - 160.00\n"
    )
    _copy_sample_configs(tmp_path)
    assert main(["project", "--config", str(tmp_path / "project_upgrade.json"),
                 "--out", str(tmp_path / "proj")]) == 0
    capsys.readouterr()
    report = _report_dict(tmp_path / "proj/report.txt")
    assert report["total linear factor"] == "8"
    assert report["background reduction"] == "200 - 400"
    assert report["overall improvement"] == "113.14 - 160.00"
    assert report["linear.target_length"] == "1/3"


def test_cli_project_refuses_a_nan_factor(tmp_path, capsys):
    config = json.loads((SAMPLE_DIR / "project_upgrade.json").read_text())
    config["linear_factors"][0][1] = float("nan")
    (tmp_path / "project.json").write_text(json.dumps(config))
    code = main(["project", "--config", str(tmp_path / "project.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        "speclimit: error [build]: improvement factors must be finite, got nan\n")
    assert not (tmp_path / "x/report.txt").exists()


def test_cli_constants_prints_the_table(capsys):
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "1.602176634e-19" in out
    assert "elementary" in out


def test_cli_limit_rerun_is_byte_identical(tmp_path, capsys):
    _copy_sample_configs(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "simulate_continuum.json"),
                 "--out", str(tmp_path / "runs/continuum")]) == 0
    for out in ("limit1", "limit2"):
        assert main(["limit", "--config", str(tmp_path / "limit_continuum.json"),
                     "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    for name in ("report.txt", "scan.dat"):
        assert ((tmp_path / "limit1" / name).read_bytes()
                == (tmp_path / "limit2" / name).read_bytes())
