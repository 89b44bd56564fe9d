import copy
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prepspill.cli import build_parser, main
from prepspill import integrators as integrators_mod
from prepspill import model as model_mod
from prepspill import presets as presets_mod
from prepspill import scenarios as scenarios_mod
from prepspill import sobol
from prepspill import spillover as spillover_mod
from prepspill.errors import ConfigError, ParseError, SchemaViolation, UnknownGroup
from prepspill.model import StateVec, dfe, flat_rhs_factory
from prepspill.presets import STUDIES, georgia_basic
from prepspill.integrators import (IntegratorConfig, annual_series, integrate, interp_rows,
                                   node_index)
from prepspill.scenarios import (NNT_DISPLAY_CAP, _config_from_raw, _suppressed_json,
                                 default_config,
                                 emit_plot_data, integrate_baseline, load_config,
                                 report_to_csv, run_scenarios, run_spillover,
                                 validate_tables)
from prepspill.spillover import block, integrate_with_spillover, nnt, simple_nnt

# Table-9 cells known to sit outside tolerance under the fixed-contact-rate
# closure (see decisions notes); everything else must pass.
KNOWN_RISK_FAILS = {("baseline", "total"), ("msm+50000", "prevented_total"),
                    ("hetf_h+25000", "prevented_total"),
                    ("hetf_h+50000", "prevented_total")}


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_load_config_defaults_match_preset(tmp_path):
    path = write_config(tmp_path, {"schema_version": 1, "model": "basic"})
    config = load_config(path)
    spec, y0 = config.spec, config.y0
    pspec, py0 = georgia_basic()
    assert spec == pspec
    assert np.array_equal(y0.S, py0.S) and np.array_equal(y0.I, py0.I)


@pytest.mark.parametrize("section, raw", [
    ("interventions[0].group", {"interventions": [{"group": "pwid",
                                                   "additional_persons": 1000}]}),
    ("overrides.groups", {"overrides": {"groups": {"pwid": {"a": 10.0}}}}),
    ("initial_conditions", {"initial_conditions": {"pwid": {"S": 1.0, "I": 0.0}}}),
], ids=["interventions", "overrides", "initial_conditions"])
def test_load_config_unknown_group(tmp_path, section, raw):
    path = write_config(tmp_path, {"model": "basic", **raw})
    with pytest.raises(UnknownGroup) as exc:
        load_config(path)
    assert str(exc.value) == f"{section}: no group 'pwid' in variant 'basic'"


def test_load_config_negative_persons(tmp_path):
    path = write_config(tmp_path, {
        "model": "basic",
        "interventions": [{"group": "msm", "additional_persons": -5}]})
    with pytest.raises(SchemaViolation) as exc:
        load_config(path)
    assert "additional_persons" in str(exc.value)


@pytest.mark.parametrize("dE", [float("nan"), float("inf")])
def test_load_config_nonfinite_persons(tmp_path, dE):
    path = write_config(tmp_path, {
        "model": "basic",
        "interventions": [{"group": "msm", "additional_persons": dE}]})
    with pytest.raises(SchemaViolation) as exc:
        load_config(path)
    assert exc.value.key == "interventions[0].additional_persons"


@pytest.mark.parametrize("settings", [
    {"rtol": float("nan"), "dt_min": float("nan")},
    {"dt_max": float("nan")},
    {"rtol": float("nan")}, {"dt_min": 2.0, "dt_max": 1.0}])
def test_load_config_bad_integrator_settings(tmp_path, settings):
    path = write_config(tmp_path, {"model": "basic", "integrator": settings})
    with pytest.raises(SchemaViolation) as exc:
        load_config(path)
    assert exc.value.key == "integrator"


def test_load_config_zero_length_horizon(tmp_path):
    path = write_config(tmp_path, {
        "model": "basic", "horizon": {"start": 2020, "intervention": 2020,
                                      "end": 2020}})
    with pytest.raises(SchemaViolation):
        load_config(path)


@pytest.mark.parametrize("key, value", [("year_nodes", False), ("first_step", 0.5)])
def test_load_config_rejects_internal_integrator_keys(tmp_path, key, value):
    path = write_config(tmp_path, {"model": "basic", "integrator": {key: value}})
    with pytest.raises(SchemaViolation, match=key):
        load_config(path)


def test_load_config_override_groups_and_ics(tmp_path):
    path = write_config(tmp_path, {
        "model": "basic",
        "overrides": {"groups": {"msm": {"epsilon": 0.2}}, "mu": 0.025},
        "initial_conditions": {"msm": {"S": 100000, "I": 40000}}})
    config = load_config(path)
    spec, y0 = config.spec, config.y0
    assert spec.groups[0][1].epsilon == 0.2
    assert spec.mu == 0.025
    assert y0.S[0] == 100000 and y0.I[0] == 40000


def test_prevented_sums_consistent():
    report = run_scenarios(default_config("basic"))
    for r in report.scenarios:
        parts = sum(r.prevented[g] for g in ("msm", "hetf", "hetm"))
        assert abs(parts - r.prevented["total"]) <= 1.0


def test_reports_reproducible():
    c1 = default_config("basic")
    c2 = default_config("basic")
    r1 = run_scenarios(c1)
    r2 = run_scenarios(c2)
    assert c1.content_hash() == c2.content_hash()
    assert r1.baseline.incidence == r2.baseline.incidence
    for a, b in zip(r1.scenarios, r2.scenarios):
        assert a.incidence == b.incidence


def test_csv_to_path_and_to_open_file_agree(tmp_path):
    # the writers take a path only, a str or an os.PathLike: both give the
    # same bytes, a header and one row per run
    report = run_scenarios(_config_from_raw({"model": "basic", "interventions": [
        {"group": "msm", "additional_persons": 10000}]}))
    path, other = tmp_path / "table.csv", tmp_path / "other.csv"
    report_to_csv(report, str(path))
    report_to_csv(report, other)
    assert path.read_bytes() == other.read_bytes()
    assert path.read_text().count("\n") == 3


def test_validate_tables_known_outcome():
    report = validate_tables()
    basic_cells = [c for c in report.cells if c.table == "table_basic"]
    assert len(basic_cells) == 13
    assert all(c.ok for c in basic_cells)
    risk_fails = {(c.row, c.cell) for c in report.failures()}
    assert risk_fails == KNOWN_RISK_FAILS


def test_validate_detects_perturbed_transmission():
    report = run_scenarios(_config_from_raw({
        "model": "basic", "overrides": {"probs": {"beta_mm": 0.0008 * 1.1}}}))
    from prepspill.presets import TABLE_BASIC_BASELINE
    exp = TABLE_BASIC_BASELINE["msm"]
    assert abs(report.baseline.incidence["msm"] - exp) > 0.02 * exp


def test_emit_plot_data_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    paths1 = emit_plot_data(str(out1), default_config("basic"))
    paths2 = emit_plot_data(str(out2), default_config("basic"))
    for p1, p2 in zip(paths1, paths2):
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_emit_plot_data_names_files_after_the_config(tmp_path):
    # the data comes from config, so the names do too
    paths = emit_plot_data(str(tmp_path), default_config("risk"))
    assert [os.path.basename(p) for p in paths] == [
        "baseline_series_risk.csv", "per_person_effects_risk.csv", "nnt_risk.csv",
        "nnt_risk_suppressed.json", "table_risk.csv"]
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in paths)
    assert Path(paths[0]).read_text().splitlines()[0].startswith(
        "year,prevalence_msm,prevalence_hetf_h,")


def test_emit_nnt_has_empty_cells_and_sidecar(tmp_path):
    paths = emit_plot_data(str(tmp_path), default_config("basic"))
    csv_path, side_path = paths[2], paths[3]
    rows = Path(csv_path).read_text().splitlines()
    assert any(",," in r or r.endswith(",") for r in rows[1:])
    side = json.loads(Path(side_path).read_text())
    assert side["suppressed"], "expected suppressed NNT cells"
    reasons = {s["reason"] for s in side["suppressed"]}
    assert reasons <= {"undefined", "excessive"}


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_emit_nnt_series_is_nnt_simple(tmp_path, variant):
    # every whole-year cell of the series is nnt()'s nnt_simple at that
    # horizon, empty exactly where nnt() is undefined or above the display
    # cap; nnt() refuses the half-year horizons, which are not nodes, and
    # their cells are simple_nnt of S and gamma interpolated there
    config = default_config(variant)
    spec, traj = config.spec, run_spillover(config)
    csv_path = emit_plot_data(str(tmp_path), config)[2]
    rows = list(csv.reader(io.StringIO(Path(csv_path).read_text())))
    labels = spec.labels
    pairs = [(jl, k) for k in labels for jl in labels]
    assert rows[0] == ["T"] + [f"nnt_{jl}__{k}" for jl, k in pairs]
    assert len(rows) == 23
    for row in rows[1:]:
        T = float(row[0])
        t = traj.times[0] + T
        for (jl, k), cell in zip(pairs, row[1:]):
            if T.is_integer():
                res = nnt(traj, jl, k, T, spec.mu)
                simple = res.nnt_simple if res.defined else None
            else:
                with pytest.raises(ValueError, match="is not a node"):
                    nnt(traj, jl, k, T, spec.mu)
                S_k = interp_rows(t, traj.times, traj.states)[2 * labels.index(k)]
                gamma_j = interp_rows(t, traj.times, block(traj, k))[2 * labels.index(jl) + 1]
                simple = simple_nnt(T, S_k, gamma_j)
            shown = simple is not None and simple <= NNT_DISPLAY_CAP
            assert cell == (f"{simple:.3f}" if shown else "")


def _plot_series_per_cell(config, base_traj, traj):
    """The baseline, effects and nnt plot series cell by cell, through
    state_at, each source's block at Trajectory.node (interp_rows on the state and
    the block at a horizon that is not a node) and each effect's gamma_j / S_k:
    the oracle of emit_plot_data's whole-array series.  Rows of strings, and
    the nnt sidecar's suppressed list."""
    labels = config.spec.labels
    n = len(labels)
    years, inc = annual_series(base_traj)
    baseline = [[str(y)] + [f"{v:.6f}" for v in base_traj.state_at(float(y)).I]
                + [f"{v:.6f}" for v in inc[r]] for r, y in enumerate(years)]
    effects = []
    for i, t in enumerate(traj.times):
        state = StateVec.from_flat(traj.states[i], n)
        row = [f"{t:.6f}"]
        for k, label in enumerate(labels):
            row += [f"{block(traj, label)[i, 2 * j + 1] / state.S[k]:.10e}" for j in range(n)]
        effects.append(row)
    nnts, suppressed = [], []
    for T in [0.5 * i for i in range(1, int(2 * (config.end - config.intervention_year)) + 1)]:
        t_eval = traj.times[0] + T
        node = node_index(traj.times, t_eval) is not None
        S = (traj.state_at(t_eval).S if node
             else interp_rows(t_eval, traj.times, traj.states)[0:2 * n:2])
        row = [f"{T:.2f}"]
        for k in labels:
            gamma = (block(traj, k)[traj.node(t_eval)] if node
                     else interp_rows(t_eval, traj.times, block(traj, k)))[1::2]
            for jl in labels:
                simple = simple_nnt(T, S[labels.index(k)], gamma[labels.index(jl)])
                if simple is None or simple > NNT_DISPLAY_CAP:
                    row.append("")
                    suppressed.append({"T": T, "j": jl, "k": k, "reason": "undefined"
                                       if simple is None else "excessive"})
                else:
                    row.append(f"{simple:.3f}")
        nnts.append(row)
    return baseline, effects, nnts, suppressed


@pytest.mark.parametrize("raw", [
    {"model": "basic"}, {"model": "risk"},
    {"model": "basic", "horizon": {"start": 2017, "intervention": 2020.25, "end": 2031},
     "integrator": {"dt_max": 0.7}}], ids=["basic", "risk", "off-year-intervention"])
def test_emit_plot_series_equal_per_cell_formulas(tmp_path, raw):
    # the series read whole arrays; every cell is the per-cell formula's,
    # byte for byte, half-year NNT rows between nodes included
    config = _config_from_raw(raw)
    paths = emit_plot_data(str(tmp_path), config)
    base_traj = integrate_baseline(config)
    traj = run_spillover(config)
    baseline, effects, nnts, suppressed = _plot_series_per_cell(config, base_traj, traj)
    for path, want in zip(paths, (baseline, effects, nnts)):
        rows = list(csv.reader(io.StringIO(Path(path).read_text())))
        assert rows[1:] == want
    assert json.loads(Path(paths[3]).read_text())["suppressed"] == suppressed


HEAD_CONFIGS = {
    "basic": {"model": "basic"},
    "risk": {"model": "risk"},
    "arm-before-intervention": {"model": "risk", "interventions": [
        {"group": "hetf_h", "additional_persons": 25000, "start_year": 2018.5},
        {"group": "msm", "additional_persons": 10000, "start_year": 2022}]},
    # a head under a year lands with a smaller tolerance than the whole run
    "sub-year-head": {"model": "basic", "horizon": {
        "start": 2019.5, "intervention": 2020, "end": 2026}, "interventions": [
        {"group": "msm", "additional_persons": 10000, "start_year": 2019.75}]},
    "intervention-at-start": {"model": "risk", "horizon": {
        "start": 2020, "intervention": 2020, "end": 2031}},
}


@pytest.mark.parametrize("horizon", [None, 0.5])
@pytest.mark.parametrize("name", list(HEAD_CONFIGS))
def test_spillover_from_baseline_head_equals_full_baseline(name, horizon):
    # spillover and nnt integrate the baseline only up to the intervention
    # year; the run from it is the run from the full baseline, bit for bit
    config = _config_from_raw(HEAD_CONFIGS[name])
    samples = None if horizon is None else [config.intervention_year + horizon]
    traj = run_spillover(config, sample_times=samples)
    t_int = config.intervention_year
    want = integrate_with_spillover(
        config.spec, integrate_baseline(config).state_at(t_int),
        cfg=config.integrator.over(t_int, config.end), sample_times=samples)
    assert np.array_equal(traj.times, want.times)
    assert np.array_equal(traj.states, want.states)
    assert traj.clamp_events == want.clamp_events
    assert traj.labels == want.labels == config.spec.labels
    for k in traj.labels:
        assert np.array_equal(block(traj, k), block(want, k))


@pytest.mark.parametrize("name", ["basic", "arm-before-intervention", "intervention-at-start"])
def test_emit_plots_spillover_starts_from_the_baseline_row(name, tmp_path, monkeypatch):
    # emit-plots starts the spillover system from the baseline's row at the
    # intervention year and integrates no head over [start, intervention];
    # test_emit_plot_series_equal_per_cell_formulas holds its effects and nnt
    # files to run_spillover's head run
    config = _config_from_raw(HEAD_CONFIGS[name])
    windows = []
    real = scenarios_mod.integrate

    def spy(spec, y0, cfg, **kwargs):
        windows.append((cfg.t0, cfg.t_end))
        return real(spec, y0, cfg, **kwargs)
    monkeypatch.setattr(scenarios_mod, "integrate", spy)
    head = (config.start, config.intervention_year)
    emit_plot_data(str(tmp_path), config)
    assert head not in windows and (config.start, config.end) in windows


@settings(max_examples=200, deadline=None)
@given(cap=st.floats(allow_nan=False, allow_infinity=False),
       suppressed=st.lists(st.fixed_dictionaries(
           {"T": st.floats(allow_nan=False, allow_infinity=False), "j": st.text(),
            "k": st.text(), "reason": st.sampled_from(["undefined", "excessive"]) | st.text()}),
           max_size=4))
@example(cap=NNT_DISPLAY_CAP, suppressed=[])
def test_suppressed_json_is_json_dumps(cap, suppressed):
    # the nnt sidecar's direct writer gives json.dumps's bytes, empty list included
    want = json.dumps({"display_cap": cap, "suppressed": suppressed}, indent=1, sort_keys=True)
    assert _suppressed_json(cap, suppressed) == want


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_scenario_arms_are_set_up_without_dataclasses_replace(variant, monkeypatch):
    # set-up cost guard: an arm's spec copy and its integrator settings are
    # built through their checking __init__s, never by dataclasses.replace
    # (a generic walk over the fields), one IntegratorConfig serves every arm
    # of a start year, and the baseline runs on the config's own
    config = default_config(variant)
    calls, built = [], []
    real_replace, real_init = dataclasses.replace, IntegratorConfig.__post_init__

    def counting_replace(obj, /, **changes):
        calls.append(type(obj).__name__)
        return real_replace(obj, **changes)

    def counting_init(self):
        built.append((self.t0, self.t_end))
        real_init(self)
    monkeypatch.setattr(dataclasses, "replace", counting_replace)
    for mod in (model_mod, integrators_mod, presets_mod, scenarios_mod, spillover_mod):
        if getattr(mod, "replace", None) is real_replace:
            monkeypatch.setattr(mod, "replace", counting_replace)
    monkeypatch.setattr(IntegratorConfig, "__post_init__", counting_init)
    report = run_scenarios(config)
    assert len(report.scenarios) == len(config.interventions) > 0
    assert calls == []
    starts = {arm.start_year for arm in config.interventions}
    assert sorted(built) == sorted((t, config.end) for t in starts)


# Qualitative surveillance bands for the 2017-2020 burn-in (plot-data sanity
# checks; the underlying anchors are read off charts, not tabulated).
PREVALENCE_ANCHOR_2017 = {"basic": 63700.0, "risk": 63700.0}  # total PWH at t0
PREVALENCE_BAND = (0.85, 1.30)     # acceptable multiple of the anchor through 2020
ANNUAL_INCIDENCE_BAND = (1800.0, 3200.0)  # total new infections/year, 2017-2019


def test_baseline_brackets_surveillance_bands(baseline_basic):
    # qualitative check of the burn-in against the published chart anchors
    anchor = PREVALENCE_ANCHOR_2017["basic"]
    for t in (2017.0, 2018.0, 2019.0, 2020.0):
        pwh = baseline_basic.state_at(t).I.sum()
        assert PREVALENCE_BAND[0] * anchor <= pwh <= PREVALENCE_BAND[1] * anchor
    years, inc = annual_series(baseline_basic)
    for y, row in zip(years, inc):
        if 2017 <= y <= 2019:
            assert ANNUAL_INCIDENCE_BAND[0] <= row.sum() <= ANNUAL_INCIDENCE_BAND[1]


def test_tracked_count_mode(tmp_path):
    # recomputing eps from the running susceptible pool is close to, but not
    # identical to, the fixed-fraction default
    base = default_config("basic").raw
    base["interventions"] = [{"group": "msm", "additional_persons": 25000}]
    fixed = write_config(tmp_path, base, "fixed.json")
    base2 = dict(base)
    base2["intervention_mode"] = "tracked-count"
    tracked = write_config(tmp_path, base2, "tracked.json")
    rf = run_scenarios(load_config(fixed))
    rt = run_scenarios(load_config(tracked))
    pf = rf.scenarios[0].prevented["total"]
    pt = rt.scenarios[0].prevented["total"]
    assert pf != pt
    assert abs(pf - pt) / pf < 0.25


def test_cli_simulate_and_validate(tmp_path, capsys):
    out = str(tmp_path / "cli")
    rc = main(["simulate", "--model", "basic", "--out", out, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline"]["total"] == pytest.approx(29125.5, abs=1.0)
    assert os.path.exists(os.path.join(out, "trajectory_basic.csv"))

    rc = main(["validate", "--out", out, "--json"])
    captured = json.loads(capsys.readouterr().out)
    assert rc == 2  # risk table has known out-of-tolerance cells
    assert captured["all_pass"] is False
    assert os.path.exists(os.path.join(out, "validation.csv"))


def test_cli_ngm_and_nnt(tmp_path, capsys):
    out = str(tmp_path / "cli2")
    rc = main(["ngm", "--model", "basic", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rc_numeric"] == pytest.approx(payload["rc_closed"], rel=1e-9)

    rc = main(["nnt", "--model", "basic", "--out", out, "--horizon", "10"])
    assert rc == 0
    capsys.readouterr()
    path = os.path.join(out, "nnt_basic.csv")
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "j,k,T,nnt_simple,nnt_integral,defined"
    assert len(lines) == 10


def test_cli_ngm_reports_the_closed_form_fallback(monkeypatch, capsys):
    # a closed form that disagrees with the numeric R_c: ngm reports the
    # numeric value, prints the diagnostic as a note and carries it in --json
    from prepspill import cli
    from prepspill.reproduction import _checked_closed_form, rc_numeric

    def off_by_one_percent(ngm):
        return _checked_closed_form(ngm, rc_numeric(ngm).value * 1.01, {"G1": 1.0})

    monkeypatch.setattr(cli, "rc_closed", off_by_one_percent)
    assert main(["ngm", "--model", "basic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    notes = [line for line in lines if line.startswith("  note: ")]
    assert len(notes) == 1 and notes[0].startswith("  note: ClosedFormMismatch: closed = ")
    assert any(line.endswith("[numeric]") for line in lines)
    assert main(["ngm", "--model", "basic", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_method"] == "numeric"
    assert payload["rc_closed"] == payload["rc_numeric"]
    assert notes[0] == f"  note: {payload['diagnostic']}"


SOBOL_WINDOW = {"model": "basic", "horizon": {"start": 2019, "intervention": 2020, "end": 2025},
                "integrator": {"rtol": 1e-10}}


@pytest.mark.parametrize("command", [["sobol", "--level", "2", "--degree", "1"]],
                         ids=["sobol"])
def test_cli_sobol_integrates_the_config_window(tmp_path, capsys, command):
    # sobol runs over the config's window and tolerances, and refuses a
    # window that does not span whole years
    path = write_config(tmp_path, SOBOL_WINDOW)
    out = tmp_path / "out"
    assert main(command + ["--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader((out / "sobol_basic.csv").read_text().splitlines()))
    assert sorted({int(r[0]) for r in rows[1:]}) == list(range(2019, 2025))
    man = json.loads((out / "sobol_basic_manifest.json").read_text())
    assert man["integrator"] == {"rtol": 1e-10, "atol": 1e-6}
    partial = copy.deepcopy(SOBOL_WINDOW)
    partial["horizon"]["start"] = 2019.5
    path = write_config(tmp_path, partial, name="partial.json")
    assert main(command + ["--config", path, "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == (
        "error: span [2019.5, 2025.0] is not aligned to whole years\n")


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["emit-plots"],
                                     ["sobol", "--level", "2", "--degree", "1"]],
                         ids=["simulate", "emit-plots", "sobol"])
def test_cli_out_path_that_is_a_file_is_an_error_line(tmp_path, capsys, command):
    # an OSError (here the FileExistsError of making the --out directory)
    # ends the run with exit code 1 and one error line, not a traceback
    out = tmp_path / "taken"
    out.write_text("")
    assert main([*command, "--model", "basic", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
    assert out.read_text() == ""


def test_simulate_loads_no_hashlib_unless_json_asks_for_the_hash(tmp_path):
    # the config hash is only in the --json payload, so a plain simulate
    # never imports hashlib (and with it OpenSSL); --json still prints it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = ("import json, sys; from prepspill.cli import main; "
            "main(sys.argv[1:]); print(json.dumps('hashlib' in sys.modules))")
    runs = [subprocess.run([sys.executable, "-c", code, "simulate", "--model", "basic",
                            "--out", str(tmp_path), *extra],
                           capture_output=True, text=True, check=True, env=env)
            for extra in ([], ["--json"])]
    assert runs[0].stdout.splitlines()[-1] == "false"
    *payload, loaded = runs[1].stdout.splitlines()
    assert loaded == "true"
    assert json.loads("\n".join(payload))["config_hash"] == default_config("basic").content_hash()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_exits_1_without_a_traceback_when_stdout_is_closed(tmp_path, unbuffered):
    # the reader closed the pipe before the run (e.g. a shell's `| head`
    # that exited): the write fails, in print when stdout is unbuffered and
    # in main's flush when not, the run exits 1, and the flush at
    # interpreter exit stays quiet
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from prepspill.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "nnt", "--model", "basic"],
            cwd=tmp_path, stdout=write, stderr=subprocess.PIPE, check=False, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_cli_stiff_config_ends_on_the_step_budget(tmp_path):
    # msm delta = 1e6 holds the step near DP5's stability bound (h * delta
    # about 2.5): 14 years would take some 5.6 million attempts.  The
    # baseline spends its 100,000 within seconds and the run exits 1 with
    # one error line naming where it stopped
    path = write_config(tmp_path, {"model": "basic",
                                   "overrides": {"groups": {"msm": {"delta": 1e6}}}})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "prepspill", "simulate", "--config", path,
                           "--out", str(tmp_path / "out")], cwd=tmp_path, capture_output=True,
                          text=True, check=False, env=env, timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: step budget spent: 100000 attempted steps "
                                  "reach t = ")
    assert " of 2031.0, dt = " in proc.stderr


def test_python_m_prepspill_is_the_prepspill_command(tmp_path, capsys):
    # the module form runs cli.main: its payload, and its exit 1 on a refusal
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    runs = [subprocess.run([sys.executable, "-m", "prepspill", *argv], cwd=tmp_path,
                           capture_output=True, text=True, check=False, env=env)
            for argv in (["ngm", "--model", "basic", "--json"], ["sobol", "--level", "0"])]
    assert runs[0].returncode == 0, runs[0].stderr
    assert main(["ngm", "--model", "basic", "--json"]) == 0
    assert json.loads(runs[0].stdout) == json.loads(capsys.readouterr().out)
    assert runs[1].returncode == 1
    assert runs[1].stderr == "error: --level 0 must be >= 1\n"


def test_cli_infeasible_closure_names_its_time(tmp_path, capsys):
    # the risk preset's closure has no solution from about 2042.75 on; the
    # error line keeps its prefix and names the time it failed at
    path = write_config(tmp_path, {"model": "risk", "horizon": {"end": 2045}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: closure gives eta_msm = ") and err.count("\n") == 1
    t = float(err.split(" at t = ")[1])
    assert 2042.7 <= t <= 2042.9


def test_cli_ngm_risk_names_the_hetm_volume_deficit(risk, tmp_path, capsys):
    # at the literal risk preset's DFE, HETM's contact volume exceeds all
    # HETF's: the error names that deficit, eta_msm - 1 = deficit / B_msm
    assert main(["ngm", "--model", "risk", "--out", str(tmp_path)]) == 1
    spec = risk[0]
    _, a, _, _ = spec.param_arrays()
    B = (dfe(spec).N * a).tolist()
    deficit = B[3] - (B[1] + B[2])
    assert deficit / B[0] == pytest.approx(0.18139, abs=5e-6)
    assert capsys.readouterr().err == (
        "error: closure gives eta_msm = 1.18139 outside [0, 1]; contact-volume deficit"
        f" B_hetm - (B_hh + B_hl) = {deficit:.6g} ({deficit / B[3]:.3%} of B_hetm)\n")
    assert f"{deficit:.6g} ({deficit / B[3]:.3%}" == "3.25e+06 (2.109%"


def test_cli_spillover_csv_schema(tmp_path, capsys):
    out = str(tmp_path / "sp")
    rc = main(["spillover", "--model", "basic", "--out", out])
    assert rc == 0
    capsys.readouterr()
    path = os.path.join(out, "spillover_basic.csv")
    header = Path(path).read_text().splitlines()[0].strip().split(",")
    assert header[0] == "t"
    assert "sigma_msm__msm" in header and "gamma_hetf__msm" in header
    assert len(header) == 1 + 3 * 6  # three sources x (sigma, gamma) x 3 groups


def test_cli_sobol_small(tmp_path, capsys):
    out = str(tmp_path / "sb")
    rc = main(["sobol", "--model", "basic", "--out", out, "--level", "2",
               "--degree", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["node_count"] == 8  # 2**3 inputs for the basic model
    # the batch's work: one step per year of the 2017-2031 window
    assert (payload["rhs_evals"], payload["steps_accepted"], payload["steps_rejected"]) == (
        85, 14, 0)
    csv_path = os.path.join(out, "sobol_basic.csv")
    header = Path(csv_path).read_text().splitlines()[0].strip()
    assert header == "year,output_group,input,first_order,total,mean,variance"
    man = json.loads(Path(out, "sobol_basic_manifest.json").read_text())
    assert man["clamp_count"] == 0 and man["rule"] == "gauss_legendre_tensor"


def test_cli_simulate_integrates_baseline_once(tmp_path, monkeypatch, capsys):
    from prepspill import cli, integrators
    calls, reports = [], []
    real_flat, real_run = integrators.integrate_flat, cli.run_scenarios

    def flat(*args, **kwargs):
        calls.append(args[2])
        return real_flat(*args, **kwargs)

    def run(config):
        reports.append(real_run(config))
        return reports[-1]

    monkeypatch.setattr(integrators, "integrate_flat", flat)
    monkeypatch.setattr(cli, "run_scenarios", run)
    assert main(["simulate", "--model", "basic", "--out", str(tmp_path)]) == 0
    assert len(calls) == 10  # the baseline and 9 arms
    reports[0].baseline_traj.to_csv(str(tmp_path / "want.csv"))
    assert (tmp_path / "trajectory_basic.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_cli_spillover_starting_at_intervention(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "basic", "horizon": {
        "start": 2020, "intervention": 2020, "end": 2024}})
    assert main(["spillover", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "spillover_basic.csv").read_text().splitlines()
    first = [float(v) for v in rows[1].split(",")]
    assert first[0] == 2020.0 and not any(first[1:])
    assert float(rows[-1].split(",")[0]) == 2024.0


def test_fractional_start_year_starts_from_baseline_node(tmp_path, monkeypatch):
    # An arm starting between year nodes starts from a baseline node, not
    # from a linear interpolation between yearly rows.
    from prepspill import scenarios
    from prepspill.integrators import integrate
    config = load_config(write_config(tmp_path, {"model": "basic", "interventions": [
        {"group": "msm", "additional_persons": 25000, "start_year": 2021.5}]}))
    starts = []

    def spy(spec, y0, cfg, **kwargs):
        starts.append((cfg.t0, y0))
        return integrate(spec, y0, cfg, **kwargs)

    monkeypatch.setattr(scenarios, "integrate", spy)
    report = scenarios.run_scenarios(config)
    report.baseline_traj.node(2021.5)  # ValueError unless 2021.5 is a node
    spec, y0 = config.spec, config.y0
    direct = integrate(spec, y0, config.integrator, sample_times=[2020.0, 2021.5])
    arm_start = dict(starts)[2021.5]
    want = direct.state_at(2021.5)
    assert np.array_equal(arm_start.S, want.S) and np.array_equal(arm_start.I, want.I)
    assert np.array_equal(report.baseline_traj.states, direct.states)


def test_arm_before_intervention_samples_window_start(tmp_path, monkeypatch):
    # An arm starting before the intervention year steps freely from its
    # start year; the intervention year, where its window opens, is a node.
    # Its first step is the baseline's step ending at 2018.5 (from 2018.0),
    # which lands on 2019.0; no other step lands on a whole year.
    from prepspill import scenarios
    from prepspill.integrators import integrate
    config = load_config(write_config(tmp_path, {"model": "basic", "interventions": [
        {"group": "msm", "additional_persons": 25000, "start_year": 2018.5}]}))
    arms = []

    def spy(spec, y0, cfg, **kwargs):
        traj = integrate(spec, y0, cfg, **kwargs)
        if cfg.t0 == 2018.5:
            arms.append((cfg, kwargs, traj))
        return traj

    monkeypatch.setattr(scenarios, "integrate", spy)
    report = scenarios.run_scenarios(config)
    (cfg, kwargs, traj), = arms
    assert not cfg.year_nodes and kwargs["sample_times"] == [2020.0]
    i = traj.node(2020.0)  # ValueError unless 2020.0 is a node
    assert cfg.first_step == 0.5 and traj.times[1] == 2019.0
    assert not any(float(t).is_integer() for t in traj.times[2:-1] if t != 2020.0)
    inc = traj.states[-1, 6:9] - traj.states[i, 6:9]
    assert report.scenarios[0].incidence["total"] == float(np.sum(inc))


def test_arms_within_table_atol_of_a_tight_run():
    # The preset arms and a seeded sample of the benchmark's arm catalog
    # (any group, 5k to 40k persons, start 2020 to 2023, either mode): every
    # reported incidence cell within 6e-5 persons of a run at rtol 1e-12,
    # atol 1e-10, dt_max 0.125.  The worst cell here is 2.6e-5 persons (a
    # preset risk arm), the worst of the whole risk catalog 1.8e-5; before
    # the arms landed on the xi_hetm switch they were 8.0e-4 and 1.2e-3.
    rng = np.random.default_rng(30)
    configs = [default_config("basic"), default_config("risk")]
    for preset in configs[:]:
        variant, labels = preset.variant, preset.spec.labels
        for mode in ("fixed-fraction", "tracked-count"):
            arms = [{"group": labels[rng.integers(len(labels))],
                     "additional_persons": int(rng.choice([5000, 10000, 20000, 40000])),
                     "start_year": int(rng.integers(2020, 2024))} for _ in range(12)]
            configs.append(_config_from_raw({"model": variant, "intervention_mode": mode,
                                             "interventions": arms}))
    for config in configs:
        tight = replace(config.integrator, rtol=1e-12, atol=1e-10, dt_max=0.125)
        got, want = run_scenarios(config), run_scenarios(replace(config, integrator=tight))
        for a, b in zip(got.scenarios, want.scenarios):
            assert a.name == b.name
            for col, v in a.incidence.items():
                assert abs(v - b.incidence[col]) <= 6e-5, (config.variant, a.name, col)


def _arm_runs(monkeypatch, config):
    """run_scenarios(config) and (spec, counts, trajectory) of each arm."""
    from prepspill import scenarios
    runs = []

    def spy(spec, y0, cfg, sample_times=None, tracked_counts=None):
        traj = integrate(spec, y0, cfg, sample_times=sample_times,
                         tracked_counts=tracked_counts)
        if not cfg.year_nodes:
            runs.append((spec, tracked_counts, traj))
        return traj

    monkeypatch.setattr(scenarios, "integrate", spy)
    return run_scenarios(config), runs


def _lands_on(traj, t, margin):
    """Assert that the node t of traj is within 1e-8 years of the root of
    margin (a function of a row), which changes sign there."""
    i = traj.node(t)
    before, at, after = (margin(traj.states[k]) for k in (i - 1, i, i + 1))
    assert (before > 0.0) != (after > 0.0)
    for k, w in ((i - 1, before), (i + 1, after)):  # the margin's rate on either side
        assert abs(at) <= 1e-8 * abs(w - at) / abs(traj.times[k] - t)


def test_risk_arms_land_on_their_switch(monkeypatch, caplog):
    # each preset risk arm meets the xi_hetm clamp switch near 2027.28,
    # where the projection x falls below lo, and lands on it once
    caplog.set_level("INFO", logger="prepspill.integrators")
    _, runs = _arm_runs(monkeypatch, default_config("risk"))
    assert len(runs) == 12
    for spec, _, traj in runs:
        names, _, margins = flat_rhs_factory(spec).switches
        (t, name), = traj.switch_events
        assert name == "lo - x" and 2027.2 < t < 2027.3
        _lands_on(traj, t, lambda row: margins(t, row.tolist())[names.index(name)])
    landings = [r.getMessage() for r in caplog.records if "landed on switch" in r.getMessage()]
    assert len(landings) == 12 and landings[0].startswith("landed on switch lo - x at t=2027.2")


def test_arms_land_no_closer_than_dt_min(monkeypatch):
    # a retry stops 3e-6 to 1.4e-5 years short of the switch; with dt_min
    # above that the node it reaches is on the switch, not a step below
    # dt_min away from it
    config = default_config("risk")
    config = replace(config, integrator=replace(config.integrator, dt_min=1e-3))
    report, runs = _arm_runs(monkeypatch, config)
    assert len(report.scenarios) == 12
    for _, _, traj in runs:
        (t, name), = traj.switch_events
        assert name == "lo - x" and np.diff(traj.times).min() >= 1e-3


def test_tracked_arm_lands_where_coverage_reaches_one(monkeypatch):
    # 230,000 persons on PrEP among hetf_h from 2020: S_hetf_h falls to the
    # tracked count in 2024, where the arm's coverage reaches 1
    config = _config_from_raw({"model": "risk", "intervention_mode": "tracked-count",
                               "interventions": [{"group": "hetf_h", "additional_persons": 230000,
                                                  "start_year": 2020}]})
    _, ((spec, counts, traj),) = _arm_runs(monkeypatch, config)
    c = counts[1]
    (t, name), = [e for e in traj.switch_events if e[1].startswith("S_")]
    assert name == "S_hetf_h - c_hetf_h" and 2024.0 < t < 2025.0
    _lands_on(traj, t, lambda row: row[2] - c)


def test_window_incidence_reads_only_nodes(baseline_basic, basic):
    from prepspill.scenarios import _window_incidence
    spec, _ = basic
    assert node_index(baseline_basic.times, 2020.123456) is None
    with pytest.raises(ValueError, match=r"^t = 2020\.123456 is not a node of the trajectory$"):
        _window_incidence(baseline_basic, spec, 2020.123456, 2031.0)


# The ids keep the budgets these cases were first written with, so each
# case keeps its name as its budget tightens.
@pytest.mark.parametrize("command, variant, budget", [
    pytest.param("simulate", "basic", 364, id="basic-540"),
    pytest.param("simulate", "risk", 817, id="risk-1490"),
    *(pytest.param(c, v, 20, id=f"{c}-{v}-40") for c in ("spillover", "nnt")
      for v in ("basic", "risk"))])
def test_cli_simulate_rhs_budget(tmp_path, monkeypatch, capsys, command, variant, budget):
    # The arms step freely between their window ends; landing them on every
    # whole year again costs 868 (basic) and 2131 (risk) evaluations.  Their
    # first step is the baseline's and they do not regrow the step right
    # after a rejection; with a 0.01-year start and the plain controller
    # they took 520 and 1465.  The risk arms land on the xi_hetm switch;
    # stepping into it they took 1219.
    # spillover and nnt integrate the baseline only up to the intervention
    # year (19 model evaluations); the whole window took 85 and 169.
    from prepspill import integrators
    evals = [0]
    real_flat = integrators.integrate_flat

    def flat(f, *args, **kwargs):
        def counted(t, y):
            evals[0] += 1
            return f(t, y)
        return real_flat(counted, *args, **kwargs)

    monkeypatch.setattr(integrators, "integrate_flat", flat)
    assert main([command, "--model", variant, "--out", str(tmp_path)]) == 0
    assert 0 < evals[0] <= budget


@pytest.mark.parametrize("horizon, rc", [("0", 1), ("-1", 1), ("11", 0),
                                         ("11.5", 1), ("20", 1)])
def test_cli_nnt_horizon_within_window(tmp_path, capsys, horizon, rc):
    # the default window runs 11 years after the intervention start
    assert main(["nnt", "--model", "basic", "--out", str(tmp_path),
                 "--horizon", horizon]) == rc
    err = capsys.readouterr().err
    assert err.startswith("error: --horizon ") if rc else err == ""


@pytest.mark.parametrize("intervention, end, horizon, rc", [
    (2019.9, 2031, "11.1", 0), (2020.2, 2030.3, "10.1", 0), (2020.7, 2031, "10.3", 0),
    (2017.2, 2017.3, "0.1", 0), (2019.9, 2031, "11.2", 1)])
def test_cli_nnt_horizon_equal_to_the_window_is_accepted(tmp_path, capsys, intervention, end,
                                                         horizon, rc):
    # end - intervention falls short of the typed horizon in its last bits
    # (2031 - 2019.9 = 11.099999999999909): the horizon is the window's end;
    # one past it is still refused, the window's length printed to NODE_TOL
    path = write_config(tmp_path, {"model": "basic", "horizon": {
        "start": 2017, "intervention": intervention, "end": end}})
    out = tmp_path / "out"
    assert main(["nnt", "--config", path, "--out", str(out), "--horizon", horizon]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err.startswith(f"error: --horizon {horizon} outside (0, 11.1]")
        assert not out.exists()
        return
    assert err == "" and end - intervention < float(horizon)
    header, *rows = csv.reader(io.StringIO((out / "nnt_basic.csv").read_text()))
    assert len(rows) == 9
    assert {(r[header.index("T")], r[header.index("defined")]) for r in rows} == \
        {(horizon, "true")}


@pytest.mark.parametrize("intervention", [2020.0, 2020.0000000001, 2019.9999999999])
def test_emit_plots_nnt_rows_count_the_last_half_year_within_node_tol(tmp_path,
                                                                      intervention):
    # 2 * (2031 - 2020.0000000001) = 21.9999999998 still holds T = 11.00
    path = write_config(tmp_path, {"model": "basic", "horizon": {
        "start": 2017, "intervention": intervention, "end": 2031}})
    emit_plot_data(str(tmp_path / "out"), load_config(path))
    header, *rows = csv.reader(io.StringIO((tmp_path / "out" / "nnt_basic.csv").read_text()))
    assert [r[0] for r in rows] == [f"{0.5 * i:.2f}" for i in range(1, 23)]


@pytest.mark.parametrize("args, flag", [
    (["--level", "0"], "--level"), (["--degree", "-1"], "--degree"),
    (["--lo", "5", "--hi", "1"], "--lo"), (["--lo", "nan"], "--lo"),
    (["--hi", "inf"], "--lo"), (["--level", "2", "--degree", "1"], None)],
    ids=["level-0", "degree-negative", "lo-above-hi", "lo-nan", "hi-inf", "in-range"])
def test_cli_sobol_flags_within_range(tmp_path, capsys, args, flag):
    rc = main(["sobol", "--model", "basic", "--out", str(tmp_path), *args])
    err = capsys.readouterr().err
    if flag is None:
        assert rc == 0 and err == ""
    else:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} ")


def test_cli_tracked_count_with_empty_pool(tmp_path, capsys):
    # a tracked group starting with S = 0 is fully covered until S exceeds
    # the count, instead of dividing by zero
    path = write_config(tmp_path, {
        "model": "basic", "intervention_mode": "tracked-count",
        "initial_conditions": {"msm": {"S": 0, "I": 42000}},
        "interventions": [{"group": "msm", "additional_persons": 10000,
                           "start_year": 2017}]})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_simulate_json_names_every_arm(tmp_path, capsys):
    # arms differing only in start year, or repeated outright, each get an
    # entry; a name gives its start year as the shortest text that reads
    # back as it (2020.125 and 2020.12 apart); preset arms keep their plain
    # names
    arms = [("msm", 10000, 2020), ("msm", 10000, 2022), ("msm", 10000, 2022),
            ("msm", 10000.4, 2018.5), ("msm", 10000, 2020.125), ("msm", 10000, 2020.12)]
    path = write_config(tmp_path, {"model": "basic", "interventions": [
        {"group": g, "additional_persons": d, "start_year": y} for g, d, y in arms]})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out"), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["scenarios"]
    assert sorted(got) == ["prep_msm_10000", "prep_msm_10000_2018.5", "prep_msm_10000_2020.12",
                           "prep_msm_10000_2020.125", "prep_msm_10000_2022",
                           "prep_msm_10000_2022#2"]
    assert got["prep_msm_10000_2022#2"] == got["prep_msm_10000_2022"] != got["prep_msm_10000"]
    report = run_scenarios(default_config("basic"))
    assert [r.name for r in report.scenarios] == [
        f"prep_{g}_{d}" for g, d in STUDIES["basic"].interventions]


def test_cli_fixed_fraction_with_empty_pool(tmp_path, capsys):
    # persons added to an empty pool cover it fully, as with tracked counts;
    # an arm adding no one keeps the spec's coverage, so its row is the
    # baseline's.  Neither divides by the empty pool.
    path = write_config(tmp_path, {
        "model": "basic", "intervention_mode": "fixed-fraction",
        "initial_conditions": {"msm": {"S": 0, "I": 42000}},
        "interventions": [{"group": "msm", "additional_persons": d, "start_year": 2017}
                          for d in (1000, 0)]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, *rows = csv.reader(io.StringIO((out / "table_basic.csv").read_text()))
    rows = {r[0]: dict(zip(header, r)) for r in rows}
    base, full, none = rows["baseline"], rows["prep_msm_1000_2017"], rows["prep_msm_0_2017"]
    assert full["incidence_msm"] == "0.000"
    for col in header[3:]:
        if col.startswith("incidence_"):
            assert none[col] == base[col]
        else:
            assert float(none[col]) == 0.0


def _emitted_msm_source_cells(tmp_path, payload):
    """emit_plot_data on the config ``payload``: per node whether the
    per-person cells of source msm are empty, per horizon whether its NNT
    cells are, and the (T, j) of its pairs the sidecar lists as undefined.
    Every other source's per-person cells are filled."""
    out = tmp_path / "out"
    emit_plot_data(str(out), load_config(write_config(tmp_path, payload)))
    header, *rows = csv.reader(io.StringIO((out / "per_person_effects_basic.csv").read_text()))
    msm = [c for c, name in enumerate(header) if name.endswith("__msm")]
    assert all(all(r[c] != "" for c in range(1, len(header)) if c not in msm) for r in rows)
    per_person = [{r[c] == "" for c in msm} for r in rows]
    header, *rows = csv.reader(io.StringIO((out / "nnt_basic.csv").read_text()))
    nnt_cells = [{r[c] == "" for c, name in enumerate(header) if name.endswith("__msm")}
                 for r in rows]
    sidecar = json.loads((out / "nnt_basic_suppressed.json").read_text())["suppressed"]
    undefined = {(e["T"], e["j"]) for e in sidecar
                 if e["k"] == "msm" and e["reason"] == "undefined"}
    return per_person, nnt_cells, undefined, [float(r[0]) for r in rows]


def test_emit_effects_with_empty_source_pool(tmp_path):
    # an MSM pool that starts empty and recruits no one has no per-person
    # effect: the bundle leaves source msm's cells empty at every node, and
    # its NNT cells at every horizon, listed as undefined (nnt's rule)
    per_person, nnt_cells, undefined, horizons = _emitted_msm_source_cells(tmp_path, {
        "model": "basic", "overrides": {"groups": {"msm": {"Pi": 0}}},
        "initial_conditions": {"msm": {"S": 0, "I": 42000}}})
    assert all(cells == {True} for cells in per_person + nnt_cells)
    assert undefined == {(T, j) for T in horizons for j in ("msm", "hetf", "hetm")}


def test_emit_plots_of_a_source_pool_empty_at_the_start(tmp_path):
    # an msm pool that starts empty but recruits: source msm's per-person
    # cells are empty at the first node alone, and every horizon's window
    # holds that node, so its NNT pairs are undefined at every horizon, as
    # nnt() marks them
    per_person, nnt_cells, undefined, horizons = _emitted_msm_source_cells(tmp_path, {
        "model": "basic", "horizon": {"start": 2017, "intervention": 2017, "end": 2031},
        "initial_conditions": {"msm": {"S": 0, "I": 42000}}})
    assert per_person[0] == {True} and all(cells == {False} for cells in per_person[1:])
    assert all(cells == {True} for cells in nnt_cells) and len(horizons) == 28
    assert undefined == {(T, j) for T in horizons for j in ("msm", "hetf", "hetm")}


def test_cli_nnt_json_writes_null_for_an_undefined_pair(tmp_path, capsys):
    # JSON has no NaN (RFC 8259, section 6): an undefined pair's two values
    # are null, where the CSV leaves its cells empty.  An empty msm pool
    # that recruits no one leaves the 5 pairs of source msm, or of j = msm
    # from a heterosexual source, undefined
    path = write_config(tmp_path, {
        "model": "basic", "overrides": {"groups": {"msm": {"Pi": 0}}},
        "initial_conditions": {"msm": {"S": 0, "I": 42000}}})
    out = tmp_path / "out"
    assert main(["nnt", "--config", path, "--out", str(out), "--json"]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    results = json.loads(capsys.readouterr().out, parse_constant=refuse)["results"]
    undefined = [r for r in results if not r["defined"]]
    assert len(results) == 9 and len(undefined) == 5
    assert all(r["nnt_simple"] is None and r["nnt_integral"] is None for r in undefined)
    assert all(isinstance(r["nnt_simple"], float) and isinstance(r["nnt_integral"], float)
               for r in results if r["defined"])
    header, *rows = csv.reader(io.StringIO((out / "nnt_basic.csv").read_text()))
    assert [r[3:5] == ["", ""] for r in rows] == [not r["defined"] for r in results]


def test_cli_nnt_pair_of_a_source_pool_empty_at_the_start_is_undefined(tmp_path, capsys):
    # an msm pool that starts empty but recruits: gamma_j(T) > 0, but
    # gamma/S has no value at the first node, so the three pairs of source
    # msm are undefined (null, empty cells) with no division by S = 0, and
    # every other pair is defined and finite
    path = write_config(tmp_path, {
        "model": "basic", "horizon": {"start": 2017, "intervention": 2017, "end": 2031},
        "initial_conditions": {"msm": {"S": 0, "I": 42000}}})
    out = tmp_path / "out"
    assert main(["nnt", "--config", path, "--out", str(out), "--json"]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    results = json.loads(capsys.readouterr().out, parse_constant=refuse)["results"]
    assert len(results) == 9
    for r in results:
        if r["k"] == "msm":
            assert not r["defined"] and r["nnt_simple"] is None and r["nnt_integral"] is None
        else:
            assert r["defined"] and math.isfinite(r["nnt_simple"])
            assert math.isfinite(r["nnt_integral"])
    header, *rows = csv.reader(io.StringIO((out / "nnt_basic.csv").read_text()))
    assert [(r[1], r[3:5] == ["", ""]) for r in rows] == [(r["k"], r["k"] == "msm")
                                                          for r in results]


def test_cli_calls_in_one_process_keep_their_own_arguments(tmp_path, capsys):
    # one cached parser serves every main() call in a process; no call's
    # subcommand, flags or defaults leak into the next
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["spillover", "--mode", "exact_delta", "--json"])
    second = build_parser().parse_args(["ngm", "--model", "risk"])
    assert (first.command, first.mode, first.json, first.model) == \
        ("spillover", "exact_delta", True, "basic")
    assert (second.command, second.json, second.model) == ("ngm", False, "risk")
    assert not hasattr(second, "mode")
    out = str(tmp_path)
    assert main(["nnt", "--horizon", "2.5", "--json", "--out", out]) == 0
    assert {r["horizon"] for r in json.loads(capsys.readouterr().out)["results"]} == {2.5}
    assert main(["nnt", "--out", out]) == 0
    text = capsys.readouterr().out
    assert text.startswith("wrote ") and "T=11.0]" in text and "T=2.5]" not in text
    assert main(["ngm", "--json", "--out", out]) == 0
    assert json.loads(capsys.readouterr().out)["labels"] == ["msm", "hetf", "hetm"]
    assert main(["ngm", "--out", out]) == 0
    assert capsys.readouterr().out.startswith("model: basic ")


@pytest.mark.parametrize("override", [{"epsilon": 1.5}, {"Pi": float("nan")},
                                      {"a": float("inf")}, {"beta": 0.1}])
def test_cli_group_override_out_of_range_is_a_config_error(tmp_path, capsys, override):
    # a group override GroupParams rejects is named as a config error, not
    # a traceback (NaN passes the range checks, and JSON allows it)
    path = write_config(tmp_path, {"model": "basic",
                                   "overrides": {"groups": {"hetm": override}}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: overrides.groups.hetm: ")


@pytest.mark.parametrize("key, override", [
    ("probs", {"beta_mm": 2.0}), ("mixing_priors", {"eta_msm": 1.5}),
    ("probs", {"bogus": 0.1}), ("mu", "abc"), ("mu", float("nan"))])
def test_cli_override_out_of_range_is_a_config_error(tmp_path, capsys, key, override):
    # every override kind goes through the groups override's guard; a NaN mu
    # once passed ModelSpec and failed later, in the closure
    path = write_config(tmp_path, {"model": "basic", "overrides": {key: override}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: overrides.{key}: ")


NAN = float("nan")


@pytest.mark.parametrize("payload, key", [
    ({"overrides": {"probs": [1]}}, "overrides.probs"),
    ({"overrides": {"groups": {"hetm": 3}}}, "overrides.groups.hetm"),
    ({"overrides": {"groups": ["msm"]}}, "overrides.groups"),
    ({"overrides": {"muu": 0.5}}, "muu"),
    ({"initial_conditions": {"msm": {"S": "x", "I": 1}}}, "initial_conditions.msm"),
    ({"initial_conditions": {"msm": {"S": -5, "I": 1}}}, "initial_conditions.msm"),
    ({"initial_conditions": {"msm": 7}}, "initial_conditions.msm"),
    ({"initial_conditions": {"msm": {"S": NAN, "I": 1}}}, "initial_conditions.msm"),
    ({"horizon": {"start": "x"}}, "horizon"),
    ({"horizon": 5}, "horizon"),
    ({"horizon": {"end": 10**400}}, "horizon"),
    ({"interventions": [{"group": "msm", "additional_persons": 1, "start_year": "y"}]},
     "interventions[0].start_year"),
    ({"interventions": 5}, "interventions"),
    ({"interventions": [{"group": "msm", "additional_persons": 10**400}]},
     "interventions[0].additional_persons"),
    ({"interventions": [{"group": "msm", "additional_persons": True}]},
     "interventions[0].additional_persons"),
    (b'{"model": "basic", "overrides": {"mu": "\xff"}}', "not valid JSON"),
    # strings and booleans are not numbers, wherever the schema reads one
    ({"overrides": {"mu": True}}, "overrides.mu"),
    ({"overrides": {"groups": {"msm": {"epsilon": "0.1"}}}}, "overrides.groups.msm.epsilon"),
    ({"overrides": {"probs": {"beta_mm": "0.001"}}}, "overrides.probs.beta_mm"),
    ({"overrides": {"mixing_priors": {"eta_msm": True}}}, "overrides.mixing_priors.eta_msm"),
    ({"initial_conditions": {"msm": {"S": "5e4", "I": 1}}}, "initial_conditions.msm.S"),
    ({"initial_conditions": {"msm": {"S": 5e4, "I": False}}}, "initial_conditions.msm.I"),
    ({"horizon": {"start": "2017"}}, "horizon.start"),
    ({"interventions": [{"group": "msm", "additional_persons": 1, "start_year": "2021"}]},
     "interventions[0].start_year"),
    ({"integrator": {"rtol": True}}, "integrator.rtol"),
    ({"schema_version": True}, "schema_version"),
    # Dormand-Prince is the one method: no method or fixed step to choose
    ({"integrator": {"method": "rk4_fixed"}}, "unknown integrator keys ['method']"),
    ({"integrator": {"dt": 0.1}}, "unknown integrator keys ['dt']"),
])
def test_cli_malformed_config_is_one_error_line(tmp_path, capsys, payload, key):
    # each of these once ended in a traceback, or ran and exited 0 (muu,
    # True; method and dt chose the integrator)
    path = tmp_path / "cfg.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps({"model": "basic", **payload}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [NAN, float("inf"), float("-inf")])
def test_nonfinite_initial_counts_rejected(tmp_path, value):
    for S, I, C in (([value], [1.0], None), ([1.0], [value], None), ([1.0], [1.0], [value])):
        with pytest.raises(ValueError, match="must be finite"):
            StateVec.make(S, I, C)
    path = write_config(tmp_path, {"model": "basic", "initial_conditions": {
        "msm": {"S": value, "I": 1}}})
    with pytest.raises(SchemaViolation) as exc:
        load_config(path)
    assert exc.value.key == "initial_conditions.msm"


@pytest.mark.parametrize("variant", ["basic", "risk"])
@pytest.mark.parametrize("T", [0.5, 2.5])
def test_cli_nnt_lands_on_its_horizon(tmp_path, capsys, variant, T):
    # a horizon between whole years is a node of the run, not interpolated
    # between year nodes: it matches a run that ends at the horizon
    assert main(["nnt", "--model", variant, "--out", str(tmp_path), "--horizon", str(T),
                 "--json"]) == 0
    got = {(r["j"], r["k"]): r for r in json.loads(capsys.readouterr().out)["results"]}
    raw = default_config(variant).raw
    raw["horizon"]["end"] = raw["horizon"]["intervention"] + T
    from prepspill.scenarios import _config_from_raw
    config = _config_from_raw(raw)
    traj = run_spillover(config)
    labels = config.spec.labels
    for k in labels:
        for j in labels:
            want = nnt(traj, j, k, T, config.spec.mu)
            assert got[(j, k)]["defined"] == want.defined
            if want.defined:
                assert got[(j, k)]["nnt_simple"] == pytest.approx(want.nnt_simple, rel=1e-9)
                assert got[(j, k)]["nnt_integral"] == pytest.approx(want.nnt_integral,
                                                                    rel=1e-9)


FULL_CONFIG = {
    "schema_version": 1, "model": "basic",
    "horizon": {"start": 2017, "intervention": 2020, "end": 2031},
    "interventions": [{"group": "msm", "additional_persons": 25000, "start_year": 2021}],
    "intervention_mode": "tracked-count",
    "overrides": {"mu": 0.02, "probs": {"beta_mm": 0.0008},
                  "mixing_priors": {"eta_msm": 0.9},
                  "groups": {"hetf": {"epsilon": 0.1}}},
    "initial_conditions": {"msm": {"S": 123418, "I": 42000}},
    "integrator": {"rtol": 1e-8, "dt_max": 0.5},
}


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["S", "I", "msm", "mu", "dt", "x"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(_paths(FULL_CONFIG))[1:]), value=JSON_VALUES)
def test_config_with_any_value_anywhere_parses_or_is_a_config_error(path, value):
    # parsing only: any JSON value at any key gives a config or a ConfigError
    from prepspill.scenarios import ScenarioConfig, _config_from_raw
    raw = copy.deepcopy(FULL_CONFIG)
    node = raw
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    try:
        assert isinstance(_config_from_raw(raw), ScenarioConfig)
    except ConfigError:
        pass


SHORT_WINDOW = {"model": "basic",
                "horizon": {"start": 2019.5, "intervention": 2020, "end": 2026}}


@pytest.mark.parametrize("args, T", [(["--model", "basic"], 11.0),
                                     (["--model", "risk"], 11.0),
                                     (["--config", "short"], 6.0)],
                         ids=["basic", "risk", "short"])
def test_cli_nnt_default_horizon_is_the_window(tmp_path, capsys, args, T):
    # without --horizon, the horizon runs to the window's end: 11 years on
    # the presets, 6 on a config ending in 2026 (which failed on 11)
    if args[1] == "short":
        args = ["--config", write_config(tmp_path, SHORT_WINDOW)]
    assert main(["nnt", *args, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    text = next((tmp_path / "out").glob("nnt_*.csv")).read_text()
    rows = list(csv.reader(text.splitlines()))[1:]
    assert rows and {r[2] for r in rows} == {str(T)}


def test_cli_nnt_default_horizon_is_the_window_to_nine_decimals(tmp_path, capsys):
    # 2031 - 2019.9 = 11.099999999999909: without --horizon the horizon is
    # that length to NODE_TOL's 9 decimals, which every text line, CSV cell
    # and JSON value reads, and the table is the one --horizon 11.1 writes
    path = write_config(tmp_path, {"model": "basic", "horizon": {
        "start": 2017, "intervention": 2019.9, "end": 2031}})
    runs = {}
    for name, extra in (("default", []), ("typed", ["--horizon", "11.1"])):
        assert main(["nnt", "--config", path, "--out", str(tmp_path / name), *extra]) == 0
        runs[name] = capsys.readouterr().out
    assert (tmp_path / "default" / "nnt_basic.csv").read_bytes() == \
        (tmp_path / "typed" / "nnt_basic.csv").read_bytes()
    lines = runs["default"].splitlines()[1:]
    assert len(lines) == 9 and all(", T=11.1] = " in line for line in lines)
    assert lines == runs["typed"].splitlines()[1:]
    assert main(["nnt", "--config", path, "--out", str(tmp_path / "json"), "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert {r["horizon"] for r in results} == {11.1}


@pytest.mark.parametrize("args, window", [
    (["--model", "basic"], "basic 2020-2031"), (["--model", "risk"], "risk 2020-2031"),
    ({"start": 2014, "intervention": 2015, "end": 2017.3}, "basic 2015-2017.3"),
    ({"start": 2017, "intervention": 2020.25, "end": 2031}, "basic 2020.25-2031"),
    ({"start": 2017, "intervention": 2020.125, "end": 2031}, "basic 2020.125-2031")],
    ids=["basic", "risk", "end-2017.3", "intervention-2020.25", "intervention-2020.125"])
def test_cli_simulate_prints_the_window_unrounded(tmp_path, capsys, args, window):
    # the window's ends once printed rounded to whole years: 2017-2017 for
    # 2015-2017.3 and 2020-2031 for 2020.25-2031; then to 6 significant
    # digits, 2020.12-2031 for 2020.125-2031
    if isinstance(args, dict):
        args = ["--config", write_config(tmp_path, {"model": "basic", "horizon": args})]
    assert main(["simulate", *args, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"baseline {window}: total ")


# one misspelt key in each object of the schema, and the object it names
MISSPELT = [
    ("config", "intervention_mod", {"intervention_mod": "tracked-count"}),
    ("horizon", "strat", {"horizon": {"strat": 2018}}),
    ("interventions[0]", "start",
     {"interventions": [{"group": "msm", "additional_persons": 25000, "start": 2025}]}),
    ("initial_conditions.msm", "C",
     {"initial_conditions": {"msm": {"S": 123418, "I": 42000, "C": 0}}}),
    ("integrator", "rtoll", {"integrator": {"rtoll": 1e-6}}),
    ("overrides", "muu", {"overrides": {"muu": 0.02}}),
]


@pytest.mark.parametrize("key, typo, payload", MISSPELT, ids=[m[0] for m in MISSPELT])
def test_a_misspelt_key_is_refused_naming_its_object(tmp_path, capsys, key, typo, payload):
    # each but integrator's and overrides' once ran a different study and
    # exited 0: the key was dropped unread
    path = write_config(tmp_path, {"schema_version": 1, "model": "basic", **payload})
    with pytest.raises(SchemaViolation) as exc:
        load_config(path)
    assert exc.value.key == key
    assert str(exc.value) == f"unknown {key} keys [{typo!r}]"
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown {key} keys [{typo!r}]\n"
    assert not out.exists()


def test_readme_example_config_loads():
    # the example under "Scenario configs" uses every object of the schema
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Scenario configs", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    raw = json.loads(block)
    config = _config_from_raw(raw)
    assert config.raw == raw and config.interventions[0].group == "msm"
    assert config.spec.mu == 0.02 and config.integrator.rtol == 1e-8


def test_cli_validate_refuses_a_config(tmp_path, capsys):
    # validate always checks both published tables, so a config is an error
    path = write_config(tmp_path, {"model": "basic"})
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--config" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit):
        main(["validate", "--help"])
    assert "always checks both" in " ".join(capsys.readouterr().out.split())


def test_emit_plots_baseline_covers_whole_years_of_a_partial_span(tmp_path, capsys):
    # a window starting mid-year: the default series run, and the baseline
    # series lists the whole calendar years inside it, each read at its nodes
    path = write_config(tmp_path, SHORT_WINDOW)
    assert main(["emit-plots", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "out" / "baseline_series_basic.csv").read_text()
    rows = list(csv.reader(text.splitlines()))
    traj = integrate_baseline(load_config(path))
    at = {y: traj.states[traj.node(float(y))] for y in range(2020, 2027)}
    assert [int(r[0]) for r in rows[1:]] == list(range(2020, 2026))
    for r in rows[1:]:
        y = int(r[0])
        assert r[1:4] == [f"{v:.6f}" for v in at[y][1:6:2]]
        assert r[4:] == [f"{v:.6f}" for v in at[y + 1][6:] - at[y][6:]]


@pytest.mark.parametrize("payload, error, match", [
    (None, ParseError, "^cannot read config .*missing.json: "),
    ([], SchemaViolation, "^config root must be an object$"),
    ({"model": "basic", "interventions": [
        {"group": "msm", "additional_persons": 10, "start_year": 2031}]},
     SchemaViolation, r"^interventions\[0\].start_year 2031.0 outside horizon$"),
], ids=["unreadable", "root-not-object", "start-year-outside"])
def test_config_refusals(tmp_path, payload, error, match):
    path = tmp_path / "missing.json" if payload is None else write_config(tmp_path, payload)
    with pytest.raises(error, match=match):
        load_config(path)


@pytest.mark.parametrize("command", [["sobol"]], ids=["sobol"])
def test_partial_year_sobol_refused_before_any_batch_or_file(tmp_path, monkeypatch,
                                                             capsys, command):
    # the Sobol window is checked before the batch is integrated or --out made
    batches, batch = [], sobol.integrate_batch
    monkeypatch.setattr(sobol, "integrate_batch",
                        lambda *a, **k: batches.append(a) or batch(*a, **k))
    raw = copy.deepcopy(SOBOL_WINDOW)
    raw["horizon"]["start"] = 2017.5
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(command + ["--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: span [2017.5, 2025.0] is not aligned to whole years\n")
    assert batches == [] and not out.exists()
