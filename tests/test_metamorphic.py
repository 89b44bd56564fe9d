"""Metamorphic checks: every person count scaled by a power of two, and
every calendar year of a config shifted by whole years.

Persons enter a run only through recruitment Pi, the start state, the arm
sizes (or tracked counts) and atol, and every formula is homogeneous in
them: the rates (mu, delta, the contact rates and betas) are per person, and
the rest are ratios (I/N, the closure's volume shares, c_j/S_j, the error
norm's y/atol).  Multiplying a float by c = 2^k is exact and commutes with
rounding while nothing under- or overflows, so scaling those inputs by c
gives the same node times and switch-event times, and states, sensitivity
blocks (the finite-difference oracle's too), table cells and Sobol samples
times c, bit for bit; their ratios (NNT, per-person effects, the NGM and
R_c, Sobol indices) are unchanged, bit for bit.  A constant in
persons in a generated form, or a tolerance in persons that atol does not
scale, breaks it.

The model is autonomous: no rate reads t.  So shifting start, intervention,
end and every arm's start year by d whole years shifts every node by d and
changes nothing else, up to the float spacing of t (2.3e-13 years at 2017,
4.5e-13 at 3041), which moves step sizes in their last bits.  Those checks
hold to 1e-12 relative or of column scale.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spec, random_state
from oracles import fd_oracle
from prepspill import scenarios
from prepspill.errors import PrepspillError
from prepspill.integrators import NODE_TOL, IntegratorConfig, integrate
from prepspill.model import StateVec
from prepspill.reproduction import build_ngm, rc_closed, rc_numeric
from prepspill.scenarios import (_config_from_raw, default_config, emit_plot_data, run_scenarios,
                                 run_spillover, sobol_study)
from prepspill.sobol import UncertainInput, sobol_timeseries
from prepspill.spillover import nnt

SCALES = (2.0 ** -3, 4.0, 2.0 ** 8)


def scaled_spec(spec, c):
    """The spec with every group's recruitment Pi times c."""
    return replace(spec, groups=tuple((label, replace(p, Pi=c * p.Pi))
                                      for label, p in spec.groups))


def scaled_state(y, c):
    return StateVec(S=c * y.S, I=c * y.I, C=c * y.C)


def scaled_config(config, c):
    """The scenario config with Pi, the start state, the arm sizes and atol
    times c."""
    return replace(config, spec=scaled_spec(config.spec, c), y0=scaled_state(config.y0, c),
                   interventions=tuple(replace(arm, additional_persons=c * arm.additional_persons)
                                       for arm in config.interventions),
                   integrator=replace(config.integrator, atol=c * config.integrator.atol))


def assert_scaled(traj, got, c):
    """got is traj with its states times c: the same nodes, switch events
    and next step, bit for bit, and clamps of c times the value."""
    assert np.array_equal(got.times, traj.times)
    assert np.array_equal(got.states, c * traj.states)
    assert got.switch_events == traj.switch_events
    assert got.next_step == traj.next_step
    assert got.clamp_events == [(t, i, c * v) for t, i, v in traj.clamp_events]


def _spied_scenarios(monkeypatch, config):
    """run_scenarios(config) and the trajectory of each of its integrations."""
    trajs = []

    def spy(*args, **kwargs):
        trajs.append(real(*args, **kwargs))
        return trajs[-1]
    real = scenarios.integrate
    with monkeypatch.context() as m:
        m.setattr(scenarios, "integrate", spy)
        return run_scenarios(config), trajs


# a tracked-count arm from 2020 whose coverage reaches 1 (S_j falls to its
# count): in 2026 on basic, in 2024 on risk
CAPPED = {"basic": ("msm", 120000), "risk": ("hetf_h", 230000)}


@pytest.mark.parametrize("arms", ["fixed-fraction", "tracked-count", "capped"])
@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_scenario_tables_scale_with_the_persons(variant, arms, monkeypatch):
    # the baseline and every arm (the preset's, in either coverage mode, or
    # the capped one), and each table cell: incidence and prevented
    # infections times c
    if arms == "capped":
        group, persons = CAPPED[variant]
        config = _config_from_raw({"model": variant, "intervention_mode": "tracked-count",
                                   "interventions": [{"group": group, "start_year": 2020,
                                                      "additional_persons": persons}]})
    else:
        config = replace(default_config(variant), intervention_mode=arms)
    report, trajs = _spied_scenarios(monkeypatch, config)
    assert len(trajs) == 1 + len(config.interventions)
    if arms == "capped" or (variant, arms) == ("risk", "fixed-fraction"):
        # each arm lands on a switch: full coverage, or the xi_hetm clamp
        assert all(traj.switch_events for traj in trajs[1:])
    for c in SCALES:
        got, got_trajs = _spied_scenarios(monkeypatch, scaled_config(config, c))
        for traj, scaled in zip(trajs, got_trajs, strict=True):
            assert_scaled(traj, scaled, c)
        for r, s in zip([report.baseline, *report.scenarios],
                        [got.baseline, *got.scenarios], strict=True):
            assert s.additional_persons == c * r.additional_persons
            assert s.incidence == {k: c * v for k, v in r.incidence.items()}
            assert s.prevented == {k: c * v for k, v in r.prevented.items()}


@pytest.mark.parametrize("variant, mode", [("basic", "practical"), ("basic", "exact_delta"),
                                           ("risk", "practical"), ("risk", "exact_delta")])
def test_spillover_blocks_scale_with_the_persons(variant, mode):
    # the joint run's rows hold the state and every source's block
    config = default_config(variant)
    traj, blocks = run_spillover(config, mode)
    for c in SCALES:
        got, got_blocks = run_spillover(scaled_config(config, c), mode)
        assert_scaled(traj, got, c)
        for label, sens in blocks.items():
            assert np.array_equal(got_blocks[label].block, c * sens.block)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]),
       free=st.booleans(), tracked=st.booleans(), k=st.integers(-8, 8))
def test_random_runs_scale_with_the_persons_property(seed, variant, free, tracked, k):
    # free and year-landing runs, with one tracked group whose count is
    # near its pool (so some runs land on its full-coverage switch) or none
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant)
    y0 = random_state(rng, spec)
    span = rng.uniform(0.5, 8.0)
    cfg = IntegratorConfig(2017.0, 2017.0 + span, atol=float(10.0 ** rng.uniform(-8.0, -4.0)),
                           year_nodes=not free)
    samples = [2017.0 + span * rng.uniform()]
    counts = None
    if tracked:
        counts = [0.0] * spec.n
        j = int(rng.integers(spec.n))
        counts[j] = float(y0.S[j] * rng.uniform(0.8, 1.05))
    c = 2.0 ** k

    def run(spec, y0, cfg, counts):
        try:
            return integrate(spec, y0, cfg, sample_times=samples, tracked_counts=counts)
        except PrepspillError as e:  # its message may name a count
            return type(e)
    traj = run(spec, y0, cfg, counts)
    got = run(scaled_spec(spec, c), scaled_state(y0, c), replace(cfg, atol=c * cfg.atol),
              counts and [c * x for x in counts])
    if isinstance(traj, type):
        assert got is traj
    else:
        assert_scaled(traj, got, c)


def _end_nnt_results(config):
    """nnt() for every (j, k) at the window's end."""
    traj, sens = run_spillover(config)
    T, labels = config.end - config.intervention_year, config.spec.labels
    return [nnt(sens[k], traj, j, k, T, config.spec.mu) for k in labels for j in labels]


def _end_nnts(config):
    """(defined, nnt_simple, nnt_integral) of _end_nnt_results, the floats
    as reprs so that NaN compares."""
    return [(r.defined, repr(r.nnt_simple), repr(r.nnt_integral))
            for r in _end_nnt_results(config)]


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_nnt_is_unchanged_by_the_person_scale(variant):
    # person-years of PrEP over infections prevented: both scale by c
    config = default_config(variant)
    want = _end_nnts(config)
    assert any(defined for defined, _, _ in want)
    for c in SCALES:
        assert _end_nnts(scaled_config(config, c)) == want


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_plot_ratios_are_unchanged_by_the_person_scale(variant, tmp_path):
    # the bundle's per-person effects and NNT curves are ratios of a
    # sensitivity to a pool: their files keep their bytes
    config = default_config(variant)
    names = [f"per_person_effects_{variant}.csv", f"nnt_{variant}.csv",
             f"nnt_{variant}_suppressed.json"]
    emit_plot_data(str(tmp_path / "1"), config)
    for c in SCALES:
        emit_plot_data(str(tmp_path / repr(c)), scaled_config(config, c))
        for name in names:
            assert (tmp_path / repr(c) / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def _ngm_outcome(spec):
    ngm = build_ngm(spec)
    numeric, closed = rc_numeric(ngm), rc_closed(ngm)
    return (ngm.F.tobytes(), ngm.V.tobytes(), numeric.value,
            closed.value, closed.method, closed.diagnostic)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_ngm_is_unchanged_by_the_person_scale_property(variant):
    # F's entries are (1 - eps_j) W[j, p] N_j / N_p, with the mixing closed
    # on volume shares, and V holds rates: both, R_c by eigenvalues and by
    # radicals, bit for bit; the DFE populations times c.  The risk
    # preset's DFE does not close, so risk is held on draws alone
    rng = np.random.default_rng(61 if variant == "basic" else 62)
    specs = [random_spec(rng, variant) for _ in range(100)]
    if variant == "basic":
        specs.insert(0, default_config("basic").spec)
    for spec in specs:
        want = _ngm_outcome(spec)
        for c in SCALES:
            got = scaled_spec(spec, c)
            assert _ngm_outcome(got) == want
            assert np.array_equal(build_ngm(got).dfe_populations,
                                  c * build_ngm(spec).dfe_populations)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_fd_oracle_blocks_scale_with_the_persons(variant):
    # the two perturbed members are one batch of the config's window: the
    # same times, each source's difference quotient times c
    config = default_config(variant)
    for k in config.spec.labels:
        fd = fd_oracle(config.spec, config.y0, k, 1e-4, config.integrator)
        for c in SCALES:
            scaled = scaled_config(config, c)
            got = fd_oracle(scaled.spec, scaled.y0, k, 1e-4, scaled.integrator)
            assert got.scheme == fd.scheme
            assert np.array_equal(got.times, fd.times)
            assert np.array_equal(got.block, c * fd.block)


def assert_sobol_scaled(study, got, c):
    """got is study's Sobol study with its samples, means and clamps'
    persons times c: the same work and clamps, samples and means times c,
    variances times c^2, and every first-order and total index, bit for
    bit."""
    assert (got.years, got.clamp_count, got.rhs_evals, got.steps_accepted,
            got.steps_rejected, got.members) == (study.years, study.clamp_count,
                                                 study.rhs_evals, study.steps_accepted,
                                                 study.steps_rejected, study.members)
    assert got.samples.keys() == study.samples.keys()
    for key, sample in study.samples.items():
        assert np.array_equal(got.samples[key], c * sample)
    for key, si in study.indices.items():
        g = got.indices[key]
        assert (g.defined, g.mean, g.variance) == (si.defined, c * si.mean, c * c * si.variance)
        assert np.array_equal(g.first_order, si.first_order)
        assert np.array_equal(g.total, si.total)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_sobol_study_scales_with_the_persons(variant):
    # the CLI's study: one scale input per group, integrated over the
    # config's window and tolerances
    config = default_config(variant)
    study = sobol_study(config, 3, 2)
    for c in SCALES:
        assert_sobol_scaled(study, sobol_study(scaled_config(config, c), 3, 2), c)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_sobol_count_input_scales_with_the_persons(variant):
    # a count input over [0, 1.5 S_k(t0)] of the scaled config (its bounds
    # times c, some nodes clamped at full coverage) beside a scale input
    def study(config):
        labels, S = config.spec.labels, config.y0.S
        inputs = (UncertainInput(labels[0], -0.5, 0.5),
                  UncertainInput(labels[-1], 0.0, 1.5 * float(S[-1]), domain="count"))
        return sobol_timeseries(config.spec, config.y0, inputs, level=3, total_degree=2,
                                cfg=config.integrator)
    config = default_config(variant)
    want = study(config)
    assert want.clamp_count > 0
    for c in SCALES:
        assert_sobol_scaled(want, study(scaled_config(config, c)), c)


SHIFTS = (-1000.0, 16.0, 1024.0)


def shifted_config(config, d):
    """The scenario config with start, intervention, end and every arm's
    start year d years later."""
    raw = copy.deepcopy(config.raw)
    raw["horizon"] = {k: v + d for k, v in raw["horizon"].items()}
    for arm in raw["interventions"]:
        arm["start_year"] += d
    return _config_from_raw(raw)


def assert_translated(traj, got, d):
    """got is traj d years later: as many nodes, each within NODE_TOL of
    its time plus d, and rows within 1e-12 of each column's largest entry."""
    assert len(got.times) == len(traj.times)
    assert np.abs(got.times - (traj.times + d)).max() <= NODE_TOL
    assert np.all(np.abs(got.states - traj.states).max(axis=0)
                  <= 1e-12 * np.abs(traj.states).max(axis=0))


def _cells(report):
    return [(r.name, k, r.incidence[k], r.prevented[k])
            for r in [report.baseline, *report.scenarios] for k in r.incidence]


@pytest.mark.parametrize("d", SHIFTS)
@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_scenario_tables_translate_in_time(variant, d):
    # the baseline's nodes and rows; each incidence cell within 1e-12
    # relative; each prevented cell, the baseline's incidence less the
    # arm's, within 1e-12 of the baseline's incidence in its group
    config = default_config(variant)
    report, got = run_scenarios(config), run_scenarios(shifted_config(config, d))
    assert_translated(report.baseline_traj, got.baseline_traj, d)
    scale = report.baseline.incidence
    for (name, k, inc, prev), (got_name, got_k, got_inc, got_prev) in zip(
            _cells(report), _cells(got), strict=True):
        assert (got_name, got_k) == (name, k)
        assert abs(got_inc - inc) <= 1e-12 * abs(inc)
        assert abs(got_prev - prev) <= 1e-12 * abs(scale[k])


# Prevented infections are a difference of two incidence cells that agree
# to 1e-14 relative, so shifts that move step sizes in their last bits move
# the small cross-group cells by far more, relative to themselves.
PREVENTED_CANCELS = pytest.mark.xfail(strict=True, reason=(
    "prevented = baseline incidence - arm incidence cancels: at -1000 or +1024 years the "
    "basic prep_hetm_10000 msm cell (-0.0183 persons) moves 2.8e-8 relative and the risk "
    "prep_hetf_l_10000 msm cell (0.0072 persons, +1024) 2.3e-7, while every incidence cell "
    "stays within 1e-12"))


@pytest.mark.parametrize("variant, d", [
    pytest.param(v, d, marks=() if d == 16.0 else PREVENTED_CANCELS, id=f"{v}-{d:+g}")
    for v in ("basic", "risk") for d in SHIFTS])
def test_prevented_cells_translate_in_time(variant, d):
    config = default_config(variant)
    report, got = run_scenarios(config), run_scenarios(shifted_config(config, d))
    for (*_, prev), (*_, got_prev) in zip(_cells(report), _cells(got), strict=True):
        assert abs(got_prev - prev) <= 1e-12 * abs(prev)


# The risk system steps freely between 2027 and 2028 near the xi_hetm
# kink, and 4.5e-13-year moves in t there add up.
FREE_NODE_MOVES = pytest.mark.xfail(strict=True, reason=(
    "rows at free nodes: shifted by +1024 years, the risk spillover system's node at "
    "2027.727 moves 4.3e-11 years and its row 6.0e-12 of column scale (a sensitivity "
    "column); its whole-year rows stay within 2.7e-13"))


@pytest.mark.parametrize("variant, d", [
    pytest.param(v, d, marks=FREE_NODE_MOVES if (v, d) == ("risk", 1024.0) else (),
                 id=f"{v}-{d:+g}")
    for v in ("basic", "risk") for d in SHIFTS])
def test_spillover_rows_translate_in_time(variant, d):
    config = default_config(variant)
    traj, _ = run_spillover(config)
    got, _ = run_spillover(shifted_config(config, d))
    assert_translated(traj, got, d)


@pytest.mark.parametrize("d", [-1024.0, 1024.0])
@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_nnt_translates_in_time(variant, d):
    # nnt() at the end horizon for every (j, k): the same cells defined, and
    # each defined nnt_simple and nnt_integral within 1e-12 relative (worst
    # 2.7e-13, risk hetf_l <- hetf_h at +1024, where the rows at the free
    # nodes move past their bound)
    config = default_config(variant)
    want = _end_nnt_results(config)
    got = _end_nnt_results(shifted_config(config, d))
    assert any(r.defined for r in want)
    for r, g in zip(want, got, strict=True):
        assert (g.j, g.k, g.defined) == (r.j, r.k, r.defined)
        for term in ("nnt_simple", "nnt_integral") if r.defined else ():
            assert abs(getattr(g, term) - getattr(r, term)) <= 1e-12 * abs(getattr(r, term))
