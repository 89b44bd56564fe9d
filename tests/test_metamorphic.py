"""Metamorphic checks: every person count scaled by a power of two, and
every calendar year of a config shifted by whole years.

Persons enter a run only through recruitment Pi, the start state, the arm
sizes (or tracked counts) and atol, and every formula is homogeneous in
them: the rates (mu, delta, the contact rates and betas) are per person, and
the rest are ratios (I/N, the closure's volume shares, c_j/S_j, the error
norm's y/atol).  Multiplying a float by c = 2^k is exact and commutes with
rounding while nothing under- or overflows, so scaling those inputs by c
gives the same node times and switch-event times, and states, sensitivity
blocks and table cells times c, bit for bit.  A constant in persons in a
generated form, or a tolerance in persons that atol does not scale, breaks
it.

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
from prepspill import scenarios
from prepspill.errors import PrepspillError
from prepspill.integrators import NODE_TOL, IntegratorConfig, integrate
from prepspill.model import StateVec
from prepspill.scenarios import _config_from_raw, default_config, run_scenarios, run_spillover

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
                                           ("risk", "practical")])
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
