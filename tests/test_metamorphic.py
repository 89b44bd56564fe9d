"""Metamorphic checks: every person count scaled by a power of two.

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
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spec, random_state
from prepspill import scenarios
from prepspill.errors import PrepspillError
from prepspill.integrators import IntegratorConfig, integrate
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
