import csv
import io
import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rk4_fixed
from prepspill import scenarios
from prepspill.errors import (InfeasibleClosure, NegativeState, PartialYear,
                             StepBudgetExceeded, StepSizeUnderflow, ZeroPopulation)
from prepspill.integrators import (NODE_TOL, IntegratorConfig, Trajectory, _breakpoints,
                                   _dp_step_maker, _postprocess_columns,
                                   _postprocess_step, annual_series, csv_text, integrate,
                                   integrate_batch, integrate_flat, interp_rows, write_csv,
                                   write_text)
from prepspill.model import (StateVec, TransmissionProbs, closed_mixing, flat_rhs_factory,
                             make_spec)
from prepspill.mixing import BasicMixing
from prepspill.spillover import integrate_with_spillover


def decay_spec():
    # eps=1 everywhere, no recruitment, no disease mortality: pure exponential decay
    return make_spec("basic", Pi=(0, 0, 0), a=(94.7, 47.3, 48.5),
                     delta=(0, 0, 0), epsilon=(1.0, 1.0, 1.0),
                     probs=TransmissionProbs(0.0008, 0.0003, 0.0004), mu=0.02,
                     mixing_priors=BasicMixing(0.858, 0.02))


def test_linear_decay_analytic():
    spec = decay_spec()
    y0 = StateVec.make([123418.0, 3260101.0, 3138939.0],
                       [42000.0, 14700.0, 7000.0])
    cfg = IntegratorConfig(t0=0.0, t_end=10.0, rtol=1e-10, atol=1e-8)
    traj = integrate(spec, y0, cfg)
    end = traj.final_state()
    assert np.allclose(end.I, y0.I * math.exp(-0.2), rtol=1e-8)
    assert np.allclose(end.S, y0.S * math.exp(-0.2), rtol=1e-8)


def test_population_relaxation_matches_analytic(basic):
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    cfg = IntegratorConfig(t0=2017.0, t_end=2027.0, rtol=1e-10, atol=1e-8)
    traj = integrate(spec0, y0, cfg)
    Pi, _, _, _ = spec.param_arrays()
    Nexp = Pi / spec.mu + (y0.N - Pi / spec.mu) * np.exp(-spec.mu * 10.0)
    assert np.allclose(traj.final_state().N, Nexp, rtol=1e-8)


def test_rk4_fourth_order_convergence(basic):
    # the fixed-step oracle (conftest.rk4_fixed) is of order four: Richardson
    # within one method; dt values divide a year exactly so the year
    # breakpoints do not change the effective step ratio
    spec, y0 = basic
    f = flat_rhs_factory(spec)
    ref_end = rk4_fixed(f, y0.to_flat(), 2017.0, 2020.0, 1 / 64)[1][-1][:9]
    errs = []
    for dt in (0.5, 0.25, 0.125):
        end = rk4_fixed(f, y0.to_flat(), 2017.0, 2020.0, dt)[1][-1][:9]
        errs.append(np.max(np.abs(end - ref_end) / np.abs(ref_end)))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 3.5 < order1 < 4.6
    assert 3.5 < order2 < 4.6


def test_adaptive_and_fixed_agree(baseline_basic, basic):
    spec, y0 = basic
    times, rows = rk4_fixed(flat_rhs_factory(spec), y0.to_flat(), 2017.0, 2031.0, 0.05)
    n = spec.n
    c_fixed = rows[-1][2 * n:] - rows[list(times).index(2020.0)][2 * n:]
    c_adapt = (baseline_basic.states[baseline_basic.node(2031.0)][2 * n:]
               - baseline_basic.states[baseline_basic.node(2020.0)][2 * n:])
    assert np.all(np.abs(c_fixed - c_adapt) / c_adapt < 1e-3)


def test_annual_series_zero_infections():
    spec = decay_spec()
    y0 = StateVec.make([1e5, 2e5, 1e5], [0.0, 0.0, 0.0])  # closure-feasible
    traj = integrate(spec, y0, IntegratorConfig(t0=2020.0, t_end=2023.0))
    years, inc = annual_series(traj)
    assert years == [2020, 2021, 2022]
    assert np.allclose(inc, 0.0)


def test_annual_series_telescoping(baseline_basic):
    years, inc = annual_series(baseline_basic)
    n = baseline_basic.n_groups
    total = baseline_basic.states[-1, 2 * n:] - baseline_basic.states[0, 2 * n:]
    assert np.allclose(inc.sum(axis=0), total, rtol=0, atol=1e-9 * max(total))
    assert years[0] == 2017 and years[-1] == 2030


def test_annual_series_partial_year(basic):
    spec, y0 = basic
    traj = integrate(spec, y0, IntegratorConfig(t0=2017.0, t_end=2018.5))
    with pytest.raises(PartialYear):
        annual_series(traj)


def test_year_boundaries_are_exact_nodes(baseline_basic):
    for y in range(2017, 2032):
        baseline_basic.node(float(y))  # ValueError unless y is a node


def test_negative_state_error():
    cfg = IntegratorConfig(t0=0.0, t_end=1.0, atol=1e-6)
    with pytest.raises(NegativeState):
        integrate_flat(lambda t, y: [-1.0], [0.5], cfg, n_state=1)
    # a NaN slot ahead of a hard negative (min() then reads NaN) still
    # raises; a NaN on its own passes unclamped
    with pytest.raises(NegativeState, match="component 1"):
        _postprocess_step(0.5, [math.nan, -1.0], 2, 1e-6, [])
    y, clamps = [math.nan, 0.5], []
    _postprocess_step(0.5, y, 2, 1e-6, clamps)
    assert math.isnan(y[0]) and y[1] == 0.5 and clamps == []


def test_tiny_negative_clamped_and_logged():
    cfg = IntegratorConfig(t0=0.0, t_end=2e-8, atol=1e-6)
    ts, ys, clamps, *_ = integrate_flat(lambda t, y: [-0.1], [1e-9], cfg, n_state=1)
    assert len(clamps) >= 1
    assert ys[-1][0] == 0.0


def test_columns_clamp_tiny_and_name_hard_negative():
    y = [np.array([1.0, -1e-9, 2.0]), np.array([-1e-8, 3.0, 4.0])]
    clamps = []
    _postprocess_columns(0.5, y, 2, 1e-6, clamps)
    assert [list(c) for c in y] == [[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]
    assert clamps == [(0.5, 1, 0, -1e-8), (0.5, 0, 1, -1e-9)]
    y = [np.array([1.0, -1e-9, -2.0, -3.0])]
    with pytest.raises(NegativeState) as exc:
        _postprocess_columns(0.5, y, 1, 1e-6, [])
    assert exc.value.member == 2
    with pytest.raises(NegativeState) as scalar:
        integrate_flat(lambda t, y: [0.0], [-2.0], IntegratorConfig(
            t0=0.0, t_end=0.5, first_step=0.5), n_state=1)
    assert str(exc.value) == str(scalar.value)


def test_columns_clamp_judged_by_scalar_step_property():
    # Batches with tiny negatives, hard negatives and NaNs at random slots:
    # each member's column, physical slots and trailing ones, ends as
    # _postprocess_step leaves it, with its clamps recorded member-major, or
    # the batch raises the scalar NegativeState of the lowest member with a
    # hard negative, tagged with it.
    rng = np.random.default_rng(29)
    atol, seen = 1e-6, {"clean": 0, "clamped": 0, "hard": 0, "nan": 0}
    for _ in range(400):
        n_state, B = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        y = rng.uniform(0.0, 1e3, (n_state + 2, B))
        y[n_state:] -= 5e2  # trailing slots take either sign
        for _ in range(int(rng.integers(0, 4))):
            i, b = rng.integers(n_state), rng.integers(B)
            y[i, b] = rng.choice([-atol * rng.random(), -rng.uniform(2 * atol, 10.0), np.nan])
        t, cols, events, hard = float(rng.uniform(2017, 2031)), y.T.tolist(), [], None
        for b, col in enumerate(cols):
            clamps = []
            try:
                _postprocess_step(t, col, n_state, atol, clamps)
            except NegativeState as e:
                hard = b, str(e)
                break
            events += [(t, i, b, v) for _, i, v in clamps]
        got, recorded = y.copy(), []
        if hard is not None:
            with pytest.raises(NegativeState) as exc:
                _postprocess_columns(t, got, n_state, atol, recorded)
            assert (exc.value.member, str(exc.value)) == hard
            seen["hard"] += 1
            continue
        _postprocess_columns(t, got, n_state, atol, recorded)
        assert np.array_equal(got, np.array(cols).T, equal_nan=True)
        assert recorded == events
        seen["clamped" if events else "clean"] += 1
        seen["nan"] += bool(np.isnan(y).any())
    assert min(seen.values()) > 20, seen


def test_batch_members_equal_scalar_integrations(basic, risk):
    # a batch of one steps as its scalar run does, bit for bit
    cfg = IntegratorConfig(t0=2017.0, t_end=2031.0)
    for spec, y0 in (basic, risk):
        for scale in (0.5, 1.0, 3.0):
            eps = spec.param_arrays()[3] * scale
            traj = integrate_batch(spec, y0, [eps], cfg)
            rhs_evals = traj.rhs_evals
            one = integrate(spec.with_epsilon(dict(zip(spec.labels, eps))), y0, cfg)
            assert one.times[1] == 2018.0  # the first-node start
            assert np.array_equal(traj.times, one.times)
            assert np.array_equal(traj.states[:, :, 0], one.states)
            assert traj.next_step == one.next_step
            assert (rhs_evals - 1) % 6 == 0 and (rhs_evals - 1) // 6 >= len(one.times) - 1
            years, table = annual_series(traj)
            assert table.shape == (14, spec.n, 1)


def test_free_batch_members_equal_direct_runs_and_keep_their_step(basic, risk, monkeypatch):
    # The Sobol batch's controller: a free-stepping batch of one, read at
    # interior sample times over a window across the risk xi_hetm kink
    # (2027).  A basic one steps as integrate_flat does on the member's own
    # RHS, bit for bit (neither carries a margin); a risk one lands on the
    # member's switch, within 1e-6 years of where the member's own
    # integrate() run lands (the root on the failed attempt's interpolant,
    # which the scalar run refines to NODE_TOL: 5.5e-7 to 6.3e-7 apart at
    # these three coverages).  A step cut short to land on a sample time is
    # followed by an attempt at least as long as the step the controller
    # wanted before the cut: the plain controller's proposal from the
    # attempt before, at most dt_max and the distance to the next node.
    from prepspill import integrators
    attempts = []

    def maker(w=None, _real=integrators._dp_step_maker):
        step = _real(w)

        def spy(f, t, y, h, k1, atol, rtol):
            out = step(f, t, y, h, k1, atol, rtol)
            attempts.append((t, h, out[2]))
            return out
        return spy

    monkeypatch.setattr(integrators, "_dp_step_maker", maker)
    cfg = IntegratorConfig(2017.0, 2031.0, dt_max=2.5, year_nodes=False, first_step=1.0)
    samples = [float(y) for y in range(2018, 2031)]
    nodes = samples + [cfg.t_end]
    landings = 0
    for spec, y0 in (basic, risk):
        for scale in (0.5, 1.0, 3.0):
            eps = spec.param_arrays()[3] * scale
            attempts.clear()
            traj = integrate_batch(spec, y0, [eps], cfg, sample_times=samples)
            batch_attempts = list(attempts)
            member = spec.with_epsilon(dict(zip(spec.labels, eps)))
            if spec.variant == "basic":
                f = flat_rhs_factory(member)
                one = Trajectory.of(integrate_flat(f, y0.to_flat(), cfg, 2 * spec.n,
                                                   sample_times=samples), spec.labels)
                assert np.array_equal(traj.times, one.times)
                assert np.array_equal(traj.states[:, :, 0], one.states)
                assert traj.next_step == one.next_step
            else:
                own = integrate(member, y0, cfg, sample_times=samples).switch_events
                assert len(traj.switch_events) == len(own) == 1
                (t, name), (t_own, name_own) = traj.switch_events[0], own[0]
                assert name == name_own == "lo - x" and abs(t - t_own) <= 1e-6
            for t in samples:
                traj.node(t)  # ValueError unless t is a node
            grow, cut = 5.0, 1.0  # the free controller's caps on the step factor
            for (_, h0, e0), (t1, h1, e1), (_, h2, _) in zip(batch_attempts, batch_attempts[1:],
                                                             batch_attempts[2:]):
                # the plain proposal after attempt 0 (its caps set by the one before)
                if e0 <= 1.0:
                    plain = h0 * min(grow, max(0.2, 0.9 * e0 ** -0.2 if e0 else 5.0))
                    grow, cut = 5.0, 1.0
                else:
                    plain = h0 * min(cut, max(0.2, 0.9 * e0 ** -0.2))
                    grow, cut = 1.0, 0.5
                end = integrators.node_index(nodes, t1 + h1)
                if e1 <= 1.0 and end is not None and end < len(samples) and h1 < plain:
                    assert h2 >= min(plain, cfg.dt_max, nodes[end + 1] - nodes[end])
                    landings += 1
    assert landings >= 10


def _spied_batch(monkeypatch, spec, y0, eps, cfg, samples):
    """integrate_batch of the rows ``eps``, with the (t, h, err) of each
    attempt and the time of each evaluation of the batch's margins."""
    from prepspill import integrators
    attempts, margin_calls = [], []
    real_maker, real_factory = integrators._dp_step_maker, integrators.batched_rhs_factory

    def maker(w=None):
        step = real_maker(w)

        def spy(f, t, y, h, k1, atol, rtol):
            out = step(f, t, y, h, k1, atol, rtol)
            attempts.append((t, h, out[2]))
            return out
        return spy

    def factory(spec, eps):
        f = real_factory(spec, eps)
        names, *margins = f.switches

        def counted(margins):
            def spy(t, y):
                margin_calls.append(t)
                return margins(t, y)
            return spy
        f.switches = (names, *map(counted, margins))
        return f

    monkeypatch.setattr(integrators, "_dp_step_maker", maker)
    monkeypatch.setattr(integrators, "batched_rhs_factory", factory)
    return integrate_batch(spec, y0, eps, cfg, samples), attempts, margin_calls


def test_batch_evaluates_its_margins_on_failed_attempts_alone(risk, monkeypatch):
    # Sobol's free batch over the risk kink: every margin evaluation lies on
    # a failed attempt (its ends, or its interpolant's root search), and a
    # window that no attempt fails evaluates none
    spec, y0 = risk
    eps = spec.param_arrays()[3] * np.array([[0.5], [1.0], [3.0]])
    cfg = IntegratorConfig(2017.0, 2031.0, year_nodes=False, first_step=1.0)
    samples = [float(y) for y in range(2018, 2031)]
    _, attempts, calls = _spied_batch(monkeypatch, spec, y0, eps, cfg, samples)
    failed = [(t, t + h) for t, h, err in attempts if err > 1.0]
    assert failed and calls
    assert all(any(t0 <= t <= t1 for t0, t1 in failed) for t in calls)
    _, attempts, calls = _spied_batch(monkeypatch, spec, y0, eps, cfg.over(2017.0, 2026.0),
                                      samples[:8])
    assert calls == [] and all(err <= 1.0 for _, _, err in attempts)


def test_clustered_batch_lands_on_its_first_and_last_switch(risk, monkeypatch):
    # three members whose xi_hetm clamps switch within 0.001 years of each
    # other: the failed attempt across them plans two landings, the earliest
    # member's switch (coverage x 3) and the latest (x 0.5), each where the
    # member's own batch of one lands, within 1e-6 years of its integrate()
    # landing; the attempt after them is the failed attempt's step, cut to
    # the next year
    spec, y0 = risk
    scales = (0.5, 1.0, 3.0)
    eps = [spec.param_arrays()[3] * s for s in scales]
    cfg = IntegratorConfig(2017.0, 2031.0, year_nodes=False, first_step=1.0)
    samples = [float(y) for y in range(2018, 2031)]
    traj, attempts, _ = _spied_batch(monkeypatch, spec, y0, eps, cfg, samples)
    own = {s: integrate(spec.with_epsilon(dict(zip(spec.labels, e))), y0, cfg,
                        sample_times=samples).switch_events for s, e in zip(scales, eps)}
    assert [name for _, name in traj.switch_events] == ["lo - x", "lo - x"]
    (first, _), (last, _) = traj.switch_events
    assert abs(first - own[3.0][0][0]) <= 1e-6 and abs(last - own[0.5][0][0]) <= 1e-6
    for t, row in ((first, eps[2]), (last, eps[0])):
        assert integrate_batch(spec, y0, [row], cfg, samples).switch_events == [(t, "lo - x")]
    i = next(i for i, (_, _, err) in enumerate(attempts) if err > 1.0)
    (t, h, _), land1, land2, resume = attempts[i:i + 4]
    assert land1[0] == t and land1[0] + land1[1] == pytest.approx(first, abs=NODE_TOL)
    assert land2[0] == traj.times[traj.node(first)] and land2[0] + land2[1] == \
        pytest.approx(last, abs=NODE_TOL)
    assert resume[:2] == (traj.times[traj.node(last)], min(h, 2028.0 - resume[0]))
    assert traj.steps_rejected == 1


def test_batch_nan_member_underflows_as_its_scalar_run(basic):
    # a NaN population makes every error norm NaN, so each attempt is
    # rejected until the step underflows, in the batch as in the scalar run
    spec, y0 = basic
    spec = replace(spec, mixing=closed_mixing(spec, y0.N))
    S = y0.S.copy()
    S[0] = np.nan
    y0 = replace(y0, S=S)
    eps = spec.param_arrays()[3] * np.array([[1.0], [2.0]])
    cfg = IntegratorConfig(t0=2017.0, t_end=2018.0)
    with pytest.raises(StepSizeUnderflow) as batch:
        integrate_batch(spec, y0, eps, cfg)
    with pytest.raises(StepSizeUnderflow) as scalar:
        integrate(spec, y0, cfg)
    assert str(batch.value) == str(scalar.value)


def test_batch_stage_failure_forgets_its_landings(risk, monkeypatch):
    # the first landing attempt after the failed 2027 step (2027 to about
    # 2027.2759) leaves the domain at its second stage (t = 2027 + 0.2 h):
    # it is rejected, its landings are forgotten, and the shorter attempt
    # after it records no landing; the batch plans them afresh and lands on
    # the same two switches
    from prepspill import integrators
    spec, y0 = risk
    eps = [spec.param_arrays()[3] * s for s in (0.5, 3.0)]
    cfg = IntegratorConfig(2017.0, 2031.0, year_nodes=False, first_step=1.0)
    samples = [float(y) for y in range(2018, 2031)]
    plain = integrate_batch(spec, y0, eps, cfg, samples)
    real, raised = integrators.batched_rhs_factory, []

    def factory(spec, eps):
        f = real(spec, eps)

        def g(t, y):
            if 2027.05 < t < 2027.06 and not raised:
                raised.append(t)
                raise ZeroPopulation(f"past the edge at t = {t}").for_member(0)
            return f(t, y)
        g.switches = f.switches
        return g

    monkeypatch.setattr(integrators, "batched_rhs_factory", factory)
    traj = integrate_batch(spec, y0, eps, cfg, samples)
    assert raised and traj.steps_rejected > plain.steps_rejected == 1
    assert [name for _, name in traj.switch_events] == ["lo - x", "lo - x"]
    assert all(2027.27 < t < 2027.28 for t, _ in traj.switch_events)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_step_budget_counts_every_attempt_of_a_run_or_a_batch(basic, risk, variant,
                                                              monkeypatch):
    # a run makes at most MAX_ATTEMPTS attempts: a budget of exactly its
    # count passes, one less is refused before the attempt over it, naming
    # t and dt.  A free batch counts its shared attempts, its rejection and
    # its switch landings included, once each
    from prepspill import integrators
    spec, y0 = basic if variant == "basic" else risk
    cfg = IntegratorConfig(2017.0, 2031.0)
    eps = spec.param_arrays()[3] * np.array([[0.5], [3.0]])
    free = replace(cfg, year_nodes=False, first_step=1.0)
    samples = [float(y) for y in range(2018, 2031)]
    for run in (lambda: integrate(spec, y0, cfg),
                lambda: integrate_batch(spec, y0, eps, free, samples)):
        attempts = (run().rhs_evals - 1) // 6
        monkeypatch.setattr(integrators, "MAX_ATTEMPTS", attempts)
        run()
        monkeypatch.setattr(integrators, "MAX_ATTEMPTS", attempts - 1)
        with pytest.raises(StepBudgetExceeded, match=(
                rf"^step budget spent: {attempts - 1} attempted steps reach "
                r"t = 20[23]\d\.\d{6} of 2031\.0, dt = \d\.\d{3}e[+-]\d\d$")):
            run()
        monkeypatch.undo()


def test_batch_needs_a_member(basic):
    cfg = IntegratorConfig(t0=2017.0, t_end=2018.0)
    with pytest.raises(ValueError, match="at least one member"):
        integrate_batch(*basic, np.empty((0, 3)), cfg)


@pytest.mark.parametrize("eps", [[[0.1]], [[0.1, 0.2, 0.3, 0.4]], [[2.0]], [[[0.1, 0.2, 0.3]]]],
                         ids=["one", "four", "one-out-of-range", "three-d"])
def test_batch_refuses_coverage_rows_of_another_width(basic, eps):
    # a (B, n) eps only: a row of one entry is not broadcast to every group,
    # and the shape is checked before the range
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2017.0, t_end=2018.0)
    shape = np.shape(eps)
    with pytest.raises(ValueError) as batch:
        integrate_batch(spec, y0, eps, cfg)
    assert str(batch.value) == (f"eps of shape {shape} is not (B, 3): each row needs one "
                                "coverage fraction per group")


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
def test_batch_refuses_coverage_outside_unit_interval_as_scalar(basic, bad):
    # a batch refuses the coverage that a scalar run's spec copy
    # (with_epsilon) refuses, naming the first offending entry in row order
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2017.0, t_end=2018.0)
    with pytest.raises(ValueError):
        spec.with_epsilon({"msm": bad})
    for eps in ([[bad, 0.0, 0.0]], [[0.1, 0.2, 0.3], [0.0, 1.0, bad], [2.0, 0.0, 0.0]]):
        with pytest.raises(ValueError) as batch:
            integrate_batch(spec, y0, eps, cfg)
        assert str(batch.value) == f"epsilon = {bad} outside [0, 1]"


def test_step_size_underflow():
    cfg = IntegratorConfig(t0=0.0, t_end=1.0, rtol=1e-12, atol=1e-14,
                           dt_min=0.5)
    with pytest.raises(StepSizeUnderflow):
        integrate_flat(lambda t, y: [math.cos(40.0 * t) * y[0]], [1.0], cfg,
                       n_state=1)


def test_a_stage_outside_the_domain_rejects_the_attempt(risk):
    # Georgia risk with every contact rate a_j x 1,000: the first attempts'
    # stages leave the RHS's domain (msm N = -1.1e8 at t = 2017.889), so
    # they are rejected and shorter steps run to the end.  The year rows lie
    # within 4.5e-14 of column scale of the run that starts at 1e-4
    # (measured 4.48e-14; bound 1e-13).
    spec, y0 = risk
    spec = replace(spec, groups=tuple((label, replace(g, a=1000.0 * g.a))
                                      for label, g in spec.groups))
    cfg = IntegratorConfig(2017.0, 2031.0)
    run, small = (integrate(spec, y0, c) for c in (cfg, replace(cfg, first_step=1e-4)))
    assert run.steps_rejected > 0
    years = [float(y) for y in range(2017, 2032)]
    rows, want = (traj.states[[traj.node(t) for t in years]] for traj in (run, small))
    assert np.all(np.abs(rows - want).max(axis=0) <= 1e-13 * np.abs(want).max(axis=0))


@pytest.mark.parametrize("form", ["risk", "basic-tracked", "risk-batch"])
def test_a_free_run_with_switches_rejects_a_first_attempt_outside_the_domain(form):
    # msm delta = 3, first step 1 year: the first attempt's stages leave the
    # RHS's domain, in a free run that lands on switches (risk's closure
    # margins, or basic's tracked msm count).  The attempt is rejected, as
    # on a run without switches; it once raised UnboundLocalError.
    # The year rows lie within 1e-10 of column scale of the run that starts
    # at 1e-4, and its landings within 1e-9 years (measured 2.7e-11 and
    # 2.0e-12 at most)
    model = form.split("-")[0]
    config = scenarios._config_from_raw(
        {"model": model, "overrides": {"groups": {"msm": {"delta": 3.0}}}})
    spec, y0 = config.spec, config.y0
    cfg = IntegratorConfig(2017.0, 2031.0, year_nodes=False, first_step=1.0)
    samples = [float(y) for y in range(2018, 2031)]
    if form == "risk-batch":
        eps = [spec.param_arrays()[3] * s for s in (0.5, 3.0)]
        run, small = (integrate_batch(spec, y0, eps, c, samples)
                      for c in (cfg, replace(cfg, first_step=1e-4)))
    else:
        counts = [1000.0, 0.0, 0.0] if form == "basic-tracked" else None
        run, small = (integrate(spec, y0, c, samples, counts)
                      for c in (cfg, replace(cfg, first_step=1e-4)))
    assert run.steps_rejected > small.steps_rejected
    landings = {"risk": 1, "basic-tracked": 0, "risk-batch": 2}[form]
    assert len(run.switch_events) == len(small.switch_events) == landings
    for (t, name), (want, want_name) in zip(run.switch_events, small.switch_events):
        assert name == want_name and abs(t - want) <= 1e-9
    years = [2017.0] + samples + [2031.0]
    rows, want = (traj.states[[traj.node(t) for t in years]] for traj in (run, small))
    assert np.all(np.abs(rows - want).max(axis=0) <= 1e-10 * np.abs(want).max(axis=0))


def test_a_genuine_crossing_fails_where_a_tight_run_fails(risk):
    # Georgia risk to 2045: the closure has no solution from the crossing
    # on.  Stages past it are rejected attempts, so the run stops with the
    # closure's error at the crossing, which prints eta_msm as 1 plus its
    # excess; its time is within 4.2e-7 years of a tight run's (measured
    # 2042.7471988715 against 2042.7471984562)
    spec, y0 = risk
    cfg = IntegratorConfig(2017.0, 2045.0)
    errors = []
    for c in (cfg, replace(cfg, rtol=1e-12, atol=1e-10, dt_max=0.05)):
        with pytest.raises(InfeasibleClosure, match=r"^closure gives eta_msm = 1 \+ ") as e:
            integrate(spec, y0, c)
        errors.append(e.value)
    assert str(errors[0]).endswith(" at t = 2042.747199")
    assert abs(errors[0].t - errors[1].t) <= 4.2e-7


def test_a_stage_error_is_raised_below_dt_min_in_a_run_and_a_batch():
    # a scalar run and a batch alike reject the attempts whose stages pass
    # t = 0.5 until the next step would fall below dt_min, then raise the
    # stage's own error (a batch once raised at its first such stage, at
    # t = 0.8)
    calls = []

    def edge(t, y):
        calls.append(t)
        if t > 0.5:
            raise ZeroPopulation(f"past the edge at t = {t}")
        return [-v for v in y] if isinstance(y, list) else -y
    cfg = IntegratorConfig(0.0, 1.0, dt_min=1e-3)
    for y0 in ([1.0], np.ones((1, 2))):
        calls.clear()
        with pytest.raises(ZeroPopulation, match="^past the edge"):
            integrate_flat(edge, y0, cfg, n_state=1)
        assert 0.5 - 5e-3 < max(t for t in calls if t <= 0.5)


@pytest.mark.parametrize("raw", [
    {"model": "basic", "overrides": {"mu": 2.0}},
    {"model": "risk", "overrides": {"groups": {"msm": {"delta": 100.0}}}}],
    ids=["basic-mu-2", "risk-msm-delta-100"])
def test_a_batch_of_one_is_its_scalar_run_failing_stages_included(raw):
    # stages of the first whole-year attempts leave the RHS's domain (basic
    # mu = 2: msm N = -96448.8 at t = 2017.8), where a batch once raised;
    # the batch rejects them as the scalar run does and steps as it does,
    # bit for bit (measured: 715 and 3,325 RHS, 2 and 37 rejections)
    config = scenarios._config_from_raw(raw)
    spec, y0, cfg = config.spec, config.y0, config.integrator
    batch = integrate_batch(spec, y0, [spec.param_arrays()[3]], cfg)
    one = integrate(spec, y0, cfg)
    assert one.steps_rejected > 0
    assert np.array_equal(batch.times, one.times)
    assert np.array_equal(batch.states[:, :, 0], one.states)
    assert (batch.rhs_evals, batch.steps_rejected) == (one.rhs_evals, one.steps_rejected)


def test_a_failing_batch_names_the_member_that_crosses_first(risk):
    # Georgia risk to 2045 with hetf_h and hetf_l coverage 0, 0.02, 0.05,
    # 0.1 and 0.2: the scalar runs cross the closure's domain from 2042.7432
    # (coverage 0) to 2042.9082 (0.2).  In either member order the batch
    # names the member that crosses first, within 1e-6 years of its own
    # crossing (measured 3.3e-7).  It once raised at the stage time 2042.8,
    # naming the lowest member failing there: member 2 (0.05) in one order.
    spec, y0 = risk
    cfg = IntegratorConfig(2017.0, 2045.0)
    rows = []
    for cov in (0.0, 0.02, 0.05, 0.1, 0.2):
        eps = spec.param_arrays()[3].copy()
        eps[[spec.group_index("hetf_h"), spec.group_index("hetf_l")]] = cov
        rows.append(eps)
    crossings = []
    for eps in rows:
        with pytest.raises(InfeasibleClosure) as own:
            integrate(spec.with_epsilon(dict(zip(spec.labels, eps))), y0, cfg)
        crossings.append(own.value.t)
    assert crossings == sorted(crossings)  # the coverage-0 member crosses first
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0]):
        with pytest.raises(InfeasibleClosure) as e:
            integrate_batch(spec, y0, [rows[i] for i in order], cfg)
        assert order[e.value.member] == 0
        assert abs(e.value.t - crossings[0]) <= 1e-6


@pytest.mark.parametrize("settings", [
    {"t0": math.nan}, {"t_end": math.inf}, {"dt_max": math.inf}, {"rtol": math.nan},
    {"atol": math.inf}, {"dt_min": math.nan}, {"dt_max": math.nan}, {"dt_min": 0.0},
    {"dt_min": 2.0, "dt_max": 1.0}, {"first_step": 0.0}, {"first_step": -1.0},
    {"first_step": math.nan}, {"first_step": math.inf}])
def test_config_rejects_nonfinite_and_inconsistent_steps(settings):
    # checked by construction only: a NaN rtol with a NaN dt_min never ends a
    # run, dt_min > dt_max read as underflow, a first_step of 0.0 read as
    # unset, and a negative or NaN one crawled at dt_min
    with pytest.raises(ValueError):
        IntegratorConfig(**{"t0": 0.0, "t_end": 1.0, **settings})


@pytest.mark.parametrize("t0, samples, first", [
    (2017.0, [2020.0], 2018.0), (2017.5, None, 2018.0), (2017.0, [2017.25], 2017.25)])
def test_year_landing_runs_try_their_first_node_whole(basic, risk, t0, samples, first):
    # the first trial step is the distance to the first node, accepted at
    # once on the presets: no node between t0 and it
    cfg = IntegratorConfig(t0=t0, t_end=2031.0)
    for spec, y0 in (basic, risk):
        assert integrate(spec, y0, cfg, sample_times=samples).times[1] == first
        # integrate_flat picks the start itself, for callers that go to it directly
        ts = integrate_flat(flat_rhs_factory(spec), y0.to_flat(), cfg, 2 * spec.n,
                            sample_times=samples)[0]
        assert ts[1] == first
        if samples is None:
            eps = spec.param_arrays()[3]
            assert integrate_batch(spec, y0, [eps, 2.0 * eps], cfg).times[1] == first
    # a first_step given is the first trial step
    assert integrate(*basic, replace(cfg, first_step=0.01)).times[1] == t0 + 0.01


def test_breakpoints_are_built_once_per_run(basic, monkeypatch):
    # the first step is read from the run's own breakpoints, not from a
    # second build of them
    from prepspill import integrators
    built = []

    def counting(cfg, sample_times):
        built.append(cfg)
        return real(cfg, sample_times)
    real = integrators._breakpoints
    monkeypatch.setattr(integrators, "_breakpoints", counting)
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2017.0, t_end=2021.0)
    eps = spec.param_arrays()[3]
    for run in (lambda: integrate(spec, y0, cfg, sample_times=[2019.5]),
                lambda: integrate(spec, y0, replace(cfg, year_nodes=False)),
                lambda: integrate_batch(spec, y0, [eps, 2.0 * eps], cfg)):
        built.clear()
        run()
        assert len(built) == 1


def test_a_run_builds_its_rhs_cells_once(basic, risk, monkeypatch):
    # the switching margins come with the RHS (f.switches), from the same
    # cells: a free run calls make, which reads the spec's cells, once, as a
    # year-landing one does
    from prepspill import model
    built = []

    def counting(*form):
        def make(spec, counts, start):
            built.append(spec)
            return real_make(spec, counts, start)
        real_make = real(*form)
        return make
    real = model._flat_rhs_maker
    monkeypatch.setattr(model, "_flat_rhs_maker", counting)
    cfg = IntegratorConfig(t0=2017.0, t_end=2021.0)
    free = replace(cfg, year_nodes=False)
    for (spec, y0), run_cfg, counts in ((risk, free, None),
                                        (basic, free, [50000.0, 0.0, 0.0]),
                                        (risk, cfg, None)):
        built.clear()
        integrate(spec, y0, run_cfg, tracked_counts=counts)
        assert len(built) == 1


def test_free_and_spillover_runs_start_at_a_hundredth(basic, monkeypatch):
    # scenario arms start with the baseline's step at their start node;
    # probe spans and the spillover system keep the 1e-2 start
    from prepspill import reproduction, scenarios
    runs, spans = [], []

    def spy(spec, y0, cfg, *args, _real=scenarios.integrate, **kwargs):
        traj = _real(spec, y0, cfg, *args, **kwargs)
        runs.append((cfg, traj))
        return traj

    def span_spy(*args, _real=reproduction.integrate_rhs, **kwargs):
        run = _real(*args, **kwargs)
        spans.append(run[0])  # its times
        return run
    monkeypatch.setattr(scenarios, "integrate", spy)
    monkeypatch.setattr(reproduction, "integrate_rhs", span_spy)
    scenarios.run_scenarios(scenarios.default_config("basic"))
    base = runs[0][1]
    arms = [(cfg, traj) for cfg, traj in runs if not cfg.year_nodes]
    assert len(arms) == 9 and len(runs) == 10
    assert base.times[1] == 2018.0  # the baseline lands on its first year
    i = base.node(2020.0)
    for cfg, traj in arms:
        assert cfg.first_step == base.times[i] - base.times[i - 1]
        assert traj.times[1] == traj.times[0] + cfg.first_step
    reproduction.stability_probe(basic[0].with_delta_zero(), n_trials=1, seed=2)
    spec, y0 = basic
    joint = integrate_with_spillover(spec, y0, IntegratorConfig(t0=2020.0, t_end=2022.0))
    # the later spans start from the controller's carried step
    for times in (spans[0], joint.times):
        assert times[1] == times[0] + 0.01


def _kinked_run(monkeypatch, year_nodes):
    """Every Dormand-Prince attempt, (h, accepted), of a run over
    y' = 1000 |t - 0.3| on [0, 0.9], whose kink at t = 0.3 rejects steps."""
    from prepspill import integrators
    attempts = []

    def maker(w=None, _real=integrators._dp_step_maker):
        step = _real(w)

        def spy(f, t, y, h, k1, atol, rtol):
            out = step(f, t, y, h, k1, atol, rtol)
            attempts.append((h, out[2] <= 1.0))
            return out
        return spy

    monkeypatch.setattr(integrators, "_dp_step_maker", maker)
    cfg = IntegratorConfig(0.0, 0.9, rtol=1e-8, atol=1e-8, year_nodes=year_nodes)
    integrate_flat(lambda t, y: [1e3 * abs(t - 0.3)], [0.0], cfg, n_state=0)
    return attempts


def test_free_run_holds_its_step_after_a_rejection(monkeypatch):
    # after a rejection the next accepted step does not grow the step, and a
    # second rejection in a row at least halves it
    attempts = _kinked_run(monkeypatch, year_nodes=False)
    held = halved = 0
    for (_, ok0), (h1, ok1), (h2, _) in zip(attempts, attempts[1:], attempts[2:]):
        if not ok0 and ok1:
            assert h2 <= h1
            held += 1
        elif not ok0 and not ok1:
            assert h2 <= 0.5 * h1
            halved += 1
    assert held >= 3 and halved >= 2


def test_year_landing_run_grows_right_after_a_rejection(monkeypatch):
    # year-landing runs keep the plain controller: up to 5x after any accepted step
    attempts = _kinked_run(monkeypatch, year_nodes=True)
    assert any(not ok0 and ok1 and h2 > h1 for (_, ok0), (h1, ok1), (h2, _)
               in zip(attempts, attempts[1:], attempts[2:]))


def test_year_landing_risk_runs_ignore_the_margins(risk, monkeypatch):
    # only free-stepping runs watch the switching margins: year-landing runs
    # (baselines, heads) step as they would without them, bit for bit, and
    # a free run without them steps into the xi_hetm switch
    from prepspill import integrators
    spec, y0 = risk
    cfg = IntegratorConfig(2017.0, 2031.0)
    runs = [(cfg, None), (cfg.over(2017.0, 2020.0), [0.0, 50000.0, 0.0, 0.0]),
            (replace(cfg, year_nodes=False), None)]

    def trajectories():
        return [integrate(spec, y0, c, tracked_counts=counts) for c, counts in runs]
    watched = trajectories()

    def without_margins(*args, **kwargs):
        f = flat_rhs_factory(*args, **kwargs)
        f.switches = None
        return f
    monkeypatch.setattr(integrators, "flat_rhs_factory", without_margins)
    for a, b in zip(watched[:2], trajectories()[:2]):
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
        assert a.switch_events == []
    free = trajectories()[2]
    assert len(watched[2].switch_events) == 1 and free.switch_events == []
    assert len(watched[2].times) != len(free.times)


def test_no_clamps_on_presets(baseline_basic, baseline_risk):
    assert baseline_basic.clamp_events == []
    assert baseline_risk.clamp_events == []


def test_trajectory_csv(baseline_basic, tmp_path):
    baseline_basic.to_csv(str(tmp_path / "trajectory.csv"))
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,S_msm,I_msm,S_hetf,I_hetf,S_hetm,I_hetm,C_msm,C_hetf,C_hetm"
    first = lines[1].split(",")
    assert float(first[0]) == 2017.0
    assert float(first[1]) == 123418.0
    assert len(lines) == len(baseline_basic.times) + 1


def test_trajectory_reads_rows_as_np_array_does(basic, monkeypatch):
    # Trajectory.of reads a scalar run's rows (lists of floats) by fromiter
    # and a batch's (arrays) by np.array: either way the states are
    # np.array(rows), in values, dtype, shape and C order.  Runs: flat,
    # tracked, spillover and a batch
    from prepspill import integrators, spillover
    runs = []

    def recording(flat):
        def recorded(*args, **kwargs):
            runs.append(flat(*args, **kwargs))
            return runs[-1]
        return recorded
    monkeypatch.setattr(integrators, "integrate_flat", recording(integrators.integrate_flat))
    monkeypatch.setattr(spillover, "integrate_flat", recording(spillover.integrate_flat))
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2017.0, t_end=2021.0)
    eps = spec.param_arrays()[3]
    trajs = [integrate(spec, y0, cfg),
             integrate(spec, y0, cfg, tracked_counts=[50000.0, 0.0, 0.0]),
             integrate_with_spillover(spec, y0, cfg),
             integrate_batch(spec, y0, [eps, 2.0 * eps], cfg)]
    assert len(runs) == len(trajs)
    for traj, run in zip(trajs, runs):
        want = np.array(run[1])
        assert isinstance(run[1][0], list) == (want.ndim == 2)  # scalar rows, else a batch
        assert traj.states.dtype == want.dtype == np.float64
        assert traj.states.shape == want.shape and traj.states.flags.c_contiguous
        assert traj.states.tobytes() == want.tobytes()
        assert traj.times.tobytes() == np.array(run[0]).tobytes()


def test_float_noise_samples_beside_year_nodes(basic):
    # np.arange(2020, 2031, 0.01) holds 2020.999999999999 beside the year
    # node 2021.0; the two must merge instead of forcing a 9e-13 step
    spec, y0 = basic
    cfg = IntegratorConfig(2020, 2031)
    samples = np.arange(2020, 2031, 0.01)
    traj = integrate(spec, y0, cfg, sample_times=samples)
    traj_s = integrate_with_spillover(spec, y0, cfg, sample_times=samples)
    for tr in (traj, traj_s):
        for t in samples:
            tr.node(t)  # ValueError unless t is a node
        assert annual_series(tr)[0] == list(range(2020, 2031))


@pytest.mark.parametrize("dt_max", [0.01, 0.1, 1 / 3])
def test_dp_lands_on_years_under_small_dt_max(basic, dt_max):
    # steps of dt_max sum to each year only up to a few ulps of 2018.0; the
    # landing rule must absorb that rather than leave a sub-dt_min step
    spec, y0 = basic
    traj = integrate(spec, y0, IntegratorConfig(2017, 2031, dt_max=dt_max))
    assert annual_series(traj)[0] == list(range(2017, 2031))
    assert np.diff(traj.times).max() <= dt_max + NODE_TOL


def test_no_year_nodes_keeps_samples(basic):
    spec, y0 = basic
    cfg = IntegratorConfig(2017.0, 2031.0, dt_max=4.0, year_nodes=False)
    samples = [2020.5, 2024.0]
    traj = integrate(spec, y0, cfg, sample_times=samples)
    for t in samples:
        traj.node(t)  # ValueError unless t is a node
    years = [t for t in traj.times if t.is_integer()]
    assert years == [2017.0, 2024.0, 2031.0]
    with_years = integrate(spec, y0, replace(cfg, year_nodes=True), sample_times=samples)
    assert len(traj.times) < len(with_years.times)
    assert traj.next_step > 0.0


def test_breakpoints_merge_keeps_ends_then_years():
    cfg = IntegratorConfig(2019.9999999999, 2022.0)
    pts = _breakpoints(cfg, [2021.0000000001, 2021.5, 2021.5, 2022.0 - 1e-12])
    assert pts == [2019.9999999999, 2021.0, 2021.5, 2022.0]
    # under a year the tolerance shrinks with the span
    short = IntegratorConfig(0.0, 1e-6)
    assert _breakpoints(short, [5e-7, 5e-7 + 1e-16, 5e-7 + 1e-14]) == \
        [0.0, 5e-7, 5e-7 + 1e-14, 1e-6]


def test_interp_rows_matches_per_column_interp():
    rng = np.random.default_rng(4)
    times = np.concatenate([[2017.0], np.sort(rng.uniform(2017, 2031, 40)), [2031.0]])
    rows = rng.normal(0.0, 1e4, (len(times), 9)) * rng.uniform(1e-3, 1e3, 9)
    for t in np.concatenate([rng.uniform(2016, 2032, 200), times]):
        want = np.array([np.interp(t, times, rows[:, c]) for c in range(9)])
        got = interp_rows(t, times, rows)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# Embedded 4th-order weights of Dormand-Prince 5(4) (Hairer, Norsett & Wanner,
# Solving ODEs I, Table II.5.2); the step's error is y5 minus this solution.
DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
         187 / 2100, 1 / 40)


def reference_dp_step(f, t, y, h, k1, atol, rtol):
    """The Dormand-Prince attempt as list comprehensions over the
    components, with the scaled RMS error norm as a generator expression:
    the oracle the generated step must match bit for bit."""
    k2 = f(t + 1 / 5 * h, [yi + h * (1 / 5 * s1) for yi, s1 in zip(y, k1)])
    k3 = f(t + 3 / 10 * h, [yi + h * (3 / 40 * s1 + 9 / 40 * s2)
                            for yi, s1, s2 in zip(y, k1, k2)])
    k4 = f(t + 4 / 5 * h, [yi + h * (44 / 45 * s1 - 56 / 15 * s2 + 32 / 9 * s3)
                           for yi, s1, s2, s3 in zip(y, k1, k2, k3)])
    k5 = f(t + 8 / 9 * h, [yi + h * (19372 / 6561 * s1 - 25360 / 2187 * s2
                                     + 64448 / 6561 * s3 - 212 / 729 * s4)
                           for yi, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4)])
    k6 = f(t + h, [yi + h * (9017 / 3168 * s1 - 355 / 33 * s2 + 46732 / 5247 * s3
                             + 49 / 176 * s4 - 5103 / 18656 * s5)
                   for yi, s1, s2, s3, s4, s5 in zip(y, k1, k2, k3, k4, k5)])
    y5 = [yi + h * (35 / 384 * s1 + 500 / 1113 * s3 + 125 / 192 * s4
                    - 2187 / 6784 * s5 + 11 / 84 * s6)
          for yi, s1, s3, s4, s5, s6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = f(t + h, y5)
    err = [h * (71 / 57600 * s1 - 71 / 16695 * s3 + 71 / 1920 * s4
                - 17253 / 339200 * s5 + 22 / 525 * s6 - 1 / 40 * s7)
           for s1, s3, s4, s5, s6, s7 in zip(k1, k3, k4, k5, k6, k7)]
    norm = math.sqrt(sum((q := e / (atol + rtol * max(abs(yi), abs(yn)))) * q
                         for e, yi, yn in zip(err, y, y5)) / len(y))
    return y5, k7, norm


@pytest.mark.parametrize("w", [1, 2, 9, 12, 27, 44])
def test_generated_dp_step_equals_reference_bit_for_bit(w):
    # a nonlinear, coupled RHS with mixed signs and magnitudes; every stage
    # argument, y5, k7 and the norm must carry the reference's exact bits
    rng = np.random.default_rng(1000 + w)
    step = _dp_step_maker(w)
    assert _dp_step_maker(w) is step
    for _ in range(25):
        A = rng.normal(0.0, 2.0, (w, w)) * rng.uniform(0.0, 1.0, (w, w)) ** 4
        A, c, p = A.tolist(), rng.normal(0.0, 1.0, w).tolist(), int(rng.integers(w))

        def f(t, y, log):
            log.append((t, [v.hex() for v in y]))
            return [sum(a * v for a, v in zip(row, y)) + ci * math.sin(t) * y[p]
                    for row, ci in zip(A, c)]
        y = (rng.normal(0.0, 1.0, w) * 10.0 ** rng.uniform(-8, 6, w)).tolist()
        t, h = float(rng.uniform(-5.0, 2031.0)), float(10.0 ** rng.uniform(-6, 0))
        atol, rtol = float(10.0 ** rng.uniform(-12, -4)), float(10.0 ** rng.uniform(-12, -2))
        k1 = f(t, y, [])
        got_log, want_log = [], []
        got = step(lambda t, y: f(t, y, got_log), t, y, h, k1, atol, rtol)
        want = reference_dp_step(lambda t, y: f(t, y, want_log), t, y, h, k1, atol, rtol)
        assert len(got_log) == 6 and got_log == want_log
        assert [v.hex() for v in got[0]] == [v.hex() for v in want[0]]
        assert [v.hex() for v in got[1]] == [v.hex() for v in want[1]]
        assert got[2].hex() == want[2].hex()


def test_batch_of_one_attempt_equals_scalar_attempt_bit_for_bit():
    # The array attempt on (w, 1) columns against the unrolled scalar one, on
    # a coupled linear RHS that both compute with the same float operations.
    # About one attempt in a thousand here squares an error term whose libm
    # pow (float ** 2) is one ulp off x * x, so the norms must both multiply.
    w, rng = 9, np.random.default_rng(0)
    scalar, batch = _dp_step_maker(w), _dp_step_maker()
    for _ in range(1000):
        a, c, p = rng.normal(0.0, 1.0, w), rng.normal(0.0, 1.0, w), rng.permutation(w)
        y = rng.uniform(0.0, 1.0, w) * 10.0 ** rng.uniform(-3, 3, w)
        h = float(10.0 ** rng.uniform(-4, 0))
        atol, rtol = (float(v) for v in 10.0 ** rng.uniform(-10, -4, 2))
        rows = list(zip(a.tolist(), c.tolist(), p.tolist()))

        def f_scalar(t, y):
            return [ai * y[i] + ci * y[pi] for i, (ai, ci, pi) in enumerate(rows)]

        def f_batch(t, y):
            return a[:, None] * y + c[:, None] * y[p]
        got = scalar(f_scalar, 0.0, y.tolist(), h, f_scalar(0.0, y.tolist()), atol, rtol)
        want = batch(f_batch, 0.0, y[:, None], h, f_batch(0.0, y[:, None]), atol, rtol)
        for g, v in zip(got[:2], want[:2]):
            assert [x.hex() for x in g] == [float(x).hex() for x in v[:, 0]]
        assert got[2].hex() == want[2].hex()


@pytest.mark.parametrize("z", [0.1, -0.5, -2.0])
def test_dp_step_linear_stability_function(z):
    # On y' = z y one step of size h = 1 multiplies y by the pair's stability
    # function R(z) = sum_{i<=5} z^i / i! + z^6 / 600.
    calls = []

    def f(t, y):
        calls.append((t, list(y)))
        return [z * v for v in y]

    y0, t, h, atol, rtol = [1.0, -3.0], 2.0, 1.0, 1e-9, 1e-6
    k1 = f(t, y0)
    y5, k7, err = _dp_step_maker(2)(f, t, y0, h, k1, atol, rtol)
    R = sum(z ** i / math.factorial(i) for i in range(6)) + z ** 6 / 600
    assert len(calls) == 7  # k1 plus six new stages, the last at y5
    assert [c[0] for c in calls] == [t + c * h for c in
                                     (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)]
    assert calls[-1][1] == y5 and k7 == [z * v for v in y5]
    ks = [[z * v for v in c[1]] for c in calls]
    # y5 - y4 to 1e-13 of |y5| in each component bounds the scaled RMS norm's
    # error by 1e-13 times the same norm of y5 (triangle inequality)
    scale = [atol + rtol * max(abs(v0), abs(v5)) for v0, v5 in zip(y0, y5)]
    diffs = []
    for i, v0 in enumerate(y0):
        assert abs(y5[i] - R * v0) <= 1e-13 * abs(R * v0)
        y4 = v0 + h * sum(b * k[i] for b, k in zip(DP_B4, ks))
        diffs.append(y5[i] - y4)

    def norm(v):
        return math.sqrt(sum((x / s) ** 2 for x, s in zip(v, scale)) / len(v))
    assert abs(err - norm(diffs)) <= 1e-13 * norm(y5)


def test_dp_rhs_count_with_rejections():
    # FSAL: one evaluation at t0, then six per attempted step, accepted or not
    calls = [0]

    def van_der_pol(t, y):
        calls[0] += 1
        return [y[1], 5.0 * (1.0 - y[0] ** 2) * y[1] - y[0]]

    cfg = IntegratorConfig(t0=0.0, t_end=30.0, rtol=1e-3, atol=1e-6)
    ts, ys, _, _, _, rhs_evals, rejected = integrate_flat(van_der_pol, [2.0, 0.0], cfg,
                                                         n_state=0)
    attempts, rem = divmod(calls[0] - 1, 6)
    accepted = len(ts) - 1
    assert rem == 0 and len(ys) == len(ts)
    assert attempts > accepted  # the run rejects steps
    assert all(t in ts for t in range(1, 31))
    # the run's own counts (no switch to land on, so no retry)
    assert (rhs_evals, rejected) == (calls[0], attempts - accepted)


# a lone surrogate (category Cs) is not text UTF-8 can encode; no cell the
# package writes holds one
CELLS = st.text(alphabet=st.sampled_from(',"\n\r ') | st.characters(exclude_categories=("Cs",)),
                max_size=6)


def _unquoted_cr(cell):
    # csv quotes a cell holding the delimiter, the quote or the "\n" terminator
    return "\r" in cell and not any(ch in cell for ch in ',"\n')


@settings(max_examples=200, deadline=None)
@given(header=st.lists(CELLS, min_size=1, max_size=4),
       rows=st.lists(st.lists(CELLS, max_size=4), max_size=5))
def test_write_csv_round_trips_any_cells(header, rows):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out.csv"
        bad = [(r, c) for r, row in enumerate([header] + rows)
               for c, cell in enumerate(row) if _unquoted_cr(cell)]
        if bad:  # a "\r" left unquoted would not read back: refused, nothing written
            r, c = bad[0]
            with pytest.raises(ValueError, match=f"^CSV row {r} column {c} holds "):
                write_csv(str(path), header, iter(rows))
            with pytest.raises(ValueError, match=f"^CSV row {r} column {c} holds "):
                csv_text(header, iter(rows))
            assert not path.exists()
            return
        text = csv_text(header, iter(rows))
        assert list(csv.reader(io.StringIO(text, newline=""))) == [header] + rows
        # rows end in "\n" alone: any "\r" is inside a quoted cell
        assert text.endswith("\n") and text.count("\r") == sum(
            cell.count("\r") for row in [header] + rows for cell in row)
        write_csv(str(path), header, rows)
        assert path.read_bytes() == text.encode("utf-8")


def test_a_shorter_rewrite_leaves_no_trailing_bytes_and_keeps_the_file(tmp_path):
    # the one writer overwrites in place, then truncates to the new length:
    # nothing of the longer text is left, and the file keeps its inode, its
    # hard links and its mode; write_csv and scenarios._write
    # go through it, and a new file gets the mode open(path, "w") gives
    path, link = tmp_path / "out.csv", tmp_path / "link.csv"
    write_text(path, "é,a longer row\r\n" * 50)
    os.link(path, link)
    path.chmod(0o640)
    before = path.stat()
    for write, want in ((lambda: write_text(path, "é\r\n"), "é\r\n"),
                        (lambda: write_csv(str(path), ["a"], [["b"]]), "a\nb\n"),
                        (lambda: scenarios._write(path, "{}"), "{}"),
                        (lambda: write_text(path, ""), "")):
        write()
        after = path.stat()
        assert path.read_bytes() == link.read_bytes() == want.encode("utf-8")
        assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
    write_text(tmp_path / "new.csv", "x")
    with open(tmp_path / "plain.csv", "w"):
        pass
    assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode


@pytest.mark.parametrize("run, error, match", [
    (lambda spec, y0: IntegratorConfig(t0=2017.0, t_end=2017.0),
     ValueError, "t_end must exceed t0"),
    (lambda spec, y0: integrate(spec, y0, IntegratorConfig(t0=2017.0, t_end=2018.0),
                                sample_times=[2018.5]),
     ValueError, r"^sample time 2018.5 outside \[2017.0, 2018.0\]$"),
    (lambda spec, y0: annual_series(integrate(
        spec, y0, IntegratorConfig(t0=2017.0, t_end=2017.0 + 5e-10))),
     PartialYear, "^span shorter than one year$"),
    # free steps over 2017-2020: 2017 is a node (t0), 2018 is the first year missing
    (lambda spec, y0: annual_series(integrate(
        spec, y0, IntegratorConfig(t0=2017.0, t_end=2020.0, year_nodes=False))),
     PartialYear, "^year boundary 2018 missing from trajectory grid$"),
], ids=["empty-window", "sample-outside", "under-a-year", "missing-boundary"])
def test_integrator_refusals(basic, run, error, match):
    with pytest.raises(error, match=match):
        run(*basic)


def _counted_runs(monkeypatch):
    """Every integrate_flat run made from here on, as (calls of its f, its
    attempts as [err, retried at a switch], its return value), seen by
    counting wrappers around f, the generated step and the switch watch's
    retry."""
    from prepspill import integrators, spillover
    runs, attempts = [], []
    make_step, retry, flat = (integrators._dp_step_maker, integrators._SwitchWatch.retry,
                              integrators.integrate_flat)

    def counting_step_maker(w=None):
        step = make_step(w)

        def counted(*args):
            out = step(*args)
            attempts.append([out[2], False])
            return out
        return counted

    def counting_retry(watch, *args):
        short = retry(watch, *args)
        attempts[-1][1] = short is not None
        return short

    def counting_flat(f, *args, **kwargs):
        calls, first = [0], len(attempts)

        def counted(t, y):
            calls[0] += 1
            return f(t, y)
        run = flat(counted, *args, **kwargs)
        runs.append((calls[0], attempts[first:], run))
        return run

    monkeypatch.setattr(integrators, "_dp_step_maker", counting_step_maker)
    monkeypatch.setattr(integrators._SwitchWatch, "retry", counting_retry)
    monkeypatch.setattr(integrators, "integrate_flat", counting_flat)
    monkeypatch.setattr(spillover, "integrate_flat", counting_flat)
    return runs


def test_runs_count_their_own_work(basic, risk, monkeypatch):
    # The RHS evaluations and rejected steps a run returns are what counting
    # wrappers see: 1 + 6 evaluations per attempt, and the attempts the
    # error norm refused.  An attempt retried at a switch is neither
    # accepted nor rejected.  Runs: the year-landing risk baseline and arms
    # landing on xi_hetm, the basic arm capped at full coverage (S_msm -
    # c_msm), a free-stepping 2-member risk batch and the year-landing risk
    # spillover system.
    from prepspill.scenarios import _config_from_raw, default_config, run_scenarios
    runs = _counted_runs(monkeypatch)
    report = run_scenarios(default_config("risk"))
    base = report.baseline_traj
    assert (base.rhs_evals, base.steps_rejected) == runs[0][2][5:]
    capped = run_scenarios(_config_from_raw({
        "model": "basic", "intervention_mode": "tracked-count",
        "interventions": [{"group": "msm", "additional_persons": 120000,
                           "start_year": 2020}]}))
    spec, y0 = risk
    eps = spec.param_arrays()[3]
    cfg = IntegratorConfig(2017.0, 2031.0, year_nodes=False, first_step=1.0)
    batch = integrate_batch(spec, y0, [eps, 2.0 * eps], cfg,
                            sample_times=[float(y) for y in range(2018, 2031)])
    spill = integrate_with_spillover(spec, base.state_at(2020.0),
                                     IntegratorConfig(2020.0, 2031.0))
    for traj, (_, _, run) in ((batch, runs[-2]), (spill, runs[-1])):
        assert (traj.rhs_evals, traj.steps_rejected) == run[5:]
    retries = []
    for calls, attempts, (ts, _, _, _, _, evals, rejected) in runs:
        retries.append(sum(r for _, r in attempts))
        assert evals == calls == 1 + 6 * len(attempts)
        assert rejected == sum(err > 1.0 and not r for err, r in attempts)
        assert len(ts) - 1 + rejected + retries[-1] == len(attempts)
    # 13 risk runs, the basic baseline and its one arm, the batch, the system
    assert len(runs) == 17 and len(capped.scenarios) == 1
    switches = [[name for _, name in run[4]] for _, _, run in runs]
    assert switches[0] == [] and base.steps_rejected > 0
    assert all(s == ["lo - x"] and r > 0 for s, r in zip(switches[1:13], retries[1:13]))
    assert switches[14] == ["S_msm - c_msm"] and retries[14] > 0
    assert batch.steps_rejected > 0 and spill.steps_rejected > 0
    assert switches[15] == ["lo - x", "lo - x"] and retries[15] == 0  # a batch never retries
