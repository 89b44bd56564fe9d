import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_spec, stationary_risk
from prepspill import model, reproduction
from prepspill.errors import InfeasibleClosure
from prepspill.integrators import IntegratorConfig, integrate, integrate_rhs
from prepspill.model import StateVec, TransmissionProbs, contact_matrix, dfe, flat_rhs_factory
from prepspill.presets import georgia_basic, georgia_risk
from prepspill.reproduction import (NGMatrices, _checked_closed_form,
                                    _random_feasible_states, build_ngm, rc_closed, rc_closed_basic,
                                    rc_closed_risk, rc_numeric,
                                    scale_transmission, stability_probe,
                                    tune_multiplier_to_rc, _TUNE_TOL)


def test_ngm_full_prep_zero(basic):
    spec, _ = basic
    spec1 = spec.with_epsilon({l: 1.0 for l in spec.labels})
    assert np.all(build_ngm(spec1).F == 0.0)


def test_ngm_structure_only_msm(basic):
    spec, _ = basic
    from dataclasses import replace
    spec1 = replace(spec, probs=TransmissionProbs(beta_mm=0.0008, beta_fm=0.0,
                                                  beta_mf=0.0))
    F = build_ngm(spec1).F
    nz = np.argwhere(F != 0.0)
    assert nz.tolist() == [[0, 0]]


def test_ngm_georgia_f11_hand_value(basic):
    spec, _ = basic
    ngm = build_ngm(spec)
    # hand oracle: closure by elimination at DFE populations Pi/mu
    Pi, a, _, _ = spec.param_arrays()
    N = Pi / spec.mu
    B = N * a
    alpha = 1.0 - B[2] / B[1]
    eta = 1.0 - alpha * B[1] / B[0]
    expected = 94.7 * (1.0 - 0.089) * eta * 0.0008
    assert ngm.F[0, 0] == pytest.approx(expected, rel=1e-12)


def test_rc_numeric_trivial_cases():
    F = np.zeros((3, 3))
    V = np.diag([0.025, 0.03, 0.04])
    labels = ("msm", "hetf", "hetm")
    zero = NGMatrices(F=F, V=V, labels=labels, dfe_populations=np.ones(3))
    assert rc_numeric(zero).value == 0.0
    ident = NGMatrices(F=V.copy(), V=V, labels=labels, dfe_populations=np.ones(3))
    assert rc_numeric(ident).value == pytest.approx(1.0, rel=1e-12)
    one = NGMatrices(F=np.diag([0.06, 0.0, 0.0]), V=np.diag([0.025, 0.03, 0.04]),
                     labels=labels, dfe_populations=np.ones(3))
    assert rc_numeric(one).value == pytest.approx(2.4, rel=1e-12)


def test_closed_basic_decoupled(basic):
    spec, _ = basic
    from dataclasses import replace
    spec1 = replace(spec, probs=TransmissionProbs(beta_mm=0.0008, beta_fm=0.0,
                                                  beta_mf=0.0))
    ngm = build_ngm(spec1)
    r = rc_closed_basic(ngm)
    assert r.method == "closed_form"
    assert r.value == pytest.approx(ngm.F[0, 0] / ngm.K[0], rel=1e-12)


def test_closed_basic_georgia(basic):
    spec, _ = basic
    ngm = build_ngm(spec)
    closed = rc_closed_basic(ngm)
    numeric = rc_numeric(ngm)
    assert closed.method == "closed_form"
    assert abs(closed.value - numeric.value) < 1e-9 * numeric.value
    assert closed.value > 1.0  # endemic parameterisation


def test_closed_basic_randomized():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng, "basic")
        ngm = build_ngm(spec)
        closed = rc_closed_basic(ngm)
        numeric = rc_numeric(ngm).value
        if numeric > 1e-12:
            worst = max(worst, abs(closed.value - numeric) / numeric)
    assert worst < 1e-8


def test_closed_form_mismatch_falls_back_to_numeric(basic):
    ngm = build_ngm(basic[0])
    numeric = rc_numeric(ngm).value
    comps = {"G1": 1.0}
    r = _checked_closed_form(ngm, numeric * 1.01, comps)
    assert (r.method, r.value, r.components) == ("numeric", numeric, comps)
    assert r.diagnostic.startswith(f"ClosedFormMismatch: closed = {numeric * 1.01!r}")


@pytest.mark.parametrize("spec", [georgia_basic()[0], stationary_risk()[0]],
                         ids=["basic", "stationary_risk"])
def test_zero_betas_give_zero_rc_by_both_routes(spec):
    # basic takes the |G1| < 1e-300 branch of its closed form
    ngm = build_ngm(replace(spec, probs=TransmissionProbs(0.0, 0.0, 0.0)))
    closed, numeric = rc_closed(ngm), rc_numeric(ngm)
    assert closed.value == numeric.value == 0.0
    assert closed.method == "closed_form" and closed.diagnostic is None
    if spec.variant == "basic":
        assert abs(closed.components["G1"]) < 1e-300


def test_closed_risk_trivial_and_decoupled():
    labels = ("msm", "hetf_h", "hetf_l", "hetm")
    V = np.diag([0.025, 0.04, 0.03, 0.04])
    zero = NGMatrices(F=np.zeros((4, 4)), V=V, labels=labels,
                      dfe_populations=np.ones(4))
    assert rc_closed_risk(zero).value == pytest.approx(0.0, abs=1e-12)
    F = np.zeros((4, 4))
    F[0, 0] = 0.06
    one = NGMatrices(F=F, V=V, labels=labels, dfe_populations=np.ones(4))
    r = rc_closed_risk(one)
    assert r.value == pytest.approx(2.4, rel=1e-10)


def test_closed_risk_georgia():
    spec, _ = stationary_risk()
    ngm = build_ngm(spec)
    closed = rc_closed_risk(ngm)
    numeric = rc_numeric(ngm)
    assert closed.method == "closed_form"
    assert abs(closed.value - numeric.value) < 1e-8 * numeric.value
    for key in ("H8", "H9", "H10", "H11", "H12", "H13",
                "R_cr1", "R_cr2", "R_cr3", "R_cr4"):
        assert key in closed.components


def test_closed_risk_randomized():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng, "risk")
        ngm = build_ngm(spec)
        closed = rc_closed_risk(ngm)
        numeric = rc_numeric(ngm).value
        if numeric > 1e-12:
            worst = max(worst, abs(closed.value - numeric) / numeric)
    assert worst < 1e-8


def test_rc_monotone_in_epsilon():
    rng = np.random.default_rng(23)
    for _ in range(100):
        variant = "basic" if rng.uniform() < 0.5 else "risk"
        spec = random_spec(rng, variant)
        base = rc_numeric(build_ngm(spec)).value
        for lbl in spec.labels:
            eps = spec.groups[spec.group_index(lbl)][1].epsilon
            bumped = spec.with_epsilon({lbl: min(eps + 0.05, 1.0)})
            up = rc_numeric(build_ngm(bumped)).value
            assert up <= base + 1e-12


def test_g_msm_decreases_with_delta(basic):
    spec, _ = basic
    from dataclasses import replace
    ngm = build_ngm(spec)
    g0 = ngm.F[0, 0] / ngm.K[0]
    groups = list(spec.groups)
    gid, p = groups[0]
    groups[0] = (gid, replace(p, delta=p.delta + 0.01))
    spec2 = replace(spec, groups=tuple(groups))
    ngm2 = build_ngm(spec2)
    g1 = ngm2.F[0, 0] / ngm2.K[0]
    assert g1 < g0


def test_probe_full_prep_decays(basic):
    spec, _ = basic
    spec0 = spec.with_delta_zero().with_epsilon({l: 1.0 for l in spec.labels})
    report = stability_probe(spec0, n_trials=5, seed=1)
    assert report.rc_hat == 0.0
    assert report.regime == "decay"
    assert report.confirmed and report.conclusive


def test_probe_georgia_grows(basic):
    spec, _ = basic
    report = stability_probe(spec.with_delta_zero(), n_trials=1, seed=2)
    assert report.rc_hat > 1.0
    assert report.regime == "growth"
    assert report.confirmed


@pytest.mark.parametrize("n_trials", [0, -1])
def test_probe_needs_a_trial(basic, n_trials):
    # zero trials would confirm decay with nothing run; growth ignores the
    # count but is refused the same way
    spec, _ = basic
    decay = spec.with_delta_zero().with_epsilon({l: 1.0 for l in spec.labels})
    for spec0 in (decay, spec.with_delta_zero()):
        with pytest.raises(ValueError, match=f"n_trials = {n_trials} must be at least 1"):
            stability_probe(spec0, n_trials=n_trials)


def test_probe_tuned_to_decay(basic):
    spec, _ = basic
    spec0 = spec.with_delta_zero()
    m = tune_multiplier_to_rc(spec0, 0.9)
    tuned = scale_transmission(spec0, m)
    assert rc_numeric(build_ngm(tuned)).value == pytest.approx(0.9, abs=1e-8)
    report = stability_probe(tuned, n_trials=8, seed=3)
    assert report.regime == "decay"
    assert report.confirmed and report.conclusive
    assert report.max_terminal_ratio < 1e-3


# The DFE threshold (van den Driessche & Watmough 2002, Theorem 2): the flat
# RHS's Jacobian at the DFE has a positive spectral abscissa exactly when
# R_c > 1.  It is taken by central differences with a step of _FD_STEP of
# each group's DFE population.  Each entry then carries truncation of order
# _FD_STEP**2 and roundoff of order eps / _FD_STEP of its row's scale;
# _FD_TOL bounds both with a factor 1000 to spare.  Entries of F off by
# _FD_TOL of their row's scale move rho(F V^-1) by about n * _FD_TOL, so a
# draw that close to R_c = 1 is not decided by the sign.
_FD_STEP = 1e-6
_FD_TOL = 1e3 * np.finfo(float).eps / _FD_STEP


def _dfe_jacobian(spec):
    """Central-difference Jacobian of the flat RHS at dfe(spec), on the 2n
    S/I slots (the C accumulators read nothing and add zero eigenvalues)."""
    f, y = flat_rhs_factory(spec), dfe(spec).to_flat()
    m = 2 * spec.n
    J = np.empty((m, m))
    for c in range(m):
        h = _FD_STEP * y[c - c % 2]  # S_j's DFE value, for S_j and I_j
        up, down = y.copy(), y.copy()
        up[c] += h
        down[c] -= h
        J[:, c] = (np.array(f(0.0, up.tolist())[:m]) - f(0.0, down.tolist())[:m]) / (2 * h)
    return J


def _threshold_cases(variant):
    """200 random_spec draws, then the preset (stationary for risk, whose
    literal DFE does not close) tuned to R_c 0.99 and 1.01."""
    rng = np.random.default_rng(11 if variant == "basic" else 12)
    yield from (random_spec(rng, variant) for _ in range(200))
    spec = {"basic": georgia_basic, "risk": stationary_risk}[variant]()[0]
    for target in (0.99, 1.01):
        yield scale_transmission(spec, tune_multiplier_to_rc(spec, target))


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_dfe_threshold_matches_rc_property(variant):
    # the RHS and the NGM share no formula: the Jacobian's I block must be
    # F - V, block-triangular beside the S block, and its abscissa must have
    # the sign of R_c - 1 by the numeric and by the closed form
    signs = []
    for spec in _threshold_cases(variant):
        J = _dfe_jacobian(spec)
        ngm = build_ngm(spec)
        assert np.all(J[1::2, 0::2] == 0.0)  # infections stay zero with S moved
        FV = ngm.F - ngm.V
        assert np.all(np.abs(J[1::2, 1::2] - FV)
                      <= _FD_TOL * np.abs(FV).max(axis=1, keepdims=True))
        abscissa = float(np.max(np.linalg.eigvals(J).real))
        R = rc_numeric(ngm).value
        assert abs(R - 1.0) > spec.n * _FD_TOL, R  # no draw is left undecided
        want = np.sign(R - 1.0)
        assert np.sign(abscissa) == want == np.sign(rc_closed(ngm).value - 1.0), (R, abscissa)
        signs.append(want)
    assert signs[-2:] == [-1.0, 1.0]


# The same threshold read from the RHS the integrator runs, with no step to
# pick: complex step (Squire & Trapp 1998, SIAM Rev 40:110).  The
# infected-only form of the delta = 0 spec reads N(t) alone, so its closure
# stays real; at I = i h e_p the imaginary parts of its rows over h are
# column p of J = dI'/dI = F - mu, exact to roundoff for h this small.  The
# bounds, shares of F's largest entry, are ROADMAP item 23's figures over
# 300 draws per variant.
_CS_STEP = 1e-30
_CS_TOL = {"basic": 1.2e-15, "risk": 2.5e-15}


def _complex_step_jacobian(spec):
    """J = dI'/dI at dfe(spec) of the delta = 0 infected-only flat RHS,
    one complex-step column per group."""
    f, n = flat_rhs_factory(spec.with_delta_zero(), start=(0.0, dfe(spec))), spec.n
    J = np.empty((n, n))
    for p in range(n):
        I = [complex(0.0, _CS_STEP) if j == p else 0.0 for j in range(n)]
        J[:, p] = [v.imag / _CS_STEP for v in f(0.0, I)]
    return J


def _outcome_of(run):
    """run()'s value, or the InfeasibleClosure it raises."""
    try:
        return run()
    except InfeasibleClosure as e:
        return e


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_complex_step_jacobian_at_the_dfe_is_f_minus_mu_property(variant):
    # J + mu Id is build_ngm's F, though the two share no formula; where
    # the DFE does not close, both raise the closure's error on the same
    # value, the RHS's naming its t = 0
    rng = np.random.default_rng(51 if variant == "basic" else 52)
    preset = {"basic": georgia_basic, "risk": georgia_risk}[variant]()[0]
    specs = ([preset] + [random_spec(rng, variant) for _ in range(300)]
             + [random_spec(rng, variant, feasible=False) for _ in range(100)])
    closed = 0
    for spec in specs:
        J, ngm = _outcome_of(lambda: _complex_step_jacobian(spec)), _outcome_of(
            lambda: build_ngm(spec.with_delta_zero()))
        if isinstance(ngm, InfeasibleClosure):
            assert type(J) is type(ngm) and J.value == ngm.value and J.t == 0.0
            assert str(J) == f"{ngm} at t = 0.000000"
            continue
        closed += 1
        F = ngm.F
        assert np.all(np.abs(J + spec.mu * np.eye(spec.n) - F)
                      <= _CS_TOL[variant] * np.abs(F).max())
    assert 300 < closed < len(specs)  # both outcomes are drawn


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_rc_threshold_is_the_sign_of_the_complex_step_abscissa_property(variant):
    # van den Driessche & Watmough 2002, Theorem 2: R_c > 1 exactly where
    # F - V = J - diag(delta) has an eigenvalue of positive real part; also
    # for draws tuned to within 1e-3 of R_c = 1 from either side
    rng = np.random.default_rng(53 if variant == "basic" else 54)
    specs = [random_spec(rng, variant) for _ in range(200)]
    tuned = []
    for spec in specs[:40]:
        for side in (-1.0, 1.0):
            target = 1.0 + side * rng.uniform(1e-5, 1e-3)
            tuned.append(scale_transmission(spec, tune_multiplier_to_rc(spec, target)))
    near = []
    for spec in specs + tuned:
        _, _, delta, _ = spec.param_arrays()
        abscissa = float(np.max(np.linalg.eigvals(_complex_step_jacobian(spec)
                                                  - np.diag(delta)).real))
        R = rc_numeric(build_ngm(spec)).value
        assert np.sign(abscissa) == np.sign(R - 1.0) != 0.0, (R, abscissa)
        near.append(R - 1.0)
    assert sum(-1e-3 < d < 0.0 for d in near) >= 20 and sum(0.0 < d < 1e-3 for d in near) >= 20


def _rc(spec, m=1.0):
    return rc_numeric(build_ngm(scale_transmission(spec, m))).value


def test_rc_is_homogeneous_in_the_multiplier_property(basic):
    # F is linear in the betas and V and the DFE do not depend on them, so
    # below every cap R_c(m) = m * R_c(1): the premise of the regula falsi tune
    rng = np.random.default_rng(24)
    for variant in ("basic", "risk"):
        for _ in range(100):
            spec = random_spec(rng, variant)  # its DFE closes
            p = spec.probs
            cap = 1.0 / max(p.beta_mm, p.beta_fm, p.beta_mf)
            base = _rc(spec)
            for m in (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * cap, cap):
                assert _rc(spec, m) == pytest.approx(m * base, rel=1e-12, abs=0.0)
    # past a cap R_c(m) = rho(m A + B) with B != 0: increasing, not linear.
    # beta_mm = 0.25 caps at m = 4; a chord midpoint is on the curve to
    # rounding below the cap (4e-16) and off it past the cap (6.4e-11)
    spec0 = basic[0].with_delta_zero()
    spec0 = replace(spec0, probs=replace(spec0.probs, beta_mm=0.25))

    def off_chord(lo, hi):
        mid = _rc(spec0, (lo + hi) / 2)
        return abs(mid - (_rc(spec0, lo) + _rc(spec0, hi)) / 2) / mid

    assert off_chord(1.0, 3.0) < 1e-12 < off_chord(5.0, 9.0)
    assert _rc(spec0, 5.0) < _rc(spec0, 7.0) < _rc(spec0, 9.0)


@pytest.mark.parametrize("name", ["basic", "risk"])
def test_tune_takes_three_ngm_solves(monkeypatch, name):
    # R_c(m) is a straight line through 0 until a beta caps, so the first
    # secant point from the bracket is the root (bisection took 39 and 38)
    spec0 = {"basic": georgia_basic, "risk": stationary_risk}[name]()[0].with_delta_zero()
    solves = []
    real = reproduction.build_ngm

    def spy(spec):
        solves.append(spec)
        return real(spec)

    monkeypatch.setattr(reproduction, "build_ngm", spy)
    m = tune_multiplier_to_rc(spec0, 0.9)
    assert len(solves) <= 4
    assert abs(_rc(spec0, m) - 0.9) < _TUNE_TOL
    assert m == pytest.approx(0.9 / _rc(spec0), rel=1e-14)


def test_tune_past_a_capped_beta(basic):
    # beta_mm = 0.5 caps at m = 2, beyond which R_c(m) bends; the target
    # needs m = 4, past the bend, and the tune still lands on it (R_c is
    # nearly flat there, so only R_c is pinned, not m)
    spec0 = basic[0].with_delta_zero()
    spec0 = replace(spec0, probs=replace(spec0.probs, beta_mm=0.5))
    target = _rc(spec0, 4.0)
    assert target < 2.0 * _rc(spec0, 2.0) * (1.0 - 1e-3)  # the cap binds
    m = tune_multiplier_to_rc(spec0, target)
    assert m > 2.0
    assert abs(_rc(spec0, m) - target) < _TUNE_TOL


def test_tune_past_caps_never_costs_more_than_bisection_property(monkeypatch):
    # random specs with betas raised so that caps bend R_c(m) inside the
    # bracket (all three up to 1, or one up to 1 and two small), targets
    # R_c(m) for m in [0.01, 10]: the tune meets the tolerance and takes no
    # more NGM solves than bisection of the bracket (the previous tune)
    real = reproduction.build_ngm
    solves = [0]

    def counted(spec):
        solves[0] += 1
        return real(spec)

    def bisection_solves(spec, target):
        lo, hi = reproduction._MULTIPLIER_BRACKET
        flo, n = _rc(spec, lo) - target, 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm, n = _rc(spec, mid) - target, n + 1
            if abs(fm) < _TUNE_TOL:
                break
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return n

    rng = np.random.default_rng(31)
    for draw in range(120):
        spec = random_spec(rng, ("basic", "risk")[draw % 2]).with_delta_zero()
        betas = rng.uniform(0.0, 1.0, 3)
        if draw % 4 >= 2:
            betas[:] = rng.uniform(0.0, 0.01, 3)
            betas[rng.integers(3)] = rng.uniform(0.1, 1.0)
        spec = replace(spec, probs=TransmissionProbs(*betas))
        target = _rc(spec, rng.uniform(0.01, 10.0))
        monkeypatch.setattr(reproduction, "build_ngm", counted)
        solves[0] = 0
        m = tune_multiplier_to_rc(spec, target)
        monkeypatch.setattr(reproduction, "build_ngm", real)
        assert abs(_rc(spec, m) - target) < _TUNE_TOL
        assert solves[0] <= bisection_solves(spec, target), (draw, betas, target)


@pytest.mark.parametrize("betas, m", [((0.31, 0.0045, 0.008), 3.2),
                                      ((0.42, 0.0079, 0.0078), 2.38)])
def test_tune_lands_past_a_sharp_cap(monkeypatch, basic, betas, m):
    # one beta caps well inside the bracket and R_c(m) bends sharply there:
    # the secant from the bracket ends keeps missing on one side (Illinois
    # took 23 and 35 solves, the Anderson-Bjorck step alone ran out of its
    # 200 steps off by 33 and 1.7); landing on the cap first takes 5
    spec0 = replace(basic[0].with_delta_zero(), probs=TransmissionProbs(*betas))
    target = _rc(spec0, m)
    solves = []
    real = reproduction.build_ngm
    monkeypatch.setattr(reproduction, "build_ngm", lambda spec: solves.append(1) or real(spec))
    got = tune_multiplier_to_rc(spec0, target)
    assert len(solves) <= 6
    assert abs(_rc(spec0, got) - target) < _TUNE_TOL


@pytest.mark.parametrize("target", [0.0, 1e3, float("nan")])
def test_tune_refuses_an_unbracketed_target(basic, target):
    with pytest.raises(ValueError, match="not bracketed"):
        tune_multiplier_to_rc(basic[0].with_delta_zero(), target)


def _probe_specs():
    """The delta = 0 probe specs: basic preset and stationary risk."""
    return [georgia_basic()[0].with_delta_zero(), stationary_risk()[0].with_delta_zero()]


def _probe_spec(basic, regime):
    """delta = 0 basic preset: as is (R_c > 1) or tuned to R_c = 0.9."""
    spec0 = basic[0].with_delta_zero()
    if regime == "growth":
        return spec0
    return scale_transmission(spec0, tune_multiplier_to_rc(spec0, 0.9))


def _spied_probe(monkeypatch, spec, n_trials, seed):
    """The probe report and its integrations, one record per call (cfg, the
    start row y0, the RHS f, then the run's times, rows, next_step,
    switch_events, rhs_evals and steps_rejected), grouped by trial."""
    calls = []  # trials in turn each round
    real = reproduction.integrate_rhs

    def spy(f, y0, cfg, n_state, sample_times=None):
        run = real(f, y0, cfg, n_state, sample_times)
        times, rows, _, next_step, switch_events, rhs_evals, steps_rejected = run
        calls.append(SimpleNamespace(
            cfg=cfg, y0=y0, f=f, times=times, rows=rows, next_step=next_step,
            switch_events=switch_events, rhs_evals=rhs_evals, steps_rejected=steps_rejected))
        return run

    monkeypatch.setattr(reproduction, "integrate_rhs", spy)
    report = stability_probe(spec, n_trials=n_trials, seed=seed)
    n = report.n_trials
    assert len(calls) % n == 0 and len(calls) > n  # more than one round
    return report, [calls[trial::n] for trial in range(n)]


@pytest.mark.parametrize("regime", ["decay", "growth"])
def test_probe_integrates_each_span_once(basic, monkeypatch, regime):
    spec = _probe_spec(basic, regime)
    report, trials = _spied_probe(monkeypatch, spec, 2, 3)
    assert report.regime == regime
    for mine in trials:
        assert mine[0].cfg.t0 == 0.0 and mine[-1].cfg.t_end == report.horizon
        assert all(len(row) == spec.n for span in mine for row in span.rows)  # I only
        for prev, cur in zip(mine, mine[1:]):
            assert cur.cfg.t0 == prev.cfg.t_end   # continues at the last horizon
            assert cur.f is mine[0].f   # on the trial's one RHS
            assert list(cur.y0) == prev.rows[-1]   # from that trial's end I row


@pytest.mark.parametrize("n_trials", [1, 3])
@pytest.mark.parametrize("regime", ["decay", "growth"])
def test_probe_builds_one_rhs_per_trial(basic, monkeypatch, regime, n_trials):
    # each trial's infected-only RHS, N(t) in closed form from its state at
    # t = 0, serves every span: flat_rhs_factory runs once per trial, called
    # from the probe or from any integrate() it makes
    from prepspill import integrators
    spec, starts = _probe_spec(basic, regime), []
    real = model.flat_rhs_factory

    def counting(spec, tracked_counts=None, mode=None, start=None):
        starts.append(start)
        return real(spec, tracked_counts, mode, start)

    for owner in (reproduction, integrators):
        monkeypatch.setattr(owner, "flat_rhs_factory", counting)
    report = stability_probe(spec, n_trials=n_trials, seed=3)
    assert report.regime == regime and report.horizon > (256.0 if regime == "decay" else 64.0)
    assert len(starts) == report.n_trials
    assert all(t0 == 0.0 for t0, _ in starts)


@pytest.mark.parametrize("regime", ["decay", "growth"])
def test_probe_steps_freely_and_carries_the_step(basic, monkeypatch, regime):
    report, trials = _spied_probe(monkeypatch, _probe_spec(basic, regime), 2, 3)
    for mine in trials:
        assert mine[0].cfg.first_step is None
        for prev, cur in zip(mine, mine[1:]):
            assert cur.cfg.first_step == prev.next_step > 0.0
        for span in mine:
            inner = span.times[1:-1]
            assert not any(t.is_integer() for t in inner)  # no whole-year nodes
    steps = sum(len(span.times) - 1 for mine in trials for span in mine)
    assert steps < report.n_trials * report.horizon


@pytest.mark.parametrize("regime", ["decay", "growth"])
def test_probe_ratio_matches_one_direct_integration(basic, regime):
    spec = _probe_spec(basic, regime)
    if regime == "decay":
        starts = _random_feasible_states(spec, 1, np.random.default_rng(5))
    else:
        I0 = np.full(spec.n, 1.0)
        starts = [StateVec.make(dfe(spec).S - I0, I0)]
    report = stability_probe(spec, n_trials=1, seed=5)
    h = report.horizon
    first = 256.0 if regime == "decay" else 64.0
    assert report.regime == regime and h > first
    # the probe's nodes: free steps of the I slots, stopping at every doubling
    doublings = [first * 2 ** k for k in range(int(math.log2(h / first)))]
    cfg = IntegratorConfig(t0=0.0, t_end=h, rtol=1e-8, atol=1e-8, dt_max=h / 8,
                           year_nodes=False)
    f = flat_rhs_factory(spec, start=(0.0, starts[0]))
    end = integrate_rhs(f, starts[0].I, cfg, spec.n, sample_times=doublings)[1][-1]
    direct = float(np.sum(end)) / float(np.sum(starts[0].I))
    assert report.max_terminal_ratio == pytest.approx(direct, rel=1e-10, abs=0.0)


PROBE_CATALOG = Path(__file__).resolve().parents[1] / "bench" / "reference" / "probe.json"


@pytest.mark.parametrize("name", ["basic", "risk"])
def test_probe_matches_benchmark_catalog(name):
    # the tuned multiplier, every 8th catalogued one-trial seed with the
    # first seed of each final horizon (4096 years is rare: no 8th seed
    # ends there), and the growth probe, at the benchmark's tolerances: a
    # tune or probe change that moves a multiplier or a horizon fails here,
    # not only in the benchmark
    ref = json.loads(PROBE_CATALOG.read_text())
    spec0 = {"basic": georgia_basic, "risk": stationary_risk}[name]()[0].with_delta_zero()
    gro, want = stability_probe(spec0, seed=0), ref["growth"][name]
    assert gro.horizon == want["horizon"]
    assert gro.max_terminal_ratio == pytest.approx(want["ratio"], rel=1e-5, abs=0.0)
    m = tune_multiplier_to_rc(spec0, 0.9)
    assert m == pytest.approx(ref["multiplier"][name], rel=1e-7, abs=0.0)
    tuned = scale_transmission(spec0, m)
    first = {}
    for seed, (horizon, _) in enumerate(ref["decay"][name]):
        first.setdefault(horizon, seed)
    assert sorted(first) == [1024.0, 2048.0, 4096.0]
    for seed in sorted(set(range(0, 256, 8)) | set(first.values())):
        horizon, ratio = ref["decay"][name][seed]
        rep = stability_probe(tuned, n_trials=1, seed=seed)
        assert rep.horizon == horizon, seed
        assert rep.max_terminal_ratio == pytest.approx(ratio, rel=1e-4, abs=0.0), seed


def _tight_run(spec, y0, t_end, sample_times=None):
    """The full S/I/C run of ``spec`` from y0 over [0, t_end] in free steps
    at rtol 1e-12 and atol 1e-10: the reference the probe's closed-form N
    and ratios are held to."""
    cfg = IntegratorConfig(0.0, t_end, rtol=1e-12, atol=1e-10, year_nodes=False)
    return integrate(spec, y0, cfg, sample_times=sample_times)


def _probe_start(spec, regime, seed):
    """A one-trial probe's start state: the trial state of ``seed``, or the
    growth probe's perturbed DFE."""
    if regime == "decay":
        return _random_feasible_states(spec, 1, np.random.default_rng(seed))[0]
    I0 = np.full(spec.n, 1.0)
    return StateVec.make(dfe(spec).S - I0, I0)


@pytest.mark.parametrize("spec0", _probe_specs(), ids=["basic", "risk"])
def test_closed_form_n_follows_a_tight_full_run(spec0):
    # the infected-only f(t, I), its N(t) in closed form from the start at
    # t = 0, is the full RHS's I entries at every row of the tight run over
    # 256 years from three trial states, within 5e-13 of each entry's terms,
    # inc_j + mu I_j (measured: 4.1e-14 basic, 5.4e-14 risk)
    spec = scale_transmission(spec0, tune_multiplier_to_rc(spec0, 0.9))
    full, n = flat_rhs_factory(spec), spec.n
    for seed in range(3):
        y0 = _probe_start(spec, "decay", seed)
        traj = _tight_run(spec, y0, 256.0, sample_times=[16.0 * k for k in range(1, 16)])
        f = flat_rhs_factory(spec, start=(0.0, y0))
        for t, row in zip(traj.times, traj.states):
            I, want = row[1:2 * n:2], np.array(full(t, row.tolist()))
            scale = np.abs(want[2 * n:]) + spec.mu * I
            assert np.all(np.abs(f(t, I.tolist()) - want[1:2 * n:2]) <= 5e-13 * scale), (seed, t)


@pytest.mark.parametrize("spec0", _probe_specs(), ids=["basic", "risk"])
def test_probe_ratios_near_tight_full_runs(spec0):
    # each one-trial probe's ratio against the tight full-state run from its
    # start state to its horizon: decay seeds 0-3 within 1e-8 relative
    # (measured: 1.6e-9; the S/I-slot probe gave up to 1.5e-8) and the
    # growth probe within 1e-7 (measured: 2.1e-8; the S/I-slot probe 3.0e-8)
    tuned = scale_transmission(spec0, tune_multiplier_to_rc(spec0, 0.9))
    for spec, regime, seeds, rel in ((tuned, "decay", range(4), 1e-8),
                                     (spec0, "growth", [0], 1e-7)):
        for seed in seeds:
            report = stability_probe(spec, n_trials=1, seed=seed)
            y0 = _probe_start(spec, regime, seed)
            end = _tight_run(spec, y0, report.horizon).final_state()
            want = float(np.sum(end.I)) / float(np.sum(y0.I))
            assert report.regime == regime
            assert report.max_terminal_ratio == pytest.approx(want, rel=rel, abs=0.0), seed


@pytest.mark.parametrize("spec0, regime, seed, work", [
    (_probe_specs()[0], "decay", 0, (1072, 178, 0, 0)),
    (_probe_specs()[0], "growth", 0, (356, 59, 0, 0)),
    (_probe_specs()[1], "decay", 1, (994, 163, 0, 2)),
    (_probe_specs()[1], "growth", 0, (296, 49, 0, 0)),
], ids=["basic-decay", "basic-growth", "risk-decay", "risk-growth"])
def test_probe_work_is_pinned(monkeypatch, spec0, regime, seed, work):
    # RHS evaluations, accepted and rejected steps and switch landings over
    # a one-trial probe's spans, summed: a change to the probe's work shows
    # here.  The S/I-slot probe took (1006, 167, 0, 0), (332, 55, 0, 0),
    # (934, 153, 0, 2) and (284, 47, 0, 0): the n-entry error norm takes
    # smaller steps than one averaging the S slots in
    spec = spec0 if regime == "growth" else scale_transmission(
        spec0, tune_multiplier_to_rc(spec0, 0.9))
    report, trials = _spied_probe(monkeypatch, spec, 1, seed)
    assert report.regime == regime
    runs = trials[0]
    assert (sum(t.rhs_evals for t in runs), sum(len(t.times) - 1 for t in runs),
            sum(t.steps_rejected for t in runs),
            sum(len(t.switch_events) for t in runs)) == work


def _with_group(spec, i, **params):
    """``spec`` with the parameters of group i replaced."""
    groups = list(spec.groups)
    groups[i] = (groups[i][0], replace(groups[i][1], **params))
    return replace(spec, groups=tuple(groups))


def _risk_hetm_heavy():
    # hetm's contact volume far above all hetf's: no sampled state closes
    spec = georgia_risk()[0]
    spec = _with_group(spec, 3, a=10 * spec.groups[3][1].a)
    return _random_feasible_states(spec, 2, np.random.default_rng(0))


def _ngm(n):
    return NGMatrices(F=np.eye(n), V=np.eye(n), labels=("g",) * n,
                      dfe_populations=np.ones(n))


@pytest.mark.parametrize("run, error, match", [
    (lambda: build_ngm(_with_group(georgia_basic()[0], 2, Pi=0.0)),
     InfeasibleClosure, "^DFE has an empty group; NGM undefined$"),
    (lambda: rc_closed_basic(_ngm(4)), ValueError, "^basic closed form needs a 3x3 NGM$"),
    (lambda: rc_closed_risk(_ngm(3)), ValueError, "^risk closed form needs a 4x4 NGM$"),
    (_risk_hetm_heavy, RuntimeError, "^could not sample enough feasible states$"),
    (lambda: stability_probe(georgia_basic()[0], n_trials=1),
     ValueError, "^stability probe applies to delta = 0 specs$"),
], ids=["empty-dfe-group", "basic-shape", "risk-shape", "sampling-exhausted",
        "probe-delta"])
def test_reproduction_refusals(run, error, match):
    with pytest.raises(error, match=match):
        run()


def test_tune_that_never_converges_raises(basic, monkeypatch):
    # no |R_c - target| is below a zero tolerance: after its 200 steps the
    # tune names the target and where it stopped instead of returning it
    monkeypatch.setattr(reproduction, "_TUNE_TOL", 0.0)
    with pytest.raises(RuntimeError, match=r"^R_c tune to target 0.9 did not converge: "
                                           r"last multiplier \S+ gives R_c = 0.9"):
        tune_multiplier_to_rc(basic[0].with_delta_zero(), 0.9)


# ---------------------------------------------------------------------------
# The probe's driver against copies of its per-candidate and per-matrix forms
# (the forms the chunked sampler, the float NGM and the reciprocal R_c
# replaced, with the same bits), and the closure solves where the tracer
# counts them: every one passes model.close_basic / close_risk.

def _reference_feasible_states(spec, n_trials, rng):
    """Per-candidate rejection sampling: two uniform draws, the box test and
    a closure per candidate, 200 n_trials candidates at most."""
    Sstar = dfe(spec).S
    out, guard = [], 0
    while len(out) < n_trials:
        guard += 1
        if guard > 200 * n_trials:
            raise RuntimeError("could not sample enough feasible states")
        S = Sstar * rng.uniform(0.3, 1.0, size=spec.n)
        I = Sstar * rng.uniform(0.0, 0.2, size=spec.n)
        if np.sum(S + I) > np.sum(Sstar):
            continue
        try:
            reproduction.closed_mixing(spec, S + I)
        except InfeasibleClosure:
            continue
        out.append(StateVec.make(S, I))
    return out


def _reference_ngm(spec):
    """(F, V, DFE populations) by contact_matrix and whole-array broadcasts."""
    Nstar = dfe(spec).N
    if np.any(Nstar <= 0.0):
        raise InfeasibleClosure("DFE has an empty group; NGM undefined")
    _, _, delta, eps = spec.param_arrays()
    W = contact_matrix(spec, model.closed_mixing(spec, Nstar))
    F = (1.0 - eps)[:, None] * W * Nstar[:, None] / Nstar[None, :]
    return F, np.diag(spec.mu + delta), Nstar


def _bits(states):
    return [(s.S.tobytes(), s.I.tobytes(), s.C.tobytes()) for s in states]


@pytest.fixture
def closure_calls(monkeypatch):
    """The N of every closure solve through model.close_basic / close_risk
    (the functions the tracer rebinds), as tuples of floats, in order."""
    calls = []

    def counting(close):
        def counted(N, a, priors=None):
            calls.append(tuple(map(float, N)))
            return close(N, a, priors)
        return counted
    for name in ("close_basic", "close_risk"):
        monkeypatch.setattr(model, name, counting(getattr(model, name)))
    return calls


def test_chunked_sampler_equals_per_candidate_loop_property(closure_calls):
    # states bitwise and the same closure solves, so the same candidates: a
    # k-state run is the first k states of a longer run, and its solves are
    # the reference's up to the one that closed its k-th state.  Seeds 0-255
    # at 1 and 8 states, 0-31 at 50 (50 states at all 256 seeds take 8 s)
    for spec in _probe_specs():
        for seed in range(256):
            counts = (1, 8, 50) if seed < 32 else (1, 8)
            closure_calls.clear()
            want = _reference_feasible_states(spec, counts[-1], np.random.default_rng(seed))
            ref_calls, ends, pos = list(closure_calls), [], 0
            for y in want:
                pos = ref_calls.index(tuple(y.N.tolist()), pos) + 1
                ends.append(pos)
            for n_trials in counts:
                closure_calls.clear()
                got = _random_feasible_states(spec, n_trials, np.random.default_rng(seed))
                assert _bits(got) == _bits(want[:n_trials])
                assert closure_calls == ref_calls[:ends[n_trials - 1]]


@pytest.mark.parametrize("n_trials", [1, 8])
@pytest.mark.parametrize("spec", _probe_specs(), ids=["basic", "stationary_risk"])
def test_chunked_sampler_gives_up_where_the_loop_does(monkeypatch, spec, n_trials):
    # a closure that closes only chosen candidates: the first n_trials - 1
    # inside the box, then the last the guard allows (candidate 200 n_trials)
    # or the first after it.  Both samplers close the same candidates, and
    # give up after the same one.
    limit, Sstar = 200 * n_trials, dfe(spec).S
    rng, boxed = np.random.default_rng(7), []  # (candidate index, N) inside the box
    for c in range(limit + 50):
        S = Sstar * rng.uniform(0.3, 1.0, size=spec.n)
        I = Sstar * rng.uniform(0.0, 0.2, size=spec.n)
        if np.sum(S + I) <= np.sum(Sstar):
            boxed.append((c, tuple((S + I).tolist())))
    inside = [N for c, N in boxed if c < limit]
    after = [N for c, N in boxed if c >= limit]
    for last, feasible in ((inside[-1], True), (after[0], False)):
        closes, calls = set(inside[:n_trials - 1] + [last]), []

        def closed_mixing(spec, N):
            calls.append(tuple(map(float, N)))
            if calls[-1] not in closes:
                raise InfeasibleClosure("not chosen")
        monkeypatch.setattr(reproduction, "closed_mixing", closed_mixing)
        outcomes = []
        for sample in (_reference_feasible_states, _random_feasible_states):
            calls.clear()
            try:
                outcomes.append((_bits(sample(spec, n_trials, np.random.default_rng(7))),
                                 list(calls)))
            except RuntimeError as e:
                outcomes.append((str(e), list(calls)))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] == "could not sample enough feasible states") != feasible
        assert outcomes[0][1] == inside  # every candidate in the box up to the guard


def _outcome(build):
    """The arrays' bits that ``build()`` gives, else its error's type and text."""
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in build()]
    except InfeasibleClosure as e:
        return type(e), str(e)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_float_ngm_equals_broadcast_ngm_property(variant):
    # F, V and the DFE populations bitwise, or the same error, over free
    # random_spec draws (infeasible DFEs included), pinned to their priors,
    # and with an empty group; R_c is rho(F @ inv(V)) to the bit
    rng = np.random.default_rng(41 if variant == "basic" else 42)
    errors = []
    for i in range(300):
        spec = random_spec(rng, variant, feasible=False)
        if i % 3 == 1:
            spec = replace(spec, mixing=spec.mixing_priors)
        elif i % 30 == 2:
            spec = _with_group(spec, i % spec.n, Pi=0.0)
        ngm = None

        def float_ngm():
            nonlocal ngm
            ngm = build_ngm(spec)
            return ngm.F, ngm.V, ngm.dfe_populations
        want = _outcome(lambda: _reference_ngm(spec))
        assert _outcome(float_ngm) == want
        if ngm is None:
            errors.append(want[1])
            continue
        assert ngm.labels == spec.labels
        A = ngm.F @ np.linalg.inv(ngm.V)
        assert (ngm.F * (1.0 / ngm.K)).tobytes() == A.tobytes()
        assert rc_numeric(ngm).value == float(np.max(np.abs(np.linalg.eigvals(A))))
    assert "DFE has an empty group; NGM undefined" in errors
    assert any(e.startswith("closure gives") for e in errors)


def test_closure_solves_stay_where_the_tracer_counts_them(monkeypatch, closure_calls):
    # the NGM, the tune and the probes solve the closures that the
    # contact_matrix assembly and the per-candidate loop solve, in order,
    # through model.close_basic / close_risk, which the tracer rebinds to
    # count mixing.close_calls.  A probe's integrations solve none there:
    # seed 0 runs them; seeds 1-31 stand them in by spans that end with no
    # infections (decay confirmed at once, growth run to the horizon cap)
    def solves(run):
        closure_calls.clear()
        out = run()
        return out, list(closure_calls)

    def reference_ngm(spec):
        F, V, N = _reference_ngm(spec)
        return NGMatrices(F=F, V=V, labels=spec.labels, dfe_populations=N)

    def no_infections(f, y0, cfg, n_state, sample_times=None):
        rows = [list(y0), [0.0] * len(y0)]
        return [cfg.t0, cfg.t_end], rows, [], 1.0, [], 7, 0
    for spec0 in _probe_specs():
        _, want = solves(lambda: _reference_ngm(spec0))
        assert want == [tuple(dfe(spec0).N.tolist())]
        assert solves(lambda: build_ngm(spec0))[1] == want
        m, tune_solves = solves(lambda: tune_multiplier_to_rc(spec0, 0.9))
        with monkeypatch.context() as patch:
            patch.setattr(reproduction, "build_ngm", reference_ngm)
            assert solves(lambda: tune_multiplier_to_rc(spec0, 0.9)) == (m, tune_solves)
        for spec in (spec0, scale_transmission(spec0, m)):  # growth, decay
            _, dfe_solve = solves(lambda: _reference_ngm(spec))
            for seed in range(32):
                for n_trials in (1, 8):
                    with monkeypatch.context() as patch:
                        if seed:
                            patch.setattr(reproduction, "integrate_rhs", no_infections)
                        report, got = solves(lambda: stability_probe(spec, n_trials, seed))
                    _, sampled = solves(lambda: _reference_feasible_states(
                        spec, n_trials, np.random.default_rng(seed)))
                    assert got == dfe_solve + sampled * (report.regime == "decay")
