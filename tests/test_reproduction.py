import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_spec, stationary_risk
from prepspill import reproduction
from prepspill.errors import InfeasibleClosure
from prepspill.integrators import IntegratorConfig, integrate
from prepspill.model import StateVec, TransmissionProbs, dfe, flat_rhs_factory
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


def _probe_spec(basic, regime):
    """delta = 0 basic preset: as is (R_c > 1) or tuned to R_c = 0.9."""
    spec0 = basic[0].with_delta_zero()
    if regime == "growth":
        return spec0
    return scale_transmission(spec0, tune_multiplier_to_rc(spec0, 0.9))


def _spied_probe(monkeypatch, spec, n_trials, seed):
    """The probe report and its integrations, (cfg, start S/I slots,
    trajectory) per call, grouped by trial."""
    calls = []  # trials in turn each round
    real = reproduction.integrate

    def spy(spec, y0, cfg, **kw):
        traj = real(spec, y0, cfg, **kw)
        calls.append((cfg, y0.to_flat()[:2 * spec.n], traj))
        return traj

    monkeypatch.setattr(reproduction, "integrate", spy)
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
        assert mine[0][0].t0 == 0.0 and mine[-1][0].t_end == report.horizon
        assert all(traj.states.shape[1] == 2 * spec.n for _, _, traj in mine)  # S/I only
        for prev, cur in zip(mine, mine[1:]):
            assert cur[0].t0 == prev[0].t_end   # continues at the last horizon
            assert np.array_equal(cur[1], prev[2].states[-1])  # from that trial's end state


@pytest.mark.parametrize("regime", ["decay", "growth"])
def test_probe_steps_freely_and_carries_the_step(basic, monkeypatch, regime):
    report, trials = _spied_probe(monkeypatch, _probe_spec(basic, regime), 2, 3)
    for mine in trials:
        assert mine[0][0].first_step is None
        for prev, cur in zip(mine, mine[1:]):
            assert cur[0].first_step == prev[2].next_step > 0.0
        for _, _, traj in mine:
            inner = traj.times[1:-1]
            assert not any(t.is_integer() for t in inner)  # no whole-year nodes
    steps = sum(len(traj.times) - 1 for mine in trials for _, _, traj in mine)
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
    # the probe's nodes: free steps of the S/I system, stopping at every doubling
    doublings = [first * 2 ** k for k in range(int(math.log2(h / first)))]
    cfg = IntegratorConfig(t0=0.0, t_end=h, rtol=1e-8, atol=1e-8, dt_max=h / 8,
                           year_nodes=False)
    end = integrate(spec, starts[0], cfg, sample_times=doublings, incidence=False).states[-1]
    direct = float(np.sum(end[1::2])) / float(np.sum(starts[0].I))
    assert report.max_terminal_ratio == pytest.approx(direct, rel=1e-10, abs=0.0)


PROBE_CATALOG = Path(__file__).resolve().parents[1] / "bench" / "reference" / "probe.json"


@pytest.mark.parametrize("name", ["basic", "risk"])
def test_probe_matches_benchmark_catalog(name):
    # the tuned multiplier, one catalogued one-trial seed per final horizon,
    # and the growth probe, at the benchmark's tolerances: a tune or probe
    # change that moves a multiplier or a horizon fails here, not only in
    # the benchmark
    ref = json.loads(PROBE_CATALOG.read_text())
    spec0 = {"basic": georgia_basic, "risk": stationary_risk}[name]()[0].with_delta_zero()
    gro, want = stability_probe(spec0, seed=0), ref["growth"][name]
    assert gro.horizon == want["horizon"]
    assert gro.max_terminal_ratio == pytest.approx(want["ratio"], rel=1e-5, abs=0.0)
    m = tune_multiplier_to_rc(spec0, 0.9)
    assert m == pytest.approx(ref["multiplier"][name], rel=1e-7, abs=0.0)
    tuned = scale_transmission(spec0, m)
    first = {}
    for seed, (horizon, ratio) in enumerate(ref["decay"][name]):
        first.setdefault(horizon, (seed, ratio))
    assert sorted(first) == [1024.0, 2048.0, 4096.0]
    for horizon, (seed, ratio) in first.items():
        rep = stability_probe(tuned, n_trials=1, seed=seed)
        assert rep.horizon == horizon
        assert rep.max_terminal_ratio == pytest.approx(ratio, rel=1e-4, abs=0.0)


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
