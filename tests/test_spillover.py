import io
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (incidence_sensitivity, random_spec, random_state, rhs, rk4_fixed,
                      spillover_rhs, xi_correction)
from oracles import PerturbationOutOfRange, fd_oracle
from prepspill.errors import ZeroPopulation
from prepspill.integrators import IntegratorConfig, integrate, node_index, rows_at, write_csv
from prepspill.model import StateVec, closed_mixing, dfe, flat_rhs_factory
from prepspill.spillover import integrate_with_spillover, nnt, sensitivity_to_csv

CFG = IntegratorConfig(t0=2017.0, t_end=2031.0, rtol=1e-9, atol=1e-7)


@pytest.fixture(scope="module")
def aug_basic(basic):
    """State + all-source sensitivities from the intervention year."""
    spec, y0 = basic
    base = integrate(spec, y0, CFG, sample_times=[2020.0])
    start = base.state_at(2020.0)
    traj, sens = integrate_with_spillover(spec, start, cfg=CFG.over(2020.0, 2031.0))
    return spec, traj, sens, base


def test_reads_outside_the_run_refused(aug_basic):
    # the sensitivity block is read by rows_at, the state's node check: a
    # time past either end or between nodes is refused, not held at the end
    # row or interpolated
    _, traj, sens, _ = aug_basic
    st = sens["msm"]
    for t in (2100.0, 1900.0, 0.5 * (traj.times[5] + traj.times[6])):
        for read in (lambda t: rows_at(st.times, st.block, t), traj.row_at):
            with pytest.raises(ValueError,
                               match=re.escape(f"t = {t} is not a node of the trajectory")):
                read(t)
    assert np.array_equal(rows_at(st.times, st.gamma, 2031.0), st.gamma[-1])


OFF_NODE = {"between-nodes": lambda times: 0.5 * (times[5] + times[6]),
            "before-span": lambda times: times[0] - 1.0,
            "after-span": lambda times: times[-1] + 1.0}


@pytest.mark.parametrize("where", OFF_NODE)
@pytest.mark.parametrize("reader", ["row_at", "state_at", "at", "nnt"])
def test_every_read_refuses_a_time_off_the_nodes(aug_basic, reader, where):
    # each reader of a run reads stored nodes only: a time inside the span
    # but between nodes is refused like one outside it, naming the time
    # (T, the horizon, for nnt); "at" reads a sensitivity block's row by
    # rows_at
    spec, traj, sens, _ = aug_basic
    t = OFF_NODE[where](traj.times)
    assert traj.index_of(t) is None
    st = sens["msm"]
    if reader == "nnt":
        T = t - traj.times[0]
        read, named = (lambda: nnt(st, traj, "hetf", "msm", T, spec.mu)), f"T = {T}"
    elif reader == "at":
        read, named = (lambda: rows_at(st.times, st.block, t)), f"t = {t} "
    else:
        read, named = (lambda: getattr(traj, reader)(t)), f"t = {t} "
    with pytest.raises(ValueError, match=re.escape(named)):
        read()


def test_blocks_are_views_of_the_joint_run(aug_basic):
    # each source's block is the joint run's slots, uncopied; its row at a
    # node is the same bits as the rows of separate sigma and gamma arrays
    _, traj, sens, _ = aug_basic
    for st in sens.values():
        assert np.shares_memory(st.block, traj.states)
        assert np.shares_memory(st.sigma, st.block) and np.shares_memory(st.gamma, st.block)
        sigma, gamma = st.block[:, 0::2].copy(), st.block[:, 1::2].copy()
        for t in (2023.0, traj.times[5]):
            row = rows_at(st.times, st.block, t)
            assert np.array_equal(row[0::2], rows_at(st.times, sigma, t))
            assert np.array_equal(row[1::2], rows_at(st.times, gamma, t))


def test_csv_of_a_source_subset_equals_columnwise_assembly(basic):
    # two of the sources, handed over out of label order: the stacked blocks
    # give the bytes of sigma and gamma put in column by column
    spec, y0 = basic
    _, sens = integrate_with_spillover(spec, y0, CFG.over(2020.0, 2023.0))
    sens_map = {"hetm": sens["hetm"], "msm": sens["msm"]}
    sources, labels, n = sorted(sens_map), spec.labels, spec.n
    times = sens_map[sources[0]].times
    header = ["t"]
    table = np.empty((len(times), 1 + 2 * n * len(sources)))
    table[:, 0] = times
    for b, k in enumerate(sources):
        header += [f"{c}_{jl}__{k}" for jl in labels for c in ("sigma", "gamma")]
        table[:, 1 + 2 * n * b:1 + 2 * n * (b + 1):2] = sens_map[k].sigma.copy()
        table[:, 2 + 2 * n * b:2 + 2 * n * (b + 1):2] = sens_map[k].gamma.copy()
    want, got = io.StringIO(), io.StringIO()
    write_csv(want, header, table.tolist())
    sensitivity_to_csv(sens_map, labels, got)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("shift", [0.015, 0.05])
def test_nnt_refuses_a_state_grid_off_by_more_than_a_node(aug_basic, shift):
    # the state and sensitivity grids must agree node for node (NODE_TOL);
    # a copy of the same grid passes with the same result
    spec, traj, sens, _ = aug_basic
    same = replace(traj, times=traj.times.copy())
    assert nnt(sens["msm"], same, "hetf", "msm", 10.0, spec.mu) == \
        nnt(sens["msm"], traj, "hetf", "msm", 10.0, spec.mu)
    shifted = replace(traj, times=traj.times + shift)
    with pytest.raises(ValueError, match="use different grids"):
        nnt(sens["msm"], shifted, "hetf", "msm", 10.0, spec.mu)


def test_rhs_zero_at_disease_free(basic):
    spec, _ = basic
    eq = dfe(spec)
    d = spillover_rhs(spec, eq, spec.group_index("msm"), np.zeros(2 * spec.n))
    assert np.all(d == 0.0)


def test_initial_conditions_exactly_zero(aug_basic):
    _, traj, sens, _ = aug_basic
    for st in sens.values():
        assert np.all(st.sigma[0] == 0.0)
        assert np.all(st.gamma[0] == 0.0)


def test_sigma_gamma_cancellation_delta_zero(basic):
    # paired equations are exact negatives plus identical -mu decay, so
    # sigma + gamma stays identically zero from zero initial conditions
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    traj, sens = integrate_with_spillover(spec0, y0, cfg=CFG.over(2017.0, 2027.0))
    for st in sens.values():
        scale = max(np.abs(st.sigma).max(), np.abs(st.gamma).max())
        assert np.abs(st.sigma + st.gamma).max() < 1e-9 * scale


def test_no_spillover_onto_msm(aug_basic):
    # gamma_msm^{hetf} ~ 0 throughout the published baseline
    spec, traj, sens, _ = aug_basic
    msm = spec.group_index("msm")
    for src in ("hetf", "hetm"):
        per_person = sens[src].gamma[:, msm] / traj.states[:, 2 * spec.group_index(src)]
        assert np.abs(per_person).max() < 1e-3


def test_adaptive_vs_fixed_gamma(basic):
    spec, y0 = basic
    base = integrate(spec, y0, CFG, sample_times=[2020.0])
    start = base.state_at(2020.0)
    _, sens_a = integrate_with_spillover(spec, start, cfg=CFG.over(2020.0, 2030.0))
    # the fixed-step oracle over the same generated augmented system
    n, msm, hetf = spec.n, spec.group_index("msm"), spec.group_index("hetf")
    f = flat_rhs_factory(spec, mode="practical")
    y0_flat = np.concatenate([start.to_flat(), np.zeros(2 * n * n)])
    _, rows = rk4_fixed(f, y0_flat, 2020.0, 2030.0, 0.05)
    ga = rows_at(sens_a["msm"].times, sens_a["msm"].gamma, 2030.0)[hetf]
    gf = rows[-1][3 * n + 2 * n * msm + 2 * hetf + 1]
    assert abs(ga - gf) / abs(ga) < 1e-3


def test_chain_rule_consistency(basic, aug_basic):
    # (gamma_j/S_k) * dE predicts infections averted by a finite intervention;
    # the exact-delta mode is the true derivative of the delta != 0 model
    spec, y0 = basic
    _, _, _, base = aug_basic
    start = base.state_at(2020.0)
    traj, sens = integrate_with_spillover(spec, start, cfg=CFG.over(2020.0, 2031.0),
                                          mode="exact_delta")
    dE = 1000.0
    k = spec.group_index("msm")
    eps_new = spec.groups[k][1].epsilon + dE / start.S[k]
    pert = integrate(spec.with_epsilon({"msm": eps_new}), start,
                     CFG.over(2020.0, 2031.0))
    n = spec.n
    base_c = base.row_at(2031.0)[2 * n:] - base.row_at(2020.0)[2 * n:]
    pert_c = pert.row_at(2031.0)[2 * n:] - pert.row_at(2020.0)[2 * n:]
    averted_msm = base_c[0] - pert_c[0]
    # cumulative-incidence sensitivity: gamma(T)/S_k(T) + mu*int(gamma/S_k)
    res = nnt(sens["msm"], traj, "msm", "msm", 11.0, spec.mu)
    predicted = 11.0 * dE / res.nnt_integral
    assert abs(predicted - averted_msm) / averted_msm < 0.05


def test_monotone_growth_of_spillover(aug_basic):
    spec, traj, sens, _ = aug_basic
    hetf = spec.group_index("hetf")
    msm_idx = spec.group_index("msm")
    ratio = np.abs(sens["msm"].gamma[:, hetf]) / traj.states[:, 2 * msm_idx]
    assert np.all(np.diff(ratio) >= -1e-15)


def test_nnt_undefined_for_nonpositive_gamma(aug_basic):
    spec, traj, sens, _ = aug_basic
    res = nnt(sens["hetm"], traj, "msm", "hetm", 10.0, spec.mu)
    # msm gains essentially nothing from hetm PrEP; at early times gamma can
    # be zero to roundoff -- force the undefined branch with T tiny
    res0 = nnt(sens["hetm"], traj, "msm", "hetm", 0.0, spec.mu)
    assert res0.defined is False
    assert np.isnan(res0.nnt_simple)
    # and a genuinely positive pair is defined with positive values
    res1 = nnt(sens["msm"], traj, "msm", "msm", 10.0, spec.mu)
    assert res1.defined and res1.nnt_simple > 0 and res1.nnt_integral > 0


def test_nnt_source_mismatch(aug_basic):
    spec, traj, sens, _ = aug_basic
    with pytest.raises(ValueError):
        nnt(sens["msm"], traj, "hetf", "hetf", 10.0, spec.mu)


def test_nnt_names_an_unknown_group(aug_basic):
    # j, and k the block's source, are both looked up in the trajectory's labels
    spec, traj, sens, _ = aug_basic
    with pytest.raises(ValueError, match=re.escape(
            "no group 'nope' in the trajectory's labels ('msm', 'hetf', 'hetm')")):
        nnt(sens["msm"], traj, "nope", "msm", 10.0, spec.mu)
    with pytest.raises(ValueError, match=re.escape(
            "no group 'nope' in the trajectory's labels ('msm', 'hetf', 'hetm')")):
        nnt(replace(sens["msm"], source="nope"), traj, "hetf", "nope", 10.0, spec.mu)


def test_nnt_compares_distinct_time_grids(aug_basic):
    # integrate_with_spillover shares one times array between the state and
    # the sensitivities; a distinct array is still compared in full
    spec, traj, sens, _ = aug_basic
    assert sens["msm"].times is traj.times
    want = nnt(sens["msm"], traj, "hetf", "msm", 10.0, spec.mu)
    copied = replace(traj, times=traj.times.copy())
    assert nnt(sens["msm"], copied, "hetf", "msm", 10.0, spec.mu) == want
    shifted = replace(traj, times=traj.times + 0.1)
    with pytest.raises(ValueError, match="different grids"):
        nnt(sens["msm"], shifted, "hetf", "msm", 10.0, spec.mu)


def test_incidence_sensitivity_zero_state(basic):
    spec, _ = basic
    eq = dfe(spec)
    val = incidence_sensitivity(spec, eq, spec.group_index("msm"), np.zeros(2 * spec.n),
                                spec.group_index("hetf"))
    assert val == 0.0


def test_incidence_sensitivity_integral_identity(basic):
    # int_0^T (d/dt[g/S] + mu g/S) dt == g(T)/S(T) + mu int g/S dt, checked
    # numerically on a fine grid: steps of at most 0.01
    spec, y0 = basic
    base = integrate(spec, y0, CFG, sample_times=[2020.0])
    start = base.state_at(2020.0)
    cfg = IntegratorConfig(t0=2020.0, t_end=2025.0, dt_max=0.01)
    traj, sens = integrate_with_spillover(spec, start, cfg=cfg)
    st = sens["msm"]
    j = spec.group_index("hetf")
    k = spec.group_index("msm")
    vals = np.empty(len(traj.times))
    for i in range(len(traj.times)):
        state = StateVec.from_flat(traj.states[i], spec.n)
        vals[i] = incidence_sensitivity(spec, state, k, st.block[i], j)
    lhs = np.trapezoid(vals, traj.times)
    ratio = st.gamma[:, j] / traj.states[:, 2 * k]
    rhs_val = ratio[-1] + spec.mu * np.trapezoid(ratio, traj.times)
    assert abs(lhs - rhs_val) < 1e-6 * max(abs(rhs_val), 1e-12)


def test_incidence_sensitivity_nonnegative_along_baseline(aug_basic):
    spec, traj, sens, _ = aug_basic
    for k, src in enumerate(spec.labels):
        st = sens[src]
        for i in range(0, len(traj.times), 2):
            state = StateVec.from_flat(traj.states[i], spec.n)
            for j in range(spec.n):
                assert incidence_sensitivity(spec, state, k, st.block[i], j) >= -1e-12


def test_xi_correction_zero_sens(basic):
    spec, y0 = basic
    Xi, contrib = xi_correction(spec, y0, np.zeros(2 * spec.n))
    assert np.all(Xi == 0.0)
    assert np.all(contrib == 0.0)


def test_xi_correction_risk_unsupported(risk):
    spec, y0 = risk
    with pytest.raises(ValueError, match="^correction vectors exist for the basic variant only$"):
        xi_correction(spec, y0, np.zeros(2 * spec.n))


def test_xi_correction_magnitude_bound(basic, aug_basic):
    # correction terms are ~1/N smaller than the dominant coupling terms
    spec, traj, sens, _ = aug_basic
    i = len(traj.times) // 2
    state = StateVec.from_flat(traj.states[i], spec.n)
    synthetic = sens["msm"].block[i].copy()
    synthetic[0::2] += 10.0  # sigma
    Xi, contrib = xi_correction(spec, state, synthetic)
    d = spillover_rhs(spec, state, spec.group_index("msm"), synthetic)
    dominant = np.abs(d[1::2]).max()
    assert np.abs(contrib).max() < 1e-3 * dominant


def test_exact_delta_flag_no_op_when_delta_zero(basic):
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    cfg = CFG.over(2017.0, 2027.0)
    _, s_off = integrate_with_spillover(spec0, y0, cfg=cfg)
    _, s_on = integrate_with_spillover(spec0, y0, cfg=cfg, mode="exact_delta")
    g_off = s_off["msm"].gamma[-1]
    g_on = s_on["msm"].gamma[-1]
    assert np.max(np.abs(g_on - g_off)) <= 1e-12 * np.abs(g_off).max()


def test_exact_delta_matches_fd_with_delta(basic):
    # with disease mortality on, only the exact mode tracks the true derivative
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2020.0, t_end=2026.0, rtol=1e-11, atol=1e-9)
    base = integrate(spec, y0, CFG.over(2017.0, 2020.0))
    start = base.final_state()
    _, s_ex = integrate_with_spillover(spec, start, cfg=cfg, mode="exact_delta")
    fd = fd_oracle(spec, start, "msm", 1e-6, cfg)
    st = s_ex["msm"]
    for i, t in enumerate(fd.times):
        both, est = rows_at(st.times, st.block, t), fd.block[i]
        scale = max(np.abs(both).max(), 1e-30)
        assert np.abs(both - est).max() < 1e-3 * scale


def test_fd_oracle_second_order(basic):
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    cfg = IntegratorConfig(t0=2020.0, t_end=2025.0, rtol=1e-12, atol=1e-10)
    base = integrate(spec0, y0, CFG.over(2017.0, 2020.0))
    start = base.final_state()
    _, sens = integrate_with_spillover(spec0, start, cfg=cfg)
    ref_vec = rows_at(sens["msm"].times, sens["msm"].block, 2025.0)
    errs = []
    # perturbations large enough that truncation dominates integrator noise
    for e in (1.6e-2, 8e-3, 4e-3):
        fd = fd_oracle(spec0, start, "msm", e, cfg)
        errs.append(np.abs(fd.block[-1] - ref_vec).max())
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert 1.6 < r1 < 2.4
    assert 1.6 < r2 < 2.4


def test_fd_oracle_forward_fallback(basic):
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2020.0, t_end=2022.0, rtol=1e-9, atol=1e-7)
    fd = fd_oracle(spec, y0, "hetm", 1e-6, cfg)  # eps_hetm = 0
    assert fd.scheme == "forward"
    fd_c = fd_oracle(spec, y0, "msm", 1e-6, cfg)
    assert fd_c.scheme == "central"
    with pytest.raises(PerturbationOutOfRange):
        fd_oracle(spec, y0, "msm", -1.0, cfg)
    with pytest.raises(PerturbationOutOfRange):
        fd_oracle(spec, y0, "msm", 1.5, cfg)


def test_locality_in_epsilon(basic):
    # recomputing the sensitivities at a different coverage level changes them
    spec, y0 = basic
    cfg = CFG.over(2020.0, 2026.0)
    base = integrate(spec, y0, CFG.over(2017.0, 2020.0))
    start = base.final_state()
    _, s0 = integrate_with_spillover(spec, start, cfg=cfg)
    spec2 = spec.with_epsilon({"msm": 0.20})
    _, s2 = integrate_with_spillover(spec2, start, cfg=cfg)
    g0 = s0["msm"].gamma[-1][0]
    g2 = s2["msm"].gamma[-1][0]
    assert abs(g0 - g2) > 1e-3 * abs(g0)


def test_augmented_rhs_zero_population_names_group_and_time(basic):
    spec, y0 = basic
    f = flat_rhs_factory(spec, mode="practical")
    y = np.concatenate([y0.to_flat(), np.zeros(2 * spec.n ** 2)])
    y[4] = y[5] = 0.0  # no HETM
    with pytest.raises(ZeroPopulation, match=r"^group hetm has N = 0 at t = 2021.0$"):
        f(2021.0, list(y))
    empty = StateVec.make(y0.S * [1.0, 1.0, 0.0], y0.I * [1.0, 1.0, 0.0])
    with pytest.raises(ZeroPopulation, match=r"^group hetm has N = 0$"):
        spillover_rhs(spec, empty, spec.group_index("msm"), np.zeros(2 * spec.n))


@pytest.mark.parametrize("variant, mode", [("basic", "exact_delta"), ("risk", "exact_delta"),
                                           ("basic", "practical"), ("risk", "practical")])
def test_sensitivity_rows_match_finite_differences(variant, mode):
    # Each block of the augmented RHS is -d/dh at h = 0 of the flat RHS at
    # x - h (sigma, gamma) with eps_k + h.  Mixing is pinned, so W is
    # constant.  The practical block ignores delta, and is that derivative
    # of the delta = 0 model for sigma = -gamma, where its correction term
    # vanishes.
    rng = np.random.default_rng(53)
    h = 1e-6
    for _ in range(40):
        spec = random_spec(rng, variant)
        state = random_state(rng, spec)
        spec = replace(spec, mixing=closed_mixing(spec, state.N))
        fd_spec = spec.with_delta_zero() if mode == "practical" else spec
        n, x = spec.n, state.to_flat()
        blocks = rng.uniform(-1.0, 1.0, (n, n, 2)) * state.N.mean()
        if mode == "practical":
            blocks[:, :, 0] = -blocks[:, :, 1]
        got = np.array(flat_rhs_factory(spec, mode=mode)(
            2017.0, np.concatenate([x, blocks.ravel()]).tolist()))
        flat = np.array(flat_rhs_factory(spec)(2017.0, x.tolist()))
        Pi, _, delta, _ = spec.param_arrays()
        inc = rhs(spec, state).C
        scale = np.concatenate([np.column_stack([Pi + inc + spec.mu * state.S,
                                                 inc + (spec.mu + delta) * state.I]).ravel(),
                                inc])
        assert np.all(np.abs(got[:3 * n] - flat) <= 1e-12 * scale)
        for k in range(n):
            d = np.concatenate([blocks[k].ravel(), np.zeros(n)])
            lo, hi = (np.array(flat_rhs_factory(fd_spec.with_epsilon(
                {spec.labels[k]: spec.groups[k][1].epsilon + e}))(2017.0, (x - e * d).tolist()))
                for e in (-h, h))
            want = -(hi - lo)[:2 * n] / (2.0 * h)
            block = got[3 * n + 2 * n * k:3 * n + 2 * n * (k + 1)]
            assert np.abs(block - want).max() <= 1e-6 * np.abs(block).max()


@pytest.mark.parametrize("T", [3.0, 11.0])
def test_nnt_integral_at_node_horizon_is_node_trapezoid(aug_basic, T):
    # at a node horizon the integral is the trapezoid over the nodes alone,
    # with the arithmetic unchanged
    spec, traj, sens, _ = aug_basic
    j, k = spec.group_index("hetf"), spec.group_index("msm")
    m = traj.index_of(2020.0 + T) + 1
    ratio = sens["msm"].gamma[:m, j] / traj.states[:m, 2 * k]
    integral = float(np.trapezoid(ratio, traj.times[:m]))
    res = nnt(sens["msm"], traj, "hetf", "msm", T, spec.mu)
    assert res.nnt_integral == T / (ratio[-1] + spec.mu * integral)


def test_exact_delta_matches_fd_oracle_random_specs():
    # Random basic specs with delta != 0, whole-year rows of a 6-year run.
    # With the mixing pinned, exact_delta is the derivative of the model, up
    # to the difference quotient's error: worst 2.2e-7 of the row's largest
    # entry over 60 draws (12 each from seeds 61-65), bound 1e-5.
    # Re-closing the mixing at every evaluation adds the closure's dependence
    # on N, which the sensitivity system leaves out: worst 3.3e-3 over the
    # same draws, bound 1e-2.
    rng = np.random.default_rng(61)
    cfg = IntegratorConfig(t0=2020.0, t_end=2026.0, rtol=1e-12, atol=1e-10)
    for _ in range(12):
        spec = random_spec(rng, "basic")
        y0 = random_state(rng, spec)
        for model, tol in ((replace(spec, mixing=closed_mixing(spec, y0.N)), 1e-5),
                           (spec, 1e-2)):
            _, sens = integrate_with_spillover(model, y0, cfg, mode="exact_delta")
            for k in model.labels:
                fd = fd_oracle(model, y0, k, 1e-4, cfg)
                st = sens[k]
                for i, t in enumerate(fd.times[1:], 1):
                    assert node_index(st.times, t) is not None  # a stored row
                    got, want = rows_at(st.times, st.block, t), fd.block[i]
                    assert np.abs(got - want).max() <= tol * np.abs(got).max()


def _nnt_past_span(spec, y0):
    traj, sens = integrate_with_spillover(spec, y0, CFG.over(2020.0, 2022.0))
    return nnt(sens["msm"], traj, "hetf", "msm", 2.5, spec.mu)


@pytest.mark.parametrize("run, match", [
    (lambda spec, y0: integrate_with_spillover(spec, y0, CFG.over(2020.0, 2021.0),
                                               mode="nosuch"),
     "^unknown mode 'nosuch'$"),
    # None is flat_rhs_factory's plain state RHS, which has no blocks to integrate
    (lambda spec, y0: integrate_with_spillover(spec, y0, CFG.over(2020.0, 2021.0), mode=None),
     "^unknown mode None$"),
    (_nnt_past_span, r"^T = 2\.5: t = 2022\.5 is not a node of the trajectory$"),
], ids=["unknown-mode", "no-mode", "nnt-past-span"])
def test_spillover_refusals(basic, run, match):
    with pytest.raises(ValueError, match=match):
        run(*basic)


def test_fd_oracle_backward_below_full_coverage(basic):
    # eps_k + eps_tilde passes 1, eps_k - eps_tilde does not: a one-sided
    # backward difference, near the central one of a step that fits
    spec, y0 = basic
    spec = spec.with_epsilon({"hetm": 1.0 - 1e-7})
    cfg = IntegratorConfig(t0=2020.0, t_end=2022.0, rtol=1e-11, atol=1e-9)
    fd = fd_oracle(spec, y0, "hetm", 1e-6, cfg)
    assert fd.scheme == "backward"
    central = fd_oracle(spec, y0, "hetm", 5e-8, cfg)
    assert central.scheme == "central"
    scale = np.abs(central.gamma).max()  # about 392 persons per unit coverage
    assert scale > 1.0 and np.abs(fd.gamma - central.gamma).max() <= 1e-4 * scale
