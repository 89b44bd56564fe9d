import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (incidence_sensitivity, random_spec, random_state, rhs, rk4_fixed,
                      spillover_rhs, xi_correction)
from oracles import PerturbationOutOfRange, fd_oracle
from prepspill.errors import ZeroPopulation
from prepspill.integrators import IntegratorConfig, csv_text, integrate, node_index
from prepspill.model import StateVec, closed_mixing, dfe, flat_rhs_factory
from prepspill.spillover import block, integrate_with_spillover, nnt, sensitivity_to_csv

CFG = IntegratorConfig(t0=2017.0, t_end=2031.0, rtol=1e-9, atol=1e-7)


@pytest.fixture(scope="module")
def aug_basic(basic):
    """State + all-source sensitivities from the intervention year."""
    spec, y0 = basic
    base = integrate(spec, y0, CFG, sample_times=[2020.0])
    start = base.state_at(2020.0)
    traj = integrate_with_spillover(spec, start, cfg=CFG.over(2020.0, 2031.0))
    return spec, traj, base


def test_reads_outside_the_run_refused(aug_basic):
    # the sensitivity block is read through Trajectory.node, the state's
    # node check: a time past either end or between nodes is refused, not
    # held at the end row or interpolated
    _, traj, _ = aug_basic
    msm = block(traj, "msm")
    for t in (2100.0, 1900.0, 0.5 * (traj.times[5] + traj.times[6])):
        for read in (lambda t: msm[traj.node(t)], lambda t: traj.states[traj.node(t)]):
            with pytest.raises(ValueError,
                               match=re.escape(f"t = {t} is not a node of the trajectory")):
                read(t)
    assert np.array_equal(msm[traj.node(2031.0), 1::2], msm[-1, 1::2])


OFF_NODE = {"between-nodes": lambda times: 0.5 * (times[5] + times[6]),
            "before-span": lambda times: times[0] - 1.0,
            "after-span": lambda times: times[-1] + 1.0}


@pytest.mark.parametrize("where", OFF_NODE)
@pytest.mark.parametrize("reader", ["row_at", "state_at", "at", "nnt"])
def test_every_read_refuses_a_time_off_the_nodes(aug_basic, reader, where):
    # each reader of a run reads stored nodes only: a time inside the span
    # but between nodes is refused like one outside it, naming the time (for
    # nnt, t_start + T); "row_at" reads a flat row and "at" a sensitivity
    # block's row through Trajectory.node
    spec, traj, _ = aug_basic
    t = OFF_NODE[where](traj.times)
    assert node_index(traj.times, t) is None
    T = t - traj.times[0]
    read = {"row_at": lambda: traj.states[traj.node(t)],
            "state_at": lambda: traj.state_at(t),
            "at": lambda: block(traj, "msm")[traj.node(t)],
            "nnt": lambda: nnt(traj, "hetf", "msm", T, spec.mu)}[reader]
    named = traj.times[0] + T if reader == "nnt" else t
    with pytest.raises(ValueError, match=re.escape(f"t = {named} is not a node")):
        read()


def test_blocks_are_views_of_the_joint_run(aug_basic):
    # each source's block is the joint run's slots, uncopied; its row at a
    # node is the same bits as the rows of separate sigma and gamma arrays
    _, traj, _ = aug_basic
    for k in traj.labels:
        b = block(traj, k)
        assert np.shares_memory(b, traj.states)
        sigma, gamma = b[:, 0::2].copy(), b[:, 1::2].copy()
        for t in (2023.0, traj.times[5]):
            row = b[traj.node(t)]
            assert np.array_equal(row[0::2], sigma[traj.node(t)])
            assert np.array_equal(row[1::2], gamma[traj.node(t)])


def test_csv_of_a_source_subset_equals_columnwise_assembly(basic, tmp_path):
    # two of the sources, handed over out of label order: the stacked blocks
    # give the bytes of sigma and gamma put in column by column
    spec, y0 = basic
    traj = integrate_with_spillover(spec, y0, CFG.over(2020.0, 2023.0))
    sources, labels, n = sorted(["hetm", "msm"]), spec.labels, spec.n
    header = ["t"]
    table = np.empty((len(traj.times), 1 + 2 * n * len(sources)))
    table[:, 0] = traj.times
    for b, k in enumerate(sources):
        header += [f"{c}_{jl}__{k}" for jl in labels for c in ("sigma", "gamma")]
        table[:, 1 + 2 * n * b:1 + 2 * n * (b + 1):2] = block(traj, k)[:, 0::2].copy()
        table[:, 2 + 2 * n * b:2 + 2 * n * (b + 1):2] = block(traj, k)[:, 1::2].copy()
    path = tmp_path / "spillover.csv"
    sensitivity_to_csv(traj, ["hetm", "msm"], str(path))
    assert path.read_bytes() == csv_text(header, table.tolist()).encode()


def test_rhs_zero_at_disease_free(basic):
    spec, _ = basic
    eq = dfe(spec)
    d = spillover_rhs(spec, eq, spec.group_index("msm"), np.zeros(2 * spec.n))
    assert np.all(d == 0.0)


def test_initial_conditions_exactly_zero(aug_basic):
    _, traj, _ = aug_basic
    for k in traj.labels:
        assert np.all(block(traj, k)[0] == 0.0)


def test_sigma_gamma_cancellation_delta_zero(basic):
    # paired equations are exact negatives plus identical -mu decay, so
    # sigma + gamma stays identically zero from zero initial conditions
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    traj = integrate_with_spillover(spec0, y0, cfg=CFG.over(2017.0, 2027.0))
    for k in traj.labels:
        sigma, gamma = block(traj, k)[:, 0::2], block(traj, k)[:, 1::2]
        scale = max(np.abs(sigma).max(), np.abs(gamma).max())
        assert np.abs(sigma + gamma).max() < 1e-9 * scale


def test_no_spillover_onto_msm(aug_basic):
    # gamma_msm^{hetf} ~ 0 throughout the published baseline
    spec, traj, _ = aug_basic
    msm = spec.group_index("msm")
    for src in ("hetf", "hetm"):
        per_person = block(traj, src)[:, 1::2][:, msm] / traj.states[:, 2 * spec.group_index(src)]
        assert np.abs(per_person).max() < 1e-3


def test_adaptive_vs_fixed_gamma(basic):
    spec, y0 = basic
    base = integrate(spec, y0, CFG, sample_times=[2020.0])
    start = base.state_at(2020.0)
    traj_a = integrate_with_spillover(spec, start, cfg=CFG.over(2020.0, 2030.0))
    # the fixed-step oracle over the same generated augmented system
    n, msm, hetf = spec.n, spec.group_index("msm"), spec.group_index("hetf")
    f = flat_rhs_factory(spec, mode="practical")
    y0_flat = np.concatenate([start.to_flat(), np.zeros(2 * n * n)])
    _, rows = rk4_fixed(f, y0_flat, 2020.0, 2030.0, 0.05)
    ga = block(traj_a, "msm")[traj_a.node(2030.0), 1::2][hetf]
    gf = rows[-1][3 * n + 2 * n * msm + 2 * hetf + 1]
    assert abs(ga - gf) / abs(ga) < 1e-3


def test_chain_rule_consistency(basic, aug_basic):
    # (gamma_j/S_k) * dE predicts infections averted by a finite intervention;
    # the exact-delta mode is the true derivative of the delta != 0 model
    spec, y0 = basic
    _, _, base = aug_basic
    start = base.state_at(2020.0)
    traj = integrate_with_spillover(spec, start, cfg=CFG.over(2020.0, 2031.0),
                                    mode="exact_delta")
    dE = 1000.0
    k = spec.group_index("msm")
    eps_new = spec.groups[k][1].epsilon + dE / start.S[k]
    pert = integrate(spec.with_epsilon({"msm": eps_new}), start,
                     CFG.over(2020.0, 2031.0))
    n = spec.n
    base_c, pert_c = (r.states[r.node(2031.0)][2 * n:] - r.states[r.node(2020.0)][2 * n:]
                      for r in (base, pert))
    averted_msm = base_c[0] - pert_c[0]
    # cumulative-incidence sensitivity: gamma(T)/S_k(T) + mu*int(gamma/S_k)
    res = nnt(traj, "msm", "msm", 11.0, spec.mu)
    predicted = 11.0 * dE / res.nnt_integral
    assert abs(predicted - averted_msm) / averted_msm < 0.05


def test_monotone_growth_of_spillover(aug_basic):
    spec, traj, _ = aug_basic
    hetf = spec.group_index("hetf")
    msm_idx = spec.group_index("msm")
    ratio = np.abs(block(traj, "msm")[:, 1::2][:, hetf]) / traj.states[:, 2 * msm_idx]
    assert np.all(np.diff(ratio) >= -1e-15)


def test_nnt_undefined_for_nonpositive_gamma(aug_basic):
    spec, traj, _ = aug_basic
    res = nnt(traj, "msm", "hetm", 10.0, spec.mu)
    # msm gains essentially nothing from hetm PrEP; at early times gamma can
    # be zero to roundoff -- force the undefined branch with T tiny
    res0 = nnt(traj, "msm", "hetm", 0.0, spec.mu)
    assert res0.defined is False
    assert np.isnan(res0.nnt_simple)
    # and a genuinely positive pair is defined with positive values
    res1 = nnt(traj, "msm", "msm", 10.0, spec.mu)
    assert res1.defined and res1.nnt_simple > 0 and res1.nnt_integral > 0


def test_nnt_names_an_unknown_group(aug_basic):
    # j, and k the block's source, are both looked up in the trajectory's labels
    spec, traj, _ = aug_basic
    with pytest.raises(ValueError, match=re.escape(
            "no group 'nope' in the trajectory's labels ('msm', 'hetf', 'hetm')")):
        nnt(traj, "nope", "msm", 10.0, spec.mu)
    with pytest.raises(ValueError, match=re.escape(
            "no group 'nope' in the trajectory's labels ('msm', 'hetf', 'hetm')")):
        nnt(traj, "hetf", "nope", 10.0, spec.mu)


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
    traj = integrate_with_spillover(spec, start, cfg=cfg)
    b = block(traj, "msm")
    j = spec.group_index("hetf")
    k = spec.group_index("msm")
    vals = np.empty(len(traj.times))
    for i in range(len(traj.times)):
        state = StateVec.from_flat(traj.states[i], spec.n)
        vals[i] = incidence_sensitivity(spec, state, k, b[i], j)
    lhs = np.trapezoid(vals, traj.times)
    ratio = b[:, 1::2][:, j] / traj.states[:, 2 * k]
    rhs_val = ratio[-1] + spec.mu * np.trapezoid(ratio, traj.times)
    assert abs(lhs - rhs_val) < 1e-6 * max(abs(rhs_val), 1e-12)


def test_incidence_sensitivity_nonnegative_along_baseline(aug_basic):
    spec, traj, _ = aug_basic
    for k, src in enumerate(spec.labels):
        b = block(traj, src)
        for i in range(0, len(traj.times), 2):
            state = StateVec.from_flat(traj.states[i], spec.n)
            for j in range(spec.n):
                assert incidence_sensitivity(spec, state, k, b[i], j) >= -1e-12


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
    spec, traj, _ = aug_basic
    i = len(traj.times) // 2
    state = StateVec.from_flat(traj.states[i], spec.n)
    synthetic = block(traj, "msm")[i].copy()
    synthetic[0::2] += 10.0  # sigma
    Xi, contrib = xi_correction(spec, state, synthetic)
    d = spillover_rhs(spec, state, spec.group_index("msm"), synthetic)
    dominant = np.abs(d[1::2]).max()
    assert np.abs(contrib).max() < 1e-3 * dominant


def test_exact_delta_flag_no_op_when_delta_zero(basic):
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    cfg = CFG.over(2017.0, 2027.0)
    s_off = integrate_with_spillover(spec0, y0, cfg=cfg)
    s_on = integrate_with_spillover(spec0, y0, cfg=cfg, mode="exact_delta")
    g_off = block(s_off, "msm")[-1, 1::2]
    g_on = block(s_on, "msm")[-1, 1::2]
    assert np.max(np.abs(g_on - g_off)) <= 1e-12 * np.abs(g_off).max()


def test_exact_delta_matches_fd_with_delta(basic):
    # with disease mortality on, only the exact mode tracks the true derivative
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2020.0, t_end=2026.0, rtol=1e-11, atol=1e-9)
    base = integrate(spec, y0, CFG.over(2017.0, 2020.0))
    start = base.final_state()
    s_ex = integrate_with_spillover(spec, start, cfg=cfg, mode="exact_delta")
    fd = fd_oracle(spec, start, "msm", 1e-6, cfg)
    for i, t in enumerate(fd.times):
        both, est = block(s_ex, "msm")[s_ex.node(t)], fd.block[i]
        scale = max(np.abs(both).max(), 1e-30)
        assert np.abs(both - est).max() < 1e-3 * scale


def test_fd_oracle_second_order(basic):
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    cfg = IntegratorConfig(t0=2020.0, t_end=2025.0, rtol=1e-12, atol=1e-10)
    base = integrate(spec0, y0, CFG.over(2017.0, 2020.0))
    start = base.final_state()
    traj = integrate_with_spillover(spec0, start, cfg=cfg)
    ref_vec = block(traj, "msm")[traj.node(2025.0)]
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
    s0 = integrate_with_spillover(spec, start, cfg=cfg)
    spec2 = spec.with_epsilon({"msm": 0.20})
    s2 = integrate_with_spillover(spec2, start, cfg=cfg)
    g0 = block(s0, "msm")[-1, 1::2][0]
    g2 = block(s2, "msm")[-1, 1::2][0]
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
    spec, traj, _ = aug_basic
    j, k = spec.group_index("hetf"), spec.group_index("msm")
    m = traj.node(2020.0 + T) + 1
    ratio = block(traj, "msm")[:m, 1::2][:, j] / traj.states[:m, 2 * k]
    integral = float(np.trapezoid(ratio, traj.times[:m]))
    res = nnt(traj, "hetf", "msm", T, spec.mu)
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
            traj = integrate_with_spillover(model, y0, cfg, mode="exact_delta")
            for k in model.labels:
                fd = fd_oracle(model, y0, k, 1e-4, cfg)
                for i, t in enumerate(fd.times[1:], 1):
                    # a stored row: ValueError unless t is a node
                    got, want = block(traj, k)[traj.node(t)], fd.block[i]
                    assert np.abs(got - want).max() <= tol * np.abs(got).max()


def _nnt_past_span(spec, y0):
    traj = integrate_with_spillover(spec, y0, CFG.over(2020.0, 2022.0))
    return nnt(traj, "hetf", "msm", 2.5, spec.mu)


@pytest.mark.parametrize("run, match", [
    (lambda spec, y0: integrate_with_spillover(spec, y0, CFG.over(2020.0, 2021.0),
                                               mode="nosuch"),
     "^unknown mode 'nosuch'$"),
    # None is flat_rhs_factory's plain state RHS, which has no blocks to integrate
    (lambda spec, y0: integrate_with_spillover(spec, y0, CFG.over(2020.0, 2021.0), mode=None),
     "^unknown mode None$"),
    (_nnt_past_span, r"^t = 2022\.5 is not a node of the trajectory$"),
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
    gamma, central_gamma = fd.block[:, 1::2], central.block[:, 1::2]
    scale = np.abs(central_gamma).max()  # about 392 persons per unit coverage
    assert scale > 1.0 and np.abs(gamma - central_gamma).max() <= 1e-4 * scale
