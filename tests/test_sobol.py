from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (basis_matrix_loop, random_spec, random_state,
                      sobol_indices_loop, tensor_grid_loop)
from prepspill.errors import (DimensionOverflow, EnsembleError,
                              ExactnessViolation, StepSizeUnderflow)
from prepspill.integrators import IntegratorConfig, annual_series, integrate_batch
from prepspill.sobol import (PCExpansion, UncertainInput, _basis_matrix,
                             _series_indices, build_grid, coverage_fractions,
                             coverage_model_fn, fit_pce, sobol_indices,
                             sobol_timeseries, total_degree_set)


def unit_inputs(d):
    return [UncertainInput(group=None, lo=-1.0, hi=1.0) for _ in range(d)]


def test_gauss_legendre_level2_classic():
    g = build_grid(unit_inputs(1), level=2)
    assert np.allclose(np.sort(g.nodes[:, 0]), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(g.weights, [0.5, 0.5])


def test_weights_normalised_all_rules():
    for dims in (1, 2, 3, 4):
        for level in range(1, 7):
            g = build_grid(unit_inputs(dims), level=level)
            assert abs(g.weights.sum() - 1.0) < 1e-12


def test_tensor_node_count():
    g = build_grid(unit_inputs(4), level=5)
    assert g.n_nodes == 625


def test_dimension_overflow():
    with pytest.raises(DimensionOverflow):
        build_grid(unit_inputs(4), level=12)  # 20736 > cap


def test_node_cap_checked_before_the_1d_rule(monkeypatch):
    # leggauss(level) costs O(level**2) memory and O(level**3) time: a huge
    # level is refused from its node count alone; degenerate axes hold one
    # node each, so they do not count against the cap
    import prepspill.sobol as sobol_mod

    def never(level):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(sobol_mod.np.polynomial.legendre, "leggauss", never)
    with pytest.raises(DimensionOverflow, match="125000000000 nodes exceed cap 20000"):
        build_grid(unit_inputs(3), level=5000)
    monkeypatch.undo()
    flat = [UncertainInput(group=None, lo=0.5, hi=0.5)] * 5  # 30**6 would exceed it
    assert build_grid(unit_inputs(1) + flat, level=30).n_nodes == 30


def test_level_cap_checked_before_the_1d_rule(monkeypatch, tmp_path, capsys):
    # a level the node count lets through (every input degenerate, or one
    # input) is still refused above LEVEL_CAP, before leggauss builds anything
    import prepspill.sobol as sobol_mod
    from prepspill.cli import main

    def never(level):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(sobol_mod.np.polynomial.legendre, "leggauss", never)
    over = sobol_mod.LEVEL_CAP + 1
    flat = [UncertainInput(group=None, lo=0.0, hi=0.0)] * 3
    for inputs in (flat, unit_inputs(1)):
        with pytest.raises(DimensionOverflow, match=f"^level {over} exceeds cap 100$"):
            build_grid(inputs, level=over)
    assert main(["sobol", "--lo", "0", "--hi", "0", "--level", str(over),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: level {over} exceeds cap 100\n"
    monkeypatch.undo()
    assert build_grid(unit_inputs(1), level=sobol_mod.LEVEL_CAP).n_nodes == 100


def test_fit_linear_coefficient():
    g = build_grid(unit_inputs(2), level=5)
    pce = fit_pce(g.nodes[:, 0], g, total_degree=4)
    # orthonormal P1 = sqrt(3) * theta, so d_{(1,0)} = 1/sqrt(3)
    idx = [tuple(p) for p in pce.index_set]
    d10 = pce.coeffs[idx.index((1, 0))]
    assert d10 == pytest.approx(1 / np.sqrt(3), rel=1e-12)
    others = [c for p, c in zip(idx, pce.coeffs) if p != (1, 0)]
    assert np.max(np.abs(others)) < 1e-12


def test_fit_constant():
    g = build_grid(unit_inputs(2), level=4)
    pce = fit_pce(np.full(g.n_nodes, 3.5), g, total_degree=3)
    si = sobol_indices(pce)
    m, v = si.mean, si.variance
    assert m == pytest.approx(3.5, rel=1e-14)
    assert v == pytest.approx(0.0, abs=1e-24)


def test_polynomial_reproduced_exactly():
    rng = np.random.default_rng(8)
    g = build_grid(unit_inputs(3), level=5)

    def f(th):
        return (0.3 + 1.2 * th[0] - 0.5 * th[1] * th[2]
                + 0.25 * th[0] ** 2 * th[1] ** 2 - 0.1 * th[2] ** 4)

    samples = np.array([f(n) for n in g.nodes])
    pce = fit_pce(samples, g, total_degree=4)
    for th in rng.uniform(-1, 1, size=(100, 3)):
        assert pce(th) == pytest.approx(f(th), abs=1e-10)


def test_exactness_violation_refused():
    g = build_grid(unit_inputs(2), level=3)
    with pytest.raises(ExactnessViolation):
        fit_pce(np.zeros(g.n_nodes), g, total_degree=3)  # needs level >= 3.5


def test_study_refuses_a_coarse_tensor_before_integrating(risk, monkeypatch, tmp_path, capsys):
    # level 5 is exact to degree 9 and degree 5 needs 10: the study and the
    # CLI refuse before the 625-node batch, not after it
    import prepspill.sobol as sobol_mod
    from prepspill.cli import main

    def never(*args, **kwargs):
        raise AssertionError("integrate_batch called")

    monkeypatch.setattr(sobol_mod, "integrate_batch", never)
    spec, y0 = risk
    inputs = [UncertainInput(group=lbl, lo=-0.5, hi=4.0) for lbl in spec.labels]
    with pytest.raises(ExactnessViolation, match="projection needs 10"):
        sobol_mod.sobol_timeseries(spec, y0, inputs, level=5, total_degree=5)
    assert main(["sobol", "--model", "risk", "--level", "5", "--degree", "5",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tensor level 5 ") and err.count("\n") == 1


@pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.0, float("nan")),
                                   (-float("inf"), 1.0), (0.0, float("inf")), (1.0, 0.0)])
def test_uncertain_input_needs_finite_ordered_bounds(lo, hi):
    # a NaN bound fails lo > hi as well, so it is refused as non-finite here,
    # not deep in a study's closure
    with pytest.raises(ValueError, match="need finite lo <= hi"):
        UncertainInput(group="msm", lo=lo, hi=hi)


def test_negative_degree_refused_before_integrating(basic, monkeypatch):
    # both entry points refuse a negative degree, the study before its batch
    import prepspill.sobol as sobol_mod

    def never(*args, **kwargs):
        raise AssertionError("integrate_batch called")

    monkeypatch.setattr(sobol_mod, "integrate_batch", never)
    spec, y0 = basic
    inputs = [UncertainInput(group=lbl, lo=-0.5, hi=1.0) for lbl in spec.labels]
    with pytest.raises(ValueError, match="total_degree = -1 must be >= 0"):
        sobol_timeseries(spec, y0, inputs, level=2, total_degree=-1)
    g = build_grid(unit_inputs(2), level=2)
    with pytest.raises(ValueError, match="total_degree = -1 must be >= 0"):
        fit_pce(np.zeros(g.n_nodes), g, total_degree=-1)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_whole_array_sobol_layers_equal_loop_forms(seed):
    # the tensor grid, the basis matrix and every series' indices equal
    # their loop forms (conftest) bit for bit, with degenerate intervals,
    # constant series and series below the variance floor among the draws
    rng = np.random.default_rng(seed)
    dims, level = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    inputs = []
    for _ in range(dims):
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo if rng.random() < 0.3 else lo + float(rng.uniform(1e-3, 5.0))
        inputs.append(UncertainInput(group=None, lo=lo, hi=hi))
    grid = build_grid(inputs, level=level)
    nodes, weights = tensor_grid_loop(inputs, level)
    assert grid.nodes.shape == nodes.shape and grid.nodes.flags.c_contiguous
    assert _bits(grid.nodes) == _bits(nodes) and _bits(grid.weights) == _bits(weights)

    index_set = total_degree_set(dims, int(rng.integers(0, 5)))
    lo = np.array([u.lo for u in inputs])
    theta = np.vstack([grid.nodes, lo + (np.array([u.hi for u in inputs]) - lo)
                       * rng.uniform(0.0, 1.0, (7, dims))])
    assert _bits(_basis_matrix(index_set, theta, grid.intervals)) == _bits(
        basis_matrix_loop(index_set, theta, grid.intervals))

    k = int(rng.integers(1, 9))
    coeffs = rng.standard_normal((len(index_set), k)) * 10.0 ** rng.uniform(-3, 6, k)
    coeffs[1:, 0] = 0.0  # constant: zero variance
    if k > 1:
        coeffs[1:, 1] *= 1e-16  # within the roundoff of its mean
    got = _series_indices(index_set, coeffs)
    assert len(got) == k
    for c, si in enumerate(got):
        first, total, mean, variance, defined = sobol_indices_loop(index_set, coeffs[:, c])
        assert (si.mean, si.variance, si.defined) == (mean, variance, defined)
        assert _bits(si.first_order) == _bits(first) and _bits(si.total) == _bits(total)
        one = sobol_indices(PCExpansion(index_set, coeffs[:, c], grid.intervals))
        assert _bits(one.total) == _bits(total)
        assert (one.mean, one.variance) == (mean, variance)
    assert not got[0].defined and (k == 1 or not got[1].defined)


def test_gram_orthonormality_all_grids():
    for level, deg in ((5, 4), (6, 5)):
        g = build_grid(unit_inputs(3), level=level)
        idx = total_degree_set(3, deg)
        P = _basis_matrix(idx, g.nodes, g.intervals)
        gram = P.T @ (P * g.weights[:, None])
        assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-10


def test_mean_var_analytic():
    g = build_grid(unit_inputs(2), level=5)
    y = g.nodes[:, 0] + 2.0 * g.nodes[:, 1]
    si = sobol_indices(fit_pce(y, g, total_degree=4))
    m, v = si.mean, si.variance
    assert m == pytest.approx(0.0, abs=1e-14)
    assert v == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_mean_var_monte_carlo_cross_check():
    # MC on the fitted polynomial surrogate agrees within 3 standard errors
    g = build_grid(unit_inputs(2), level=5)
    y = np.array([np.exp(0.3 * n[0]) * (1 + 0.5 * n[1]) for n in g.nodes])
    pce = fit_pce(y, g, total_degree=4)
    si = sobol_indices(pce)
    m, v = si.mean, si.variance
    rng = np.random.default_rng(17)
    draws = rng.uniform(-1, 1, size=(10 ** 6, 2))
    vals = pce(draws)
    se_mean = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - m) < 3 * se_mean
    mc_var = vals.var(ddof=1)
    se_var = np.sqrt((np.mean((vals - vals.mean()) ** 4)
                      - mc_var ** 2) / vals.size)
    assert abs(mc_var - v) < 3 * se_var


def test_sobol_additive():
    g = build_grid(unit_inputs(2), level=5)
    si = sobol_indices(fit_pce(g.nodes[:, 0] + 2 * g.nodes[:, 1], g, 4))
    assert si.defined
    assert np.allclose(si.first_order, [0.2, 0.8], atol=1e-10)
    assert np.allclose(si.total, [0.2, 0.8], atol=1e-10)


def test_sobol_pure_interaction():
    g = build_grid(unit_inputs(2), level=5)
    si = sobol_indices(fit_pce(g.nodes[:, 0] * g.nodes[:, 1], g, 4))
    assert np.allclose(si.first_order, [0.0, 0.0], atol=1e-10)
    assert np.allclose(si.total, [1.0, 1.0], atol=1e-10)


def test_sobol_constant_undefined():
    g = build_grid(unit_inputs(2), level=4)
    si = sobol_indices(fit_pce(np.full(g.n_nodes, 2.0), g, 3))
    assert si.defined is False
    assert np.all(np.isnan(si.first_order))


def test_additive_model_first_equals_total():
    g = build_grid(unit_inputs(3), level=6)
    y = (np.sin(g.nodes[:, 0]) + g.nodes[:, 1] ** 3
         + 0.5 * g.nodes[:, 2] ** 2)
    si = sobol_indices(fit_pce(y, g, total_degree=5))
    assert np.max(np.abs(si.first_order - si.total)) < 1e-8


def test_ensemble_monotone_in_msm_coverage(basic):
    # more MSM PrEP, less MSM incidence, node by node
    spec, y0 = basic
    inputs = [UncertainInput(group="msm", lo=-0.5, hi=4.0)]
    g = build_grid(inputs, level=7)
    cfg = IntegratorConfig(t0=2017.0, t_end=2022.0)
    fn = coverage_model_fn(spec, y0, inputs, cfg)
    msm_cum = []
    order = np.argsort(g.nodes[:, 0])
    for node in g.nodes[order]:
        _, table = fn(node)
        msm_cum.append(table[:, 0].sum())
    assert np.all(np.diff(msm_cum) < 0.0)


def test_degenerate_intervals_zero_variance(basic):
    spec, y0 = basic
    inputs = [UncertainInput(group=l, lo=0.0, hi=0.0) for l in spec.labels]
    cfg = IntegratorConfig(t0=2017.0, t_end=2020.0)
    study = sobol_timeseries(spec, y0, inputs, level=2, total_degree=1, cfg=cfg)
    for si in study.indices.values():
        assert si.defined is False


def test_timeseries_study_patterns(basic):
    spec, y0 = basic
    inputs = tuple(UncertainInput(group=l, lo=-0.5, hi=4.0)
                   for l in spec.labels) + \
        (UncertainInput(group=None, lo=-0.5, hi=4.0),)
    cfg = IntegratorConfig(t0=2017.0, t_end=2024.0)
    study = sobol_timeseries(spec, y0, inputs, level=3, total_degree=2, cfg=cfg)
    assert study.n_nodes == 81
    assert study.clamp_count == 0
    for year in study.years:
        msm = study.indices[(year, "msm")]
        assert msm.total[0] > 0.99          # own coverage explains msm variance
        assert msm.total[3] < 1e-6          # inert input contributes nothing
        hetf = study.indices[(year, "hetf")]
        assert hetf.total[0] > hetf.total[1]


def test_timeseries_one_batched_integration(basic, monkeypatch):
    # every node in one integrate_batch call, every series in one fit_pce call
    import prepspill.sobol as sobol_mod

    spec, y0 = basic
    inputs = [UncertainInput(group="msm", lo=-0.5, hi=1.0)]
    cfg = IntegratorConfig(t0=2017.0, t_end=2019.0)
    calls = {"integrate_batch": [], "fit_pce": []}
    for name in calls:
        def counting(*args, _real=getattr(sobol_mod, name), _log=calls[name], **kwargs):
            _log.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(sobol_mod, name, counting)
    study = sobol_timeseries(spec, y0, inputs, level=4, total_degree=2, cfg=cfg)
    assert study.n_nodes == 4 and study.years == [2017, 2018]
    assert len(calls["integrate_batch"]) == 1 and len(calls["fit_pce"]) == 1
    assert calls["integrate_batch"][0][2].shape == (4, spec.n)
    # Dormand-Prince: 1 + 6 RHS evaluations per attempt, one whole-year
    # attempt per year (the first year's included: the first trial step is
    # the distance to the first node)
    assert (study.rtol, study.atol, study.rhs_evals) == (1e-8, 1e-6, 1 + 6 * 2)


def test_timeseries_failure_names_member(basic, monkeypatch):
    # the array closure rejects member 2 only: the study names node 2
    from prepspill import model
    from prepspill.errors import InfeasibleClosure

    spec, y0 = basic
    inputs = [UncertainInput(group="msm", lo=-0.5, hi=1.0)]
    cfg = IntegratorConfig(t0=2017.0, t_end=2019.0)
    real = model.VARIANTS["basic"].batch_closure

    def reject_member_2(N, a, priors, t=None):
        N = [col.copy() for col in N]
        N[1][2] = -1.0
        return real(N, a, priors, t=t)

    monkeypatch.setattr(model.VARIANTS["basic"], "batch_closure", reject_member_2)
    with pytest.raises(EnsembleError) as exc:
        sobol_timeseries(spec, y0, inputs, level=4, total_degree=2, cfg=cfg)
    grid = build_grid(inputs, level=4)
    assert str(exc.value) == "model failed at node 2: nonpositive total contact volume"
    assert exc.value.node_index == 2
    assert np.array_equal(exc.value.node, grid.nodes[2])
    assert isinstance(exc.value.__cause__, InfeasibleClosure)
    assert exc.value.__cause__.member == 2


def test_timeseries_failure_names_lowest_sharing_node(basic, monkeypatch):
    # Node i is (hetf, msm, inert) = (i // 4, i // 2 % 2, i % 2): the inert
    # input makes node pairs share a coverage row, and rows sorted by value
    # (msm first) would put node 4's before node 2's.  The batch fails on the
    # rows of nodes 3 and 5; the study names node 2, the lowest failing one.
    from prepspill import integrators
    from prepspill.errors import ZeroPopulation

    spec, y0 = basic
    inputs = [UncertainInput(group="hetf", lo=-0.5, hi=1.0),
              UncertainInput(group="msm", lo=-0.5, hi=1.0),
              UncertainInput(group=None, lo=-1.0, hi=1.0)]
    cfg = IntegratorConfig(t0=2017.0, t_end=2019.0)
    grid = build_grid(inputs, level=2)
    rows = coverage_fractions(spec, y0, inputs, grid.nodes)[0][[3, 5]]
    real = integrators.batched_rhs_factory

    def fail_on_rows(spec, eps):
        f = real(spec, eps)
        hit = np.flatnonzero((eps[:, None] == rows).all(axis=2).any(axis=1))

        def g(t, y):
            if t > 2018.0:
                raise ZeroPopulation("group msm has N = 0").for_member(hit[0])
            return f(t, y)
        g.switches = f.switches  # basic: None
        return g

    monkeypatch.setattr(integrators, "batched_rhs_factory", fail_on_rows)
    with pytest.raises(EnsembleError) as exc:
        sobol_timeseries(spec, y0, inputs, level=2, total_degree=1, cfg=cfg)
    assert str(exc.value) == "model failed at node 2: group msm has N = 0"
    assert exc.value.node_index == 2
    assert np.array_equal(exc.value.node, grid.nodes[2])
    assert exc.value.__cause__.member == 2


def test_study_counts_distinct_coverage_rows(basic, risk):
    # criterion 9's layout: hetm has no baseline coverage to scale and the
    # fourth input is inert, so 625 nodes hold 25 coverage rows; the risk
    # layout's 256 nodes are 256 rows.  rhs_evals counts batch evaluations:
    # 1 Dormand-Prince attempt over the year, 1 + 6 per attempt, which the
    # manifest reports as 1 accepted and 0 rejected steps.
    from prepspill.scenarios import sobol_manifest

    cfg = IntegratorConfig(t0=2017.0, t_end=2018.0)
    spec, y0 = basic
    inputs = tuple(UncertainInput(group=l, lo=-0.5, hi=4.0) for l in spec.labels) + (
        UncertainInput(group=None, lo=-0.5, hi=4.0),)
    study = sobol_timeseries(spec, y0, inputs, level=5, total_degree=4, cfg=cfg)
    man = sobol_manifest(study)
    assert (man["node_count"], man["members"], man["rhs_evals"]) == (625, 25, 7)
    assert (man["steps_accepted"], man["steps_rejected"]) == (1, 0)
    assert man["integrator"] == {"rtol": 1e-8, "atol": 1e-6}
    spec, y0 = risk
    inputs = (UncertainInput("msm", -0.5, 2.0), UncertainInput("hetf_h", -0.5, 2.0),
              UncertainInput("hetf_l", 0.0, 20000.0, domain="count"),
              UncertainInput("hetm", 0.0, 20000.0, domain="count"))
    study = sobol_timeseries(spec, y0, inputs, level=4, total_degree=3, cfg=cfg)
    assert (study.n_nodes, study.members, study.rhs_evals) == (256, 256, 7)


# The sobol benchmark's risk layout: its seed-4242 intervals, rounded
RISK_BENCH_INPUTS = (UncertainInput("msm", -0.47, 3.05), UncertainInput("hetf_h", -0.49, 4.0),
                     UncertainInput("hetf_l", 2900.0, 24500.0, domain="count"),
                     UncertainInput("hetm", 4250.0, 25300.0, domain="count"))


def test_batch_steps_freely_whatever_the_cfg(basic, monkeypatch):
    # The batch steps freely to the whole years it reads, with cfg.first_step
    # as its first step if set, else the first year whole.  A cfg that does
    # not land on years gives the default cfg's study bit for bit (it used
    # to integrate the batch and then raise PartialYear).
    import prepspill.sobol as sobol_mod

    spec, y0 = basic
    inputs = [UncertainInput(group=l, lo=-0.5, hi=2.0) for l in spec.labels]
    cfgs = []

    def spy(spec, y0, eps, cfg, *args):
        cfgs.append(cfg)
        return real(spec, y0, eps, cfg, *args)
    real = sobol_mod.integrate_batch
    monkeypatch.setattr(sobol_mod, "integrate_batch", spy)
    cfg = IntegratorConfig(t0=2017.0, t_end=2020.0)
    default, free, quarter = (
        sobol_timeseries(spec, y0, inputs, level=3, total_degree=2, cfg=c)
        for c in (cfg, replace(cfg, year_nodes=False), replace(cfg, first_step=0.25)))
    assert [(c.year_nodes, c.first_step) for c in cfgs] == [(False, 1.0), (False, 1.0),
                                                            (False, 0.25)]
    assert free.samples.keys() == default.samples.keys()
    for key, si in default.indices.items():
        assert np.array_equal(free.samples[key], default.samples[key])
        assert np.array_equal(free.indices[key].total, si.total)
    assert (free.rhs_evals, free.steps_accepted, free.steps_rejected) == (
        default.rhs_evals, default.steps_accepted, default.steps_rejected) == (19, 3, 0)
    assert quarter.steps_accepted > default.steps_accepted


def test_risk_batch_work_is_pinned(risk):
    # Free stepping to the years, landing once on the first and once on the
    # last of the members' xi_hetm clamp switches in 2027: the one rejected
    # attempt is the 2027 step that finds them.  The CLI's default layout
    # and the benchmark's each took 181 RHS evaluations (30 attempts, 10
    # rejected) when the batch landed on years, and 133 (22 attempts, 3
    # rejected) when it stepped freely across the switches.
    from prepspill.scenarios import default_config, sobol_study

    study = sobol_study(default_config("risk"), level=3, degree=2)
    assert (study.rhs_evals, study.steps_accepted, study.steps_rejected) == (103, 16, 1)
    spec, y0 = risk
    study = sobol_timeseries(spec, y0, RISK_BENCH_INPUTS, level=4, total_degree=3)
    assert (study.rhs_evals, study.steps_accepted, study.steps_rejected) == (103, 16, 1)


def test_basic_samples_equal_the_year_landing_batch(basic):
    # no basic step is rejected, and each year is one step: the free batch
    # takes the year-landing batch's steps, so its samples keep their bits
    spec, y0 = basic
    inputs = tuple(UncertainInput(group=l, lo=-0.5, hi=4.0) for l in spec.labels) + (
        UncertainInput(group=None, lo=-0.5, hi=4.0),)
    study = sobol_timeseries(spec, y0, inputs, level=5, total_degree=4)
    eps, _ = coverage_fractions(spec, y0, inputs, build_grid(inputs, level=5).nodes)
    traj = integrate_batch(spec, y0, eps, IntegratorConfig(2017.0, 2031.0))
    years, table = annual_series(traj)
    assert study.years == years and study.rhs_evals == traj.rhs_evals == 85
    for yi, year in enumerate(years):
        for gi, lbl in enumerate(spec.labels):
            assert np.array_equal(study.samples[(year, lbl)], table[yi, gi])


def test_risk_samples_near_tight_runs(risk):
    # every 8th node of the benchmark's risk layout against its own run at
    # rtol 1e-12, atol 1e-10 and dt_max 0.05, relative to at least one
    # person: the worst is 6.0e-8 (3.4e-6 when the batch stepped across the
    # switches, 1.1e-5 when it landed on years)
    spec, y0 = risk
    study = sobol_timeseries(spec, y0, RISK_BENCH_INPUTS, level=4, total_degree=3)
    fn = coverage_model_fn(spec, y0, RISK_BENCH_INPUTS, IntegratorConfig(
        2017.0, 2031.0, rtol=1e-12, atol=1e-10, dt_max=0.05))
    grid = build_grid(RISK_BENCH_INPUTS, level=4)
    worst = 0.0
    for i in range(0, grid.n_nodes, 8):
        _, want = fn(grid.nodes[i])
        got = np.array([[study.samples[(y, l)][i] for l in spec.labels] for y in study.years])
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))))
    assert worst <= 7e-8


def _per_node(spec, y0, inputs, grid, cfg):
    """Every node integrated on its own: samples (nodes, years, groups) and
    the summed clamp count."""
    fn = coverage_model_fn(spec, y0, inputs, cfg)
    clamps = sum(coverage_fractions(spec, y0, inputs, node)[1] for node in grid.nodes)
    return np.array([fn(node)[1] for node in grid.nodes]), clamps


def _assert_study_near_tight_runs(study, spec, y0, inputs, cfg, share=1e-9, own=None):
    """Each node's samples against the node's own run at rtol 1e-12, atol
    1e-10 and dt_max 0.05: within ``share`` of the (year, group) column's
    largest entry on basic, and within 1e-4 relative (of at least one
    person) on risk, where the closure's clamp of xi_hetm puts a kink in the
    RHS.  With ``own`` given, a basic node's samples are held within ``own``
    of column scale of the node's own run at cfg instead, and that run
    within ``share`` of the tight one.  The clamp counts are exact."""
    grid = build_grid(inputs, level=study.grid_level)
    want, clamps = _per_node(spec, y0, inputs, grid,
                             replace(cfg, rtol=1e-12, atol=1e-10, dt_max=0.05))
    at_cfg = None
    if own is not None and spec.variant == "basic":
        at_cfg = _per_node(spec, y0, inputs, grid, cfg)[0]
    for yi, year in enumerate(study.years):
        for gi, lbl in enumerate(spec.labels):
            got, ref = study.samples[(year, lbl)], want[:, yi, gi]
            if at_cfg is not None:
                mid = at_cfg[:, yi, gi]
                assert np.abs(got - mid).max() <= own * np.abs(mid).max()
                assert np.abs(mid - ref).max() <= share * np.abs(ref).max()
            elif spec.variant == "basic":
                assert np.abs(got - ref).max() <= share * np.abs(ref).max()
            else:
                assert np.all(np.abs(got - ref) <= 1e-4 * np.maximum(np.abs(ref), 1.0))
    assert study.clamp_count == clamps
    assert study.boundary_affected == (clamps > 0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]),
       pinned=st.booleans(), kinds=st.lists(st.sampled_from(["scale", "count", "inert"]),
                                            min_size=1, max_size=3))
# an rtol-1e-8 scalar run that is itself 1.26e-8 of column scale off the
# tight run; the batch is 4.4e-9 off that run
@example(seed=310109034, variant="basic", pinned=True, kinds=["scale"])
def test_batched_study_near_per_node_runs_property(seed, variant, pinned, kinds):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant)
    y0 = random_state(rng, spec)
    if pinned:
        spec = replace(spec, mixing=spec.mixing_priors)
    inputs = []
    for kind in kinds:
        k = int(rng.integers(spec.n))
        if kind == "inert":
            inputs.append(UncertainInput(group=None, lo=-1.0, hi=1.0))
        elif kind == "scale":
            lo = rng.uniform(-1.5, 0.0)
            inputs.append(UncertainInput(spec.labels[k], lo, lo + rng.uniform(0.0, 3.0)))
        else:  # counts up to 1.5 S, so some nodes clamp at full coverage
            lo = rng.uniform(0.0, 0.5) * y0.S[k]
            inputs.append(UncertainInput(spec.labels[k], lo, lo + y0.S[k],
                                         domain="count"))
    cfg = IntegratorConfig(t0=2017.0, t_end=2020.0)
    level = 2 if len(inputs) == 3 else 3
    try:
        study = sobol_timeseries(spec, y0, inputs, level=level, total_degree=1, cfg=cfg)
    except EnsembleError as e:
        # the named node fails on its own with the same kind of error; its
        # own steps are not the shared ones, so the time in it may differ
        fn = coverage_model_fn(spec, y0, inputs, cfg)
        with pytest.raises(type(e.__cause__)):
            fn(e.node)
        assert str(e).startswith(f"model failed at node {e.node_index}: ")
        return
    # Basic draws hold each batch member to the node's own run at cfg within
    # cfg.rtol of column scale (at most 2.2e-9 over 300 draws), and that run
    # to the tight run within 2 * cfg.rtol (at most 5.3e-9 over the draws,
    # 1.26e-8 on the example above).  Risk draws keep the 1e-4 relative
    # bound against the tight run.
    _assert_study_near_tight_runs(study, spec, y0, inputs, cfg, share=2 * cfg.rtol,
                                  own=cfg.rtol)


def test_batched_study_clamps_equal_per_node(basic):
    # scale below -1 clamps coverage at 0, counts above S clamp it at 1
    spec, y0 = basic
    inputs = (UncertainInput("msm", -1.5, 0.5),
              UncertainInput("hetf", 0.0, 2.0 * y0.S[1], domain="count"))
    cfg = IntegratorConfig(t0=2017.0, t_end=2020.0)
    study = sobol_timeseries(spec, y0, inputs, level=3, total_degree=2, cfg=cfg)
    nodes = build_grid(inputs, level=3).nodes
    assert study.clamp_count == (np.sum(nodes[:, 0] < -1.0)
                                 + np.sum(nodes[:, 1] > y0.S[1])) > 0
    assert study.boundary_affected
    _assert_study_near_tight_runs(study, spec, y0, inputs, cfg)


def test_coverage_fractions_hand_values(basic):
    spec, y0 = basic
    eps0 = spec.param_arrays()[3]
    inputs = (UncertainInput("msm", -2.0, 2.0), UncertainInput(None, -1.0, 1.0),
              UncertainInput("hetm", 0.0, 1e7, domain="count"))
    nodes = np.array([[0.5, 0.3, 1000.0], [-1.5, -0.9, 2.0 * y0.S[2]]])
    eps, clamps = coverage_fractions(spec, y0, inputs, nodes)
    want = np.array([[eps0[0] * 1.5, eps0[1], 1000.0 / y0.S[2]],
                     [0.0, eps0[1], 1.0]])
    assert np.array_equal(eps, want) and clamps == 2


def _perturbed_grid_fit():
    grid = build_grid([UncertainInput(group="msm", lo=0.0, hi=1.0)], level=3)
    bent = replace(grid, weights=grid.weights * np.array([1.0, 1.01, 1.0]))
    return fit_pce(np.ones(3), bent, 2)


def _memberless_failure(spec, y0):
    # every step is 1.0 year and fails these tolerances: the step controller
    # gives up for the whole batch, so no member is to blame
    cfg = IntegratorConfig(t0=2017.0, t_end=2021.0, rtol=1e-14, atol=1e-12,
                           dt_min=1.0, dt_max=1.0)
    inputs = [UncertainInput(group=lbl, lo=-0.5, hi=1.0) for lbl in spec.labels]
    sobol_timeseries(spec, y0, inputs, level=2, total_degree=1, cfg=cfg)


@pytest.mark.parametrize("run, error, match", [
    (lambda spec, y0: UncertainInput(group="msm", lo=0.0, hi=1.0, domain="nosuch"),
     ValueError, "^unknown domain 'nosuch'$"),
    (lambda spec, y0: build_grid([UncertainInput(group="msm", lo=0.0, hi=1.0)], level=0),
     ValueError, "^level must be >= 1$"),
    (lambda spec, y0: fit_pce(np.ones(2), build_grid(
        [UncertainInput(group="msm", lo=0.0, hi=1.0)], level=3), 1),
     ValueError, "^one sample per grid node required$"),
    (lambda spec, y0: _perturbed_grid_fit(),
     ExactnessViolation, "breaks basis orthonormality"),
    (_memberless_failure, StepSizeUnderflow, "below dt_min at t = 2017.000000"),
], ids=["unknown-domain", "level-0", "sample-count", "gram-check", "memberless-failure"])
def test_sobol_refusals(basic, run, error, match):
    with pytest.raises(error, match=match) as info:
        run(*basic)
    # a failure no member caused is re-raised as it is, not as EnsembleError
    assert type(info.value) is error and getattr(info.value, "member", None) is None
