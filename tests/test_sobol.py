import numpy as np
import pytest

from prepspill.errors import (DimensionOverflow, EnsembleError,
                              ExactnessViolation)
from prepspill.integrators import IntegratorConfig
from prepspill.sobol import (UncertainInput, build_grid, evaluate_ensemble,
                             fit_pce, mean_var, sobol_indices,
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
            g2 = build_grid(unit_inputs(dims), rule="clenshaw_curtis_smolyak",
                            level=level)
            assert abs(g2.weights.sum() - 1.0) < 1e-12


def test_tensor_node_count():
    g = build_grid(unit_inputs(4), level=5)
    assert g.n_nodes == 625


def test_dimension_overflow():
    with pytest.raises(DimensionOverflow):
        build_grid(unit_inputs(4), level=12)  # 20736 > cap


def test_evaluate_ensemble_constant_and_count():
    g = build_grid(unit_inputs(2), level=3)
    s = evaluate_ensemble(lambda th: 7.25, g)
    assert s.shape == (9,)
    assert np.all(s == 7.25)


def test_evaluate_ensemble_error_attaches_node():
    g = build_grid(unit_inputs(1), level=3)

    def boom(theta):
        if theta[0] > 0:
            raise ValueError("bad region")
        return 0.0

    with pytest.raises(EnsembleError) as exc:
        evaluate_ensemble(boom, g)
    assert exc.value.node_index in (1, 2)
    assert exc.value.node.shape == (1,)
    assert isinstance(exc.value.__cause__, ValueError)


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
    m, v = mean_var(pce)
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


def test_gram_orthonormality_all_grids():
    from prepspill.sobol import _basis_matrix
    for rule, level, deg in (("gauss_legendre_tensor", 5, 4),
                             ("gauss_legendre_tensor", 6, 5),
                             ("clenshaw_curtis_smolyak", 5, 2)):
        g = build_grid(unit_inputs(3), rule=rule, level=level)
        idx = total_degree_set(3, deg)
        P = _basis_matrix(idx, g.nodes, g.intervals)
        gram = P.T @ (P * g.weights[:, None])
        assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-10


def test_mean_var_analytic():
    g = build_grid(unit_inputs(2), level=5)
    y = g.nodes[:, 0] + 2.0 * g.nodes[:, 1]
    m, v = mean_var(fit_pce(y, g, total_degree=4))
    assert m == pytest.approx(0.0, abs=1e-14)
    assert v == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_mean_var_monte_carlo_cross_check():
    # MC on the fitted polynomial surrogate agrees within 3 standard errors
    g = build_grid(unit_inputs(2), level=5)
    y = np.array([np.exp(0.3 * n[0]) * (1 + 0.5 * n[1]) for n in g.nodes])
    pce = fit_pce(y, g, total_degree=4)
    m, v = mean_var(pce)
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
    cfg = IntegratorConfig(t0=2017.0, t_end=2022.0, method="rk4_fixed", dt=0.1)
    from prepspill.sobol import coverage_model_fn
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
    cfg = IntegratorConfig(t0=2017.0, t_end=2020.0, method="rk4_fixed", dt=0.2)
    study = sobol_timeseries(spec, y0, inputs, level=2, total_degree=1, cfg=cfg)
    for si in study.indices.values():
        assert si.defined is False


def test_timeseries_study_smolyak_rule(basic):
    spec, y0 = basic
    inputs = tuple(UncertainInput(group=l, lo=-0.5, hi=4.0)
                   for l in spec.labels)
    cfg = IntegratorConfig(t0=2017.0, t_end=2021.0, method="rk4_fixed", dt=0.2)
    study = sobol_timeseries(spec, y0, inputs, rule="clenshaw_curtis_smolyak",
                             level=4, total_degree=2, cfg=cfg)
    assert study.grid_rule == "clenshaw_curtis_smolyak"
    si = study.indices[(2020, "msm")]
    assert si.defined and si.total[0] > 0.99


def test_timeseries_study_patterns(basic):
    spec, y0 = basic
    inputs = tuple(UncertainInput(group=l, lo=-0.5, hi=4.0)
                   for l in spec.labels) + \
        (UncertainInput(group=None, lo=-0.5, hi=4.0),)
    cfg = IntegratorConfig(t0=2017.0, t_end=2024.0, method="rk4_fixed", dt=0.1)
    study = sobol_timeseries(spec, y0, inputs, level=3, total_degree=2, cfg=cfg)
    assert study.n_nodes == 81
    assert study.clamp_count == 0
    for year in study.years:
        msm = study.indices[(year, "msm")]
        assert msm.total[0] > 0.99          # own coverage explains msm variance
        assert msm.total[3] < 1e-6          # inert input contributes nothing
        hetf = study.indices[(year, "hetf")]
        assert hetf.total[0] > hetf.total[1]


def test_timeseries_node_calls_and_failure(basic, monkeypatch):
    # one model call per node; a failing node is named by its grid index
    import prepspill.sobol as sobol_mod

    spec, y0 = basic
    inputs = [UncertainInput(group="msm", lo=-0.5, hi=1.0)]
    cfg = IntegratorConfig(t0=2017.0, t_end=2019.0, method="rk4_fixed", dt=0.25)
    make_fn = sobol_mod.coverage_model_fn
    calls = []

    def counting(*args, fail_at=None, **kwargs):
        fn = make_fn(*args, **kwargs)

        def node_fn(theta):
            calls.append(theta)
            if len(calls) - 1 == fail_at:
                raise ValueError("boom")
            return fn(theta)

        return node_fn

    monkeypatch.setattr(sobol_mod, "coverage_model_fn", counting)
    study = sobol_timeseries(spec, y0, inputs, level=4, total_degree=2, cfg=cfg)
    assert len(calls) == study.n_nodes == 4
    assert study.years == [2017, 2018]

    calls.clear()
    monkeypatch.setattr(sobol_mod, "coverage_model_fn",
                        lambda *a, **k: counting(*a, fail_at=2, **k))
    with pytest.raises(EnsembleError) as exc:
        sobol_timeseries(spec, y0, inputs, level=4, total_degree=2, cfg=cfg)
    assert str(exc.value) == "model failed at node 2: boom"
    assert exc.value.node_index == 2
    assert len(calls) == 3
