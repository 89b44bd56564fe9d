"""Variance-based sensitivity of model outputs via orthonormal-polynomial chaos.

Uncertain inputs are independent and uniform on intervals Gamma_k.  A model
output sampled on a quadrature grid is projected onto a total-degree basis of
tensorised orthonormal Legendre polynomials; means, variances, and first-order
and total Sobol indices then fall out of the coefficients algebraically
(variance = sum of squared non-constant coefficients; an input's total index
collects every coefficient whose multi-index touches that input).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .errors import (DimensionOverflow, EnsembleError, ExactnessViolation,
                     PrepspillError)
from .integrators import IntegratorConfig, annual_series, integrate, integrate_batch

NODE_CAP = 20_000
_GRAM_TOL = 1e-10
_VARIANCE_FLOOR = 1e-28  # at or below it (or roundoff of the mean), no indices


@dataclass(frozen=True)
class UncertainInput:
    """One uniform input.

    ``group`` names the model group whose PrEP coverage the input drives
    (None for a deliberately inert input).  ``domain`` selects how a sampled
    value theta maps to coverage: "scale" applies eps = eps0 * (1 + theta),
    "count" treats theta as an absolute number of covered persons divided by
    the susceptible pool at the study start.  Either way the result is
    clamped to [0, 1] and clamps are counted.
    """

    group: str
    lo: float
    hi: float
    domain: str = "scale"

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("need lo <= hi")
        if self.domain not in ("scale", "count"):
            raise ValueError(f"unknown domain {self.domain!r}")


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights normalised against the joint uniform density
    (weights sum to one)."""

    dims: int
    rule: str
    level: int
    nodes: np.ndarray    # (n_nodes, dims), in the inputs' intervals
    weights: np.ndarray  # (n_nodes,)
    intervals: tuple     # ((lo, hi), ...) per dimension

    @property
    def n_nodes(self):
        return len(self.weights)


@dataclass(frozen=True)
class PCExpansion:
    """Total-degree expansion in orthonormal Legendre polynomials."""

    index_set: np.ndarray  # (n_terms, dims) of nonnegative degrees
    coeffs: np.ndarray     # (n_terms,)
    intervals: tuple

    def __call__(self, theta):
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        P = _basis_matrix(self.index_set, theta, self.intervals)
        out = P @ self.coeffs
        return out if out.size > 1 else float(out[0])


@dataclass(frozen=True)
class SobolIndices:
    first_order: np.ndarray
    total: np.ndarray
    mean: float
    variance: float
    defined: bool


def _legendre_orthonormal(max_deg, x):
    """Columns P_0..P_max_deg at points x, orthonormal w.r.t. uniform on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, max_deg + 1))
    out[:, 0] = 1.0
    if max_deg >= 1:
        out[:, 1] = x
    for i in range(1, max_deg):
        out[:, i + 1] = ((2 * i + 1) * x * out[:, i] - i * out[:, i - 1]) / (i + 1)
    out *= np.sqrt(2.0 * np.arange(max_deg + 1) + 1.0)
    return out


def _to_unit(x, lo, hi):
    if hi == lo:  # degenerate input: almost-surely constant
        return np.zeros_like(np.asarray(x, dtype=float))
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def _basis_matrix(index_set, nodes, intervals):
    n_dims = index_set.shape[1]
    max_deg = int(index_set.max()) if index_set.size else 0
    uni = [
        _legendre_orthonormal(max_deg, _to_unit(nodes[:, d], *intervals[d]))
        for d in range(n_dims)
    ]
    P = np.ones((nodes.shape[0], index_set.shape[0]))
    for t, idx in enumerate(index_set):
        for d, deg in enumerate(idx):
            if deg:
                P[:, t] *= uni[d][:, deg]
    return P


def _cc_rule(n_points):
    """Clenshaw-Curtis nodes on [-1,1] and weights normalised to sum 1."""
    if n_points == 1:
        return np.array([0.0]), np.array([1.0])
    n = n_points - 1
    theta = np.pi * np.arange(n_points) / n
    x = -np.cos(theta)
    w = np.empty(n_points)
    for k in range(n_points):
        s = 0.0
        for j in range(1, n // 2 + 1):
            b = 1.0 if 2 * j == n else 2.0
            s += b / (4.0 * j * j - 1.0) * np.cos(2.0 * j * theta[k])
        w[k] = (1.0 - s) / n
    w[0] /= 2.0
    w[-1] /= 2.0
    return x, w / w.sum()


def build_grid(inputs, rule="gauss_legendre_tensor", level=5):
    """Quadrature grid over the inputs' intervals.

    gauss_legendre_tensor: ``level`` points per dimension, full tensor.
    clenshaw_curtis_smolyak: standard sparse combination of nested
    Clenshaw-Curtis rules up to total level ``level``; combination weights
    can be negative, which is inherent to sparse grids.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    d = len(inputs)
    intervals = tuple((float(u.lo), float(u.hi)) for u in inputs)

    if rule == "gauss_legendre_tensor":
        x1, w1 = np.polynomial.legendre.leggauss(level)
        w1 = w1 / 2.0  # uniform density on [-1, 1]
        axes = []
        for lo, hi in intervals:
            if hi == lo:  # degenerate: one node carries all mass
                axes.append((np.array([lo]), np.array([1.0])))
            else:
                axes.append((lo + (hi - lo) * (x1 + 1.0) / 2.0, w1))
        count = int(np.prod([len(ax[0]) for ax in axes]))
        if count > NODE_CAP:
            raise DimensionOverflow(f"{count} nodes exceed cap {NODE_CAP}")
        nodes = np.empty((count, d))
        weights = np.ones(count)
        for i, combo in enumerate(product(*(range(len(ax[0])) for ax in axes))):
            for dim, j in enumerate(combo):
                nodes[i, dim] = axes[dim][0][j]
                weights[i] *= axes[dim][1][j]
        return QuadratureGrid(dims=d, rule=rule, level=level, nodes=nodes,
                              weights=weights, intervals=intervals)

    if rule != "clenshaw_curtis_smolyak":
        raise ValueError(f"unknown rule {rule!r}")

    def n_pts(lev):
        return 1 if lev == 1 else 2 ** (lev - 1) + 1

    from math import comb
    acc = {}
    for combo in product(range(1, level + 1), repeat=d):
        q = sum(combo)
        # standard Smolyak combination: levels with level <= |l|_1 <= level + d - 1
        if not (level <= q <= level + d - 1):
            continue
        coef = (-1) ** (level + d - 1 - q) * comb(d - 1, level + d - 1 - q)
        axes = [_cc_rule(n_pts(l)) for l in combo]
        for idx in product(*(range(len(ax[0])) for ax in axes)):
            pt = tuple(round(float(axes[dim][0][j]), 14) for dim, j in enumerate(idx))
            w = coef
            for dim, j in enumerate(idx):
                w *= axes[dim][1][j]
            acc[pt] = acc.get(pt, 0.0) + w
            if len(acc) > NODE_CAP:
                raise DimensionOverflow(f"sparse grid exceeds cap {NODE_CAP}")
    pts = sorted(acc)
    nodes = np.empty((len(pts), d))
    weights = np.empty(len(pts))
    for i, pt in enumerate(pts):
        weights[i] = acc[pt]
        for dim in range(d):
            lo, hi = intervals[dim]
            nodes[i, dim] = lo + (hi - lo) * (pt[dim] + 1.0) / 2.0
    return QuadratureGrid(dims=d, rule=rule, level=level, nodes=nodes,
                          weights=weights, intervals=intervals)


def total_degree_set(dims, total_degree):
    idx = [p for p in product(range(total_degree + 1), repeat=dims)
           if sum(p) <= total_degree]
    idx.sort(key=lambda p: (sum(p), p))
    return np.array(idx, dtype=int)


def _check_tensor_exactness(grid, total_degree):
    """ExactnessViolation unless the grid, if a tensor Gauss rule, is exact
    to the projection's degree: 2*level - 1 >= 2*total_degree per dimension."""
    if grid.rule == "gauss_legendre_tensor" and 2 * grid.level - 1 < 2 * total_degree:
        raise ExactnessViolation(
            f"tensor level {grid.level} is exact to degree {2 * grid.level - 1}, "
            f"projection needs {2 * total_degree}")


def fit_pce(samples, grid, total_degree):
    """Discrete projection d_p = sum_nodes w * y * P_p(node) over the
    total-degree index set.

    ``samples`` holds one value per node, or one column per output
    ((n_nodes, k)): the basis and the checks are then shared, and the
    expansion's coeffs carry one column per output.

    Refuses (ExactnessViolation) when the grid cannot integrate the
    projection's Gram matrix: tensor Gauss rules need per-dimension
    exactness 2*level - 1 >= 2*total_degree, and the empirical Gram matrix
    must be the identity to 1e-10 for any rule.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.n_nodes:
        raise ValueError("one sample per grid node required")
    _check_tensor_exactness(grid, total_degree)
    index_set = total_degree_set(grid.dims, total_degree)
    degenerate = [d for d, (lo, hi) in enumerate(grid.intervals) if hi == lo]
    if degenerate:
        # a degenerate input is a.s. constant: only degree-0 terms exist for it
        keep = np.all(index_set[:, degenerate] == 0, axis=1)
        index_set = index_set[keep]
    P = _basis_matrix(index_set, grid.nodes, grid.intervals)
    gram = P.T @ (P * grid.weights[:, None])
    if not np.allclose(gram, np.eye(len(index_set)), atol=_GRAM_TOL):
        off = float(np.max(np.abs(gram - np.eye(len(index_set)))))
        raise ExactnessViolation(
            f"grid quadrature breaks basis orthonormality (max deviation {off:.2e})")
    if samples.ndim == 1:
        coeffs = P.T @ (grid.weights * samples)
    else:
        # Column by column: each output's coefficients then equal its own
        # 1-D fit bit for bit; one matrix product rounds differently and
        # moves last printed digits of the study CSV.
        coeffs = np.empty((len(index_set), samples.shape[1]))
        for c, col in enumerate(samples.T):
            coeffs[:, c] = P.T @ (grid.weights * col)
    return PCExpansion(index_set=index_set, coeffs=coeffs, intervals=grid.intervals)


def mean_var(pce):
    """Mean is the constant coefficient; variance the sum of squares of the rest."""
    const = np.all(pce.index_set == 0, axis=1)
    mean = float(pce.coeffs[const][0])
    variance = float(np.sum(pce.coeffs[~const] ** 2))
    return mean, variance


def sobol_indices(pce):
    """First-order and total indices per input from the expansion coefficients."""
    return _sobol_indices(pce, *_index_masks(pce.index_set))


def _sobol_indices(pce, touches, only):
    """sobol_indices given the index set's _index_masks."""
    mean, variance = mean_var(pce)
    d = pce.index_set.shape[1]
    if variance <= max(_VARIANCE_FLOOR, (1e-12 * max(1.0, abs(mean))) ** 2):
        nan = np.full(d, np.nan)
        return SobolIndices(first_order=nan, total=nan, mean=mean,
                            variance=variance, defined=False)
    sq = pce.coeffs ** 2
    first = np.array([sq[m].sum() / variance for m in only])
    total = np.array([sq[m].sum() / variance for m in touches])
    return SobolIndices(first_order=first, total=total, mean=mean,
                        variance=variance, defined=True)


def _index_masks(index_set):
    """Per input k, the terms whose multi-index touches k, and those that
    touch k alone: two (dims, n_terms) boolean arrays."""
    touches = (index_set > 0).T
    return touches, touches & (touches.sum(axis=0) == 1)


@dataclass
class SobolStudy:
    """Per-(year, output group) indices for a coverage-uncertainty study.

    ``rtol``, ``atol`` and ``rhs_evals`` record the integration: the
    batch's Dormand-Prince tolerances and its RHS evaluations (1 + 6 per
    attempted step), each covering the batch.  ``members`` counts the
    batch: the distinct coverage rows among the nodes, each integrated once.
    """

    years: list
    output_groups: tuple
    inputs: tuple
    indices: dict            # (year, group label) -> SobolIndices
    grid_rule: str
    grid_level: int
    n_nodes: int
    clamp_count: int
    boundary_affected: bool
    rtol: float
    atol: float
    rhs_evals: int
    members: int
    samples: dict = field(default_factory=dict, repr=False)


def coverage_fractions(spec, y0, inputs, nodes):
    """Coverage fractions (B, n) for each row of the (B, d) ``nodes``, and
    the number of (node, input) values clamped to [0, 1].

    A "scale" input sets eps = eps0 * (1 + theta), a "count" input
    eps = theta / S(t0) (S floored at one person), an inert input nothing;
    when two inputs drive one group, the later one wins.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    eps0 = spec.param_arrays()[3]
    eps = np.tile(eps0, (len(nodes), 1))
    clamps = 0
    for d, u in enumerate(inputs):
        if u.group is None:
            continue
        k = spec.group_index(u.group)
        th = nodes[:, d]
        val = eps0[k] * (1.0 + th) if u.domain == "scale" else th / max(y0.S[k], 1.0)
        eps[:, k] = np.minimum(np.maximum(val, 0.0), 1.0)
        clamps += int(np.count_nonzero(eps[:, k] != val))
    return eps, clamps


def coverage_model_fn(spec, y0, inputs, cfg):
    """theta-vector -> (years, per-year per-group incidence) for the study:
    one node integrated on its own, with any integrator cfg."""

    def fn(theta):
        eps, _ = coverage_fractions(spec, y0, inputs, theta)
        traj = integrate(spec.with_epsilon(dict(zip(spec.labels, eps[0]))), y0, cfg)
        return annual_series(traj)

    return fn


def _batch_incidence(spec, y0, grid, eps, cfg):
    """Years, annual incidence (years, groups, nodes), RHS evaluations and
    batch size of the grid nodes, coverage eps (nodes, n), integrated in one
    batch with one member per distinct row.  Members run in order of their
    first node, so the first failing member is the lowest failing node,
    which the EnsembleError names."""
    _, first, inverse = np.unique(eps, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    nodes, member = first[order], np.argsort(order)  # member: of each distinct row
    try:
        traj, rhs_evals = integrate_batch(spec, y0, eps[nodes], cfg)
    except PrepspillError as e:
        if e.member is None:
            raise
        i = int(nodes[e.member])
        raise EnsembleError(f"model failed at node {i}: {e}", i,
                            grid.nodes[i]) from e.for_member(i)
    years, table = annual_series(traj)
    return years, table[..., member[inverse.reshape(-1)]], rhs_evals, len(nodes)


def sobol_timeseries(spec, y0, inputs, years=None, rule="gauss_legendre_tensor",
                     level=5, total_degree=4, cfg=None):
    """Sobol indices of annual incidence per output group and calendar year.

    Inputs map sampled values onto coverage fractions (coverage_fractions:
    clamped to [0, 1]; a study with any clamped value is flagged
    boundary-affected).  Each distinct coverage row among the grid nodes is
    integrated once, all in one batch (integrate_batch: Dormand-Prince with
    one step shared by the members, the largest member error controlling
    it; cfg defaults to the scalar runs' 2017-2031 config).  A batch of one
    node equals that node's scalar integration (coverage_model_fn with the
    same cfg) bit for bit; in a larger batch each member stays within the
    tolerances of its own run.  A failing node raises EnsembleError naming
    the lowest failing one.  One projection (fit_pce) fits every (year,
    group) series at once; a tensor grid too coarse for it is refused
    (ExactnessViolation) before any node is integrated.
    """
    inputs = tuple(inputs)
    if cfg is None:
        cfg = IntegratorConfig(t0=2017.0, t_end=2031.0)
    grid = build_grid(inputs, rule=rule, level=level)
    _check_tensor_exactness(grid, total_degree)  # before any node is integrated
    eps, clamps = coverage_fractions(spec, y0, inputs, grid.nodes)
    all_years, table, rhs_evals, members = _batch_incidence(spec, y0, grid, eps, cfg)
    kept = [yi for yi, year in enumerate(all_years) if years is None or year in years]
    keys = [(all_years[yi], lbl) for yi in kept for lbl in spec.labels]
    Y = table[kept].reshape(len(keys), grid.n_nodes).T  # (nodes, series)
    pce = fit_pce(Y, grid, total_degree)
    masks = _index_masks(pce.index_set)
    indices = {key: _sobol_indices(replace(pce, coeffs=pce.coeffs[:, c]), *masks)
               for c, key in enumerate(keys)}
    samples = {key: Y[:, c] for c, key in enumerate(keys)}
    return SobolStudy(years=[all_years[yi] for yi in kept], output_groups=spec.labels,
                      inputs=inputs, indices=indices, grid_rule=rule, grid_level=level,
                      n_nodes=grid.n_nodes, clamp_count=clamps,
                      boundary_affected=clamps > 0, rtol=cfg.rtol, atol=cfg.atol,
                      rhs_evals=rhs_evals, members=members, samples=samples)
