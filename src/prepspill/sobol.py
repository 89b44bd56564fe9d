"""Variance-based sensitivity of model outputs via orthonormal-polynomial chaos.

Uncertain inputs are independent and uniform on intervals Gamma_k.  A model
output sampled on a quadrature grid is projected onto a total-degree basis of
tensorised orthonormal Legendre polynomials; means, variances, and first-order
and total Sobol indices then fall out of the coefficients algebraically
(variance = sum of squared non-constant coefficients; an input's total index
collects every coefficient whose multi-index touches that input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .errors import (DimensionOverflow, EnsembleError, ExactnessViolation,
                     PrepspillError)
from .integrators import IntegratorConfig, annual_series, integrate, integrate_batch, whole_years

NODE_CAP = 20_000
# Points per input: leggauss(level) builds a level x level companion matrix,
# and a grid with one non-degenerate input passes NODE_CAP up to level 20,000.
LEVEL_CAP = 100
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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise ValueError(f"need finite lo <= hi, got lo = {self.lo}, hi = {self.hi}")
        if self.domain not in ("scale", "count"):
            raise ValueError(f"unknown domain {self.domain!r}")


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights normalised against the joint uniform density
    (weights sum to one).  ``rule`` names the one rule, the tensor
    Gauss-Legendre product; it is a constant, not a setting."""

    rule = "gauss_legendre_tensor"

    dims: int
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
    """P[node, term]: the product, in dimension order, of each dimension's
    orthonormal Legendre polynomial of the term's degree at the node,
    gathered from one table per dimension.  The degree-0 column is exactly
    1.0, so its factors leave the product of the others unchanged."""
    max_deg = int(index_set.max()) if index_set.size else 0
    P = np.ones((nodes.shape[0], index_set.shape[0]))
    for d, degrees in enumerate(index_set.T):
        P *= _legendre_orthonormal(max_deg, _to_unit(nodes[:, d], *intervals[d]))[:, degrees]
    return P


def build_grid(inputs, level=5):
    """Tensor Gauss-Legendre grid over the inputs' intervals: ``level``
    points per dimension, one node for a degenerate interval.  The node
    count is checked against NODE_CAP, and the level against LEVEL_CAP,
    before the 1-D rule is built."""
    if level < 1:
        raise ValueError("level must be >= 1")
    d = len(inputs)
    intervals = tuple((float(u.lo), float(u.hi)) for u in inputs)
    count = level ** sum(hi != lo for lo, hi in intervals)
    if count > NODE_CAP:
        raise DimensionOverflow(f"{count} nodes exceed cap {NODE_CAP}")
    if level > LEVEL_CAP:
        raise DimensionOverflow(f"level {level} exceeds cap {LEVEL_CAP}")
    x1, w1 = np.polynomial.legendre.leggauss(level)
    w1 = w1 / 2.0  # uniform density on [-1, 1]
    axes = []
    for lo, hi in intervals:
        if hi == lo:  # degenerate: one node carries all mass
            axes.append((np.array([lo]), np.array([1.0])))
        else:
            axes.append((lo + (hi - lo) * (x1 + 1.0) / 2.0, w1))
    # nodes in itertools.product order (last dimension fastest), each
    # weight the product of its dimensions' weights in dimension order
    nodes = np.array(np.meshgrid(*(x for x, _ in axes), indexing="ij"))
    nodes = nodes.reshape(d, count).T.copy()
    weights = np.ones(1)
    for _, w in axes:
        weights = np.multiply.outer(weights, w).ravel()
    return QuadratureGrid(dims=d, level=level, nodes=nodes, weights=weights,
                          intervals=intervals)


def total_degree_set(dims, total_degree):
    idx = [p for p in product(range(total_degree + 1), repeat=dims)
           if sum(p) <= total_degree]
    idx.sort(key=lambda p: (sum(p), p))
    return np.array(idx, dtype=int)


def _check_tensor_exactness(grid, total_degree):
    """ValueError for a negative total_degree; ExactnessViolation unless the
    grid is exact to the projection's degree: 2*level - 1 >= 2*total_degree
    per dimension."""
    if total_degree < 0:
        raise ValueError(f"total_degree = {total_degree} must be >= 0")
    if 2 * grid.level - 1 < 2 * total_degree:
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
    projection's Gram matrix: the rule needs per-dimension exactness
    2*level - 1 >= 2*total_degree, and the empirical Gram matrix must be
    the identity to 1e-10.
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
    # Column by column: each output's coefficients then equal its own 1-D
    # fit bit for bit; one matrix product rounds differently and moves last
    # printed digits of the study CSV.
    coeffs = np.array([P.T @ (grid.weights * col) for col in np.atleast_2d(samples.T)]).T
    coeffs = coeffs.reshape((len(index_set),) + samples.shape[1:])
    return PCExpansion(index_set=index_set, coeffs=coeffs, intervals=grid.intervals)


def sobol_indices(pce):
    """First-order and total indices per input from the expansion coefficients:
    the share of the variance in the terms whose multi-index touches the
    input alone, resp. at all."""
    return _series_indices(pce.index_set, pce.coeffs[:, None])[0]


def _series_indices(index_set, coeffs):
    """sobol_indices of each column of ``coeffs`` (n_terms, k), all at once;
    undefined (NaN) at or below _VARIANCE_FLOOR or the mean's roundoff.
    Each column is summed as a contiguous row, which numpy sums (pairwise)
    as that column alone."""
    touches = index_set > 0
    only = touches & (touches.sum(axis=1) == 1)[:, None]
    const = ~touches.any(axis=1)
    sq = coeffs.T ** 2

    def sums(terms):  # a mask's columns come out F-ordered: copy to C for row sums
        return np.ascontiguousarray(sq[:, terms]).sum(axis=1)
    means, variances = coeffs[const][0].tolist(), sums(~const)
    defined = np.array([v > max(_VARIANCE_FLOOR, (1e-12 * max(1.0, abs(m))) ** 2)
                        for m, v in zip(means, variances.tolist())], dtype=bool)

    def indices(masks):
        part = np.reshape([sums(m) for m in masks.T], (len(masks.T), len(sq))).T
        return np.divide(part, variances[:, None], out=np.full(part.shape, np.nan),
                         where=defined[:, None])
    first, total = indices(only), indices(touches)
    return [SobolIndices(first_order=f, total=t, mean=m, variance=v, defined=bool(ok))
            for f, t, m, v, ok in zip(first, total, means, variances.tolist(), defined)]


@dataclass
class SobolStudy:
    """Per-(year, output group) indices for a coverage-uncertainty study.

    ``rtol``, ``atol``, ``rhs_evals``, ``steps_accepted`` and
    ``steps_rejected`` record the integration: the batch's Dormand-Prince
    tolerances, its RHS evaluations, each covering the batch, and its
    accepted and rejected steps, as its trajectory counts them.  ``members``
    counts the batch: the distinct coverage rows among the nodes, each
    integrated once.
    """

    years: list
    inputs: tuple
    indices: dict            # (year, group label) -> SobolIndices
    grid_level: int
    n_nodes: int
    clamp_count: int
    boundary_affected: bool
    rtol: float
    atol: float
    rhs_evals: int
    steps_accepted: int
    steps_rejected: int
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


def _batch_incidence(spec, y0, grid, eps, cfg, sample_times):
    """Years, annual incidence (years, groups, nodes) and the batch's work
    (SobolStudy's rhs_evals, steps_accepted, steps_rejected and members, from
    its trajectory) of the grid nodes, coverage eps (nodes, n), integrated
    under cfg to the sample times in one batch with one member per distinct
    row.  Members run in order of their first node, so the EnsembleError
    names the lowest node failing at the batch's last attempt."""
    _, first, inverse = np.unique(eps, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    nodes, member = first[order], np.argsort(order)  # member: of each distinct row
    try:
        traj = integrate_batch(spec, y0, eps[nodes], cfg, sample_times)
    except PrepspillError as e:
        if e.member is None:
            raise
        i = int(nodes[e.member])
        raise EnsembleError(f"model failed at node {i}: {e}", i,
                            grid.nodes[i]) from e.for_member(i)
    years, table = annual_series(traj)
    work = {"rhs_evals": traj.rhs_evals, "steps_accepted": len(traj.times) - 1,
            "steps_rejected": traj.steps_rejected, "members": len(nodes)}
    return years, table[..., member[inverse.reshape(-1)]], work


def sobol_timeseries(spec, y0, inputs, level=5, total_degree=4, cfg=None):
    """Sobol indices of annual incidence per output group and every calendar
    year of the window.

    Inputs map sampled values onto coverage fractions (coverage_fractions:
    clamped to [0, 1]; a study with any clamped value is flagged
    boundary-affected).  Each distinct coverage row among the grid nodes is
    integrated once, all in one batch (integrate_batch: Dormand-Prince with
    one step shared by the members, the largest member error controlling
    it; cfg defaults to the scalar runs' 2017-2031 config).  The batch
    reads its whole years alone, so it steps freely to them as sample times
    (integrate_flat's free controller, whatever cfg.year_nodes says), with
    cfg.first_step as its first step if set, else the first year whole.
    Each member stays within the tolerances of its own run
    (coverage_model_fn with the same cfg, which lands on every year and on
    the risk closure's switch).  On the basic preset, whose batch rejects
    no step, the samples equal the year-landing batch's bit for bit.  A
    failing batch raises EnsembleError naming the node that fails first.  One
    projection (fit_pce) fits every (year, group) series at once.  A
    partial-year window (PartialYear) or a grid too coarse for the fit
    (ExactnessViolation) is refused before any work.
    """
    inputs = tuple(inputs)
    if cfg is None:
        cfg = IntegratorConfig(t0=2017.0, t_end=2031.0)
    years = whole_years(cfg.t0, cfg.t_end)  # annual_series' span check, before any work
    grid = build_grid(inputs, level=level)
    _check_tensor_exactness(grid, total_degree)  # before any node is integrated
    eps, clamps = coverage_fractions(spec, y0, inputs, grid.nodes)
    first = cfg.first_step if cfg.first_step is not None else years[0] + 1 - cfg.t0
    free = replace(cfg, year_nodes=False, first_step=first)
    years, table, work = _batch_incidence(spec, y0, grid, eps, free, years[1:])
    keys = [(year, lbl) for year in years for lbl in spec.labels]
    Y = table.reshape(len(keys), grid.n_nodes).T  # (nodes, series)
    pce = fit_pce(Y, grid, total_degree)
    indices = dict(zip(keys, _series_indices(pce.index_set, pce.coeffs)))
    samples = {key: Y[:, c] for c, key in enumerate(keys)}
    return SobolStudy(years=years, inputs=inputs, indices=indices, grid_level=level,
                      n_nodes=grid.n_nodes, clamp_count=clamps,
                      boundary_affected=clamps > 0, rtol=cfg.rtol, atol=cfg.atol,
                      samples=samples, **work)
