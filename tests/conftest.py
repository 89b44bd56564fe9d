import math

import numpy as np
import pytest

from prepspill.errors import ZeroPopulation
from prepspill.integrators import IntegratorConfig, integrate
from prepspill.mixing import BasicMixing, RiskMixing, basic_fractions, risk_fractions
from prepspill.model import (StateVec, TransmissionProbs, _zero_population, contact_matrix,
                             dfe, flat_rhs_factory, make_spec)
from prepspill.presets import georgia_basic, georgia_risk


@pytest.fixture(scope="session")
def basic():
    return georgia_basic()


@pytest.fixture(scope="session")
def risk():
    return georgia_risk()


def stationary_risk():
    """Georgia risk parameters with recruitment balanced to the 2017 populations,
    so the disease-free equilibrium is mixing-feasible (the literal preset's
    DFE is not, see decisions notes)."""
    spec, y0 = georgia_risk()
    N0 = y0.N
    from dataclasses import replace
    groups = tuple((gid, replace(p, Pi=spec.mu * N0[i]))
                   for i, (gid, p) in enumerate(spec.groups))
    return replace(spec, groups=groups), y0


@pytest.fixture(scope="session")
def risk_stationary():
    return stationary_risk()


def random_spec(rng, variant, feasible=True):
    """Random parameter draw around the published magnitudes; optionally
    rejection-sampled until the DFE and nominal populations close feasibly."""
    from prepspill.mixing import close_basic, close_risk
    from prepspill.errors import InfeasibleClosure

    n = 3 if variant == "basic" else 4
    for _ in range(500):
        mu = rng.uniform(0.01, 0.04)
        Pi = rng.uniform(2e3, 8e4, n)
        a = rng.uniform(30.0, 120.0, n)
        delta = rng.uniform(0.0, 0.03, n)
        eps = rng.uniform(0.0, 0.4, n)
        probs = TransmissionProbs(beta_mm=rng.uniform(0, 0.002),
                                  beta_fm=rng.uniform(0, 0.001),
                                  beta_mf=rng.uniform(0, 0.001))
        if variant == "basic":
            priors = BasicMixing(eta_msm=rng.uniform(0.5, 0.95),
                                 alpha_hetf=rng.uniform(0.001, 0.1))
        else:
            eta_msm = rng.uniform(0.5, 0.95)
            priors = RiskMixing(eta_msm=eta_msm,
                                eta_hetfh=rng.uniform(0.01,
                                                      min(0.2, 1.0 - eta_msm)),
                                alpha_hetfh=rng.uniform(0.01, 0.2),
                                alpha_hetfl=rng.uniform(0.001, 0.05),
                                xi_hetm=rng.uniform(0.001, 0.2))
        spec = make_spec(variant, Pi, a, delta, eps, probs, mu, priors)
        if not feasible:
            return spec
        try:
            eq = dfe(spec)
            close = close_basic if variant == "basic" else close_risk
            close(eq.N, a, priors)
        except InfeasibleClosure:
            continue
        return spec
    raise RuntimeError("no feasible random spec found")


def random_state(rng, spec, scale=1.0, jitter=None):
    """Random nonnegative state, rejection-sampled until the mixing closure
    is feasible there."""
    from prepspill.errors import InfeasibleClosure
    from prepspill.model import closed_mixing

    eq = dfe(spec)
    for _ in range(500):
        if jitter is not None:
            S = eq.S * rng.uniform(1 - jitter, 1 + jitter, spec.n) * scale
            I = eq.S * rng.uniform(0.001, jitter, spec.n) * scale
        else:
            S = eq.S * rng.uniform(0.2, 1.0, spec.n) * scale
            I = eq.S * rng.uniform(0.001, 0.15, spec.n) * scale
        state = StateVec.make(S, I)
        try:
            closed_mixing(spec, state.N)
        except InfeasibleClosure:
            continue
        return state
    raise RuntimeError("no feasible random state found")


@pytest.fixture(scope="session")
def baseline_basic(basic):
    spec, y0 = basic
    cfg = IntegratorConfig(t0=2017.0, t_end=2031.0, rtol=1e-8, atol=1e-6)
    return integrate(spec, y0, cfg, sample_times=[2020.0])


@pytest.fixture(scope="session")
def baseline_risk(risk):
    spec, y0 = risk
    cfg = IntegratorConfig(t0=2017.0, t_end=2031.0, rtol=1e-8, atol=1e-6)
    return integrate(spec, y0, cfg, sample_times=[2020.0])


def rk4_fixed(f, y0, t0, t_end, dt):
    """Classic fixed-step RK4 of the flat system dy/dt = f(t, y) (f takes a
    list), the test oracle that Dormand-Prince runs are checked against.
    Each span between t0, the whole years and t_end is split evenly into
    steps of at most dt.  Returns the times and the state rows at t0, each
    whole year and t_end."""
    def rate(t, y):
        return np.array(f(t, y.tolist()))
    breaks = sorted({float(t0), float(t_end)}
                    | {float(y) for y in range(math.ceil(t0), math.floor(t_end) + 1)})
    y = np.array(y0, dtype=float)
    rows = [y]
    for b0, b1 in zip(breaks, breaks[1:]):
        steps = max(1, math.ceil((b1 - b0) / dt - 1e-12))
        h = (b1 - b0) / steps
        for i in range(steps):
            t = b0 + i * h
            k1 = rate(t, y)
            k2 = rate(t + h / 2, y + h / 2 * k1)
            k3 = rate(t + h / 2, y + h / 2 * k2)
            k4 = rate(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rows.append(y)
    return np.array(breaks), np.array(rows)


# ---------------------------------------------------------------------------
# Structured numpy reference forms of the model, the spillover block and the
# mixing balance.  The package integrates only the generated flat systems
# (model._flat_rhs_maker); the tests compare those against these
# independently written formulas.
# ---------------------------------------------------------------------------

def contact_matrix_at(spec, N, t=None):
    """Contact matrix W at group populations N, with the mixing fractions of
    closed_mixing (from the closure core: no mixing record).  Raises
    _zero_population's error if a group has N <= 0."""
    if (N <= 0.0).any():
        raise _zero_population(spec.labels, N, t)
    close = basic_fractions if spec.variant == "basic" else risk_fractions
    a = [p.a for _, p in spec.groups]
    return contact_matrix(spec, spec.mixing or close(N.tolist(), a, spec.mixing_priors, t=t))


def build_lambda_vectors(spec, state, t=None):
    """Contact-coefficient vectors, one row per group, columns over the
    interleaved (S, I) slots.  Row j dotted with the interleaved state gives
    the raw (pre-(1-eps), pre-S) force of infection on group j."""
    N = state.N
    L = np.zeros((spec.n, 2 * spec.n))
    L[:, 1::2] = contact_matrix_at(spec, N, t) / N
    return L


def incidence(spec, state, t=None):
    """Per-group infection flux (1 - eps_j) (W @ (I / N))_j S_j, persons/year."""
    N = state.N
    W = contact_matrix_at(spec, N, t)
    _, _, _, eps = spec.param_arrays()
    return (1.0 - eps) * (W @ (state.I / N)) * state.S


def rhs(spec, state, t=0.0):
    """Time derivative of the state (including cumulative-incidence slots)."""
    inc = incidence(spec, state, t=t)
    Pi, _, delta, _ = spec.param_arrays()
    mu = spec.mu
    dS = Pi - inc - mu * state.S
    dI = inc - (mu + delta) * state.I
    return StateVec(S=dS, I=dI, C=inc)


def _one_source_rhs(spec, state, k, row, mode, t):
    """The generated augmented system evaluated at (state, block row ``row``
    of source k), every other source's block zero: the flat derivative,
    state slots first, then the block's (sigma, gamma) pairs interleaved.  A
    block's rows read no other block, so the zeros do not move them."""
    n = spec.n
    blocks = np.zeros((n, 2 * n))
    blocks[k] = row
    d = flat_rhs_factory(spec, mode=mode)(t, state.to_flat().tolist() + blocks.ravel().tolist())
    return d[:3 * n] + d[3 * n + 2 * n * k:3 * n + 2 * n * (k + 1)]


def spillover_rhs(spec, state, k, row, mode="practical", t=None):
    """Time derivative of source k's sensitivity block row ``row`` (the
    (sigma_j, gamma_j) pairs interleaved) given the current state: the
    block's rows of the generated augmented system, as an array laid out
    like ``row``."""
    return np.array(_one_source_rhs(spec, state, k, row, mode, t)[3 * spec.n:])


def xi_correction(spec, state, row):
    """Population-size correction vectors for the exact-delta mode at the
    block row ``row`` (the (sigma_j, gamma_j) pairs interleaved).

    Returns (Xi, contrib): Xi is (n, 2n) with entries
    W[j, p] * (sigma_p + gamma_p) / N_p^2 at partner infected slots, and
    contrib_j = (1 - eps_j) * (Xi_j . X) * S_j is the term added to
    dsigma_j/dt and subtracted from dgamma_j/dt when the flag is on.
    Only derived for the basic variant: ValueError on any other.
    """
    if spec.variant != "basic":
        raise ValueError("correction vectors exist for the basic variant only")
    N = state.N
    _, _, _, eps = spec.param_arrays()
    Xi = np.zeros((spec.n, 2 * spec.n))
    Xi[:, 1::2] = contact_matrix_at(spec, N) * ((row[0::2] + row[1::2]) / N ** 2)
    return Xi, (1.0 - eps) * (Xi[:, 1::2] @ state.I) * state.S


def incidence_sensitivity(spec, state, k, row, j, mode="practical"):
    """Sensitivity of group j's incidence rate to persons on PrEP in source
    group k, whose block row is ``row``: d/dt [gamma_j / S_k] + mu * gamma_j
    / S_k, with dS_k/dt and dgamma_j/dt from one evaluation of the augmented
    system."""
    Sk = state.S[k]
    if Sk <= 0.0:
        raise ZeroPopulation(f"source group {spec.labels[k]} has S = 0")
    d = _one_source_rhs(spec, state, k, row, mode, 0.0)
    gamma_j = row[2 * j + 1]
    quot_dot = (d[3 * spec.n + 2 * j + 1] * Sk - gamma_j * d[2 * k]) / Sk ** 2
    return quot_dot + spec.mu * gamma_j / Sk


def basic_residuals(mix, N, a):
    """Relative residuals of the two basic balance equations."""
    B0, B1, B2 = N[0] * a[0], N[1] * a[1], N[2] * a[2]
    scale = max(B0, B1, B2)
    r1 = ((1.0 - mix.eta_msm) * B0 - mix.alpha_hetf * B1) / scale
    r2 = ((1.0 - mix.alpha_hetf) * B1 - B2) / scale
    return (r1, r2)


def risk_residuals(mix, N, a):
    """Relative residuals of the four risk-model balance equations."""
    B0, B1, B2, B3 = N[0] * a[0], N[1] * a[1], N[2] * a[2], N[3] * a[3]
    scale = max(B0, B1, B2, B3)
    return (
        (mix.eta_hetfh * B0 - mix.alpha_hetfh * B1) / scale,
        ((1.0 - mix.eta_msm - mix.eta_hetfh) * B0 - mix.alpha_hetfl * B2) / scale,
        ((1.0 - mix.alpha_hetfh) * B1 - mix.xi_hetm * B3) / scale,
        ((1.0 - mix.alpha_hetfl) * B2 - (1.0 - mix.xi_hetm) * B3) / scale,
    )


def risk_objective(mix, priors):
    """Squared distance from a mixing tuple to the priors (the projection objective)."""
    return sum((x - p) ** 2 for x, p in zip(mix.as_tuple(), priors.as_tuple()))


# ---------------------------------------------------------------------------
# Loop forms of the Sobol layers.  The package builds the tensor grid, the
# basis matrix and the indices of all series as whole arrays; the tests hold
# those equal to these node-by-node, term-by-term and series-by-series forms
# bit for bit.
# ---------------------------------------------------------------------------

def tensor_grid_loop(inputs, level):
    """(nodes, weights) of build_grid's tensor Gauss-Legendre rule, node by
    node in itertools.product order, each weight multiplied in dimension order."""
    from itertools import product

    x1, w1 = np.polynomial.legendre.leggauss(level)
    w1 = w1 / 2.0
    axes = [(np.array([u.lo]), np.array([1.0])) if u.hi == u.lo
            else (u.lo + (u.hi - u.lo) * (x1 + 1.0) / 2.0, w1) for u in inputs]
    count = int(np.prod([len(ax[0]) for ax in axes]))
    nodes = np.empty((count, len(inputs)))
    weights = np.ones(count)
    for i, combo in enumerate(product(*(range(len(ax[0])) for ax in axes))):
        for dim, j in enumerate(combo):
            nodes[i, dim] = axes[dim][0][j]
            weights[i] *= axes[dim][1][j]
    return nodes, weights


def basis_matrix_loop(index_set, nodes, intervals):
    """_basis_matrix term by term: each column the product of its nonzero
    degrees' polynomials, in dimension order."""
    from prepspill.sobol import _legendre_orthonormal, _to_unit

    max_deg = int(index_set.max()) if index_set.size else 0
    uni = [_legendre_orthonormal(max_deg, _to_unit(nodes[:, d], *intervals[d]))
           for d in range(index_set.shape[1])]
    P = np.ones((nodes.shape[0], index_set.shape[0]))
    for t, idx in enumerate(index_set):
        for d, deg in enumerate(idx):
            if deg:
                P[:, t] *= uni[d][:, deg]
    return P


def sobol_indices_loop(index_set, coeffs):
    """(first, total, mean, variance, defined) of one series of coefficients,
    one input at a time."""
    from prepspill.sobol import _VARIANCE_FLOOR

    const = np.all(index_set == 0, axis=1)
    mean = float(coeffs[const][0])
    variance = float(np.sum(coeffs[~const] ** 2))
    d = index_set.shape[1]
    if variance <= max(_VARIANCE_FLOOR, (1e-12 * max(1.0, abs(mean))) ** 2):
        return np.full(d, np.nan), np.full(d, np.nan), mean, variance, False
    touches = (index_set > 0).T
    only = touches & (touches.sum(axis=0) == 1)
    sq = coeffs ** 2
    first = np.array([sq[m].sum() / variance for m in only])
    total = np.array([sq[m].sum() / variance for m in touches])
    return first, total, mean, variance, True
