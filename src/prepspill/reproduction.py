"""Next-generation matrices, control reproduction numbers, stability probes.

The control reproduction number is the spectral radius of F V^{-1} evaluated
at the disease-free equilibrium.  Both a dense numeric eigenvalue route and
closed-form solutions by radicals (cubic for the 3-group model, quartic via
the resolvent cubic for the 4-group model) are provided; the closed forms are
cross-checked against the numeric value and degrade to it with a diagnostic
when they disagree, so the numeric route is always the source of truth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleClosure
from .integrators import IntegratorConfig, integrate_rhs
from .model import StateVec, closed_mixing, contact_matrix, dfe, flat_rhs_factory

_AGREE_RTOL = 1e-9
_IMAG_TOL = 1e-9
# tune_multiplier_to_rc's starting bracket and tolerance on R; the stop rules
# of stability_probe (see there).
_MULTIPLIER_BRACKET, _TUNE_TOL = (1e-6, 10.0), 1e-10
_DECAY_RATIO, _GROWTH_FACTOR, _HORIZON_CAP = 1e-3, 10.0, 32768.0
# Candidates _random_feasible_states draws at once per state still wanted;
# about one in ten is kept.
_SAMPLE_CHUNK = 32


@dataclass(frozen=True)
class NGMatrices:
    """New-infection matrix F, diagonal transition matrix V, and the DFE
    populations the entries were evaluated at."""

    F: np.ndarray
    V: np.ndarray
    labels: tuple
    dfe_populations: np.ndarray

    @property
    def K(self):
        return np.diag(self.V)


@dataclass(frozen=True)
class ReproductionNumber:
    value: float
    method: str  # "closed_form" or "numeric"
    components: dict
    diagnostic: str = None


def build_ngm(spec):
    """Assemble F and V at the disease-free equilibrium.

    Mixing fractions are closed at the DFE populations Pi_j / mu (unless the
    spec pins them).  Entry (j, p) of F is the rate at which one infected in
    group p creates infections in group j near the DFE:
    (1 - epsilon_j) W[j, p] N_j / N_p, with W = model.contact_matrix at those
    fractions, each product in that order, in Python floats; W is zero
    outside the variant's contact pairs, and so is F.
    """
    mu, params = float(spec.mu), [p for _, p in spec.groups]
    N = [float(p.Pi) / mu for p in params]
    if min(N) <= 0.0:
        raise InfeasibleClosure("DFE has an empty group; NGM undefined")
    W = contact_matrix(spec, closed_mixing(spec, N)).tolist()
    F = np.array([[(1.0 - float(p.epsilon)) * Wjp * Nj / Np for Wjp, Np in zip(row, N)]
                  for p, row, Nj in zip(params, W, N)])
    V = np.diag([mu + float(p.delta) for p in params])
    return NGMatrices(F=F, V=V, labels=spec.labels, dfe_populations=np.array(N))


def rc_numeric(ngm):
    """Spectral radius of F V^{-1} by dense eigenvalues.  V is a positive
    diagonal, so F V^{-1} is F with column p scaled by 1 / V[p, p]: the bits
    of F @ inv(V), whose inverse holds those reciprocals and whose product
    adds exact zeros."""
    A = ngm.F * (1.0 / ngm.K)
    value = float(np.max(np.abs(np.linalg.eigvals(A))))
    return ReproductionNumber(value=value, method="numeric", components={})


def _checked_closed_form(ngm, closed, comps, real=True, residue=""):
    """The closed-form value if it is ``real`` and agrees with rc_numeric to
    _AGREE_RTOL, else the numeric value with a mismatch diagnostic quoting
    the closed value, then ``residue``."""
    numeric = rc_numeric(ngm).value
    if real and abs(closed - numeric) <= _AGREE_RTOL * max(numeric, 1e-30):
        return ReproductionNumber(value=closed, method="closed_form", components=comps)
    return ReproductionNumber(
        value=numeric, method="numeric", components=comps,
        diagnostic=f"ClosedFormMismatch: closed = {closed!r}{residue} vs numeric = {numeric!r}")


def _cubic_roots(b, c, d):
    """All roots of z^3 + b z^2 + c z + d, complex principal radicals."""
    P = c - b * b / 3.0
    Q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = cmath.sqrt(complex((Q / 2.0) ** 2 + (P / 3.0) ** 3))
    u3 = -Q / 2.0 + disc
    if abs(u3) < 1e-300:
        u3 = -Q / 2.0 - disc
    if abs(u3) < 1e-300:
        return [complex(-b / 3.0)] * 3
    u = u3 ** (1.0 / 3.0)
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * w ** k
        roots.append(uk - P / (3.0 * uk) - b / 3.0)
    # one Newton polish per root; Cardano through rotations loses precision
    for i, z in enumerate(roots):
        for _ in range(2):
            fz = ((z + b) * z + c) * z + d
            dfz = (3.0 * z + 2.0 * b) * z + c
            if abs(dfz) > 0.0:
                z = z - fz / dfz
        roots[i] = z
    return roots


def rc_closed_basic(ngm):
    """Closed-form spectral radius of the 3-group F V^{-1} by Cardano.

    Expressed through the coupling ratios G: with
    a = G_msm_msm = f11/K1, the characteristic cubic is
    x^3 - a x^2 - (G_msm_hetf*G_hetf_msm + G_hetm_hetf*G_hetf_hetm) x
        + a * G_hetm_hetf * G_hetf_hetm = 0,
    whose largest root is (G2/G1 + G1).real + a/3 with
    G1 = cbrt(G4 + G3 + sqrt((G4+G3)^2 - G2^3)).  Cross-checked against the
    numeric eigenvalue; on disagreement the numeric value is returned with a
    diagnostic.
    """
    if ngm.F.shape != (3, 3):
        raise ValueError("basic closed form needs a 3x3 NGM")
    F, K, Ns = ngm.F, ngm.K, ngm.dfe_populations
    G_mm = F[0, 0] / K[0]
    G_fm = F[0, 1] * Ns[1] / (K[1] * Ns[0])   # hetf <- msm coupling
    G_mf = F[1, 0] * Ns[0] / (K[0] * Ns[1])
    G_hf = F[1, 2] * Ns[2] / (K[2] * Ns[1])
    G_fh = F[2, 1] * Ns[1] / (K[1] * Ns[2])
    bc = G_mf * G_fm
    de = G_hf * G_fh
    G2 = (G_mm / 3.0) ** 2 + (bc + de) / 3.0
    G3 = G_mm * (bc / 6.0 - de / 3.0)
    G4 = (G_mm / 3.0) ** 3
    comps = {"G_msm_msm": G_mm, "G_hetf_msm": G_fm, "G_msm_hetf": G_mf,
             "G_hetm_hetf": G_hf, "G_hetf_hetm": G_fh,
             "G2": G2, "G3": G3, "G4": G4}
    disc = cmath.sqrt(complex((G4 + G3) ** 2 - G2 ** 3))
    G1 = (G4 + G3 + disc) ** (1.0 / 3.0)
    comps["G1"] = G1
    if abs(G1) < 1e-300:
        closed = G_mm / 3.0
        resid = 0.0
    else:
        z = G2 / G1 + G1
        closed = z.real + G_mm / 3.0
        resid = abs(z.imag)
    return _checked_closed_form(ngm, closed, comps, resid < _IMAG_TOL,
                                f" (imag residue {resid:.3e})")


def _depressed_quartic_roots(p, q, r):
    """All roots of x^4 + p x^2 + q x + r via Ferrari's resolvent cubic."""
    scale = max(1.0, abs(p), abs(q), abs(r))
    if abs(q) <= 1e-14 * scale:
        roots = []
        inner = cmath.sqrt(complex(p * p - 4.0 * r))
        for s in (1.0, -1.0):
            z = cmath.sqrt((-p + s * inner) / 2.0)
            roots += [z, -z]
        return roots
    # resolvent cubic in u = A^2: u^3 + 2p u^2 + (p^2 - 4r) u - q^2 = 0;
    # u(0) = -q^2 < 0 guarantees a positive real root
    res = _cubic_roots(2.0 * p, p * p - 4.0 * r, -q * q)
    us = [z.real for z in res
          if abs(z.imag) <= 1e-6 * max(1.0, abs(z)) and z.real > 0.0]
    if not us:
        us = [max(z.real for z in res)]
    u = max(us)
    A = math.sqrt(u)
    c1 = (p + u) / 2.0 - q / (2.0 * A)
    c2 = (p + u) / 2.0 + q / (2.0 * A)
    h1 = cmath.sqrt(complex(A * A - 4.0 * c1)) / 2.0
    h2 = cmath.sqrt(complex(A * A - 4.0 * c2)) / 2.0
    h3 = A / 2.0
    return [-h3 - h1, -h3 + h1, h3 - h2, h3 + h2]


def rc_closed_risk(ngm):
    """Closed-form spectral radius of the 4-group F_r V_r^{-1}.

    Uses the H-combinations of the matrix entries: with D = K1 K2 K3 K4,

      H11 = f12 f21 f34 f43 + f13 f24 f31 f42 - f12 f24 f31 f43 - f13 f21 f34 f42
      H12 = K3 K4 f12 f21 + K2 K4 f13 f31 + K1 K3 f24 f42 + K1 K2 f34 f43
      H13 = K3 f11 f24 f42 + K2 f11 f34 f43

    give the depressed-quartic coefficients H8, H9, H10; the four candidate
    values are f11/(4 K1) + {-H1-H3, H1-H3, H3-H2, H3+H2} with H1, H2, H3
    obtained from the resolvent cubic, and the reproduction number is their
    maximum.  Cross-checked against the numeric eigenvalue as in the basic
    variant.
    """
    if ngm.F.shape != (4, 4):
        raise ValueError("risk closed form needs a 4x4 NGM")
    F, K = ngm.F, ngm.K
    f11, f12, f13 = F[0, 0], F[0, 1], F[0, 2]
    f21, f24 = F[1, 0], F[1, 3]
    f31, f34 = F[2, 0], F[2, 3]
    f42, f43 = F[3, 1], F[3, 2]
    K1, K2, K3, K4 = K
    D = K1 * K2 * K3 * K4
    H11 = f12 * f21 * f34 * f43 + f13 * f24 * f31 * f42 \
        - f12 * f24 * f31 * f43 - f13 * f21 * f34 * f42
    H12 = K3 * K4 * f12 * f21 + K2 * K4 * f13 * f31 \
        + K1 * K3 * f24 * f42 + K1 * K2 * f34 * f43
    H13 = K3 * f11 * f24 * f42 + K2 * f11 * f34 * f43
    H9 = 3.0 * f11 ** 2 / (8.0 * K1 ** 2) + H12 / D
    H10 = f11 ** 3 / (8.0 * K1 ** 3) + f11 * H12 / (2.0 * K1 ** 2 * K2 * K3 * K4) \
        - H13 / D
    H8 = 3.0 * f11 ** 4 / (256.0 * K1 ** 4) \
        + f11 ** 2 * H12 / (16.0 * K1 ** 3 * K2 * K3 * K4) \
        - f11 * H13 / (4.0 * K1 ** 2 * K2 * K3 * K4) - H11 / D
    base = f11 / (4.0 * K1)
    roots = _depressed_quartic_roots(-H9, -H10, -H8)
    comps = {"H8": H8, "H9": H9, "H10": H10, "H11": H11, "H12": H12, "H13": H13}
    # recover the H1/H2/H3 decomposition for reporting
    comps["H3"] = (roots[3] + roots[2]).real / 2.0
    comps["H2"] = (roots[3] - roots[2]).real / 2.0
    comps["H1"] = (roots[1] - roots[0]).real / 2.0
    cands = [base + z.real for z in roots
             if abs(z.imag) <= _IMAG_TOL * max(1.0, abs(z))]
    for i, z in enumerate(roots):
        comps[f"R_cr{i + 1}"] = base + z.real if abs(z.imag) <= _IMAG_TOL * max(1.0, abs(z)) \
            else complex(base + z.real, z.imag)
    return _checked_closed_form(ngm, max(cands) if cands else float("nan"), comps)


def rc_closed(ngm):
    """Closed-form reproduction number of the NGM, for either variant."""
    return rc_closed_basic(ngm) if ngm.F.shape == (3, 3) else rc_closed_risk(ngm)


def scale_transmission(spec, multiplier):
    """Spec copy with every transmission probability (each field of
    spec.probs) times ``multiplier``, each capped at 1."""
    p = spec.probs
    return replace(spec, probs=type(p)(**{f: min(b * multiplier, 1.0)
                                          for f, b in vars(p).items()}))


def tune_multiplier_to_rc(spec, target):
    """Global transmission multiplier m at which rho(F V^-1) hits target.

    F is linear in the transmission probabilities and neither V nor the DFE
    depends on them, so R_c(m) = m * R_c(1) until some beta * m reaches its
    cap of 1.  Beyond it R_c(m) = rho(m A + B), with B the capped betas' part
    of F V^-1: increasing, and smooth between the caps 1 / beta.  Regula
    falsi on _MULTIPLIER_BRACKET: its first secant point is the root of the
    straight line, up to rounding, so an uncapped tune costs three NGM
    solves.  Next come the caps inside the bracket (nearest first), then
    secant steps on one smooth piece, Anderson-Bjorck: moving one end twice
    scales the other's value by 1 - f(new) / f(replaced), or 0.5 if that
    is not positive.  Stops at |R_c - target| < _TUNE_TOL; RuntimeError if
    200 steps do not get there.  ValueError naming the target if the
    bracket's ends do not hold it (a NaN target among them).
    """
    def rc_of(m):
        return rc_numeric(build_ngm(scale_transmission(spec, m))).value

    lo, hi = _MULTIPLIER_BRACKET
    flo, fhi = rc_of(lo) - target, rc_of(hi) - target
    if not flo * fhi <= 0:  # a NaN target fails this too
        raise ValueError(f"target R = {target} not bracketed by multipliers [{lo}, {hi}]")
    caps = sorted({1.0 / b for b in vars(spec.probs).values() if b > 0.0})
    moved = 0  # the end the last secant step moved, -1 lo or +1 hi (0 after a cap)

    def scale(f_new, f_replaced):
        return g if (g := 1.0 - f_new / f_replaced) > 0.0 else 0.5
    for step in range(200):
        bends = [c for c in caps if lo < c < hi]
        if step and bends:  # land on the bend nearest the last point first
            m, secant = min(bends, key=lambda c: abs(c - m)), False
        else:  # equal end values are both zero: R_c is the target over the bracket
            m, secant = lo if fhi == flo else lo - flo * (hi - lo) / (fhi - flo), True
        rc = rc_of(m)
        fm = rc - target
        if abs(fm) < _TUNE_TOL:
            return m
        if flo * fm <= 0:
            flo *= scale(fm, fhi) if secant and moved > 0 else 1.0
            hi, fhi, moved = m, fm, int(secant)
        else:
            fhi *= scale(fm, flo) if secant and moved < 0 else 1.0
            lo, flo, moved = m, fm, -int(secant)
    raise RuntimeError(f"R_c tune to target {target} did not converge: last multiplier "
                       f"{m!r} gives R_c = {rc!r}")


@dataclass
class StabilityProbeReport:
    rc_hat: float
    regime: str               # "decay" or "growth"
    n_trials: int
    horizon: float
    confirmed: bool
    conclusive: bool
    max_terminal_ratio: float  # decay: max over trials of sumI(end)/sumI(0)
    notes: str = ""


def _uniform(lo, hi, u):
    """rng.uniform(lo, hi) of the draws u of rng.random(), as numpy's
    Generator computes it."""
    return lo + (hi - lo) * u


def _random_feasible_states(spec, n_trials, rng):
    """Random states inside the delta=0 invariant box (S_j <= S_j*, N <= Pi/mu)
    that are also mixing-feasible; rejection sampling.

    Candidate k is S = S* U(0.3, 1), I = S* U(0, 0.2), the draws of
    rng.uniform(0.3, 1.0, n) then rng.uniform(0.0, 0.2, n).  The
    candidates are drawn a chunk at a time, rng.random((k, 2, n)), and
    boxed as whole arrays; those inside the box are closed
    (closed_mixing, N as Python floats: the same bits) in order.
    RuntimeError when 200 n_trials candidates give fewer than n_trials
    states.
    """
    Sstar = dfe(spec).S
    cap = np.sum(Sstar)
    out, left = [], 200 * n_trials  # candidates the guard still allows
    while len(out) < n_trials:
        if not left:
            raise RuntimeError("could not sample enough feasible states")
        k = min(left, _SAMPLE_CHUNK * (n_trials - len(out)))
        left -= k
        u = rng.random((k, 2, spec.n))
        S, I = Sstar * _uniform(0.3, 1.0, u[:, 0]), Sstar * _uniform(0.0, 0.2, u[:, 1])
        N = S + I
        rows = N.tolist()
        for i in np.flatnonzero(~(np.sum(N, axis=1) > cap)):  # not above the cap
            try:
                closed_mixing(spec, rows[i])
            except InfeasibleClosure:
                continue
            out.append(StateVec.make(S[i], I[i]))
            if len(out) == n_trials:
                break
    return out


def stability_probe(spec, n_trials=50, seed=0):
    """Empirically probe the disease-free equilibrium's stability.

    The spec must have delta = 0 (the regime the global result covers).
    If the delta-free reproduction number is below one, integrates from
    ``n_trials`` random feasible states and doubles the horizon until total
    infections fall below _DECAY_RATIO of their start (or _HORIZON_CAP is
    reached -> inconclusive).  If above one, seeds a small perturbation of
    the DFE and requires growth by _GROWTH_FACTOR.

    Each doubling continues every trial from its state at the previous
    horizon, so each span is integrated once, in free steps (no whole-year
    nodes; dt_max = horizon / 8) starting from the step the trial's
    controller proposed at the end of the previous span.  Where no dt_max
    binds, a trial takes the steps of one integration from t = 0 that stops
    at each horizon.  The verdict reads only the sum of I, and at delta = 0
    each N_j(t) is known in closed form, so each trial integrates only its
    n I slots, on one RHS built once from its state at t = 0 (the
    infected-only form of model.flat_rhs_factory), and carries only its I
    to the next span.  ``n_trials`` must be at least 1 in either regime.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials = {n_trials} must be at least 1")
    if any(p.delta != 0.0 for _, p in spec.groups):
        raise ValueError("stability probe applies to delta = 0 specs")
    rc_hat = rc_numeric(build_ngm(spec)).value

    if rc_hat < 1.0:
        regime, h = "decay", 256.0
        states = _random_feasible_states(spec, n_trials, np.random.default_rng(seed))
    else:  # growth: perturb the DFE
        regime, h = "growth", 64.0
        I0 = np.full(spec.n, 1.0)
        states = [StateVec.make(dfe(spec).S - I0, I0)]
    start_tot = [float(np.sum(y.I)) for y in states]
    rhs = [flat_rhs_factory(spec, start=(0.0, y)) for y in states]
    rows, steps = [y.I for y in states], [None] * len(states)
    t0 = 0.0
    while True:
        for i, f in enumerate(rhs):
            cfg = IntegratorConfig(t0=t0, t_end=h, rtol=1e-8, atol=1e-8, dt_max=h / 8,
                                   year_nodes=False, first_step=steps[i])
            run = integrate_rhs(f, rows[i], cfg, spec.n)
            rows[i], steps[i] = run[1][-1], run[3]
        worst = max((float(np.sum(I)) / s if s > 0 else 0.0
                     for I, s in zip(rows, start_tot)), default=0.0)
        confirmed = worst < _DECAY_RATIO if regime == "decay" else worst >= _GROWTH_FACTOR
        if confirmed or h >= _HORIZON_CAP:
            return StabilityProbeReport(
                rc_hat=rc_hat, regime=regime, n_trials=len(states), horizon=h,
                confirmed=confirmed, conclusive=confirmed, max_terminal_ratio=worst,
                notes="" if confirmed else "horizon cap reached")
        t0, h = h, 2.0 * h
