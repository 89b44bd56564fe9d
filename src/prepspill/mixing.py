"""Contact-balance closure for the group mixing fractions.

Partnership counts between groups must balance: the number of contacts group
A has with group B equals the number B has with A.  With per-capita contact
rates held fixed, those balance equations pin the mixing fractions down to
(basic model) a unique point or (risk model) a one-parameter family, onto
which the configured prior fractions are projected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleClosure

_RISK_SHARES = ("eta_hetfh", "alpha_hetfh", "alpha_hetfl", "xi_hetm")


@dataclass(frozen=True)
class BasicMixing:
    """Mixing fractions of the 3-group model.

    eta_msm: proportion of MSM contacts that are with MSM.
    alpha_hetf: proportion of HETF contacts that are with MSM.
    """

    eta_msm: float
    alpha_hetf: float

    # Contact pairs (j, p, beta): group j's contacts with group p, and the
    # TransmissionProbs field for infection of j by p.  pair_fractions()
    # gives the share of j's contacts in each pair, in the same order.
    PAIRS = ((0, 0, "beta_mm"), (0, 1, "beta_fm"),
             (1, 0, "beta_mf"), (1, 2, "beta_mf"),
             (2, 1, "beta_fm"))

    def __post_init__(self):
        for name in ("eta_msm", "alpha_hetf"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def as_tuple(self):
        return (self.eta_msm, self.alpha_hetf)

    def pair_fractions(self):
        eta, alpha = self.eta_msm, self.alpha_hetf
        return (eta, 1.0 - eta, alpha, 1.0 - alpha, 1.0)


@dataclass(frozen=True)
class RiskMixing:
    """Mixing fractions of the 4-group (risk-stratified) model.

    eta_msm / eta_hetfh: proportion of MSM contacts with MSM / high-risk HETF.
    alpha_hetfh / alpha_hetfl: proportion of high-/low-risk HETF contacts with MSM.
    xi_hetm: proportion of HETM contacts with high-risk HETF.
    """

    eta_msm: float
    eta_hetfh: float
    alpha_hetfh: float
    alpha_hetfl: float
    xi_hetm: float

    # Contact pairs (j, p, beta), as for BasicMixing.
    PAIRS = ((0, 0, "beta_mm"), (0, 1, "beta_fm"), (0, 2, "beta_fm"),
             (1, 0, "beta_mf"), (1, 3, "beta_mf"),
             (2, 0, "beta_mf"), (2, 3, "beta_mf"),
             (3, 1, "beta_fm"), (3, 2, "beta_fm"))

    def __post_init__(self):
        for name in ("eta_msm", "eta_hetfh", "alpha_hetfh", "alpha_hetfl",
                     "xi_hetm"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if self.eta_msm + self.eta_hetfh > 1.0 + 1e-12:
            raise ValueError("eta_msm + eta_hetfh exceeds 1")

    def as_tuple(self):
        return (self.eta_msm, self.eta_hetfh, self.alpha_hetfh,
                self.alpha_hetfl, self.xi_hetm)

    def pair_fractions(self):
        # eta_msm + eta_hetfh may exceed 1 by roundoff (see __post_init__);
        # the remaining MSM share is then 0, not a tiny negative.
        em, ehh, ahh, ahl, xi = self.as_tuple()
        return (em, ehh, max(0.0, 1.0 - em - ehh), ahh, 1.0 - ahh, ahl, 1.0 - ahl,
                xi, 1.0 - xi)


def _unit_interval_error(name, value, t):
    return InfeasibleClosure(
        f"closure gives {name} = {value:.6g} outside [0, 1]", t=t, value=value)


def _check_unit_interval(name, value, t=None, slack=0.0):
    if not (-slack <= value <= 1.0 + slack):
        raise _unit_interval_error(name, value, t)


def _basic_shares(B0, B1, B2):
    """(alpha_hetf, eta_msm) from the contact volumes B_j = N_j * a_j: floats,
    or columns of them for close_basic_batch."""
    alpha = 1.0 - B2 / B1
    return alpha, 1.0 - alpha * B1 / B0


def basic_fractions(N, a, priors=None, t=None):
    """Close the 3-group mixing fractions for populations N and contact rates a.

    The two balance equations in two unknowns are uniquely solvable by
    elimination, so the prior fractions do not move the answer; they are
    accepted for interface symmetry with the risk variant.

    Order of N and a is (msm, hetf, hetm).  Returns the tuple that
    BasicMixing.pair_fractions() gives; close_basic builds the record.  Raises
    InfeasibleClosure when the solution leaves [0, 1]; no silent clamping.
    """
    B0, B1, B2 = N[0] * a[0], N[1] * a[1], N[2] * a[2]
    if min(B0, B1, B2) <= 0.0:
        raise InfeasibleClosure("nonpositive total contact volume", t=t)
    alpha, eta = _basic_shares(B0, B1, B2)
    _check_unit_interval("alpha_hetf", alpha, t)
    _check_unit_interval("eta_msm", eta, t)
    return (eta, 1.0 - eta, alpha, 1.0 - alpha, 1.0)


def close_basic(N, a, priors=None, t=None):
    """basic_fractions as a BasicMixing record."""
    eta, _, alpha, _, _ = basic_fractions(N, a, priors, t)
    return BasicMixing(eta_msm=eta, alpha_hetf=alpha)


# The risk closure's arithmetic, shared by risk_fractions and close_risk_batch:
# each B_j (contact volume N_j * a_j) is a float or a column of them.

def _risk_projection(B0, B1, B2, B3, priors):
    """xi_hetm minimising the squared distance to the priors on the feasible
    line, before clamping to the interval that keeps every share in [0, 1]."""
    # Affine parameterisation x -> (eta_hetfh, alpha_hetfh, alpha_hetfl, xi):
    # slopes (s0, s1, s2, 1) and offsets (B1/B0, 1, 1 - B3/B2, 0).
    s0, s1, s2 = -B3 / B0, -B3 / B1, B3 / B2
    quad = s0 * s0 + s1 * s1 + s2 * s2 + 1.0
    lin = (s0 * (B1 / B0 - priors.eta_hetfh) + s1 * (1.0 - priors.alpha_hetfh)
           + s2 * (1.0 - B3 / B2 - priors.alpha_hetfl) + (0.0 - priors.xi_hetm))
    return -lin / quad


def _risk_shares(B0, B1, B2, B3, xi):
    """The four _RISK_SHARES at xi_hetm = xi."""
    return ((B1 - xi * B3) / B0, 1.0 - xi * B3 / B1, 1.0 - (1.0 - xi) * B3 / B2, xi)


def risk_fractions(N, a, priors, t=None):
    """Close the 4-group mixing fractions, staying as near the priors as possible.

    Order of N and a is (msm, hetf_h, hetf_l, hetm).  The four balance
    equations leave one degree of freedom; parameterising the feasible line
    by xi_hetm makes every other fraction affine in xi (and eta_msm constant),
    so the squared distance to the priors is a univariate convex quadratic
    minimised in closed form, with the minimiser clamped to the sub-interval
    of xi keeping all five fractions in [0, 1].  Returns the tuple that
    RiskMixing.pair_fractions() gives; close_risk builds the record.
    """
    B0, B1, B2, B3 = N[0] * a[0], N[1] * a[1], N[2] * a[2], N[3] * a[3]
    if min(B0, B1, B2, B3) <= 0.0:
        raise InfeasibleClosure("nonpositive total contact volume", t=t)

    # eta_msm is forced by the balance structure, independent of xi.
    eta_msm = 1.0 - (B1 + B2 - B3) / B0
    _check_unit_interval("eta_msm", eta_msm, t)

    lo = max(0.0, (B1 - B0) / B3, 1.0 - B2 / B3)
    hi = min(1.0, B1 / B3)
    if lo > hi:
        raise InfeasibleClosure(
            f"empty feasible interval for xi_hetm: [{lo:.6g}, {hi:.6g}]",
            t=t, value=lo)

    xi = min(max(_risk_projection(B0, B1, B2, B3, priors), lo), hi)
    ehh, ahh, ahl, xi = shares = _risk_shares(B0, B1, B2, B3, xi)
    if not (0.0 <= ehh <= 1.0 and 0.0 <= ahh <= 1.0 and 0.0 <= ahl <= 1.0
            and 0.0 <= xi <= 1.0):  # roundoff at a clamped boundary, or infeasible
        for name, v in zip(_RISK_SHARES, shares):
            _check_unit_interval(name, v, t, slack=1e-14)
        ehh, ahh, ahl, xi = [min(max(v, 0.0), 1.0) for v in shares]
    # RiskMixing's eta_msm + eta_hetfh <= 1 + 1e-12 holds by construction
    # (xi_hetm >= 1 - B2/B3) up to roundoff, which max(0, .) absorbs.
    return (eta_msm, ehh, max(0.0, 1.0 - eta_msm - ehh), ahh, 1.0 - ahh, ahl,
            1.0 - ahl, xi, 1.0 - xi)


def close_risk(N, a, priors, t=None):
    """risk_fractions as a RiskMixing record."""
    em, ehh, _, ahh, _, ahl, _, xi, _ = risk_fractions(N, a, priors, t)
    return RiskMixing(em, ehh, ahh, ahl, xi)


# Array forms of the closures: N holds one column (B,) per group, one entry
# per batch member, and the contact volumes B_j are the rows of one product.
# Each check of the scalar solver is one reduction over all members (the
# stacked risk shares share one); only when it fails does the ordered scan
# run, naming the first failing member with the scalar error, tagged with
# its index (PrepspillError.member).  The arithmetic is the scalar solver's,
# term by term, so every member's fractions equal the scalar ones bit for bit.

def _first(bad):
    """Index of the first True entry of a boolean column, or None."""
    return int(bad.argmax()) if bad.any() else None


def _check_unit_columns(name, v, t, slack=0.0):
    i = _first(~((-slack <= v) & (v <= 1.0 + slack)))
    if i is not None:
        raise _unit_interval_error(name, v[i], t).for_member(i)


def _volumes(N, a, t):
    """The contact volumes N_j * a_j as the rows of one array, all positive
    (a NaN fails the reduction and passes the scan, as in the scalar)."""
    B = np.multiply(N, np.array(a)[:, None])
    i = None if B.min() > 0.0 else _first(np.logical_or.reduce([b <= 0.0 for b in B]))
    if i is not None:
        raise InfeasibleClosure("nonpositive total contact volume", t=t).for_member(i)
    return B


def _check_unit_rows(names, V, t, slack=0.0):
    """Every row of V (one per name, in check order) within [0, 1] up to slack."""
    if not (-slack <= V.min() and V.max() <= 1.0 + slack):
        for name, v in zip(names, V):
            _check_unit_columns(name, v, t, slack)


def close_basic_batch(N, a, priors=None, t=None):
    """basic_fractions over columns of N: the pair fractions as columns."""
    B0, B1, B2 = _volumes(N, a, t)
    alpha, eta = _basic_shares(B0, B1, B2)
    _check_unit_rows(("alpha_hetf", "eta_msm"), np.array((alpha, eta)), t)
    return (eta, 1.0 - eta, alpha, 1.0 - alpha, 1.0)


def close_risk_batch(N, a, priors, t=None):
    """risk_fractions over columns of N: the pair fractions as columns."""
    B0, B1, B2, B3 = _volumes(N, a, t)
    eta_msm = 1.0 - (B1 + B2 - B3) / B0
    _check_unit_rows(("eta_msm",), eta_msm[None], t)

    lo = np.maximum(np.maximum(0.0, (B1 - B0) / B3), 1.0 - B2 / B3)
    hi = np.minimum(1.0, B1 / B3)
    i = _first(lo > hi)
    if i is not None:
        raise InfeasibleClosure(
            f"empty feasible interval for xi_hetm: [{lo[i]:.6g}, {hi[i]:.6g}]",
            t=t, value=lo[i]).for_member(i)

    xi = np.minimum(np.maximum(_risk_projection(B0, B1, B2, B3, priors), lo), hi)
    shares = np.array(_risk_shares(B0, B1, B2, B3, xi))
    _check_unit_rows(_RISK_SHARES, shares, t, slack=1e-14)
    ehh, ahh, ahl, xi = np.minimum(np.maximum(shares, 0.0), 1.0)
    return (eta_msm, ehh, np.maximum(0.0, 1.0 - eta_msm - ehh), ahh, 1.0 - ahh,
            ahl, 1.0 - ahl, xi, 1.0 - xi)
