"""Contact-balance closure for the group mixing fractions.

Partnership counts between groups must balance: the number of contacts group
A has with group B equals the number B has with A.  With per-capita contact
rates held fixed, those balance equations pin the mixing fractions down to
(basic model) a unique point or (risk model) a one-parameter family, onto
which the configured prior fractions are projected.
"""

from __future__ import annotations

import dataclasses
import inspect
import linecache
import textwrap
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleClosure

_RISK_SHARES = ("eta_hetfh", "alpha_hetfh", "alpha_hetfl", "xi_hetm")


def exec_source(src, filename, namespace):
    """Execute generated source ``src`` in ``namespace`` (its globals) and
    return the namespace.  The text is registered with linecache under
    ``filename``, which should name the generated form (``<dp_step 12>``),
    so tracebacks show its lines and profiles keep the forms apart."""
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    exec(compile(src, filename, "exec"), namespace)
    return namespace


# ---------------------------------------------------------------------------
# The scalar closures as source text, as integrators._DP_STAGES holds the
# Dormand-Prince tableau.  A text reads the populations N<j> and contact
# rates a<j> (floats), the prior fractions named in its class's
# CLOSURE_PRIORS as p_<field>, and t; it leaves the pair fractions, in PAIRS
# order, in m0, m1, ...  basic_fractions and risk_fractions are compiled
# from it, and model._flat_rhs_maker pastes it verbatim into every unpinned
# scalar RHS, whose namespace holds the names its ``raise`` lines read
# (CLOSURE_ERRORS).  So the success path makes no call: each min and max is
# written as the comparisons the builtin makes
# (an item replaces the one kept only if it is smaller, resp. greater),
# which keeps the builtin's result on ties and NaN.  A NaN volume passes the
# volume check wherever it stands, and the first [0, 1] check names it.  The
# batch closures compile the shares, eta_msm, bounds and projection pieces
# as functions, and are judged by these texts when a screen fails.
# ---------------------------------------------------------------------------

_BASIC_SHARES = """\
alpha = 1.0 - B2 / B1
eta = 1.0 - alpha * B1 / B0"""

_BASIC_CLOSURE = f"""\
B0, B1, B2 = N0 * a0, N1 * a1, N2 * a2
if B0 <= 0.0 or B1 <= 0.0 or B2 <= 0.0:
    raise InfeasibleClosure("nonpositive total contact volume", t=t)
{_BASIC_SHARES}
if not 0.0 <= alpha <= 1.0:
    raise _unit_interval_error("alpha_hetf", alpha, t)
if not 0.0 <= eta <= 1.0:
    raise _unit_interval_error("eta_msm", eta, t)
m0, m1, m2, m3, m4 = eta, 1.0 - eta, alpha, 1.0 - alpha, 1.0
"""

# eta_msm is forced by the balance structure, independent of xi_hetm.
_RISK_ETA_MSM = "em = 1.0 - (B1 + B2 - B3) / B0"
# xi_hetm's feasible interval is [max(0, lo1, lo2), min(1, hi1)].
_RISK_BOUNDS = "lo1, lo2, hi1 = (B1 - B0) / B3, 1.0 - B2 / B3, B1 / B3"
# The interval's ends, then the projection x clamped into it: each branch
# selection beside its switching margin, the signed difference of the sides
# its comparison reads (positive where it takes its first branch).
_RISK_INTERVAL = (("lo = lo1 if lo1 > 0.0 else 0.0", "lo1"),
                  ("lo = lo2 if lo2 > lo else lo", "lo2 - lo"),
                  ("hi = hi1 if hi1 < 1.0 else 1.0", "1.0 - hi1"))
_RISK_CLAMP = (("xi = lo if lo > x else x", "lo - x"),
               ("xi = hi if hi < xi else xi", "xi - hi"))
# The xi_hetm minimising the squared distance to the priors on the feasible
# line, before clamping.  Affine parameterisation x -> (eta_hetfh,
# alpha_hetfh, alpha_hetfl, xi): slopes (s0, s1, s2, 1) and offsets
# (B1/B0, 1, 1 - B3/B2, 0).
_RISK_PROJECTION = """\
s0, s1, s2 = -B3 / B0, -B3 / B1, B3 / B2
quad = s0 * s0 + s1 * s1 + s2 * s2 + 1.0
lin = (s0 * (B1 / B0 - p_eta_hetfh) + s1 * (1.0 - p_alpha_hetfh)
       + s2 * (1.0 - B3 / B2 - p_alpha_hetfl) + (0.0 - p_xi_hetm))
x = -lin / quad"""
# The first three _RISK_SHARES at xi_hetm = xi.
_RISK_XI_SHARES = ("ehh, ahh, ahl = (B1 - xi * B3) / B0, 1.0 - xi * B3 / B1, "
                   "1.0 - (1.0 - xi) * B3 / B2")

_RISK_VOLUMES = "B0, B1, B2, B3 = N0 * a0, N1 * a1, N2 * a2, N3 * a3"


def _selections(pairs):
    """The selection lines of (selection, margin) pairs."""
    return "\n".join(line for line, _ in pairs)


_RISK_CLOSURE = f"""\
{_RISK_VOLUMES}
if B0 <= 0.0 or B1 <= 0.0 or B2 <= 0.0 or B3 <= 0.0:
    raise InfeasibleClosure("nonpositive total contact volume", t=t)
{_RISK_ETA_MSM}
if not 0.0 <= em <= 1.0:
    raise _unit_interval_error("eta_msm", em, t, _hetm_deficit(B1, B2, B3))
{_RISK_BOUNDS}
{_selections(_RISK_INTERVAL)}
if lo > hi:
    raise _empty_interval_error(lo, hi, t)
{_RISK_PROJECTION}
{_selections(_RISK_CLAMP)}
{_RISK_XI_SHARES}
if not (0.0 <= ehh <= 1.0 and 0.0 <= ahh <= 1.0 and 0.0 <= ahl <= 1.0 and 0.0 <= xi <= 1.0):
    # roundoff at a clamped boundary (within 1e-14, then clamped), else infeasible
    if not -1e-14 <= ehh <= 1.0 + 1e-14:
        raise _unit_interval_error("eta_hetfh", ehh, t)
    if not -1e-14 <= ahh <= 1.0 + 1e-14:
        raise _unit_interval_error("alpha_hetfh", ahh, t)
    if not -1e-14 <= ahl <= 1.0 + 1e-14:
        raise _unit_interval_error("alpha_hetfl", ahl, t)
    if not -1e-14 <= xi <= 1.0 + 1e-14:
        raise _unit_interval_error("xi_hetm", xi, t)
    ehh = 0.0 if 0.0 > ehh else 1.0 if 1.0 < ehh else ehh
    ahh = 0.0 if 0.0 > ahh else 1.0 if 1.0 < ahh else ahh
    ahl = 0.0 if 0.0 > ahl else 1.0 if 1.0 < ahl else ahl
    xi = 0.0 if 0.0 > xi else 1.0 if 1.0 < xi else xi
# RiskMixing's eta_msm + eta_hetfh <= 1 + 1e-12 holds by construction
# (xi_hetm >= 1 - B2/B3) up to roundoff, which the 0.0 floor absorbs.
rest = 1.0 - em - ehh
m0, m1, m2, m3, m4, m5, m6, m7, m8 = (em, ehh, rest if rest > 0.0 else 0.0, ahh, 1.0 - ahh,
                                      ahl, 1.0 - ahl, xi, 1.0 - xi)
"""


def _watched(pairs, first):
    """The selections, each after the line leaving its margin in w<k>,
    numbered from ``first``."""
    return "\n".join(f"w{k} = {margin}\n{line}"
                     for k, (line, margin) in enumerate(pairs, start=first))


# The switching margins of the closure's branch selections as source text,
# reading what CLOSURE reads and leaving them in w0, w1, ... (SWITCH_NAMES
# order).  model._flat_rhs_maker pastes it into the margins it generates
# beside the RHS that pastes CLOSURE; basic has no branch selection, hence
# no margin.
_RISK_SWITCHES = f"""\
{_RISK_VOLUMES}
{_RISK_BOUNDS}
{_watched(_RISK_INTERVAL, 0)}
{_RISK_PROJECTION}
{_watched(_RISK_CLAMP, len(_RISK_INTERVAL))}
"""


def _text_function(name, args, text, result):
    """The function ``name(args)`` running ``text`` and returning ``result``."""
    src = f"def {name}({args}):\n" + textwrap.indent(f"{text.rstrip()}\nreturn {result}\n",
                                                     "    ")
    return exec_source(src, f"<{name}>", globals())[name]


def _priors_line(fields):
    """Source unpacking the record ``priors`` into the floats p_<field>."""
    return (", ".join(f"p_{f}" for f in fields) + " = "
            + ", ".join(f"priors.{f}" for f in fields))


def check_unit_fields(record):
    """ValueError naming the first field of the dataclass ``record`` that
    lies outside [0, 1] (NaN included)."""
    for f in dataclasses.fields(record):
        v = getattr(record, f.name)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{f.name} = {v} outside [0, 1]")


@dataclass(frozen=True)
class BasicMixing:
    """Mixing fractions of the 3-group model.

    eta_msm: proportion of MSM contacts that are with MSM.
    alpha_hetf: proportion of HETF contacts that are with MSM.
    """

    eta_msm: float
    alpha_hetf: float

    # The variant's one record: its group labels in state order, then its
    # contact pairs (j, p, beta): group j's contacts with group p, and the
    # TransmissionProbs field for infection of j by p.  pair_fractions()
    # gives the share of j's contacts in each pair, in the same order.
    # The closure's array forms, batch_closure and batch_margins, are set
    # below risk_margins_batch.
    GROUPS = ("msm", "hetf", "hetm")
    PAIRS = ((0, 0, "beta_mm"), (0, 1, "beta_fm"),
             (1, 0, "beta_mf"), (1, 2, "beta_mf"),
             (2, 1, "beta_fm"))
    # The scalar closure's text and the prior fields it reads (see above).
    CLOSURE = _BASIC_CLOSURE
    CLOSURE_PRIORS = ()
    # The closure's switching margins as text and their names (see above).
    SWITCHES = ""
    SWITCH_NAMES = ()

    def __post_init__(self):
        check_unit_fields(self)

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

    # The variant's record, as for BasicMixing.
    GROUPS = ("msm", "hetf_h", "hetf_l", "hetm")
    PAIRS = ((0, 0, "beta_mm"), (0, 1, "beta_fm"), (0, 2, "beta_fm"),
             (1, 0, "beta_mf"), (1, 3, "beta_mf"),
             (2, 0, "beta_mf"), (2, 3, "beta_mf"),
             (3, 1, "beta_fm"), (3, 2, "beta_fm"))
    CLOSURE = _RISK_CLOSURE
    CLOSURE_PRIORS = _RISK_SHARES
    SWITCHES = _RISK_SWITCHES
    SWITCH_NAMES = tuple(margin for _, margin in _RISK_INTERVAL + _RISK_CLAMP)

    def __post_init__(self):
        check_unit_fields(self)
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


def _at(t):
    """The message suffix naming a known time t, else the empty string.  The
    messages format each number's real part, so a complex-step run's error
    prints like the real run's."""
    return "" if t is None else f" at t = {t.real:.6f}"


def _unit_interval_error(name, value, t, detail=""):
    """The error of a closure value outside [0, 1]; a value that ":.6g"
    rounds onto 1 prints as 1 plus its excess."""
    shown = f"{value.real:.6g}"
    if shown == "1" and value.real > 1.0:
        shown = f"1 + {value.real - 1.0:.6g}"
    return InfeasibleClosure(f"closure gives {name} = {shown} outside [0, 1]"
                             f"{detail}{_at(t)}", t=t, value=value)


def _hetm_deficit(B1, B2, B3):
    """The risk eta_msm error's detail: by how much HETM's contact volume
    exceeds all HETF's (eta_msm - 1 is that deficit over B_msm), absolute
    and as a share of B_hetm."""
    deficit = B3 - (B1 + B2)
    return (f"; contact-volume deficit B_hetm - (B_hh + B_hl) = {deficit.real:.6g}"
            f" ({(deficit / B3).real:.3%} of B_hetm)")


def _empty_interval_error(lo, hi, t):
    return InfeasibleClosure(f"empty feasible interval for xi_hetm: [{lo.real:.6g}, "
                             f"{hi.real:.6g}]{_at(t)}", t=t, value=lo)


# The names the closure texts' ``raise`` lines read.
CLOSURE_ERRORS = {"InfeasibleClosure": InfeasibleClosure,
                  "_unit_interval_error": _unit_interval_error,
                  "_hetm_deficit": _hetm_deficit,
                  "_empty_interval_error": _empty_interval_error}


def _compiled_from(mixing):
    """Decorator: the function with the stub's name, signature and docstring
    whose body is ``mixing.CLOSURE``, returning the pair fractions as a tuple."""
    def build(stub):
        g = range(len(mixing.GROUPS))
        head = [", ".join(f"N{j}" for j in g) + " = N",
                ", ".join(f"a{j}" for j in g) + " = a"]
        if mixing.CLOSURE_PRIORS:
            head.append(_priors_line(mixing.CLOSURE_PRIORS))
        result = ", ".join(f"m{i}" for i in range(len(mixing.PAIRS)))
        fn = _text_function(stub.__name__, str(inspect.signature(stub))[1:-1],
                            "\n".join(head) + "\n" + mixing.CLOSURE, f"({result})")
        fn.__doc__ = stub.__doc__
        return fn
    return build


@_compiled_from(BasicMixing)
def basic_fractions(N, a, priors=None, t=None):
    """Close the 3-group mixing fractions for populations N and contact rates a.

    The two balance equations in two unknowns are uniquely solvable by
    elimination, so the prior fractions do not move the answer; they are
    accepted for interface symmetry with the risk variant.

    Order of N and a is (msm, hetf, hetm).  Returns the tuple that
    BasicMixing.pair_fractions() gives; close_basic builds the record.  Raises
    InfeasibleClosure when the solution leaves [0, 1]; no silent clamping.
    """


def close_basic(N, a, priors=None):
    """basic_fractions as a BasicMixing record."""
    eta, _, alpha, _, _ = basic_fractions(N, a, priors)
    return BasicMixing(eta_msm=eta, alpha_hetf=alpha)


@_compiled_from(RiskMixing)
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


def close_risk(N, a, priors):
    """risk_fractions as a RiskMixing record."""
    em, ehh, _, ahh, _, ahl, _, xi, _ = risk_fractions(N, a, priors)
    return RiskMixing(em, ehh, ahh, ahl, xi)


# The pieces of the closure texts the array forms share; each B_j (contact
# volume N_j * a_j) is a float or a column of them.
_B3, _B4 = "B0, B1, B2", "B0, B1, B2, B3"
_basic_shares = _text_function("_basic_shares", _B3, _BASIC_SHARES, "alpha, eta")
_risk_eta_msm = _text_function("_risk_eta_msm", _B4, _RISK_ETA_MSM, "em")
_risk_bounds = _text_function("_risk_bounds", _B4, _RISK_BOUNDS, "lo1, lo2, hi1")
_risk_projection = _text_function("_risk_projection", _B4 + ", priors",
                                  _priors_line(_RISK_SHARES) + "\n" + _RISK_PROJECTION, "x")
_risk_xi_shares = _text_function("_risk_xi_shares", _B4 + ", xi", _RISK_XI_SHARES,
                                 "ehh, ahh, ahl, xi")


# Array forms of the closures over the (n, B) columns of N, giving the pair
# fractions as the rows of one (pairs, B) array, each member's the scalar
# solver's bit for bit: whole-array arithmetic plus screens that pass exactly
# when every scalar check does.  When one fails, the scalar closure judges.

def _judge(fractions, N, a, priors, t):
    """Run the scalar closure ``fractions`` on each member's column of N, in
    order, as Python floats; raise its first error, tagged with the member."""
    a = np.ravel(a).tolist()
    for i, col in enumerate(np.asarray(N, dtype=float).T.tolist()):
        try:
            fractions(col, a, priors, t)
        except InfeasibleClosure as e:
            raise e.for_member(i)


def _volumes(fractions, N, a, priors, t):
    """The contact volumes N_j * a_j as the rows of one array, screened for
    a nonpositive or NaN entry before any division."""
    B = np.multiply(N, np.asarray(a).reshape(-1, 1))
    if not B.min() > 0.0:
        _judge(fractions, N, a, priors, t)
    return B


def close_basic_batch(N, a, priors=None, t=None):
    """basic_fractions over the columns of N."""
    B0, B1, B2 = _volumes(basic_fractions, N, a, priors, t)
    m = np.empty((5,) + B0.shape)
    m[2], m[0] = _basic_shares(B0, B1, B2)  # alpha, eta
    np.subtract(1.0, m[0:4:2], out=m[1:4:2])
    m[4] = 1.0
    if not m[:4].min() >= 0.0:  # x and 1 - x are both >= 0 exactly when 0 <= x <= 1
        _judge(basic_fractions, N, a, priors, t)
    return m


def close_risk_batch(N, a, priors, t=None):
    """risk_fractions over the columns of N."""
    B0, B1, B2, B3 = _volumes(risk_fractions, N, a, priors, t)
    em = _risk_eta_msm(B0, B1, B2, B3)
    lo1, lo2, hi1 = _risk_bounds(B0, B1, B2, B3)
    lo = np.maximum(np.maximum(0.0, lo1), lo2)
    hi = np.minimum(1.0, hi1)
    xi = np.minimum(np.maximum(_risk_projection(B0, B1, B2, B3, priors), lo), hi)
    # eta_msm and the clamped xi - lo (>= 0 exactly when lo <= hi), then the shares
    v = np.array((em, xi - lo) + _risk_xi_shares(B0, B1, B2, B3, xi))
    shares = v[2:]
    if not (0.0 <= v[:2].min() and v[0].max() <= 1.0
            and -1e-14 <= shares.min() and shares.max() <= 1.0 + 1e-14):
        _judge(risk_fractions, N, a, priors, t)
    ehh, ahh, ahl, xi = np.minimum(np.maximum(shares, 0.0), 1.0)  # roundoff at a bound
    return np.array((em, ehh, np.maximum(0.0, 1.0 - em - ehh), ahh, 1.0 - ahh,
                     ahl, 1.0 - ahl, xi, 1.0 - xi))


def risk_margins_batch(N, a, priors):
    """The risk closure's switching margins over the columns of N, as the
    rows of one array in SWITCH_NAMES order: each selection of
    _RISK_INTERVAL and _RISK_CLAMP beside its margin, as _RISK_SWITCHES
    leaves them in w0, w1, ...  No screen: a margin only locates a switch."""
    B0, B1, B2, B3 = np.multiply(N, np.asarray(a).reshape(-1, 1))
    lo1, lo2, hi1 = _risk_bounds(B0, B1, B2, B3)
    lo = np.maximum(lo1, 0.0)
    w1, lo = lo2 - lo, np.maximum(lo2, lo)
    x = _risk_projection(B0, B1, B2, B3, priors)
    w3, xi = lo - x, np.maximum(lo, x)
    return np.array((lo1, w1, 1.0 - hi1, w3, xi - np.minimum(hi1, 1.0)))


# Each variant's array forms: its closure over the columns of N, and its
# switching margins (None where the closure has no branch selection).
BasicMixing.batch_closure, BasicMixing.batch_margins = close_basic_batch, None
RiskMixing.batch_closure, RiskMixing.batch_margins = close_risk_batch, risk_margins_batch
