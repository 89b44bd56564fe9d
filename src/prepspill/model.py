"""Group-structured susceptible/infected HIV transmission models.

Two variants share one representation: a 3-group model (msm, hetf, hetm) and
a 4-group model stratifying heterosexual females by risk (msm, hetf_h,
hetf_l, hetm).  Each group carries susceptible S_j, infected I_j, and a
cumulative-incidence accumulator C_j integrated alongside the state so annual
counts are exact under adaptive stepping.

The force of infection on group j is (1 - epsilon_j) * (W @ (I / N))_j, with
W the n x n contact matrix W[j, p] = a_j * (share of j's contacts made with
p) * beta(p -> j) over the variant's contact-pair table (``PAIRS`` on its
mixing class).  The flat RHS is generated from that table
(:func:`flat_rhs_factory`), each product written out term by term, not read
through W; :func:`contact_matrix` builds W for the next-generation matrix
(prepspill.reproduction.build_ngm) and the package's export.  A spillover
mode (``MODES``) adds every source group's block of prepspill.spillover.
The RHS carries the margins whose signs pick its branches (``f.switches``),
generated with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ZeroPopulation
from .mixing import (CLOSURE_ERRORS, BasicMixing, RiskMixing, check_unit_fields, close_basic,
                     close_basic_batch, close_risk, close_risk_batch, exec_source,
                     risk_margins_batch)

MODES = ("practical", "exact_delta")  # of the spillover system (prepspill.spillover)


@dataclass(frozen=True)
class Variant:
    """Group labels in state order, the mixing class (which carries the
    contact-pair table and the closure text), the closure's array form and
    the array form of its switching margins (None where it has none).
    The scalar closure solver is this module's close_basic or close_risk
    (closed_mixing).  An unpinned scalar RHS evaluates the closure text
    inline and calls neither."""

    groups: tuple
    mixing: type
    batch_closure: object
    batch_margins: object


VARIANTS = {
    "basic": Variant(("msm", "hetf", "hetm"), BasicMixing, close_basic_batch, None),
    "risk": Variant(("msm", "hetf_h", "hetf_l", "hetm"), RiskMixing, close_risk_batch,
                    risk_margins_batch),
}


def variant_of(name):
    """The Variant record for a variant name; ValueError if unknown."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}") from None


@dataclass(frozen=True)
class GroupParams:
    """Demographic and intervention parameters of one group.

    Pi: recruitment into the sexually active population, persons/year.
    a: average contacts per year.
    delta: disease-induced mortality, 1/year.
    epsilon: fraction of susceptibles on PrEP, in [0, 1].
    """

    Pi: float
    a: float
    delta: float
    epsilon: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.Pi, self.a, self.delta, self.epsilon))):
            raise ValueError(f"group parameters must be finite, got {self}")
        if min(self.Pi, self.a, self.delta, self.epsilon) < 0.0:
            raise ValueError("group parameters must be nonnegative")
        if self.epsilon > 1.0:
            raise ValueError(f"epsilon = {self.epsilon} exceeds 1")


@dataclass(frozen=True)
class TransmissionProbs:
    """Per-contact transmission probabilities.

    beta_mm: male-to-male, beta_fm: female-to-male, beta_mf: male-to-female.
    """

    beta_mm: float
    beta_fm: float
    beta_mf: float

    def __post_init__(self):
        check_unit_fields(self)


@dataclass(frozen=True)
class ModelSpec:
    """A fully parameterised model instance.

    ``mixing_priors`` are the target fractions fed to the contact-balance
    closure.  ``mixing`` is normally None, meaning the closure is re-solved
    from the current populations at every right-hand-side evaluation; setting
    it pins the fractions (useful for frozen-mixing experiments).
    ``labels`` (the group labels in state order) and ``n`` (their number)
    are set once per instance.
    """

    variant: str
    groups: tuple  # (label, GroupParams) pairs in state order
    probs: TransmissionProbs
    mu: float
    mixing_priors: object
    mixing: object = None

    def __post_init__(self):
        var = variant_of(self.variant)
        expected = var.groups
        object.__setattr__(self, "labels", tuple([label for label, _ in self.groups]))
        object.__setattr__(self, "n", len(self.groups))
        if self.labels != expected:
            raise ValueError(f"variant {self.variant!r} needs groups {expected}, "
                             f"got {self.labels}")
        if not 0.0 < self.mu < math.inf:  # NaN fails both comparisons
            raise ValueError(f"mu = {self.mu} must be positive and finite")
        want = var.mixing
        if not isinstance(self.mixing_priors, want):
            raise ValueError(f"mixing_priors must be {want.__name__} for {self.variant}")
        if self.mixing is not None and not isinstance(self.mixing, want):
            raise ValueError(f"mixing must be {want.__name__} for {self.variant}")

    def group_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no group {label!r} in variant {self.variant!r}") from None

    def param_arrays(self):
        """(Pi, a, delta, epsilon) as float arrays in group order."""
        ps = [p for _, p in self.groups]
        return (np.array([p.Pi for p in ps]), np.array([p.a for p in ps]),
                np.array([p.delta for p in ps]), np.array([p.epsilon for p in ps]))

    def with_epsilon(self, new_eps):
        """Copy of the spec with coverage fractions replaced.

        ``new_eps`` maps group label -> epsilon; unlisted groups keep theirs.
        """
        # through the checking __init__s, without dataclasses.replace's walk over the fields
        groups = tuple([(label, GroupParams(p.Pi, p.a, p.delta, float(new_eps[label])))
                        if label in new_eps else (label, p) for label, p in self.groups])
        return ModelSpec(self.variant, groups, self.probs, self.mu, self.mixing_priors,
                         self.mixing)

    def with_delta_zero(self):
        """Copy of the spec with disease-induced mortality switched off."""
        groups = tuple((label, replace(p, delta=0.0)) for label, p in self.groups)
        return replace(self, groups=groups)


def make_spec(variant, Pi, a, delta, epsilon, probs, mu, mixing_priors):
    """Assemble a ModelSpec from parallel parameter sequences in group order."""
    names = variant_of(variant).groups
    groups = tuple(
        (lbl, GroupParams(Pi=float(Pi[i]), a=float(a[i]), delta=float(delta[i]),
                          epsilon=float(epsilon[i])))
        for i, lbl in enumerate(names))
    return ModelSpec(variant=variant, groups=groups, probs=probs, mu=float(mu),
                     mixing_priors=mixing_priors)


@dataclass(frozen=True)
class StateVec:
    """Compartment populations, one entry per group, plus cumulative incidence."""

    S: np.ndarray
    I: np.ndarray
    C: np.ndarray

    @classmethod
    def make(cls, S, I, C=None):
        """The state of S, I and C (zeros if None), one entry per group;
        ValueError unless their lengths agree and every count is finite
        and nonnegative."""
        S = np.asarray(S, dtype=float)
        I = np.asarray(I, dtype=float)
        C = np.zeros_like(S) if C is None else np.asarray(C, dtype=float)
        if not len(S) == len(I) == len(C):
            raise ValueError(f"S, I and C have lengths {len(S)}, {len(I)} and {len(C)}")
        counts = S.tolist() + I.tolist() + C.tolist()  # floats check faster than arrays
        if not all(map(math.isfinite, counts)):
            raise ValueError("compartment populations must be finite")
        if min(counts) < 0.0:
            raise ValueError("compartment populations must be nonnegative")
        return cls(S=S, I=I, C=C)

    @property
    def N(self):
        return self.S + self.I

    def to_flat(self):
        """Interleaved layout: S_0, I_0, ..., S_{n-1}, I_{n-1}, C_0, ..., C_{n-1}."""
        n = len(self.S)
        out = np.empty(3 * n)
        out[0:2 * n:2] = self.S
        out[1:2 * n:2] = self.I
        out[2 * n:] = self.C
        return out

    @classmethod
    def from_flat(cls, y, n):
        """The state of a row in to_flat's layout (or its leading 3n slots)."""
        y = np.asarray(y, dtype=float)
        return cls(S=y[0:2 * n:2].copy(), I=y[1:2 * n:2].copy(), C=y[2 * n:3 * n].copy())


def closed_mixing(spec, N):
    """Mixing fractions at populations N: the pinned ones if the spec fixes
    them, otherwise the closure projection of the priors by this module's
    close_basic or close_risk.  The closure reads the contact rates as
    Python floats."""
    if spec.mixing is not None:
        return spec.mixing
    # module globals read at each call, so a rebinding (e.g. for tracing) is seen
    close = close_basic if spec.variant == "basic" else close_risk
    return close(N, [float(p.a) for _, p in spec.groups], spec.mixing_priors)


def contact_matrix(spec, mix):
    """Contact matrix W (n x n) for mixing fractions ``mix``: a mixing
    record, or the tuple its pair_fractions() gives.

    W[j, p] = a_j * (share of j's contacts made with p) * beta(p -> j), in
    that order, so (W @ (I / N))_j is the raw (pre-(1 - eps), pre-S) force
    of infection on group j.  Entries outside the variant's contact pairs
    are zero.  reproduction.build_ngm reads F from it; the generated RHS
    forms the same products itself.
    """
    W = np.zeros((spec.n, spec.n))
    fractions = mix if isinstance(mix, tuple) else mix.pair_fractions()
    for (j, p, beta), frac in zip(VARIANTS[spec.variant].mixing.PAIRS, fractions):
        W[j, p] = spec.groups[j][1].a * frac * getattr(spec.probs, beta)
    return W


def _zero_population(labels, N, t=None):
    """ZeroPopulation naming the first group with N <= 0, and the time t
    when one is given."""
    i = next(i for i, v in enumerate(N) if v <= 0.0)
    at = "" if t is None else f" at t = {t}"
    return ZeroPopulation(f"group {labels[i]} has N = {N[i]:.6g}{at}")


def dfe(spec):
    """Disease-free equilibrium: S_j = Pi_j / mu, no infections."""
    Pi, _, _, _ = spec.param_arrays()
    S = Pi / spec.mu
    return StateVec(S=S, I=np.zeros_like(S), C=np.zeros_like(S))


# ---------------------------------------------------------------------------
# Flat fast path used by the integrators, for the state and for the spillover
# system.  Python-float arithmetic beats tiny numpy arrays by an order of
# magnitude at these dimensions, and an unrolled body beats a loop over the
# contact pairs, so the body is generated from the variant's contact-pair
# table (as integrators._dp_step_maker unrolls the Dormand-Prince attempt
# that consumes it over the system width).  The generated source holds only
# integer indices and fixed names; every value enters through closure cells,
# which the generated make(spec, counts, start) reads from the spec.
# Float-cell rule: every numeric cell of a scalar RHS is a Python float,
# converted once where make reads it.  One numpy scalar cell makes every
# returned entry, and so every Dormand-Prince stage, a numpy scalar: the same
# IEEE values at about three times the cost.
# Closure-inline rule: an unpinned scalar RHS evaluates the mixing closure
# inline, pasting the closure text of mixing.py (the text the core is
# compiled from) verbatim into its body, with the contact rates a<j> and the
# priors p_<field> as float cells.  It makes no call: its ``raise`` lines
# read their error builders from the generated namespace (CLOSURE_ERRORS),
# so a failure raises the core's error on the same floats.  The batched RHS
# calls the array-form closure instead.
# Sums over a group's partners run in partner order: near the risk closure's
# xi_hetm clamp the step-size control amplifies last-bit differences in them
# into node-time shifts, so their rounding is held fixed.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _flat_rhs_maker(variant, pinned, tracked, mode=None, infected=False):
    """Compile ``make(spec, counts, start) -> f(t, y)`` for one variant's
    contact-pair table and closure text.  make reads every cell of f from
    the spec (the float-cell rule): Pi<j>, v<j> = mu + delta_j, the contact
    rates a<j>, each pair's transmission probability b<i>, the coverage
    u<j> = 1 - epsilon_j of an untracked group and, unless pinned, the
    priors p_<field> that the closure text reads.

    ``pinned``: the mixing fractions are fixed (cells m<i>, the spec's
    pinned pair fractions) instead of re-closed at every evaluation.
    ``tracked``: the groups whose coverage is re-derived from a tracked
    count (cell ``c<j>``, counts[j]; full while S_j <= c_j).  ``mode`` (one
    of MODES, checked first): the spillover system, y going on with one
    (sigma, gamma) block per group, in group order, after the 3n state
    slots (see prepspill.spillover), its rows generated from the same
    contact-pair table for either variant in either mode; None: no blocks.
    ``infected``: the infected-only form of a delta = 0 spec (make refuses
    any delta_j != 0 with a ValueError), y the n I slots alone.  With no
    disease deaths N_j' = Pi_j - mu N_j, so
    N_j(t) = Ns_j + d_j e^(-mu (t - t0)) exactly, with Ns_j = Pi_j / mu and
    d_j = N_j(t0) - Ns_j read from ``start``, a (t0, StateVec) pair, at
    every t before or after t0; S_j = N_j(t) - I_j, and f returns the I rows
    alone, as in the full form.  Blocks need the full, untracked form.
    The three row forms of the flat RHS keep the arithmetic order of the
    hand-written closures they replaced, and the spillover rows that of the
    numpy kernel, so integrations are unchanged to the last bit.

    The f that make returns carries its switching margins as ``f.switches
    = (names, signs, margins)``, written beside the branches they watch:
    unless pinned, the closure's (mixing.SWITCHES, named SWITCH_NAMES), then
    S_j - c_j for each tracked group j, named ``S_<label> - c_<label>``,
    where its coverage reaches 1.  Each changes sign where f switches
    branch, and f is continuous across every switch.  margins(t, y) gives
    them at time t and the state y (its S/I slots y[:2n], or the I slots of
    the infected-only form, whose N and S t sets, so that its closure's
    margins depend on t alone) as a list, signs(t, y) the int whose bit k
    is set where margin k is positive; a full form's ignore t.
    ``f.switches`` is None for a form with no margin (untracked basic or
    pinned) and for every spillover form, which no run watches.  Cached: at
    most 4 * 2**n + 4 sources per variant (4 * 2**n flat: pinned or not,
    full or infected-only, by tracked set; 4 spillover: pinned or not, by
    mode).  The source is registered under a name stating its form, e.g.
    ``<flat_rhs risk practical>`` or ``<flat_rhs basic infected>``.
    """
    if mode not in (None, *MODES):
        raise ValueError(f"unknown mode {mode!r}")
    if mode and (tracked or infected):
        raise ValueError("the infected-only and tracked RHS forms have no spillover blocks")
    var = VARIANTS[variant]
    mixing, n, pairs = var.mixing, len(var.groups), var.mixing.PAIRS
    g = range(n)
    m = ", ".join(f"m{i}" for i in range(len(pairs)))
    Ns = ", ".join(f"N{j}" for j in g)
    rows = [sorted((p, i, b) for i, (jj, p, b) in enumerate(pairs) if jj == j) for j in g]
    exact = mode == "exact_delta"

    def psum(j, x):  # sum over j's partners p of W[j, p] * x(p), term by term
        return " + ".join(f"a{j} * m{i} * b{i} * {x(p)}" for p, i, _ in rows[j])
    # the state preamble of f and of its margins: S, I and N of each group
    if infected:  # N in closed form, S what is left of it
        state = [", ".join(f"I{j}" for j in g) + " = y", "e = exp(-mu * (t - t0))",
                 *(f"N{j} = Ns{j} + d{j} * e" for j in g), *(f"S{j} = N{j} - I{j}" for j in g)]
    else:
        state = [", ".join(f"S{j}, I{j}" for j in g) + f" = y[:{2 * n}]",
                 *(f"N{j} = S{j} + I{j}" for j in g)]
    body, watch = list(state), list(state)
    names, margins = (), []
    body += ["if " + " or ".join(f"N{j} <= 0.0" for j in g) + ":",
             f"    raise zero_population(labels, ({Ns}), t)"]
    if not pinned:
        body += mixing.CLOSURE.splitlines()
        watch += mixing.SWITCHES.splitlines()
        names, margins = mixing.SWITCH_NAMES, [f"w{k}" for k in range(len(mixing.SWITCH_NAMES))]
    body += [f"u{j} = 1.0 - c{j} / S{j} if S{j} > c{j} else 0.0" for j in tracked]
    names += tuple(f"S_{var.groups[j]} - c_{var.groups[j]}" for j in tracked)
    margins += [f"S{j} - c{j}" for j in tracked]
    for j, row in enumerate(rows):
        p0, i0, _ = row[0]
        if mode:
            body.append(f"lam{j} = " + psum(j, lambda p: f"I{p} / N{p}"))
            lam = f"lam{j}"
        elif len(row) == 1:  # a lone pair holds all of j's contacts
            lam = f"a{j} * b{i0} * I{p0} / N{p0}"
        elif len({b for _, _, b in row}) == 1:  # one beta: factored out
            lam = f"a{j} * b{i0} * (" + " + ".join(
                f"m{i} * I{p} / N{p}" for p, i, _ in row) + ")"
        else:
            lam = f"a{j} * (" + " + ".join(
                f"m{i} * b{i} * I{p} / N{p}" for p, i, _ in row) + ")"
        body.append(f"inc{j} = u{j} * ({lam}) * S{j}")
    out = ([f"inc{j} - v{j} * I{j}" for j in g] if infected else
           [f"Pi{j} - inc{j} - mu * S{j}, inc{j} - v{j} * I{j}" for j in g]
           + [f"inc{j}" for j in g])
    for k in g if mode else ():
        s, gm, off = [f"s{k}_{j}" for j in g], [f"g{k}_{j}" for j in g], 3 * n + 2 * n * k
        body.append(", ".join(f"{s[j]}, {gm[j]}" for j in g) + f" = y[{off}:{off + 2 * n}]")
        for j in g:
            q, r = f"q{k}_{j}", f"r{k}_{j}"
            body.append(f"{q} = u{j} * (({psum(j, lambda p: f'{gm[p]} / N{p}')}) * S{j}"
                        f" + lam{j} * {s[j]})")
            ds, dg = f"-{q} - mu * {s[j]}", f"{q} - {f'v{j}' if exact else 'mu'} * {gm[j]}"
            if exact:  # population-size correction
                corr = psum(j, lambda p: f"(({s[p]} + {gm[p]}) * I{p}) / (N{p} * N{p})")
                body.append(f"{r} = u{j} * ({corr}) * S{j}")
                ds, dg = f"{ds} + {r}", f"{dg} - {r}"
            if j == k:
                ds, dg = f"{ds} - lam{k} * S{k}", f"{dg} + lam{k} * S{k}"
            out.append(f"{ds}, {dg}")
    body.append("return [" + ", ".join(out) + "]")
    functions, switches = [("f(t, y)", body)], "None"
    if names and not mode:  # no run watches a spillover form
        bits = " | ".join(f"({w} > 0.0) << {k}" for k, w in enumerate(margins))
        functions += [("signs(t, y)", watch + [f"return {bits}"]),
                      ("margins(t, y)", watch + ["return [" + ", ".join(margins) + "]"])]
        switches = "(names, signs, margins)"
    # the cells, each numeric one read from the spec as a Python float,
    # after the defs so that f's lines keep their numbers
    cells = [", ".join(f"(_, g{j})" for j in g) + " = spec.groups",
             "labels, probs, mu = spec.labels, spec.probs, float(spec.mu)"]
    for j in g:
        cells += [f"Pi{j}, v{j}, a{j} = float(g{j}.Pi), mu + float(g{j}.delta), float(g{j}.a)",
                  f"c{j} = float(counts[{j}])" if j in tracked
                  else f"u{j} = 1.0 - float(g{j}.epsilon)"]
    cells += [f"b{i} = float(probs.{beta})" for i, (_, _, beta) in enumerate(pairs)]
    if pinned:
        cells.append(f"{m} = map(float, spec.mixing.pair_fractions())")
    else:
        cells += [f"p_{f} = float(spec.mixing_priors.{f})" for f in mixing.CLOSURE_PRIORS]
    if infected:
        cells += ["if " + " or ".join(f"g{j}.delta" for j in g) + ":",
                  "    raise ValueError('the infected-only RHS form needs delta = 0')",
                  "t0, N = float(start[0]), start[1].N.tolist()"]
        cells += [f"Ns{j} = Pi{j} / mu" for j in g] + [f"d{j} = N[{j}] - Ns{j}" for j in g]
    src = "def make(spec, counts, start):\n" + "".join(
        f"    def {head}:\n" + "".join(f"        {line}\n" for line in lines)
        for head, lines in functions)
    src += "".join(f"    {line}\n" for line in cells)
    src += f"    f.switches = {switches}\n    return f\n"
    form = [variant] + ["pinned"] * pinned
    form += [f"tracked={','.join(map(str, tracked))}"] * bool(tracked) + [mode] * bool(mode)
    form += ["infected"] * infected
    namespace = dict(CLOSURE_ERRORS, names=names, zero_population=_zero_population,
                     exp=math.exp)
    return exec_source(src, f"<flat_rhs {' '.join(form)}>", namespace)["make"]


def flat_rhs_factory(spec, tracked_counts=None, mode=None, start=None):
    """Build rhs(t, y) -> list over the flat layout [Sj,Ij interleaved, C...],
    followed, given a spillover ``mode`` (one of MODES), by one block per
    source group in group order: the (sigma, gamma) pairs of every group
    (see prepspill.spillover).  ``start``, a (t0, StateVec) pair, gives the
    infected-only form of a delta = 0 spec instead (ValueError for any
    other; no mode): the RHS maps the n I slots to their derivative at any
    t, its N in closed form from that start state (see _flat_rhs_maker).

    The coverage fractions are the spec's (spec.with_epsilon gives another
    set).  ``tracked_counts`` optionally gives absolute person counts on
    PrEP per group; coverage is then re-derived as E_j / S_j at every
    evaluation (capped at 1) instead of using the fixed fractions.  Groups
    with a zero count keep their fixed fraction.  The RHS carries its
    switching margins as rhs.switches (see _flat_rhs_maker).
    """
    tracked = () if tracked_counts is None else tuple(
        j for j, c in enumerate(tracked_counts) if c)
    make = _flat_rhs_maker(spec.variant, spec.mixing is not None, tracked, mode,
                           start is not None)
    return make(spec, tracked_counts, start)


def batched_rhs_factory(spec, eps):
    """The flat RHS of a batch of models differing only in coverage (``eps``
    (B, n); ValueError naming its shape for any other, then for its first
    entry outside GroupParams' range [0, 1] in row order, NaN included):
    rhs(t, y) maps the (3n, B) state (or its rows) to one (3n, B)
    derivative; failures name the first failing member (.member).  Each
    step is one ufunc call over the groups (n, B) or pairs (pairs, B), in
    the scalar row forms: pair i of group j adds (m_i * c_i * I_p) / N_p,
    summed in partner order (PAIRS lists pairs by (j, p)) and times A_j,
    where (c_i, A_j) is (b_i, a_j) in a general row, (1, a_j * b) with one
    beta and (a_j * b, 1) for a lone pair (m_i = 1).  Products by 1 are
    exact, so each member's derivative is the scalar one bit for bit.

    An unpinned risk rhs carries the closure's switching margins as
    ``rhs.switches = (names, rows, member)``, the three-entry shape of the
    scalar RHS's (names, signs, margins): SWITCH_NAMES; rows(t, y) giving
    them at the (3n, B) state y as the rows of one (margins, B) array; and
    member(t, y), the scalar RHS's margins, giving them as a list for one
    member's S/I slots given as a list of floats (evaluated at a few points
    along a step to find one member's switch).  ``rhs.switches`` is None
    for basic and pinned batches."""
    eps = np.array(eps, dtype=float)
    if eps.ndim != 2 or eps.shape[1] != spec.n:
        raise ValueError(f"eps of shape {eps.shape} is not (B, {spec.n}): each row needs "
                         "one coverage fraction per group")
    for e in eps.ravel().tolist():
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"epsilon = {e} outside [0, 1]")
    var = VARIANTS[spec.variant]
    pairs, n = var.mixing.PAIRS, spec.n
    close, mu = var.batch_closure, float(spec.mu)
    Pi, a, delta, _ = spec.param_arrays()
    b = [float(getattr(spec.probs, beta)) for _, _, beta in pairs]
    c, A, rows = [], [], [[i for i, pair in enumerate(pairs) if pair[0] == j] for j in range(n)]
    for j, row in enumerate(rows):
        ab, one_beta = a[j] * b[row[0]], len({pairs[i][2] for i in row}) == 1
        c += [ab] if len(row) == 1 else [1.0] * len(row) if one_beta else [b[i] for i in row]
        A.append(1.0 if len(row) == 1 else ab if one_beta else a[j])
    width = max(map(len, rows))  # terms[k, j]: row j's k-th pair, where valid
    terms = np.array([row + [0] * (width - len(row)) for row in rows]).T
    valid = (np.arange(width)[:, None] < [len(row) for row in rows])[:, :, None]

    def column(values):
        return np.array(values, dtype=float)[:, None]
    c, A, Pi, v, a = column(c), column(A), column(Pi), column(mu + delta), column(a)
    partner, u = np.array([p for _, p, _ in pairs]), 1.0 - eps.T
    fixed = None if spec.mixing is None else column(spec.mixing.pair_fractions())

    def f(t, y):
        y = np.asarray(y)
        S, I = y[0:2 * n:2], y[1:2 * n:2]
        N = S + I
        if not N.min() > 0.0 and (bad := (N <= 0.0).any(axis=0)).any():  # not only NaN
            i = bad.argmax()
            raise _zero_population(spec.labels, N[:, i], t).for_member(i)
        m = close(N, a, spec.mixing_priors, t=t) if fixed is None else fixed
        T = (m * c * I[partner] / N[partner])[terms]
        # summed term by term from -0.0, which leaves every first term as is
        inc = u * (A * np.add.reduce(T, axis=0, initial=-0.0, where=valid)) * S
        out = np.empty(y.shape)
        out[0:2 * n:2], out[1:2 * n:2], out[2 * n:] = Pi - inc - mu * S, inc - v * I, inc
        return out

    f.switches = None
    if fixed is None and var.batch_margins is not None:
        def rows(t, y):
            return var.batch_margins(y[0:2 * n:2] + y[1:2 * n:2], a, spec.mixing_priors)
        # one member's: the scalar RHS's margins, which no coverage moves
        f.switches = (var.mixing.SWITCH_NAMES, rows, flat_rhs_factory(spec).switches[2])
    return f
