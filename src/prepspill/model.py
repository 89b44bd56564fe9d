"""Group-structured susceptible/infected HIV transmission models.

Two variants share one representation: a 3-group model (msm, hetf, hetm) and
a 4-group model stratifying heterosexual females by risk (msm, hetf_h,
hetf_l, hetm).  Each group carries susceptible S_j, infected I_j, and a
cumulative-incidence accumulator C_j integrated alongside the state so annual
counts are exact under adaptive stepping.

The force of infection is written through the n x n contact matrix
W[j, p] = a_j * (share of j's contacts made with p) * beta(p -> j), built by
:func:`contact_matrix` from the variant's contact-pair table
(``PAIRS`` on its mixing class).  The per-susceptible infection rate of group
j is then (1 - epsilon_j) * (W @ (I / N))_j.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ZeroPopulation
from .mixing import (BasicMixing, RiskMixing, basic_fractions, close_basic,  # noqa: F401
                     close_basic_batch, close_risk, close_risk_batch, exec_source,
                     risk_fractions)


@dataclass(frozen=True)
class Variant:
    """Group labels in state order, the mixing class (which carries the
    contact-pair table and the closure text) and the names in this module of
    the closure solver, its core (giving pair fractions, not the record) and
    the core's array form, looked up at use so that rebinding them (e.g. for
    tracing) works.  An unpinned scalar RHS evaluates the core's text inline
    and calls the core only on a failure."""

    groups: tuple
    mixing: type
    closure: str
    fractions: str
    batch_closure: str


VARIANTS = {
    "basic": Variant(("msm", "hetf", "hetm"), BasicMixing, "close_basic",
                     "basic_fractions", "close_basic_batch"),
    "risk": Variant(("msm", "hetf_h", "hetf_l", "hetm"), RiskMixing, "close_risk",
                    "risk_fractions", "close_risk_batch"),
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
        for name in ("beta_mm", "beta_fm", "beta_mf"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} = {v} outside [0, 1]")


@dataclass(frozen=True)
class ModelSpec:
    """A fully parameterised model instance.

    ``mixing_priors`` are the target fractions fed to the contact-balance
    closure.  ``mixing`` is normally None, meaning the closure is re-solved
    from the current populations at every right-hand-side evaluation; setting
    it pins the fractions (useful for frozen-mixing experiments).
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

    @property
    def n(self):
        return len(self.groups)

    @property
    def labels(self):
        return tuple(label for label, _ in self.groups)

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
        groups = []
        for label, p in self.groups:
            if label in new_eps:
                p = replace(p, epsilon=float(new_eps[label]))
            groups.append((label, p))
        return replace(self, groups=tuple(groups))

    def with_delta_zero(self):
        """Copy of the spec with disease-induced mortality switched off."""
        groups = tuple((label, replace(p, delta=0.0)) for label, p in self.groups)
        return replace(self, groups=groups)


def make_spec(variant, Pi, a, delta, epsilon, probs, mu, mixing_priors, mixing=None):
    """Assemble a ModelSpec from parallel parameter sequences in group order."""
    names = variant_of(variant).groups
    groups = tuple(
        (lbl, GroupParams(Pi=float(Pi[i]), a=float(a[i]), delta=float(delta[i]),
                          epsilon=float(epsilon[i])))
        for i, lbl in enumerate(names))
    return ModelSpec(variant=variant, groups=groups, probs=probs, mu=float(mu),
                     mixing_priors=mixing_priors, mixing=mixing)


@dataclass(frozen=True)
class StateVec:
    """Compartment populations, one entry per group, plus cumulative incidence."""

    S: np.ndarray
    I: np.ndarray
    C: np.ndarray

    @classmethod
    def make(cls, S, I, C=None):
        S = np.asarray(S, dtype=float)
        I = np.asarray(I, dtype=float)
        C = np.zeros_like(S) if C is None else np.asarray(C, dtype=float)
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
        y = np.asarray(y, dtype=float)
        return cls(S=y[0:2 * n:2].copy(), I=y[1:2 * n:2].copy(), C=y[2 * n:3 * n].copy())


def closed_mixing(spec, N, t=None):
    """Mixing fractions at populations N: the pinned ones if the spec fixes
    them, otherwise the closure projection of the priors."""
    if spec.mixing is not None:
        return spec.mixing
    _, a, _, _ = spec.param_arrays()
    close = globals()[VARIANTS[spec.variant].closure]
    return close(N, a, spec.mixing_priors, t=t)


def contact_matrix(spec, mix):
    """Contact matrix W (n x n) for mixing fractions ``mix``: a mixing
    record, or the tuple its pair_fractions() gives.

    W[j, p] = a_j * (share of j's contacts made with p) * beta(p -> j), so
    (W @ (I / N))_j is the raw (pre-(1 - eps), pre-S) force of infection on
    group j.  Entries outside the variant's contact pairs are zero.
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
# integer indices and fixed names; every value enters through closure cells.
# Float-cell rule: every numeric cell of a scalar RHS is a Python float,
# converted once in _rhs_cells and flat_rhs_factory.  One numpy scalar cell
# makes every returned entry, and so every Dormand-Prince stage, a numpy
# scalar: the same IEEE values at about three times the cost.
# Closure-inline rule: an unpinned scalar RHS evaluates the mixing closure
# inline, pasting the closure text of mixing.py (the text the core is
# compiled from) into its body, with the contact rates a<j> and the priors
# p_<field> as float cells.  Its success path makes no call; each ``raise``
# line of the text becomes a call of the core (cell ``close``), which takes
# the same branch and raises the same error.  The batched RHS calls the
# array-form closure instead.
# Sums over a group's partners run in partner order: near the risk closure's
# xi_hetm clamp the step-size control amplifies last-bit differences in them
# into node-time shifts, so their rounding is held fixed.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _flat_rhs_maker(variant, pinned, tracked, batched=False, sources=(), exact=False):
    """Compile ``make(**cells) -> f(t, y)`` for one variant's contact-pair
    table and closure text.

    ``pinned``: the mixing fractions are fixed (cell ``fixed``) instead of
    re-closed at every evaluation.  ``tracked``: the groups whose coverage is
    re-derived from a tracked count (cell ``c<j>``; full while S_j <= c_j).
    Cells a<j> and b<i> hold the contact rates and each pair's transmission
    probability.  ``batched``: y and the u<j> cells hold columns, one entry
    per batch member; the population check (one reduction unless it fails)
    names the first failing member, the closure is the array form, and no
    group is tracked.  Each member's
    derivative is then the scalar one bit for bit.  ``sources``: the
    spillover system, y going on with one (sigma, gamma) block per source
    group after the 3n state slots; ``exact``: its exact_delta mode.  The
    three row forms of the flat RHS keep the arithmetic order of the
    hand-written closures they replaced, and the spillover rows that of the
    numpy kernel, so integrations are unchanged to the last bit.  Cached: at
    most 6 * 2**n - 2 sources per variant (2 * 2**n flat, 2 batched, and
    4 * (2**n - 1) spillover: pinned or not, exact or not, by source set).
    The source is registered under a name stating its form, e.g.
    ``<flat_rhs risk sources=0,1,2,3>``.
    """
    var = VARIANTS[variant]
    mixing, n, pairs = var.mixing, len(var.groups), var.mixing.PAIRS
    g = range(n)
    m = ", ".join(f"m{i}" for i in range(len(pairs)))
    Ns = ", ".join(f"N{j}" for j in g)
    rows = [sorted((p, i, b) for i, (jj, p, b) in enumerate(pairs) if jj == j) for j in g]

    def psum(j, x):  # sum over j's partners p of W[j, p] * x(p), term by term
        return " + ".join(f"a{j} * m{i} * b{i} * {x(p)}" for p, i, _ in rows[j])
    body = [", ".join(f"S{j}, I{j}" for j in g) + f" = y[:{2 * n}]",
            *(f"N{j} = S{j} + I{j}" for j in g)]
    if batched:
        body += ["if not min(" + ", ".join(f"N{j}.min()" for j in g) + ") > 0.0:",
                 "    bad = " + " | ".join(f"(N{j} <= 0.0)" for j in g),
                 "    if bad.any():  # not only NaN",
                 "        b = bad.argmax()",
                 "        raise zero_population(labels, (" + ", ".join(f"N{j}[b]" for j in g)
                 + "), t).for_member(b)"]
    else:
        body += ["if " + " or ".join(f"N{j} <= 0.0" for j in g) + ":",
                 f"    raise zero_population(labels, ({Ns}), t)"]
    if pinned:
        body.append(f"{m} = fixed")
    elif batched:
        body.append(f"{m} = close(({Ns}), a, priors, t=t)")
    else:
        body += re.sub(r"(?m)^(\s*)raise .*$", rf"\1close(({Ns}), a, priors, t=t)",
                       mixing.CLOSURE).splitlines()
    body += [f"u{j} = 1.0 - c{j} / S{j} if S{j} > c{j} else 0.0" for j in tracked]
    for j, row in enumerate(rows):
        p0, i0, _ = row[0]
        if sources:
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
    out = [f"Pi{j} - inc{j} - mu * S{j}, inc{j} - v{j} * I{j}" for j in g]
    out += [f"inc{j}" for j in g]
    for b, k in enumerate(sources):
        s, gm, off = [f"s{b}_{j}" for j in g], [f"g{b}_{j}" for j in g], 3 * n + 2 * n * b
        body.append(", ".join(f"{s[j]}, {gm[j]}" for j in g) + f" = y[{off}:{off + 2 * n}]")
        for j in g:
            q, r = f"q{b}_{j}", f"r{b}_{j}"
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
    cells = (["zero_population", "labels", "close", "a", "priors", "fixed", "mu"]
             + [f"{c}{j}" for c in ("Pi", "v", "a") for j in g]
             + [f"u{j}" for j in g if j not in tracked]
             + [f"c{j}" for j in tracked]
             + [f"b{i}" for i in range(len(pairs))]
             + [f"p_{f}" for f in mixing.CLOSURE_PRIORS])
    src = (f"def make({', '.join(cells)}):\n    def f(t, y):\n"
           + "".join(f"        {line}\n" for line in body)
           + "    return f\n")
    form = [variant] + ["pinned"] * pinned + ["batched"] * batched
    form += [f"{key}={','.join(map(str, js))}" for key, js in
             (("tracked", tracked), ("sources", sources)) if js] + ["exact"] * exact
    return exec_source(src, f"<flat_rhs {' '.join(form)}>", {})["make"]


def _rhs_cells(spec, closure):
    """The cells of a generated flat RHS for the spec's own coverage, each
    numeric one converted here to a Python float (the float-cell rule)."""
    ps = [p for _, p in spec.groups]
    a = tuple(float(p.a) for p in ps)
    mu = float(spec.mu)
    fixed = spec.mixing and tuple(map(float, spec.mixing.pair_fractions()))
    cells = {"zero_population": _zero_population, "labels": spec.labels, "mu": mu,
             "close": globals()[closure], "a": a, "priors": spec.mixing_priors,
             "fixed": fixed}
    for j, p in enumerate(ps):
        cells.update({f"Pi{j}": float(p.Pi), f"v{j}": mu + float(p.delta), f"a{j}": a[j],
                      f"u{j}": 1.0 - float(p.epsilon)})
    mixing = VARIANTS[spec.variant].mixing
    for i, (_, _, beta) in enumerate(mixing.PAIRS):
        cells[f"b{i}"] = float(getattr(spec.probs, beta))
    for f in mixing.CLOSURE_PRIORS:
        cells[f"p_{f}"] = float(getattr(spec.mixing_priors, f))
    return cells


def flat_rhs_factory(spec, tracked_counts=None, coverage=None):
    """Build rhs(t, y) -> list over the flat layout [Sj,Ij interleaved, C...].

    ``coverage`` optionally maps group labels to coverage fractions that
    replace the spec's: the RHS is then that of spec.with_epsilon(coverage),
    bit for bit, without the copy of the spec.
    ``tracked_counts`` optionally gives absolute person counts on PrEP per
    group; coverage is then re-derived as E_j / S_j at every evaluation
    (capped at 1) instead of using the fixed fractions.  Groups with a zero
    count keep their fixed fraction.
    """
    var = VARIANTS[spec.variant]
    counts = tuple(tracked_counts) if tracked_counts is not None else (0.0,) * spec.n
    tracked = tuple(j for j, c in enumerate(counts) if c)
    cells = _rhs_cells(spec, var.fractions)
    for label, eps in (coverage or {}).items():
        eps = float(eps)
        if not 0.0 <= eps <= 1.0:  # GroupParams' range, NaN included
            raise ValueError(f"epsilon = {eps} outside [0, 1]")
        cells[f"u{spec.group_index(label)}"] = 1.0 - eps
    for j in tracked:
        del cells[f"u{j}"]
        cells[f"c{j}"] = float(counts[j])
    make = _flat_rhs_maker(spec.variant, spec.mixing is not None, tracked)
    return make(**cells)


def batched_rhs_factory(spec, eps):
    """The flat RHS of a batch of models that differ only in coverage.

    ``eps`` is (B, n): member b's coverage fractions.  Returns rhs(t, y)
    with y the flat layout as columns (B,), one entry per member (a list of
    them or the rows of one array); mixing is the spec's pinned fractions or
    the array-form closure per member.  Failures (ZeroPopulation, InfeasibleClosure) carry the index
    of the first failing member (PrepspillError.member).
    """
    var = VARIANTS[spec.variant]
    cells = _rhs_cells(spec, var.batch_closure)
    for j, col in enumerate(np.asarray(eps, dtype=float).T):
        cells[f"u{j}"] = 1.0 - col
    make = _flat_rhs_maker(spec.variant, spec.mixing is not None, (), batched=True)
    return make(**cells)
