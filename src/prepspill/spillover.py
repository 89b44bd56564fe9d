"""Forward sensitivities of the epidemic state to PrEP coverage ("spillover").

For a source group k, the sensitivity pair (sigma_j, gamma_j) tracks how
every group's susceptible and infected populations respond to a marginal
increase in the coverage fraction eps_k.  Sign convention used throughout
this package: responses are reported as *reductions*, i.e.

    sigma_j = -dS_j/d(eps_k),   gamma_j = -dI_j/d(eps_k),

so gamma_j counts infections averted in group j per unit of additional
coverage in group k, and is positive when PrEP helps.  The finite-difference
check in :func:`fd_oracle` returns the same convention.

Two dynamic modes, generated with the state equations from the same
contact-pair table by ``model.flat_rhs_factory`` (``sources``, ``exact``):

* "practical" (default): the sensitivity block decays at the natural removal
  rate mu regardless of delta, while being driven by the full state
  trajectory.  This mirrors how the published simulations treat the system.
* "exact_delta" (basic variant only): infected sensitivities decay at
  mu + delta_j and the population-size correction
  (1 - eps_j) * sum_p W[j, p] * (sigma_p + gamma_p) * I_p / N_p^2 * S_j is
  added to dsigma_j/dt and subtracted from dgamma_j/dt, making the block the
  exact derivative system of the delta != 0 model at fixed mixing
  fractions.  A closure re-solved from N at every evaluation moves with N
  too, which the block leaves out (up to 3.3e-3 of a row's largest entry on
  random basic specs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PerturbationOutOfRange, UnsupportedVariant, ZeroPopulation
from .integrators import (NODE_TOL, Trajectory, _breakpoints, integrate, integrate_flat,
                          rows_at, write_csv)
from .model import flat_rhs_factory

MODES = ("practical", "exact_delta")


@dataclass(frozen=True)
class SensitivityState:
    """Sensitivity pair for one source group at one instant."""

    source: str
    source_index: int
    sigma: np.ndarray
    gamma: np.ndarray

    @classmethod
    def zero(cls, spec, source):
        n = spec.n
        return cls(source=source, source_index=spec.group_index(source),
                   sigma=np.zeros(n), gamma=np.zeros(n))


@dataclass
class SensitivityTrajectory:
    """Time series of one source's sensitivity block: one row per time, each
    group's (sigma_j, gamma_j) pair interleaved like the state's (S_j, I_j)
    slots.  integrate_with_spillover's blocks are views of the joint run's
    states; ``sigma`` and ``gamma`` are views of the block."""

    source: str
    source_index: int
    times: np.ndarray
    block: np.ndarray  # (n_times, 2 * n_groups)

    @property
    def sigma(self):
        return self.block[:, 0::2]

    @property
    def gamma(self):
        return self.block[:, 1::2]

    def at(self, t):
        """The block at time t (rows_at, which refuses t outside the span)."""
        row = rows_at(self.times, self.block, t)
        return SensitivityState(source=self.source, source_index=self.source_index,
                                sigma=row[0::2], gamma=row[1::2])


@dataclass(frozen=True)
class NNTResult:
    """Additional person-years on PrEP in group k per infection prevented in group j."""

    j: str
    k: str
    horizon: float
    nnt_simple: float
    nnt_integral: float
    defined: bool


def _check_mode(spec, mode):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact_delta" and spec.variant != "basic":
        raise UnsupportedVariant("exact_delta mode is derived for the basic variant only")


def integrate_with_spillover(spec, y0, sources, cfg, mode="practical",
                             sample_times=None):
    """Jointly integrate the state and the requested sensitivity blocks.

    ``sources`` are group labels.  Sensitivities start from exactly zero at
    cfg.t0.  Returns the state trajectory and one SensitivityTrajectory per
    requested source, keyed by group label.  With an empty source set the
    state trajectory is that of :func:`prepspill.integrators.integrate`, bit
    for bit, once the mode has been checked against the variant.
    """
    _check_mode(spec, mode)
    src = sorted(spec.group_index(s) for s in set(sources))
    n = spec.n
    f = flat_rhs_factory(spec, sources=src, exact=mode == "exact_delta")
    y0_flat = np.concatenate([y0.to_flat(), np.zeros(2 * n * len(src))])
    traj = Trajectory.of(integrate_flat(f, y0_flat, cfg, n_state=2 * n,
                                        sample_times=sample_times), spec.labels)
    sens = {}
    for b, k in enumerate(src):
        off = 3 * n + 2 * n * b
        sens[spec.labels[k]] = SensitivityTrajectory(
            source=spec.labels[k], source_index=k, times=traj.times,
            block=traj.states[:, off:off + 2 * n])
    return traj, sens


def per_person_effect(sens, state, j):
    """Effect per additional person on PrEP in the source group.

    Returns (gamma_j / S_k, sigma_j / S_k): infections averted in group j
    (and susceptibles forgone) per extra person covered in group k, at the
    current time.  j is a group index.
    """
    Sk = state.S[sens.source_index]
    if Sk <= 0.0:
        raise ZeroPopulation(f"source group {sens.source} has S = 0")
    return sens.gamma[j] / Sk, sens.sigma[j] / Sk


def simple_nnt(T, S_k, gamma_j):
    """nnt_simple = T * S_k / gamma_j: person-years of PrEP in k per
    infection prevented in j over a horizon T, from S_k and gamma_j at the
    horizon.  None (undefined) when gamma_j <= 0."""
    return None if gamma_j <= 0.0 else T * S_k / gamma_j


def nnt(sens_traj, state_traj, j, k, T, mu):
    """Person-years of additional PrEP in group k per infection prevented in
    group j over [t_start, t_start + T], t_start being the sensitivity start.
    j and k are group labels; k must be the block's source, and both
    trajectories must share one grid, node for node within NODE_TOL.

    nnt_simple = T * S_k(T) / gamma_j(T); nnt_integral keeps the
    mu * integral(gamma/S) term in the denominator.  Undefined (flagged, not
    raised) when gamma_j(T) <= 0.
    """
    if k != sens_traj.source:
        raise ValueError(f"sensitivity block is for source {sens_traj.source!r}, not {k!r}")
    k_idx = sens_traj.source_index
    j_idx = state_traj.labels.index(j)
    t_start = sens_traj.times[0]
    t_eval = t_start + T
    if t_eval > state_traj.times[-1] + NODE_TOL:
        raise ValueError(f"T = {T} reaches beyond the trajectory span")
    if sens_traj.times is not state_traj.times and (  # shared by integrate_with_spillover
            sens_traj.times.shape != state_traj.times.shape
            or not np.allclose(sens_traj.times, state_traj.times, rtol=0.0, atol=NODE_TOL)):
        raise ValueError("sensitivity and state trajectories use different grids")
    gam_T = sens_traj.at(t_eval).gamma[j_idx]
    S_T = state_traj.state_at(t_eval).S[k_idx]
    simple = simple_nnt(T, S_T, gam_T)
    if simple is None:
        return NNTResult(j=j, k=k, horizon=T, nnt_simple=float("nan"),
                         nnt_integral=float("nan"), defined=False)
    # trapezoid over the nodes up to t_eval, then on to t_eval if not a node
    m = int(np.searchsorted(sens_traj.times, t_eval + NODE_TOL, side="right"))
    tt = sens_traj.times[:m]
    ratio = sens_traj.gamma[:m, j_idx] / state_traj.states[:m, 2 * k_idx]
    if t_eval - tt[-1] > NODE_TOL:
        tt, ratio = np.append(tt, t_eval), np.append(ratio, gam_T / S_T)
    integral = float(np.trapezoid(ratio, tt))
    full = T / (gam_T / S_T + mu * integral)
    return NNTResult(j=j, k=k, horizon=T, nnt_simple=simple,
                     nnt_integral=full, defined=True)


@dataclass
class FdEstimate(SensitivityTrajectory):
    """Finite-difference sensitivity estimate on a fixed sample grid.

    Same sign convention as SensitivityTrajectory (reductions).  ``scheme``
    records whether a central difference was possible or a one-sided
    fallback was used at a coverage boundary.
    """

    scheme: str


def fd_oracle(spec, y0, k, eps_tilde, cfg):
    """Estimate the coverage sensitivity by differencing two perturbed runs.

    Integrates the given spec with eps_k (k a group label) shifted by +/- eps_tilde and forms
    (X(eps - e) - X(eps + e)) / (2 e), matching the package's
    reduction-sign convention, at t0, every whole year and t_end.  Falls
    back to a one-sided difference when eps_k sits at a boundary of [0, 1];
    raises PerturbationOutOfRange when no admissible perturbation exists.
    """
    if eps_tilde <= 0.0:
        raise PerturbationOutOfRange("eps_tilde must be positive")
    k_idx = spec.group_index(k)
    eps_k = spec.groups[k_idx][1].epsilon
    hi, lo = eps_k + eps_tilde, eps_k - eps_tilde
    if lo >= 0.0 and hi <= 1.0:
        scheme, pair, denom = "central", (lo, hi), 2.0 * eps_tilde
    elif hi <= 1.0:
        scheme, pair, denom = "forward", (eps_k, hi), eps_tilde
    elif lo >= 0.0:
        scheme, pair, denom = "backward", (lo, eps_k), eps_tilde
    else:
        raise PerturbationOutOfRange(
            f"eps_{k} = {eps_k} admits no +/-{eps_tilde} perturbation in [0, 1]")
    grid = _breakpoints(cfg, None)
    runs = []
    for e in pair:
        pspec = spec.with_epsilon({k: e})
        traj = integrate(pspec, y0, cfg)
        runs.append(np.array([traj.row_at(t)[:2 * spec.n] for t in grid]))
    return FdEstimate(source=k, source_index=k_idx, times=np.array(grid),
                      block=(runs[0] - runs[1]) / denom, scheme=scheme)


def sensitivity_to_csv(sens_map, labels, path_or_file):
    """Write sensitivity trajectories as columns sigma_<j>__<k>, gamma_<j>__<k>:
    the blocks, sources in sorted order, side by side."""
    sources = sorted(sens_map)
    header = ["t"] + [f"{c}_{jl}__{k}" for k in sources
                      for jl in labels for c in ("sigma", "gamma")]
    table = np.column_stack([sens_map[sources[0]].times]
                            + [sens_map[k].block for k in sources])
    # csv writes each float of the Python-float rows as its repr
    write_csv(path_or_file, header, table.tolist())
