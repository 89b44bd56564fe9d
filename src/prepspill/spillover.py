"""Forward sensitivities of the epidemic state to PrEP coverage ("spillover").

For a source group k, the sensitivity pair (sigma_j, gamma_j) tracks how
every group's susceptible and infected populations respond to a marginal
increase in the coverage fraction eps_k.  Sign convention used throughout
this package: responses are reported as *reductions*, i.e.

    sigma_j = -dS_j/d(eps_k),   gamma_j = -dI_j/d(eps_k),

so gamma_j counts infections averted in group j per unit of additional
coverage in group k, and is positive when PrEP helps.  The test suite's
finite-difference and complex-step oracles (tests/oracles.py) return the
same convention.

A run is one Trajectory of the joint system: the 3n state columns, then one
(sigma, gamma) block of 2n columns per source group, in group order, each
group's (sigma_j, gamma_j) interleaved like the state's (S_j, I_j).
``block(traj, k)`` is the one reader of that layout.
Two dynamic modes (``MODES``), generated with the state equations from the
same contact-pair table by ``model.flat_rhs_factory`` for either variant,
which refuses an unknown mode:

* "practical" (default): the sensitivity block decays at the natural removal
  rate mu regardless of delta, while being driven by the full state
  trajectory.  This mirrors how the published simulations treat the system.
* "exact_delta": infected sensitivities decay at mu + delta_j and the
  population-size correction
  (1 - eps_j) * sum_p W[j, p] * (sigma_p + gamma_p) * I_p / N_p^2 * S_j is
  added to dsigma_j/dt and subtracted from dgamma_j/dt, making the block the
  exact derivative system of the delta != 0 model at fixed mixing
  fractions, on both variants.  A closure re-solved from N at every
  evaluation moves with N too, which the block leaves out (up to 3.3e-3 of
  a row's largest entry on random basic specs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .integrators import Trajectory, integrate_flat, write_csv
from .model import flat_rhs_factory


@dataclass(frozen=True)
class NNTResult:
    """Additional person-years on PrEP in group k per infection prevented in group j."""

    j: str
    k: str
    horizon: float
    nnt_simple: float
    nnt_integral: float
    defined: bool


def integrate_with_spillover(spec, y0, cfg, mode="practical", sample_times=None):
    """Jointly integrate the state and every group's sensitivity block.

    ``mode`` is one of MODES.  Sensitivities start from exactly zero at
    cfg.t0.  A cfg without first_step starts at 1e-2 even when it lands on
    whole years.  Returns the joint run's Trajectory; ``block`` reads a
    source's columns.
    """
    if mode is None:  # flat_rhs_factory's plain state RHS, which has no blocks
        raise ValueError("unknown mode None")
    n = spec.n
    f = flat_rhs_factory(spec, mode=mode)
    y0_flat = np.concatenate([y0.to_flat(), np.zeros(2 * n * n)])
    if cfg.first_step is None:
        # not the first-node start: emit-plots interpolates its half-year NNT
        # rows between this system's nodes, and that start moved the basic
        # T = 0.5 msm->hetf cell from 31,445.9 to 21,725.3 (ROADMAP item 2)
        cfg = replace(cfg, first_step=1e-2)
    return Trajectory.of(integrate_flat(f, y0_flat, cfg, n_state=2 * n,
                                        sample_times=sample_times), spec.labels)


def block(traj, k):
    """Source group k's sensitivity block of a spillover run: a view of its
    2n columns of traj.states, one row per node, each group's (sigma_j,
    gamma_j) pair interleaved, so ``[:, 0::2]`` is sigma and ``[:, 1::2]``
    gamma."""
    n = traj.n_groups
    c = 3 * n + 2 * n * traj.labels.index(k)
    return traj.states[:, c:c + 2 * n]


def simple_nnt(T, S_k, gamma_j):
    """nnt_simple = T * S_k / gamma_j: person-years of PrEP in k per
    infection prevented in j over a horizon T, from S_k and gamma_j at the
    horizon.  None (undefined) when gamma_j <= 0."""
    return None if gamma_j <= 0.0 else T * S_k / gamma_j


def nnt(traj, j, k, T, mu):
    """Person-years of additional PrEP in group k per infection prevented in
    group j over [t_start, t_start + T], t_start being the first node of the
    spillover run ``traj``.  j and k are group labels of the run, and
    t_start + T is a node of it (a sample time of the run); otherwise
    ValueError.

    nnt_simple = T * S_k(T) / gamma_j(T), gamma_j read from k's block;
    nnt_integral keeps the mu * integral(gamma/S) term in the denominator,
    a trapezoid over the nodes.  Undefined (flagged, not raised) when
    gamma_j(T) <= 0 or S_k <= 0 at any node up to T, where gamma/S has no
    value.
    """
    for g in (j, k):
        if g not in traj.labels:
            raise ValueError(f"no group {g!r} in the trajectory's labels {traj.labels}")
    i = traj.node(traj.times[0] + T)
    gamma = block(traj, k)[:i + 1, 2 * traj.labels.index(j) + 1]
    S = traj.states[:i + 1, 2 * traj.labels.index(k)]
    simple = simple_nnt(T, S[-1], gamma[-1])
    if simple is None or S.min() <= 0.0:  # before the division by S
        return NNTResult(j=j, k=k, horizon=T, nnt_simple=float("nan"),
                         nnt_integral=float("nan"), defined=False)
    integral = float(np.trapezoid(gamma / S, traj.times[:i + 1]))
    full = T / (gamma[-1] / S[-1] + mu * integral)
    return NNTResult(j=j, k=k, horizon=T, nnt_simple=simple,
                     nnt_integral=full, defined=True)


def sensitivity_to_csv(traj, sources, path):
    """Write the blocks of a spillover run's ``sources`` as columns
    sigma_<j>__<k>, gamma_<j>__<k>: sources in sorted order, side by side."""
    sources = sorted(sources)
    header = ["t"] + [f"{c}_{jl}__{k}" for k in sources
                      for jl in traj.labels for c in ("sigma", "gamma")]
    table = np.column_stack([traj.times] + [block(traj, k) for k in sources])
    # csv writes each float of the Python-float rows as its repr
    write_csv(path, header, table.tolist())
