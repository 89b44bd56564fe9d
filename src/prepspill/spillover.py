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

Every run carries one (sigma, gamma) block per source group, in group order.
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

from .integrators import NODE_TOL, Trajectory, integrate_flat, write_csv
from .model import flat_rhs_factory


@dataclass
class SensitivityTrajectory:
    """Time series of one source's sensitivity block: one row per time, each
    group's (sigma_j, gamma_j) pair interleaved like the state's (S_j, I_j)
    slots.  integrate_with_spillover's blocks are views of the joint run's
    states; ``sigma`` and ``gamma`` are views of the block.  A row at a
    node is integrators.rows_at(times, block, t), which refuses any other t."""

    source: str
    times: np.ndarray
    block: np.ndarray  # (n_times, 2 * n_groups)

    @property
    def sigma(self):
        return self.block[:, 0::2]

    @property
    def gamma(self):
        return self.block[:, 1::2]


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
    whole years.  Returns the state trajectory and one SensitivityTrajectory
    per source group, keyed by group label in group order.
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
    traj = Trajectory.of(integrate_flat(f, y0_flat, cfg, n_state=2 * n,
                                        sample_times=sample_times), spec.labels)
    return traj, {label: SensitivityTrajectory(
        source=label, times=traj.times,
        block=traj.states[:, 3 * n + 2 * n * k:3 * n + 2 * n * (k + 1)])
        for k, label in enumerate(spec.labels)}


def simple_nnt(T, S_k, gamma_j):
    """nnt_simple = T * S_k / gamma_j: person-years of PrEP in k per
    infection prevented in j over a horizon T, from S_k and gamma_j at the
    horizon.  None (undefined) when gamma_j <= 0."""
    return None if gamma_j <= 0.0 else T * S_k / gamma_j


def nnt(sens_traj, state_traj, j, k, T, mu):
    """Person-years of additional PrEP in group k per infection prevented in
    group j over [t_start, t_start + T], t_start being the sensitivity start.
    j and k are group labels of the state trajectory, k the block's source.
    Both trajectories share one grid (node for node within NODE_TOL), and
    t_start + T is a node of it (a sample time of the run); otherwise
    ValueError.

    nnt_simple = T * S_k(T) / gamma_j(T); nnt_integral keeps the
    mu * integral(gamma/S) term in the denominator, a trapezoid over the
    nodes.  Undefined (flagged, not raised) when gamma_j(T) <= 0.
    """
    if k != sens_traj.source:
        raise ValueError(f"sensitivity block is for source {sens_traj.source!r}, not {k!r}")
    for g in (j, k):
        if g not in state_traj.labels:
            raise ValueError(f"no group {g!r} in the trajectory's labels {state_traj.labels}")
    j_idx, k_idx = state_traj.labels.index(j), state_traj.labels.index(k)
    t_eval = sens_traj.times[0] + T
    if sens_traj.times is not state_traj.times and (  # shared by integrate_with_spillover
            sens_traj.times.shape != state_traj.times.shape
            or not np.allclose(sens_traj.times, state_traj.times, rtol=0.0, atol=NODE_TOL)):
        raise ValueError("sensitivity and state trajectories use different grids")
    i = state_traj.index_of(t_eval)
    if i is None:
        raise ValueError(f"T = {T}: t = {t_eval} is not a node of the trajectory")
    gam_T = sens_traj.gamma[i, j_idx]
    S_T = state_traj.states[i, 2 * k_idx]
    simple = simple_nnt(T, S_T, gam_T)
    if simple is None:
        return NNTResult(j=j, k=k, horizon=T, nnt_simple=float("nan"),
                         nnt_integral=float("nan"), defined=False)
    ratio = sens_traj.gamma[:i + 1, j_idx] / state_traj.states[:i + 1, 2 * k_idx]
    integral = float(np.trapezoid(ratio, sens_traj.times[:i + 1]))
    full = T / (gam_T / S_T + mu * integral)
    return NNTResult(j=j, k=k, horizon=T, nnt_simple=simple,
                     nnt_integral=full, defined=True)


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
