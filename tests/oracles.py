"""Oracles for the package's runs and coverage sensitivities.

fd_oracle differences two runs of the package's own batch integrator.
Every accuracy check that compares two prepspill runs (a tight run,
fd_oracle, the per-node Sobol runs) goes through integrators.integrate_flat
on both sides, so a defect in its step or its controller would appear on
both.  The other two oracles share no code with the package's integrators.
reference_run integrates the same generated RHS with scipy's solve_ivp
instead: an explicit eighth-order pair (DOP853) as the reference and an
implicit one (Radau) as its cross-check.  complex_step differentiates the
generated RHS's run with respect to one group's coverage with no step to
pick (Squire & Trapp 1998, SIAM Rev 40:110; Martins, Sturdza & Alonso 2003,
ACM TOMS 29:245), through its own Dormand-Prince loop.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from prepspill.integrators import _breakpoints, integrate_batch
from prepspill.model import flat_rhs_factory

# solve_ivp's options for the reference and for its cross-check
REFERENCE = {"method": "DOP853", "rtol": 1e-13, "atol": 1e-10, "max_step": 0.05}
CROSS_CHECK = {"method": "Radau", "rtol": 1e-12, "atol": 1e-10}


def _solve(f, y0, window, sample_times, options):
    sol = solve_ivp(lambda t, y: f(t, y.tolist()), window, y0.to_flat(),
                    t_eval=sample_times, **options)
    if not sol.success:
        raise RuntimeError(f"{options['method']}: {sol.message}")
    return sol.y.T


def reference_run(spec, y0, window, sample_times):
    """The spec's untracked flat RHS (model.flat_rhs_factory) integrated
    from the StateVec y0 over ``window`` = (t0, t1) and read at
    ``sample_times`` (inside the window, increasing) by each solver's own
    dense output: (REFERENCE's rows, CROSS_CHECK's rows), each row in the
    flat layout (model.StateVec.to_flat).  RuntimeError if either solver
    fails; the RHS's own errors (a closure with no solution) pass through."""
    f = flat_rhs_factory(spec)
    return tuple(_solve(f, y0, window, sample_times, options)
                 for options in (REFERENCE, CROSS_CHECK))


class PerturbationOutOfRange(ValueError):
    """Finite-difference perturbation would push a coverage fraction outside [0, 1]."""


@dataclass
class FdEstimate:
    """Finite-difference sensitivity estimate of source group ``source`` on a
    fixed sample grid: ``block`` has one row per time in ``times``, laid out
    like spillover.block's (sigma_j, gamma_j interleaved), in the same
    reduction sign convention.  ``scheme`` records whether a central
    difference was possible or a one-sided fallback was used at a coverage
    boundary.
    """

    source: str
    times: np.ndarray
    block: np.ndarray  # (n_times, 2 * n_groups)
    scheme: str


def fd_oracle(spec, y0, k, eps_tilde, cfg):
    """Estimate the coverage sensitivity by differencing two perturbed runs.

    Integrates the given spec with eps_k (k a group label) shifted by +/- eps_tilde and forms
    (X(eps - e) - X(eps + e)) / (2 e), matching the package's
    reduction-sign convention, at t0, every whole year (if cfg.year_nodes)
    and t_end.  The two runs are one 2-member integrate_batch, so they take
    every step together and the difference carries no noise from separately
    placed nodes (internal numerical differentiation).  Falls back to a
    one-sided difference when eps_k sits at a boundary of [0, 1]; raises
    PerturbationOutOfRange when no admissible perturbation exists.
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
    eps = np.repeat(spec.param_arrays()[3][None], 2, axis=0)
    eps[:, k_idx] = pair
    traj = integrate_batch(spec, y0, eps, cfg)
    grid = _breakpoints(cfg, None)
    rows = traj.states[[traj.node(t) for t in grid], :2 * spec.n]
    return FdEstimate(source=k, times=np.array(grid),
                      block=(rows[..., 0] - rows[..., 1]) / denom, scheme=scheme)


def column_share(rows, other):
    """The largest distance of ``other`` from ``rows``, each column's as a
    share of that column's largest magnitude in ``rows``."""
    return float((np.abs(other - rows).max(axis=0) / np.abs(rows).max(axis=0)).max())


# the imaginary coverage step of complex_step, and its loop's step control
COMPLEX_STEP = 1e-30
COMPLEX_TOL = {"rtol": 1e-12, "atol": 1e-10, "dt_max": 0.05}

# Dormand & Prince (1980) 5(4), typed here: each stage's node and
# coefficients, the fifth-order weights, and the error weights (fifth- minus
# fourth-order)
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = ((),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
DP_B = DP_A[6] + (0.0,)
DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def complex_step(spec, y0, source, window):
    """The coverage sensitivity of source group ``source`` (a label) by
    complex step: (times, block), the times t0, each whole year inside
    ``window`` = (t0, t1) and t1, and one row per time of the (sigma_j,
    gamma_j) pairs interleaved, in the package's reduction sign, as
    fd_oracle's block.

    The spec's untracked flat RHS (model.flat_rhs_factory) runs unchanged
    with its cell u<k> = 1 - eps_k set to the complex 1 - eps_k - i h,
    h = COMPLEX_STEP, from the StateVec y0: numpy orders complex scalars by
    their real part first, so the pasted closure takes the real run's
    branches.  The loop is Dormand-Prince 5(4) at COMPLEX_TOL, landing on
    every time above, its error norm (RMS) on real parts, so the steps are
    the real run's; -Im(y) / h is then the derivative."""
    f = flat_rhs_factory(spec)
    k = spec.group_index(source)
    cell = f.__closure__[f.__code__.co_freevars.index(f"u{k}")]
    cell.cell_contents = np.complex128(1.0 - spec.groups[k][1].epsilon - COMPLEX_STEP * 1j)
    rtol, atol, dt_max = COMPLEX_TOL["rtol"], COMPLEX_TOL["atol"], COMPLEX_TOL["dt_max"]
    t0, t1 = window
    stops = [float(y) for y in range(math.floor(t0) + 1, math.ceil(t1))] + [float(t1)]
    t, y = t0, y0.to_flat().astype(np.complex128)
    rows, h = [y], dt_max
    for stop in stops:
        while t < stop:
            h = min(h, dt_max)
            land = t + h >= stop
            if land:
                h = stop - t
            ks = []
            for c, a in zip(DP_C, DP_A):  # list() keeps numpy scalars; tolist() would not
                ks.append(np.array(f(t + c * h, list(y + h * sum(w * kk for w, kk in zip(a, ks))
                                                     if ks else y))))
            y_new = y + h * sum(w * kk for w, kk in zip(DP_B, ks))
            err = (h * sum(w * kk for w, kk in zip(DP_E, ks))).real
            scale = atol + rtol * np.maximum(np.abs(y.real), np.abs(y_new.real))
            norm = math.sqrt(float(np.mean((err / scale) ** 2)))
            if norm <= 1.0:
                t, y = stop if land else t + h, y_new
            h *= min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0.0 else 5.0
        rows.append(y)
    block = -np.array(rows)[:, :2 * spec.n].imag / COMPLEX_STEP
    return np.array([float(t0)] + stops), block
