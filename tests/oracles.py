"""Oracles that share no code with the package's integrators.

Every accuracy check that compares two prepspill runs (a tight run, the
finite-difference oracle, the per-node Sobol runs) goes through
integrators.integrate_flat on both sides, so a defect in its step or its
controller would appear on both.  reference_run integrates the same
generated RHS with scipy's solve_ivp instead: an explicit eighth-order pair
(DOP853) as the reference and an implicit one (Radau) as its cross-check.
"""

import numpy as np
from scipy.integrate import solve_ivp

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


def column_share(rows, other):
    """The largest distance of ``other`` from ``rows``, each column's as a
    share of that column's largest magnitude in ``rows``."""
    return float((np.abs(other - rows).max(axis=0) / np.abs(rows).max(axis=0)).max())
