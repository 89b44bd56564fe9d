"""The scipy reference run (tests/oracles.py) on the Georgia presets.

Distances are shares of column scale (oracles.column_share) over the
2017-2031 baselines' year rows.  Measured (2-core box, scipy 1.17.1):

    pair                                            basic     risk
    DOP853 vs Radau                                 1.6e-13   2.1e-12
    DOP853 vs the package's tight run               3.2e-14   3.1e-11

The tight run is integrate() at rtol 1e-12, atol 1e-10 and dt_max 0.05,
landing on every year.  Each bound is set once from these figures.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import column_share, reference_run
from prepspill.integrators import integrate
from prepspill.scenarios import default_config

CROSS_CHECK_BOUND = 1e-11
TIGHT_BOUND = 1e-10


def _baseline_reference(variant):
    """The preset config, its year times and their reference run's rows
    (DOP853's, Radau's)."""
    config = default_config(variant)
    cfg = config.integrator
    years = np.arange(cfg.t0, cfg.t_end + 1.0)
    return config, years, reference_run(config.spec, config.y0, (cfg.t0, cfg.t_end), years)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_reference_run_agrees_with_its_cross_check(variant):
    config, years, (rows, radau) = _baseline_reference(variant)
    assert rows.shape == radau.shape == (len(years), 3 * config.spec.n)
    assert column_share(rows, radau) <= CROSS_CHECK_BOUND


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_tight_run_agrees_with_the_reference(variant):
    config, years, (reference, _) = _baseline_reference(variant)
    traj = integrate(config.spec, config.y0,
                     replace(config.integrator, rtol=1e-12, atol=1e-10, dt_max=0.05))
    rows = traj.states[[traj.index_of(float(y)) for y in years]]
    assert column_share(reference, rows) <= TIGHT_BOUND
