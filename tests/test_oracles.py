"""The oracles of tests/oracles.py on the Georgia presets.

Reference-run distances are shares of column scale (oracles.column_share)
over the 2017-2031 baselines' year rows.  Measured (2-core box, scipy
1.17.1):

    pair                                            basic     risk
    DOP853 vs Radau                                 1.6e-13   2.1e-12
    DOP853 vs the package's tight run               3.2e-14   3.1e-11

The tight run is integrate() at rtol 1e-12, atol 1e-10 and dt_max 0.05,
landing on every year.

Complex-step distances are shares of the block's largest entry over its
2017-2031 year rows: oracles.fd_oracle at eps~ = 1e-4 on that tight
configuration (oracles.COMPLEX_TOL) against oracles.complex_step, per
source group (numpy 2.4.6):

    variant   msm       hetf / hetf_h   hetf_l    hetm
    basic     7.4e-10   4.6e-9          -         7.3e-7
    risk      8.3e-10   1.4e-7          6.2e-7    7.6e-7

hetm and hetf_l sit at eps = 0, where fd_oracle differences forwards.  Over
8 random_spec draws per variant (seed 0, all central) the worst block is
2.0e-9 (basic) and 1.1e-8 (risk).

The exact_delta block of a spec whose mixing is pinned is the derivative
of that model, so it meets complex step to the integrators' tolerance: over
6 random_spec draws per variant (seed 61, 2020-2026, rtol 1e-12, atol
1e-10) the worst year row is within 1.0e-12 (basic) and 1.6e-12 (risk) of
its largest entry.  Each bound is set once from these figures.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_spec, random_state
from oracles import COMPLEX_TOL, column_share, complex_step, fd_oracle, reference_run
from prepspill.integrators import IntegratorConfig, integrate
from prepspill.model import closed_mixing
from prepspill.scenarios import default_config
from prepspill.spillover import block, integrate_with_spillover

CROSS_CHECK_BOUND = 1e-11
TIGHT_BOUND = 1e-10
# complex step against fd_oracle, by fd_oracle's scheme
FD_BOUND = {"central": 2e-7, "forward": 1e-6}
FD_EPS = 1e-4
# exact_delta on pinned specs against complex step, each year row's share
EXACT_DELTA_BOUND = 2e-12


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
    rows = traj.states[[traj.node(float(y)) for y in years]]
    assert column_share(reference, rows) <= TIGHT_BOUND


def _block_share(block, other):
    """The largest distance of ``other`` from ``block``, as a share of the
    block's largest magnitude."""
    return float(np.abs(other - block).max() / np.abs(block).max())


@functools.lru_cache(maxsize=None)
def _preset_complex_steps(variant):
    """The preset config and its complex-step blocks by source over its window."""
    config = default_config(variant)
    window = (config.integrator.t0, config.integrator.t_end)
    return config, {k: complex_step(config.spec, config.y0, k, window)
                    for k in config.spec.labels}


def _assert_complex_step_near_fd(spec, y0, blocks, cfg):
    for k, (times, block) in blocks.items():
        fd = fd_oracle(spec, y0, k, FD_EPS, cfg)
        assert np.array_equal(fd.times, times)
        assert _block_share(block, fd.block) <= FD_BOUND[fd.scheme], k


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_complex_step_agrees_with_fd_oracle_on_the_presets(variant):
    config, blocks = _preset_complex_steps(variant)
    _assert_complex_step_near_fd(config.spec, config.y0, blocks,
                                 replace(config.integrator, **COMPLEX_TOL))


@pytest.mark.parametrize("variant", ["basic", "risk"])
@pytest.mark.parametrize("draw", [0, 1])
def test_complex_step_agrees_with_fd_oracle_on_random_specs(variant, draw):
    rng = np.random.default_rng(0)
    for _ in range(draw + 1):  # the draws of seed 0 in order
        spec = random_spec(rng, variant)
        y0 = random_state(rng, spec)
    window = (2017.0, 2031.0)
    blocks = {k: complex_step(spec, y0, k, window) for k in spec.labels}
    _assert_complex_step_near_fd(spec, y0, blocks,
                                 IntegratorConfig(t0=window[0], t_end=window[1], **COMPLEX_TOL))


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_practical_block_distance_from_complex_step_is_printed(variant):
    # the practical mode leaves out terms of the exact derivative, so its
    # distance is printed (pytest -s), not bounded: 3.5e-2 to 1.2e-1 (basic),
    # 3.4e-2 to 1.3e-1 (risk) of the block's largest entry when measured
    config, blocks = _preset_complex_steps(variant)
    traj = integrate_with_spillover(config.spec, config.y0, config.integrator)
    shares = {}
    for k, (times, cs) in blocks.items():
        rows = block(traj, k)[[traj.node(t) for t in times]]
        shares[k] = _block_share(cs, rows)
    print(f"practical {variant} block vs complex step: "
          + ", ".join(f"{k} {v:.2g}" for k, v in shares.items()))
    assert all(np.isfinite(v) for v in shares.values())


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_exact_delta_block_is_the_complex_step_derivative_on_pinned_random_specs(variant):
    # the same rows on both variants, generated from the contact-pair table
    rng = np.random.default_rng(61)
    window = (2020.0, 2026.0)
    cfg = IntegratorConfig(t0=window[0], t_end=window[1], rtol=1e-12, atol=1e-10)
    for _ in range(6):
        spec = random_spec(rng, variant)
        y0 = random_state(rng, spec)
        spec = replace(spec, mixing=closed_mixing(spec, y0.N))
        traj = integrate_with_spillover(spec, y0, cfg, mode="exact_delta")
        for k in spec.labels:
            times, cs = complex_step(spec, y0, k, window)
            rows = block(traj, k)[[traj.node(t) for t in times]]
            assert not rows[0].any() and not cs[0].any()
            for got, want in zip(rows[1:], cs[1:]):
                assert np.abs(got - want).max() <= EXACT_DELTA_BOUND * np.abs(want).max(), k
