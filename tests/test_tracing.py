"""The benchmark's tracer (bench/tracing.py) rebinds package names by
attribute, so a name that looks unused inside the package may still be one
it needs.  This pins that every name it rebinds exists and is restored, and
that the output files go through the names it traces."""

from pathlib import Path

import pytest

from prepspill import model, sobol
from prepspill.cli import main
from prepspill.presets import georgia_basic

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = model.close_basic
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model.close_basic is not original
        assert all(getattr(owner, attr) is new for owner, attr, _, new in tracer._bindings)
    finally:
        tracer.uninstall()
    assert model.close_basic is original
    assert all(getattr(owner, attr) is old for owner, attr, old, _ in tracer._bindings)


@pytest.mark.parametrize("command, rc", [("simulate", 0), ("spillover", 0),
                                         ("emit-plots", 0), ("validate", 2)])
def test_traced_csv_bytes_are_the_files_written(monkeypatch, tmp_path, command, rc):
    # a writer that bypasses the traced names would drop out of the
    # benchmark's scenarios.csv_bytes; here it fails the sum
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main([command, "--model", "basic", "--out", str(tmp_path)]) == rc
    finally:
        tracer.uninstall()
    traced = sum(s.get("bytes", 0) for s in tracer.spans if s["name"] == "scenarios.write_csv")
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert written > 0 and traced == written


def test_traced_sobol_batch_and_simulate_keep_the_step_identity(monkeypatch, tmp_path):
    # the tracer reads cfg.method and wraps integrate_flat by its signature;
    # the Sobol batch steps through integrate_flat, so it is one such span,
    # and its RHS count keeps the Dormand-Prince identity as scalar runs do
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    spec, y0 = georgia_basic()
    inputs = [sobol.UncertainInput(group=lbl, lo=-0.5, hi=1.0) for lbl in spec.labels]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        study = sobol.sobol_timeseries(spec, y0, inputs, level=2, total_degree=1)
        batch = [s for s in tracer.spans if s["name"] == "integrators.integrate_flat"]
        assert main(["simulate", "--model", "basic", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.violations == []
    assert len(batch) == 1 and batch[0]["rhs_evals"] == study.rhs_evals
    assert batch[0]["method"] == "rk45_adaptive" and "error" not in batch[0]
    flat = [s for s in tracer.spans if s["name"] == "integrators.integrate_flat"]
    assert len(flat) > 1
