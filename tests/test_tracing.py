"""The benchmark's tracer (bench/tracing.py) rebinds package names by
attribute, so a name that looks unused inside the package may still be one
it needs.  This pins that every name it rebinds exists and is restored, and
that the output files go through the names it traces."""

from pathlib import Path

import pytest

from prepspill import model
from prepspill.cli import main

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
