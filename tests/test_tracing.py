"""The benchmark's tracer (bench/tracing.py) rebinds package names by
attribute, so a name that looks unused inside the package may still be one
it needs.  This pins that every name it rebinds exists and is restored."""

from pathlib import Path

from prepspill import model

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
