"""The find rule of tools/stress.py, on made-up run results."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def stress(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import stress
    return stress


def test_finds_are_tracebacks_odd_exits_kills_and_sobol_only_failures(stress):
    # an error line with exit 1 or 2 is no find; a traceback is one whatever
    # its exit code, and sobol failing is one only where simulate exits 0
    ok, error = (0, 0.5, ""), (1, 0.5, "error: closure gives eta_msm = 1.2\n")
    trace = (1, 0.5, "Traceback (most recent call last):\n  ...\nValueError: x\n")
    results = {("a.json", "simulate"): ok, ("a.json", "sobol"): error,
               ("a.json", "nnt"): trace, ("a.json", "ngm"): (2, 0.5, ""),
               ("a.json", "spillover"): (None, 60.0, ""), ("a.json", "emit-plots"): (-9, 1.0, ""),
               ("b.json", "simulate"): error, ("b.json", "sobol"): error}
    assert stress.finds(results) == [("a.json", "sobol", "fails where simulate runs"),
                                     ("a.json", "nnt", "traceback"),
                                     ("a.json", "spillover", "killed after 60 s"),
                                     ("a.json", "emit-plots", "exit code -9")]

