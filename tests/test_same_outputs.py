"""The output comparison of tools/same_outputs.py, on two directories."""

import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def same_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import same_outputs
    return same_outputs


def _write(root, cell):
    (root / "out").mkdir(parents=True)
    (root / "out" / "table.csv").write_text(f"t,x\n2020.0,{cell!r}\n2021.0,1.5\n")
    (root / "out" / "note.json").write_text('{"a": 1}')
    return root


def test_identical_directories_report_nothing(same_outputs, tmp_path):
    a, b = _write(tmp_path / "a", 0.1), _write(tmp_path / "b", 0.1)
    assert same_outputs.differences(same_outputs.read_tree(a), same_outputs.read_tree(b)) == []


def test_one_ulp_in_a_csv_cell_is_reported(same_outputs, tmp_path):
    a = _write(tmp_path / "a", 0.1)
    b = _write(tmp_path / "b", math.nextafter(0.1, 1.0))
    (b / "out" / "extra.txt").write_text("")
    lines = same_outputs.differences(same_outputs.read_tree(a), same_outputs.read_tree(b))
    assert lines[0] == "out/extra.txt: only in change"
    assert lines[1].startswith("out/table.csv: largest relative CSV cell difference 1.39e-16 "
                               "at (row, col) (1, 1)")
    assert len(lines) == 2
