"""The output comparison of tools/same_outputs.py, on two directories."""

import json
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


def test_one_ulp_in_a_nested_json_number_is_reported_with_its_path(same_outputs, tmp_path):
    # a *.json file and a --json stdout: the largest relative difference
    # among the numbers paired by path, then the first other difference
    a, b = tmp_path / "a", tmp_path / "b"
    for root, x, word in ((a, 0.1, "ok"), (b, math.nextafter(0.1, 1.0), "no")):
        (root / "out").mkdir(parents=True)
        (root / "out" / "note.json").write_text(
            json.dumps({"a": 1, "F": [[2.0, x], [3.0, 4.0]], "why": word}))
    tree_a, tree_b = same_outputs.read_tree(a), same_outputs.read_tree(b)
    tree_a["<stdout>"], tree_b["<stdout>"] = tree_a["out/note.json"], tree_b["out/note.json"]
    why = ("largest relative JSON number difference 1.39e-16 at F[0][1]; "
           "first other difference at why: 'ok' != 'no'")
    assert same_outputs.differences(tree_a, tree_b) == [f"<stdout>: {why}",
                                                        f"out/note.json: {why}"]


def test_json_paths_on_one_side_are_named(same_outputs, tmp_path):
    # leaves on one side only are listed by path; equal values in other
    # bytes, and a stdout that is not JSON, fall back to the first byte
    a = {"x.json": b'{"r": [1, 2], "s": {"t": true}}', "y.json": b'{"v": 1.0}',
         "<stdout>": b"wrote out/x.json\n"}
    b = {"x.json": b'{"r": [1, 2, 3], "s": {}}', "y.json": b'{"v":1.0}',
         "<stdout>": b"wrote out/y.json\n"}
    assert same_outputs.differences(a, b) == [
        "<stdout>: byte 10: b'wrote out/x.json\\n' != b'wrote out/y.json\\n'",
        "x.json: paths only in parent: s.t; paths only in change: r[2], s; "
        "bytes differ, values equal",
        "y.json: bytes differ, values equal"]


def test_rows_on_one_side_are_named_by_key(same_outputs, tmp_path):
    # a trajectory that loses sub-year rows: those keys, then the shared rows
    a, b = tmp_path / "a", tmp_path / "b"
    for root, rows in ((a, ["2017.0,1.0", "2017.01,1.5", "2017.06,2.0", "2018.0,3.0"]),
                       (b, ["2017.0,1.0", "2018.0,3.0000000003", "2019.0,4.0"])):
        (root / "out").mkdir(parents=True)
        (root / "out" / "trajectory.csv").write_text("\n".join(["t,x", *rows, ""]))
    lines = same_outputs.differences(same_outputs.read_tree(a), same_outputs.read_tree(b))
    assert lines == ["out/trajectory.csv: keys only in parent: 2017.01, 2017.06; keys only "
                     "in change: 2019.0; shared keys: largest relative CSV cell difference "
                     "1e-10 at (row, col) (4, 1)"]


def test_keys_moved_in_their_last_digits_still_pair(same_outputs, tmp_path):
    # a node time that moved by 3e-13 pairs with its parent row; one that
    # moved by more than NODE_TOL does not
    a, b = tmp_path / "a", tmp_path / "b"
    for root, rows in ((a, ["2017.0,1.0", "2017.3100000000002,2.0", "2017.5,2.5", "2018.0,3.0"]),
                       (b, ["2017.0,1.0", "2017.3100000000005,2.0000000004", "2017.50001,2.5"])):
        (root / "out").mkdir(parents=True)
        (root / "out" / "trajectory.csv").write_text("\n".join(["t,x", *rows, ""]))
    lines = same_outputs.differences(same_outputs.read_tree(a), same_outputs.read_tree(b))
    assert lines == ["out/trajectory.csv: keys only in parent: 2017.5, 2018.0; keys only "
                     "in change: 2017.50001; shared keys: largest relative CSV cell "
                     "difference 2e-10 at (row, col) (2, 1)"]


def test_unkeyable_csvs_of_other_shapes_say_so(same_outputs, tmp_path):
    # a repeated first cell, or another header, leaves no rows to pair
    a, b = tmp_path / "a", tmp_path / "b"
    for root, text in ((a, "k,x\n1,2\n1,3\n"), (b, "k,x\n1,2\n")):
        (root / "out").mkdir(parents=True)
        (root / "out" / "t.csv").write_text(text)
    lines = same_outputs.differences(same_outputs.read_tree(a), same_outputs.read_tree(b))
    assert lines == ["out/t.csv: CSV shapes differ"]


# 12 lines, 5 of them code: the docstrings, the blank lines and the comment
# are not; the three lines of a string that is no docstring are, "#" or not
DOCUMENTED = '''"""Module
docstring."""

# a comment
x = """
# in a string
"""  # a comment after code


def f():
    """Docstring."""
    return x
'''


def test_the_count_line_gives_each_trees_source_lines(same_outputs, tmp_path, monkeypatch,
                                                      capsys):
    # `wc -l` over src/prepspill's .py files, a last line without "\n" not
    # counted, other files not read; beside it the lines of code, then
    # `wc -l` over the .py files under tests/
    for name, files in (("a", {"src/prepspill/x.py": "a\nb\n", "src/prepspill/y.py": "c\n",
                               "src/prepspill/notes.txt": "d\n",
                               "src/prepspill/doc.py": DOCUMENTED,
                               "tests/test_x.py": "t\n" * 3, "tests/notes.txt": "d\n"}),
                        ("b", {"src/prepspill/x.py": "a\nb",
                               "src/prepspill/sub/z.py": "1\n" * 1200,
                               "tests/test_x.py": "t\n" * 3, "tests/oracles.py": "o\n" * 1001})):
        for rel, text in files.items():
            path = tmp_path / name / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert same_outputs.source_lines(tmp_path / "a") == 15
    assert same_outputs.source_lines(tmp_path / "b") == 1201
    assert same_outputs.source_lines(tmp_path / "a", "tests") == 3
    assert same_outputs.source_lines(tmp_path / "b", "tests") == 1004
    assert same_outputs.code_lines(tmp_path / "a") == 8
    assert same_outputs.code_lines(tmp_path / "b") == 1202
    monkeypatch.setattr(same_outputs, "INVOCATIONS", [])
    monkeypatch.setattr("sys.argv", ["same_outputs.py", str(tmp_path / "a"),
                                     str(tmp_path / "b")])
    assert same_outputs.main() == 0
    assert capsys.readouterr().out == (
        "0/0 invocations identical  [src/prepspill: 15 lines parent, 1,201 change; "
        "8 code lines parent, 1,202 change; tests: 3 lines parent, 1,004 change]\n"
        "code lines by module: doc.py 5 → -, sub/z.py - → 1200, y.py 1 → -\n")
    assert same_outputs.moved_code_lines(tmp_path / "a", tmp_path / "a") == "none"


def test_module_code_lines_sum_to_the_trees_code_lines(same_outputs):
    # one counter: the per-module counts of this tree, one per .py file
    root = TOOLS.parent
    counts = same_outputs.module_code_lines(root)
    assert sorted(counts) == sorted(p.relative_to(root / "src" / "prepspill").as_posix()
                                    for p in (root / "src" / "prepspill").rglob("*.py"))
    assert sum(counts.values()) == same_outputs.code_lines(root) > 0
