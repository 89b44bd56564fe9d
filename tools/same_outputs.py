#!/usr/bin/env python3
"""Check that two source trees give the same CLI outputs, byte for byte.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each invocation in
INVOCATIONS runs once per tree with PYTHONPATH=<tree>/src, in a fresh
temporary directory that holds the CONFIGS files; a command writes into the
default ``out`` directory there.  Every written file, stdout, stderr and exit
code is compared.  Each difference is printed, a CSV file's with its largest
relative cell difference.  Exits 1 if anything differs, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    # the risk closure has no solution from 2042.8 on: exit 1
    "risk_2045.json": {"model": "risk", "horizon": {"end": 2045}},
    "tracked_2022.json": {"model": "basic", "intervention_mode": "tracked-count",
                          "interventions": [{"group": "msm", "additional_persons": 10000,
                                             "start_year": 2022}]},
    "start_2017_5.json": {"model": "basic", "horizon": {"start": 2017.5}},
    "no_model.json": {"model": "nosuch"},
}


def _preset_invocations(model):
    m = ["--model", model]
    return [["simulate", *m], ["simulate", *m, "--json"],
            ["spillover", *m], ["spillover", *m, "--json"],
            ["nnt", *m], ["nnt", *m, "--horizon", "2.5", "--json"],
            ["ngm", *m], ["ngm", *m, "--json"],
            ["sobol", *m, "--level", "3", "--degree", "2"],
            ["emit-plots", *m, "--series", "baseline,effects,nnt,table,sobol"]]


INVOCATIONS = (
    _preset_invocations("basic") + _preset_invocations("risk") + [
        ["spillover", "--model", "basic", "--mode", "exact_delta"],
        ["validate"], ["validate", "--json"],
        ["simulate", "--config", "risk_2045.json"],
        ["simulate", "--config", "tracked_2022.json"],
        ["nnt", "--config", "tracked_2022.json"],
        ["simulate", "--config", "start_2017_5.json"],
        ["emit-plots", "--config", "start_2017_5.json"],
        # refusals
        ["simulate", "--model", "nosuch"],
        ["sobol", "--level", "0"],
        ["sobol", "--lo", "5", "--hi", "1"],
        ["emit-plots", "--series", "nosuch"],
        ["simulate", "--config", "no_model.json"],
    ])

_MAIN = "import sys; from prepspill.cli import main; sys.exit(main(sys.argv[1:]))"


def run(tree, argv):
    """One invocation in a fresh directory: {name: bytes} of every file it
    holds afterwards, plus <stdout>, <stderr> and <exit>."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        for name, raw in CONFIGS.items():
            Path(cwd, name).write_text(json.dumps(raw), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=cwd, env=env,
                              capture_output=True, check=False)
        result = read_tree(cwd)
    result.update({"<stdout>": proc.stdout, "<stderr>": proc.stderr,
                   "<exit>": str(proc.returncode).encode()})
    return result


def read_tree(root):
    """{path relative to root: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _csv_rows(data):
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _largest_csv_difference(a, b):
    """Text for the largest relative difference between the numeric cells of
    two CSV files, or for their first non-numeric difference."""
    rows_a, rows_b = _csv_rows(a), _csv_rows(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "CSV shapes differ"
    worst, where, text = 0.0, None, None
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for c, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                text = text or f"cell ({r}, {c}) {x!r} != {y!r}"
                continue
            scale = max(abs(fx), abs(fy))
            rel = abs(fx - fy) / scale if scale > 0.0 else 0.0
            if where is None or rel > worst:
                worst, where = rel, (r, c)
    if where is not None:
        return f"largest relative CSV cell difference {worst:.3g} at (row, col) {where}"
    return text or "bytes differ, cells equal"


def differences(a, b):
    """One line per entry that differs between two {name: bytes} maps."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b or name not in a:
            lines.append(f"{name}: only in {'parent' if name in a else 'change'}")
        elif a[name] != b[name]:
            why = (_largest_csv_difference(a[name], b[name]) if name.endswith(".csv")
                   else _first_difference(a[name], b[name]))
            lines.append(f"{name}: {why}")
    return lines


def _first_difference(a, b):
    """Text for the first byte at which a and b differ, with some context."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(i - 40, 0)
    return f"byte {i}: {a[lo:i + 40]!r} != {b[lo:i + 40]!r}"


def main():
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tools/same_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = args
    differing = 0
    for inv in INVOCATIONS:
        lines = differences(run(parent, inv), run(change, inv))
        label = " ".join(inv)
        print(f"{'same' if not lines else 'DIFF'}  {label}")
        for line in lines:
            print(f"    {line}")
        differing += bool(lines)
    print(f"{len(INVOCATIONS) - differing}/{len(INVOCATIONS)} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
