#!/usr/bin/env python3
"""Check that two source trees give the same CLI outputs, byte for byte.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each invocation in
INVOCATIONS runs once per tree with PYTHONPATH=<tree>/src, in a fresh
temporary directory that holds the CONFIGS files; a command writes into the
default ``out`` directory there.  Every written file, stdout, stderr and exit
code is compared.  Each difference is printed, a CSV file's with its largest
relative cell difference; for CSV files with rows on one side only, the
first-column keys of those rows as well, and the largest difference over the
rows both hold (numeric keys within NODE_TOL of each other pair).  Each
invocation's line also gives the wall time of its process on both trees:
one fresh-process run each, so a cold-start figure to read, not a
measurement to claim.  The closing count of identical invocations gives
each tree's line count of src/prepspill beside it, as `wc -l` counts the
lines of its .py files, and its count of code lines: those lines that are
not blank, not comment-only and not inside a docstring.  Exits 1 if
anything differs, else 0.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

CONFIGS = {
    # the risk closure has no solution from 2042.8 on: exit 1
    "risk_2045.json": {"model": "risk", "horizon": {"end": 2045}},
    "tracked_2022.json": {"model": "basic", "intervention_mode": "tracked-count",
                          "interventions": [{"group": "msm", "additional_persons": 10000,
                                             "start_year": 2022}]},
    # fixed-fraction arms from 2022; 1,000,000 persons cap hetf_h's coverage at 1
    "risk_fixed_2022.json": {"model": "risk", "intervention_mode": "fixed-fraction",
                             "interventions": [
                                 {"group": "hetf_h", "additional_persons": 1000000,
                                  "start_year": 2022},
                                 {"group": "msm", "additional_persons": 25000,
                                  "start_year": 2022},
                                 {"group": "hetm", "additional_persons": 0,
                                  "start_year": 2022}]},
    # 230,000 hetf_h persons on PrEP from 2020: S_hetf_h falls to the tracked
    # count in 2024, where the arm's coverage reaches 1
    "risk_tracked_cap.json": {"model": "risk", "intervention_mode": "tracked-count",
                              "interventions": [{"group": "hetf_h",
                                                 "additional_persons": 230000,
                                                 "start_year": 2020}]},
    # 120,000 msm persons on PrEP from 2020: S_msm falls to the tracked count
    # in 2026, the one switching margin a basic RHS carries
    "basic_tracked_cap.json": {"model": "basic", "intervention_mode": "tracked-count",
                               "interventions": [{"group": "msm",
                                                  "additional_persons": 120000,
                                                  "start_year": 2020}]},
    "start_2017_5.json": {"model": "basic", "horizon": {"start": 2017.5}},
    # the NGM away from the presets: other betas, priors, and hetf's coverage
    # and disease mortality
    "ngm_overrides.json": {"model": "basic",
                           "overrides": {"probs": {"beta_mm": 0.0011, "beta_mf": 0.00055},
                                         "mixing_priors": {"eta_msm": 0.8, "alpha_hetf": 0.05},
                                         "groups": {"hetf": {"epsilon": 0.12,
                                                             "delta": 0.015}}}},
    # an intervention between whole years: the half-year NNT horizons are
    # not year-aligned, and most of them fall between nodes
    "off_year_2020_25.json": {"model": "basic",
                              "horizon": {"start": 2017, "intervention": 2020.25, "end": 2031},
                              "integrator": {"dt_max": 0.7}},
    "no_model.json": {"model": "nosuch"},
    "unknown_override_group.json": {"model": "basic",
                                    "overrides": {"groups": {"pwid": {"a": 10.0}}}},
    "unknown_initial_group.json": {"model": "basic",
                                   "initial_conditions": {"pwid": {"S": 1.0, "I": 0.0}}},
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
        ["spillover", "--model", "basic", "--mode", "exact_delta", "--json"],
        ["validate"], ["validate", "--json"],
        ["simulate", "--config", "risk_2045.json"],
        ["simulate", "--config", "tracked_2022.json"],
        ["nnt", "--config", "tracked_2022.json"],
        ["simulate", "--config", "risk_fixed_2022.json"],
        ["simulate", "--config", "risk_tracked_cap.json"],
        ["simulate", "--config", "basic_tracked_cap.json"],
        ["simulate", "--config", "start_2017_5.json"],
        ["emit-plots", "--config", "start_2017_5.json"],
        ["emit-plots", "--config", "off_year_2020_25.json",
         "--series", "baseline,effects,nnt,table"],
        ["nnt", "--config", "off_year_2020_25.json", "--horizon", "0.75"],
        ["ngm", "--config", "ngm_overrides.json", "--json"],
        # refusals
        ["simulate", "--model", "nosuch"],
        ["spillover", "--model", "risk", "--mode", "exact_delta"],
        ["sobol", "--level", "0"],
        ["sobol", "--lo", "5", "--hi", "1"],
        ["emit-plots", "--series", "nosuch"],
        ["simulate", "--config", "no_model.json"],
        ["simulate", "--config", "unknown_override_group.json"],
        ["simulate", "--config", "unknown_initial_group.json"],
    ])

# Times this close are one node (prepspill.integrators.NODE_TOL)
NODE_TOL = 1e-9

_MAIN = "import sys; from prepspill.cli import main; sys.exit(main(sys.argv[1:]))"


def run(tree, argv):
    """One invocation in a fresh directory: ({name: bytes} of every file it
    holds afterwards, plus <stdout>, <stderr> and <exit>; the wall time of
    its process in seconds)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        for name, raw in CONFIGS.items():
            Path(cwd, name).write_text(json.dumps(raw), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=cwd, env=env,
                              capture_output=True, check=False)
        wall = time.perf_counter() - start
        result = read_tree(cwd)
    result.update({"<stdout>": proc.stdout, "<stderr>": proc.stderr,
                   "<exit>": str(proc.returncode).encode()})
    return result, wall


def source_lines(tree):
    """The newlines in the .py files under <tree>/src/prepspill (`wc -l`)."""
    return sum(p.read_bytes().count(b"\n")
               for p in (Path(tree) / "src" / "prepspill").rglob("*.py"))


# tokens that hold no code: a line with only these is blank or comment-only
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(tree):
    """The lines of the .py files under <tree>/src/prepspill that hold a
    token of code: every line a string spans counts, except a docstring's
    (the leading string of a module, class or function body)."""
    total = 0
    for path in (Path(tree) / "src" / "prepspill").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        docs = {(node.body[0].lineno, node.body[0].col_offset)
                for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)}
        rows = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE and tok.start not in docs:
                rows.update(range(tok.start[0], tok.end[0] + 1))
        total += len(rows)
    return total


def read_tree(root):
    """{path relative to root: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _csv_rows(data):
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _largest_csv_difference(a, b):
    """Text for the largest relative difference between the numeric cells of
    two CSV files, or for their first non-numeric difference.  Files of
    different shapes under one header are compared row by row on their first
    column (_paired): the keys found on one side only are listed, and the
    cells are compared over the paired keys, rows numbered as in the parent's
    file."""
    rows_a, rows_b = _csv_rows(a), _csv_rows(b)
    if [len(r) for r in rows_a] == [len(r) for r in rows_b]:
        return _cell_difference(enumerate(zip(rows_a, rows_b)))
    keyed_a, keyed_b = _keyed(rows_a), _keyed(rows_b)
    if keyed_a is None or keyed_b is None or rows_a[0] != rows_b[0]:
        return "CSV shapes differ"
    pairs = _paired(keyed_a, keyed_b)
    shared = [(r, row, keyed_b[pairs[k]][1]) for k, (r, row) in keyed_a.items() if k in pairs]
    if any(len(row_a) != len(row_b) for _, row_a, row_b in shared):
        return "CSV shapes differ"
    parts = [f"keys only in {side}: {', '.join(k for k in mine if k not in paired)}"
             for side, mine, paired in (("parent", keyed_a, pairs.keys()),
                                        ("change", keyed_b, set(pairs.values())))
             if mine.keys() - paired]
    common = _cell_difference((r, (row_a, row_b)) for r, row_a, row_b in shared)
    return "; ".join(parts + [f"shared keys: {common}"])


def _keyed(rows):
    """{first cell: (row number, row)} of the rows after the header, or None
    if the file is empty or a first cell repeats."""
    keyed = {row[0]: (r, row) for r, row in enumerate(rows) if r and row}
    return keyed if rows and len(keyed) == len(rows) - 1 else None


def _paired(keyed_a, keyed_b):
    """{parent key: change key} of the rows both files hold: the same text,
    else, for a numeric key, the nearest unpaired numeric change key within
    NODE_TOL, so a node whose time moved in its last digits still pairs."""
    pairs = {k: k for k in keyed_a if k in keyed_b}
    spare = [(v, k) for k in keyed_b if k not in pairs and (v := _float(k)) is not None]
    for k in keyed_a:
        v = _float(k)
        if k in pairs or v is None or not spare:
            continue
        near = min(spare, key=lambda s: abs(s[0] - v))
        if abs(near[0] - v) <= NODE_TOL:
            pairs[k] = near[1]
            spare.remove(near)
    return pairs


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _cell_difference(numbered_pairs):
    """The text of _largest_csv_difference over (row number, (row_a, row_b))
    pairs of equal-length rows."""
    worst, where, text = 0.0, None, None
    for r, (row_a, row_b) in numbered_pairs:
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
        (a, wall_a), (b, wall_b) = run(parent, inv), run(change, inv)
        lines = differences(a, b)
        label = " ".join(inv)
        print(f"{'same' if not lines else 'DIFF'}  {label}  "
              f"[{wall_a:.3f} s parent, {wall_b:.3f} s change]")
        for line in lines:
            print(f"    {line}")
        differing += bool(lines)
    print(f"{len(INVOCATIONS) - differing}/{len(INVOCATIONS)} invocations identical  "
          f"[src/prepspill: {source_lines(parent):,} lines parent, "
          f"{source_lines(change):,} change; {code_lines(parent):,} code lines parent, "
          f"{code_lines(change):,} change]")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
