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
rows both hold (numeric keys within NODE_TOL of each other pair).  A JSON
output (a ``*.json`` file, or a stdout that parses as JSON) is compared the
same way leaf by leaf, the leaves paired by their path in the document.  Each
invocation's line also gives the wall time of its process on both trees:
one fresh-process run each, so a cold-start figure to read, not a
measurement to claim.  The closing count of identical invocations gives
each tree's line count of src/prepspill beside it, as `wc -l` counts the
lines of its .py files, and its count of code lines: those lines that are
not blank, not comment-only and not inside a docstring; then the line count
of tests/ the same way, so code moved into the tests shows beside the drop
in src/prepspill.  A last line names each module whose count of code lines
moved.  Exits 1 if anything differs, else 0.
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
    # the risk preset with every contact rate a_j x 1,000: a first attempt's
    # stages leave the RHS's domain (msm N < 0), shorter steps do not
    "risk_contacts_x1000.json": {"model": "risk",
                                 "overrides": {"groups": {"msm": {"a": 94700.0},
                                                          "hetf_h": {"a": 91000.0},
                                                          "hetf_l": {"a": 43700.0},
                                                          "hetm": {"a": 48500.0}}}},
    # the basic preset with mu = 2: the Sobol batch's first whole-year
    # attempts leave the RHS's domain (msm N < 0), shorter steps do not
    "basic_mu_2.json": {"model": "basic", "overrides": {"mu": 2.0}},
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
    # the risk preset with recruitment Pi_j = mu * N0_j: its DFE closes, so
    # the risk NGM and R_c by radicals are compared on their success path
    "risk_stationary.json": {"model": "risk",
                             "overrides": {"groups": {"msm": {"Pi": 3308.36},
                                                      "hetf_h": {"Pi": 5043.2},
                                                      "hetf_l": {"Pi": 60452.840000000004},
                                                      "hetm": {"Pi": 62918.78}}}},
    "no_model.json": {"model": "nosuch"},
    "unknown_override_group.json": {"model": "basic",
                                    "overrides": {"groups": {"pwid": {"a": 10.0}}}},
    "unknown_initial_group.json": {"model": "basic",
                                   "initial_conditions": {"pwid": {"S": 1.0, "I": 0.0}}},
    # an msm pool that starts empty and recruits no one: no per-person effect
    "empty_msm_pool.json": {"model": "basic", "overrides": {"groups": {"msm": {"Pi": 0}}},
                            "initial_conditions": {"msm": {"S": 0, "I": 42000}}},
    # an msm pool that starts empty but recruits, from an intervention at the
    # start: gamma/S has no value at the first node
    "empty_msm_start.json": {"model": "basic",
                             "horizon": {"start": 2017, "intervention": 2017, "end": 2031},
                             "initial_conditions": {"msm": {"S": 0, "I": 42000}}},
    # a misspelt key in the root, an arm and an initial-conditions group
    "typo_root.json": {"model": "basic", "intervention_mod": "tracked-count"},
    "typo_arm.json": {"model": "basic",
                      "interventions": [{"group": "msm", "additional_persons": 25000,
                                         "start": 2025}]},
    "typo_initial.json": {"model": "basic",
                          "initial_conditions": {"msm": {"S": 123418, "I": 42000, "C": 0}}},
}


def _preset_invocations(model):
    m = ["--model", model]
    return [["simulate", *m], ["simulate", *m, "--json"],
            ["spillover", *m], ["spillover", *m, "--json"],
            ["nnt", *m], ["nnt", *m, "--horizon", "2.5", "--json"],
            ["ngm", *m], ["ngm", *m, "--json"],
            ["sobol", *m, "--level", "3", "--degree", "2"],
            ["emit-plots", *m]]


INVOCATIONS = (
    _preset_invocations("basic") + _preset_invocations("risk") + [
        ["spillover", "--model", "basic", "--mode", "exact_delta"],
        ["spillover", "--model", "basic", "--mode", "exact_delta", "--json"],
        ["spillover", "--model", "risk", "--mode", "exact_delta"],
        ["spillover", "--model", "risk", "--mode", "exact_delta", "--json"],
        ["validate"], ["validate", "--json"],
        ["simulate", "--config", "risk_2045.json"],
        ["simulate", "--config", "risk_contacts_x1000.json"],
        ["sobol", "--config", "basic_mu_2.json", "--level", "3", "--degree", "2"],
        ["simulate", "--config", "tracked_2022.json"],
        ["nnt", "--config", "tracked_2022.json"],
        ["simulate", "--config", "risk_fixed_2022.json"],
        ["simulate", "--config", "risk_tracked_cap.json"],
        ["simulate", "--config", "basic_tracked_cap.json"],
        ["simulate", "--config", "start_2017_5.json"],
        ["emit-plots", "--config", "start_2017_5.json"],
        ["emit-plots", "--config", "off_year_2020_25.json"],
        ["nnt", "--config", "off_year_2020_25.json", "--horizon", "0.75"],
        # its 5 pairs with msm as source or j are undefined
        ["nnt", "--config", "empty_msm_pool.json", "--json"],
        # its 3 pairs with msm as source are undefined
        ["nnt", "--config", "empty_msm_start.json", "--json"],
        ["ngm", "--config", "ngm_overrides.json", "--json"],
        ["ngm", "--config", "risk_stationary.json"],
        ["ngm", "--config", "risk_stationary.json", "--json"],
        # refusals
        ["simulate", "--model", "nosuch"],
        ["sobol", "--level", "0"],
        ["sobol", "--lo", "5", "--hi", "1"],
        ["emit-plots", "--config", "empty_msm_pool.json"],
        ["simulate", "--config", "no_model.json"],
        ["simulate", "--config", "unknown_override_group.json"],
        ["simulate", "--config", "unknown_initial_group.json"],
        ["simulate", "--config", "typo_root.json"],
        ["simulate", "--config", "typo_arm.json"],
        ["simulate", "--config", "typo_initial.json"],
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


def source_lines(tree, under="src/prepspill"):
    """The newlines in the .py files under <tree>/<under> (`wc -l`)."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(tree) / under).rglob("*.py"))


# tokens that hold no code: a line with only these is blank or comment-only
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def module_code_lines(tree):
    """{path under <tree>/src/prepspill: its lines that hold a token of
    code} over the .py files there: every line a string spans counts,
    except a docstring's (the leading string of a module, class or function
    body)."""
    counts = {}
    root = Path(tree) / "src" / "prepspill"
    for path in root.rglob("*.py"):
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
        counts[path.relative_to(root).as_posix()] = len(rows)
    return counts


def code_lines(tree):
    """The code lines of <tree>/src/prepspill: module_code_lines summed."""
    return sum(module_code_lines(tree).values())


def moved_code_lines(parent, change):
    """Text naming each module whose code lines differ between the trees,
    e.g. "model.py 292 → 288" ("-" for a module on one side only), or
    "none"."""
    a, b = module_code_lines(parent), module_code_lines(change)
    moved = [f"{m} {a.get(m, '-')} → {b.get(m, '-')}"
             for m in sorted(a.keys() | b.keys()) if a.get(m) != b.get(m)]
    return ", ".join(moved) or "none"


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
    return _value_difference(
        (((r, c), x, y) for r, (row_a, row_b) in numbered_pairs
         for c, (x, y) in enumerate(zip(row_a, row_b))),
        _float, "largest relative CSV cell difference {:.3g} at (row, col) {}",
        "cell {} {!r} != {!r}", "bytes differ, cells equal")


def _value_difference(triples, number, largest, other, same):
    """Text for the largest relative difference over the (place, x, y)
    triples whose x and y both read as numbers (``number`` gives a float or
    None), then for the first other triple whose x and y differ, joined by
    "; "; ``same`` if neither is found.  ``largest`` formats (size, place),
    ``other`` (place, x, y)."""
    worst, where, text = 0.0, None, None
    for place, x, y in triples:
        if x == y and type(x) is type(y):
            continue
        fx, fy = number(x), number(y)
        if fx is None or fy is None:
            text = text or other.format(place, x, y)
            continue
        scale = max(abs(fx), abs(fy))
        rel = abs(fx - fy) / scale if scale > 0.0 else 0.0
        if where is None or rel > worst:
            worst, where = rel, place
    parts = [largest.format(worst, where)] if where is not None else []
    return "; ".join(parts + [text] if text else parts) or same


def _largest_json_difference(a, b):
    """Text for the largest relative difference between the numbers of two
    JSON documents and their first other difference, the leaves paired by
    path; the paths found on one side only are listed first.  None if either
    side is not JSON."""
    try:
        leaves_a, leaves_b = dict(_json_leaves(json.loads(a))), dict(_json_leaves(json.loads(b)))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError among them
        return None
    parts = [f"paths only in {side}: {', '.join(p for p in mine if p not in theirs)}"
             for side, mine, theirs in (("parent", leaves_a, leaves_b),
                                        ("change", leaves_b, leaves_a))
             if mine.keys() - theirs.keys()]
    parts.append(_value_difference(
        ((p, x, leaves_b[p]) for p, x in leaves_a.items() if p in leaves_b), _json_number,
        "largest relative JSON number difference {:.3g} at {}",
        "first other difference at {}: {!r} != {!r}", "bytes differ, values equal"))
    return "; ".join(parts)


def _json_leaves(value, path=""):
    """(path, leaf) of each leaf of a parsed JSON value, in document order:
    keys joined by ".", list indices in brackets, an empty object or list a
    leaf of its own."""
    if isinstance(value, dict) and value:
        for k, v in value.items():
            yield from _json_leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from _json_leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _json_number(v):
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def differences(a, b):
    """One line per entry that differs between two {name: bytes} maps."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b or name not in a:
            lines.append(f"{name}: only in {'parent' if name in a else 'change'}")
        elif a[name] != b[name]:
            why = None
            if name.endswith(".csv"):
                why = _largest_csv_difference(a[name], b[name])
            elif name.endswith(".json") or name == "<stdout>":  # a --json stdout parses
                why = _largest_json_difference(a[name], b[name])
            lines.append(f"{name}: {why or _first_difference(a[name], b[name])}")
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
          f"{code_lines(change):,} change; tests: {source_lines(parent, 'tests'):,} lines "
          f"parent, {source_lines(change, 'tests'):,} change]")
    print(f"code lines by module: {moved_code_lines(parent, change)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
