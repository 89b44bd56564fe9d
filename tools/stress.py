#!/usr/bin/env python3
"""Run every config-taking subcommand on edge-case configs and report the finds.

    python tools/stress.py [TREE]

TREE is a checkout of this repository (default: the one holding this
script).  Each command in COMMANDS runs on each config of CONFIGS, for both
variants, as a fresh process with PYTHONPATH=<TREE>/src, in a fresh
temporary directory that holds the config; the command writes into the
default ``out`` directory there.  At most WORKERS runs go at a time, and a
run still going after LIMIT_S seconds is killed.

A run is a find when its stderr holds a traceback, its exit code is not 0,
1 or 2, it is killed at the limit, or it is ``sobol`` exiting other than 0
on a config where ``simulate`` exits 0.  The report gives one line per run
that did not exit 0 (the config, the command, the exit code, the wall time
and the last line of stderr), then each find with its reason, then the
counts and the slowest run.  Exits 1 if there is a find, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LIMIT_S = 60.0
WORKERS = 2

# The presets' contact rates a_j, by variant and group
CONTACT_RATES = {"basic": {"msm": 94.7, "hetf": 47.3, "hetm": 48.5},
                 "risk": {"msm": 94.7, "hetf_h": 91.0, "hetf_l": 43.7, "hetm": 48.5}}


def _edges(variant):
    """{name: config entries besides ``model``} of the edge cases."""
    def arm(persons):
        return [{"group": "msm", "additional_persons": persons, "start_year": 2022}]
    edges = {f"mu_{mu:g}": {"overrides": {"mu": mu}} for mu in (0.2, 2.0, 50.0)}
    edges.update({f"msm_delta_{d:g}": {"overrides": {"groups": {"msm": {"delta": d}}}}
                  for d in (3.0, 100.0)})
    edges.update({
        "contacts_x1000": {"overrides": {"groups": {
            g: {"a": 1000.0 * a} for g, a in CONTACT_RATES[variant].items()}}},
        "start_-5": {"horizon": {"start": -5}},
        "arm_1e300": {"interventions": arm(1e300)},
        "dt_max_1e-3": {"integrator": {"dt_max": 1e-3}},
        "rtol_1e-15": {"integrator": {"rtol": 1e-15}},
        "tracked_1e9": {"intervention_mode": "tracked-count", "interventions": arm(1e9)},
        # no hetm recruits and none susceptible at the start
        "empty_hetm_pool": {"overrides": {"groups": {"hetm": {"Pi": 0}}},
                            "initial_conditions": {"hetm": {"S": 0, "I": 7000}}},
    })
    return edges


CONFIGS = {f"{variant}_{name}.json": {"model": variant, **raw}
           for variant in CONTACT_RATES for name, raw in _edges(variant).items()}

COMMANDS = (["simulate"], ["spillover"], ["nnt"], ["ngm"],
            ["sobol", "--level", "3", "--degree", "2"], ["emit-plots"])

_MAIN = "import sys; from prepspill.cli import main; sys.exit(main(sys.argv[1:]))"


def run(tree, config, command):
    """One run of ``command`` on the config named ``config``, in a fresh
    directory: (exit code, or None if killed at LIMIT_S; wall time in
    seconds; stderr text)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, config).write_text(json.dumps(CONFIGS[config]), encoding="utf-8")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", _MAIN, *command, "--config", config],
                                  cwd=cwd, env=env, capture_output=True, check=False,
                                  timeout=LIMIT_S)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as e:
            code, err = None, e.stderr or b""
        wall = time.perf_counter() - start
    return code, wall, err.decode("utf-8", "replace")


def finds(results):
    """[(config, command name, reason)] of the finds among ``results``,
    {(config, command name): (code, wall, stderr)}."""
    out = []
    for (config, name), (code, _, err) in results.items():
        if "Traceback (most recent call last)" in err:
            out.append((config, name, "traceback"))
        elif code is None:
            out.append((config, name, f"killed after {LIMIT_S:g} s"))
        elif code not in (0, 1, 2):
            out.append((config, name, f"exit code {code}"))
        elif name == "sobol" and code != 0 and results[config, "simulate"][0] == 0:
            out.append((config, name, "fails where simulate runs"))
    return out


def main():
    args = sys.argv[1:]
    if len(args) > 1:
        print("usage: python tools/stress.py [TREE]", file=sys.stderr)
        return 2
    tree = args[0] if args else Path(__file__).resolve().parent.parent
    jobs = [(config, command) for config in CONFIGS for command in COMMANDS]
    with ThreadPoolExecutor(WORKERS) as pool:
        done = pool.map(lambda job: run(tree, *job), jobs)
        results = {(config, command[0]): result for (config, command), result in zip(jobs, done)}
    for (config, name), (code, wall, err) in results.items():
        if code != 0:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            print(f"{config}  {name}  exit {code}  {wall:.2f} s  {last}")
    found = finds(results)
    for config, name, reason in found:
        print(f"FIND  {config}  {name}: {reason}")
    failed = sum(code != 0 for code, _, _ in results.values())
    slowest = max(results, key=lambda job: results[job][1])
    print(f"{len(results)} runs, {failed} not exiting 0, {len(found)} finds; slowest "
          f"{' '.join(slowest)} in {results[slowest][1]:.2f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
