"""Command-line interface.

Subcommands: simulate, spillover, nnt, ngm, sobol, validate, emit-plots.
Exit codes: 0 success, 2 validation failure, 1 any other error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import PrepspillError
from .integrators import write_csv
from .model import MODES, VARIANTS
from .reproduction import build_ngm, rc_closed, rc_numeric
from .scenarios import (SOBOL_INTERVAL, default_config, emit_plot_data, load_config,
                        report_to_csv, run_scenarios, run_spillover, sobol_manifest,
                        sobol_study, validate_tables, write_sobol)
from .spillover import nnt, sensitivity_to_csv


def _config_from_args(args):
    if args.config:
        return load_config(args.config)
    return default_config(args.model)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _report(args, payload, files=(), lines=()):
    """Print a command's outcome: under --json the payload, else one
    `wrote <path>` line per file and then the lines."""
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True, default=str))
        return
    for path in files:
        print(f"wrote {path}")
    for line in lines:
        print(line)


def cmd_simulate(args):
    config = _config_from_args(args)
    report = run_scenarios(config)
    path = _out_path(args, f"trajectory_{config.variant}.csv")
    report.baseline_traj.to_csv(path)
    table = _out_path(args, f"table_{config.variant}.csv")
    report_to_csv(report, table)
    payload = None
    if args.json:  # only the payload needs the config's hash
        payload = {
            "variant": config.variant,
            "window": list(report.window),
            "config_hash": config.content_hash(),
            "baseline": report.baseline.incidence,
            "scenarios": {r.name: {"incidence": r.incidence, "prevented": r.prevented}
                          for r in report.scenarios},
            "files": [path, table],
        }
    b = report.baseline.incidence
    _report(args, payload, files=[path, table],
            lines=[f"baseline {config.variant} {report.window[0]:.0f}-{report.window[1]:.0f}: "
                   f"total {b['total']:.0f}"])
    return 0


def cmd_spillover(args):
    config = _config_from_args(args)
    _, sens = run_spillover(config, mode=args.mode)
    path = _out_path(args, f"spillover_{config.variant}.csv")
    sensitivity_to_csv(sens, config.spec.labels, path)
    payload = {"file": path, "sources": list(sens),
               "final": {k: {"gamma": sens[k].gamma[-1].tolist(),
                             "sigma": sens[k].sigma[-1].tolist()}
                         for k in sens}}
    _report(args, payload, files=[path])
    return 0


def cmd_nnt(args):
    config = _config_from_args(args)
    span = config.end - config.intervention_year
    T = span if args.horizon is None else args.horizon
    if not 0.0 < T <= span:
        raise PrepspillError(f"--horizon {T} outside (0, {span}] (years after intervention)")
    # nnt() reads only at nodes, so the horizon is made a sample time
    traj, sens = run_spillover(config, sample_times=[config.intervention_year + T])
    labels = config.spec.labels
    rows = [nnt(sens[k], traj, j, k, T, config.spec.mu) for k in labels for j in labels]
    path = _out_path(args, f"nnt_{config.variant}.csv")
    write_csv(path, ["j", "k", "T", "nnt_simple", "nnt_integral", "defined"],
              ([r.j, r.k, r.horizon,
                f"{r.nnt_simple:.3f}" if r.defined else "",
                f"{r.nnt_integral:.3f}" if r.defined else "",
                str(r.defined).lower()] for r in rows))
    lines = []
    for r in rows:
        val = f"{r.nnt_simple:10.1f}" if r.defined else " undefined"
        lines.append(f"  NNT[{r.k} -> {r.j}, T={r.horizon}] = {val}")
    _report(args, {"file": path, "results": [r.__dict__ for r in rows]},
            files=[path], lines=lines)
    return 0


def cmd_ngm(args):
    config = _config_from_args(args)
    ngm = build_ngm(config.spec)
    numeric = rc_numeric(ngm)
    closed = rc_closed(ngm)
    payload = {
        "labels": list(ngm.labels),
        "F": ngm.F.tolist(),
        "V": ngm.V.tolist(),
        "rc_numeric": numeric.value,
        "rc_closed": closed.value,
        "closed_method": closed.method,
        "diagnostic": closed.diagnostic,
        "components": closed.components,
    }
    lines = [f"model: {config.variant}  groups: {', '.join(ngm.labels)}",
             "F (new infections):"]
    lines += ["   " + "  ".join(f"{v:12.6e}" for v in row) for row in ngm.F]
    lines += ["V (transitions): diag " + "  ".join(f"{v:.6f}" for v in np.diag(ngm.V)),
              f"R_c numeric     = {numeric.value:.9f}",
              f"R_c closed form = {closed.value:.9f}  [{closed.method}]"]
    if closed.diagnostic:
        lines.append(f"  note: {closed.diagnostic}")
    lines.append("components:")
    lines += [f"  {k:14s} = {closed.components[k]}" for k in sorted(closed.components)]
    _report(args, payload, lines=lines)
    return 0


def cmd_sobol(args):
    if args.level < 1:
        raise PrepspillError(f"--level {args.level} must be >= 1")
    if args.degree < 0:
        raise PrepspillError(f"--degree {args.degree} must be >= 0")
    if not (math.isfinite(args.lo) and math.isfinite(args.hi) and args.lo <= args.hi):
        raise PrepspillError(f"--lo {args.lo} and --hi {args.hi} must be finite "
                             "with lo <= hi")
    config = _config_from_args(args)
    study = sobol_study(config, args.level, args.degree, args.lo, args.hi)
    paths = write_sobol(study, args.out, config.variant)
    _report(args, {"files": paths, **sobol_manifest(study)}, files=paths)
    return 0


def cmd_validate(args):
    if args.config:
        raise PrepspillError("validate checks both presets' published tables: no --config")
    report = validate_tables()
    path = _out_path(args, "validation.csv")
    report.to_csv(path)
    n_fail = len(report.failures())
    payload = {
        "file": path,
        "cells": len(report.cells),
        "failures": [c.__dict__ for c in report.failures()],
        "all_pass": report.all_pass,
    }
    lines = []
    for c in report.cells:
        mark = "ok  " if c.ok else "FAIL"
        lines.append(f"  [{mark}] {c.table} {c.row:16s} {c.cell:16s} "
                     f"expected {c.expected:10.1f} actual {c.actual:10.1f} "
                     f"(tol {c.tolerance:.1f})")
    lines.append(f"{len(report.cells) - n_fail}/{len(report.cells)} cells within tolerance")
    _report(args, payload, files=[path], lines=lines)
    return 0 if report.all_pass else 2


def cmd_emit_plots(args):
    """Write the config's figure-analog bundle (emit_plot_data); the Sobol
    indices are the `sobol` subcommand's."""
    config = _config_from_args(args)
    paths = emit_plot_data(args.out, config)
    _report(args, {"files": paths}, files=paths)
    return 0


@functools.cache  # one parser per process; parse_args keeps no state between calls
def build_parser():
    ap = argparse.ArgumentParser(prog="prepspill",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config JSON")
        p.add_argument("--model", choices=tuple(VARIANTS), default="basic",
                       help="model variant when no config is given")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("simulate", help="run baseline and intervention scenarios")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("spillover", help="integrate the coverage sensitivities")
    common(p)
    p.add_argument("--mode", choices=MODES, default="practical")
    p.set_defaults(fn=cmd_spillover)

    p = sub.add_parser("nnt", help="person-years of PrEP per infection prevented")
    common(p)
    p.add_argument("--horizon", type=float,
                   help="years after intervention start (default: to the window's end)")
    p.set_defaults(fn=cmd_nnt)

    p = sub.add_parser("ngm", help="next-generation matrices and R_c")
    common(p)
    p.set_defaults(fn=cmd_ngm)

    p = sub.add_parser("sobol", help="variance-based coverage sensitivity")
    common(p)
    p.add_argument("--level", type=int, default=5)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--lo", type=float, default=SOBOL_INTERVAL[0])
    p.add_argument("--hi", type=float, default=SOBOL_INTERVAL[1])
    p.set_defaults(fn=cmd_sobol)

    about = "diff both presets against their published tables (always checks both)"
    p = sub.add_parser("validate", help=about, description=about)
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("emit-plots", help="write the figure-analog CSV bundle")
    common(p)
    p.set_defaults(fn=cmd_emit_plots)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
    except PrepspillError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as e:  # e.g. an --out path that is a file
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
