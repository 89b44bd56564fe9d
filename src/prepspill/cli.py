"""Command-line interface.

Subcommands: simulate, spillover, nnt, ngm, sobol, validate, emit-plots.
Exit codes: 0 success, 2 validation failure, 1 any other error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import PrepspillError
from .presets import INTERVENTION_START, REPORT_END
from .reproduction import build_ngm, rc_closed, rc_numeric
from .scenarios import (default_config, emit_plot_data, load_config,
                        report_to_csv, run_scenarios, run_spillover,
                        sobol_manifest, validate_tables, write_sobol_csv)
from .sobol import UncertainInput, sobol_timeseries
from .spillover import nnt, sensitivity_to_csv


def _config_from_args(args):
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config(args.model)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_simulate(args):
    config = _config_from_args(args)
    report = run_scenarios(config)
    path = _out_path(args, f"trajectory_{config.variant}.csv")
    report.baseline_traj.to_csv(path)
    table = _out_path(args, f"table_{config.variant}.csv")
    report_to_csv(report, table)
    report.csv_paths = [path, table]
    payload = {
        "variant": config.variant,
        "window": list(report.window),
        "config_hash": report.config_hash,
        "baseline": report.baseline.incidence,
        "scenarios": {r.name: {"incidence": r.incidence, "prevented": r.prevented}
                      for r in report.scenarios},
        "files": [path, table],
    }
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(f"wrote {path}")
        print(f"wrote {table}")
        b = report.baseline.incidence
        print(f"baseline {config.variant} {report.window[0]:.0f}-{report.window[1]:.0f}: "
              f"total {b['total']:.0f}")
    return 0


def cmd_spillover(args):
    config = _config_from_args(args)
    _, _, sens = run_spillover(config, mode=args.mode)
    path = _out_path(args, f"spillover_{config.variant}.csv")
    sensitivity_to_csv(sens, config.spec.labels, path)
    if args.json:
        out = {"file": path, "sources": list(sens),
               "final": {k: {"gamma": sens[k].gamma[-1].tolist(),
                             "sigma": sens[k].sigma[-1].tolist()}
                         for k in sens}}
        print(json.dumps(out, indent=1, sort_keys=True))
    else:
        print(f"wrote {path}")
    return 0


def cmd_nnt(args):
    config = _config_from_args(args)
    T, span = args.horizon, config.end - config.intervention_year
    if not 0.0 < T <= span:
        raise PrepspillError(f"--horizon {T} outside (0, {span}] (years after intervention)")
    # the horizon is a node, so nnt() reads it instead of interpolating
    _, traj, sens = run_spillover(config, sample_times=[config.intervention_year + T])
    labels = config.spec.labels
    rows = [nnt(sens[k], traj, j, k, T, config.spec.mu) for k in labels for j in labels]
    path = _out_path(args, f"nnt_{config.variant}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("j,k,T,nnt_simple,nnt_integral,defined\n")
        for r in rows:
            simple = f"{r.nnt_simple:.3f}" if r.defined else ""
            full = f"{r.nnt_integral:.3f}" if r.defined else ""
            fh.write(f"{r.j},{r.k},{r.horizon},{simple},{full},{str(r.defined).lower()}\n")
    if args.json:
        print(json.dumps({"file": path, "results": [r.__dict__ for r in rows]},
                         indent=1, sort_keys=True, default=str))
    else:
        print(f"wrote {path}")
        for r in rows:
            val = f"{r.nnt_simple:10.1f}" if r.defined else " undefined"
            print(f"  NNT[{r.k} -> {r.j}, T={r.horizon}] = {val}")
    return 0


def cmd_ngm(args):
    config = _config_from_args(args)
    ngm = build_ngm(config.spec)
    numeric = rc_numeric(ngm)
    closed = rc_closed(ngm)
    if args.json:
        payload = {
            "labels": list(ngm.labels),
            "F": ngm.F.tolist(),
            "V": ngm.V.tolist(),
            "rc_numeric": numeric.value,
            "rc_closed": closed.value,
            "closed_method": closed.method,
            "diagnostic": closed.diagnostic,
            "components": {k: (str(v) if isinstance(v, complex) else v)
                           for k, v in closed.components.items()},
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(f"model: {config.variant}  groups: {', '.join(ngm.labels)}")
    print("F (new infections):")
    for row in ngm.F:
        print("   " + "  ".join(f"{v:12.6e}" for v in row))
    print("V (transitions): diag " + "  ".join(f"{v:.6f}" for v in np.diag(ngm.V)))
    print(f"R_c numeric     = {numeric.value:.9f}")
    print(f"R_c closed form = {closed.value:.9f}  [{closed.method}]")
    if closed.diagnostic:
        print(f"  note: {closed.diagnostic}")
    print("components:")
    for k in sorted(closed.components):
        print(f"  {k:14s} = {closed.components[k]}")
    return 0


def cmd_sobol(args):
    config = _config_from_args(args)
    inputs = tuple(UncertainInput(group=l, lo=args.lo, hi=args.hi)
                   for l in config.spec.labels)
    study = sobol_timeseries(config.spec, config.y0, inputs, level=args.level,
                             total_degree=args.degree)
    path = _out_path(args, f"sobol_{config.variant}.csv")
    write_sobol_csv(study, path)
    man = _out_path(args, f"sobol_{config.variant}_manifest.json")
    with open(man, "w", encoding="utf-8") as fh:
        json.dump(sobol_manifest(study), fh, indent=1, sort_keys=True)
    if args.json:
        print(json.dumps({"files": [path, man], **sobol_manifest(study)},
                         indent=1, sort_keys=True))
    else:
        print(f"wrote {path}")
        print(f"wrote {man}")
    return 0


def cmd_validate(args):
    report = validate_tables()
    path = _out_path(args, "validation.csv")
    report.to_csv(path)
    n_fail = len(report.failures())
    if args.json:
        print(json.dumps({
            "file": path,
            "cells": len(report.cells),
            "failures": [c.__dict__ for c in report.failures()],
            "all_pass": report.all_pass,
        }, indent=1, sort_keys=True))
    else:
        print(f"wrote {path}")
        for c in report.cells:
            mark = "ok  " if c.ok else "FAIL"
            print(f"  [{mark}] {c.table} {c.row:16s} {c.cell:16s} "
                  f"expected {c.expected:10.1f} actual {c.actual:10.1f} "
                  f"(tol {c.tolerance:.1f})")
        print(f"{len(report.cells) - n_fail}/{len(report.cells)} cells within tolerance")
    return 0 if report.all_pass else 2


def cmd_emit_plots(args):
    config = _config_from_args(args)
    series = tuple(args.series.split(",")) if args.series else (
        "baseline", "effects", "nnt", "table")
    paths = emit_plot_data(args.out, variant=config.variant, series=series,
                           config=config)
    if args.json:
        print(json.dumps({"files": paths}, indent=1, sort_keys=True))
    else:
        for p in paths:
            print(f"wrote {p}")
    return 0


@functools.cache  # one parser per process; parse_args keeps no state between calls
def build_parser():
    ap = argparse.ArgumentParser(prog="prepspill",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config JSON")
        p.add_argument("--model", choices=("basic", "risk"), default="basic",
                       help="model variant when no config is given")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("simulate", help="run baseline and intervention scenarios")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("spillover", help="integrate the coverage sensitivities")
    common(p)
    p.add_argument("--mode", choices=("practical", "exact_delta"),
                   default="practical")
    p.set_defaults(fn=cmd_spillover)

    p = sub.add_parser("nnt", help="person-years of PrEP per infection prevented")
    common(p)
    p.add_argument("--horizon", type=float, default=REPORT_END - INTERVENTION_START,
                   help="years after intervention start")
    p.set_defaults(fn=cmd_nnt)

    p = sub.add_parser("ngm", help="next-generation matrices and R_c")
    common(p)
    p.set_defaults(fn=cmd_ngm)

    p = sub.add_parser("sobol", help="variance-based coverage sensitivity")
    common(p)
    p.add_argument("--level", type=int, default=5)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--lo", type=float, default=-0.5)
    p.add_argument("--hi", type=float, default=4.0)
    p.set_defaults(fn=cmd_sobol)

    p = sub.add_parser("validate", help="diff model output against published tables")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("emit-plots", help="write figure-analog CSV bundles")
    common(p)
    p.add_argument("--series", help="comma list: baseline,effects,nnt,table,sobol")
    p.set_defaults(fn=cmd_emit_plots)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PrepspillError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
