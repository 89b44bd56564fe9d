"""One workload in one fresh, single-threaded process.

Started by run.py, never by hand.  Sets up (imports, specs, seeded inputs,
one warm-up op), runs the timed phase and checks every step's outputs; with
--trace 1 it then repeats the timed phase under the outside-in tracer.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import calibrate

# Set-up is timed from the spawn of this process; its scale comes from the
# kernel samples taken from here until the warm-up op has run.
SETUP_CLOCK = calibrate.StepClock(sample_inside=True).start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import prepspill  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OK, WRONG  # noqa: E402


def run_plan(plan, tracer=None):
    """Run every step of every pass; time the step, then check it untimed.

    Step times are scaled to the reference speed (see calibrate.py).  The
    traced phase samples the kernel only around a step, never inside it,
    so that the layer spans hold no kernel time."""
    records = []
    for steps in plan:
        ctx = {}
        for step in steps:
            with calibrate.StepClock(sample_inside=tracer is None) as clock:
                fr = tracer.op_span(step.label) if tracer else None
                try:
                    outcome, error = step.run(ctx), None
                except Exception:  # noqa: BLE001 - a step that raises is a failed step
                    outcome, error = None, traceback.format_exc(limit=3)
                if fr is not None:
                    tracer.close(fr)
            if tracer is not None:
                tracer.uninstall()   # checks are not part of the traced work
            if error is not None:
                status, detail = WRONG, error
            else:
                try:
                    status, detail = step.check(outcome)
                except Exception:  # noqa: BLE001 - unreadable output fails the check
                    status, detail = WRONG, traceback.format_exc(limit=3)
            if tracer is not None:
                tracer.install()
            records.append({"label": step.label, "op": step.op, "s": clock.s,
                            "raw_s": clock.raw_s, "cal_s": clock.cal_s,
                            "status": status, "detail": detail})
    return records


def tail(latencies_ms):
    """Highest percentile with at least ten ops beyond it: (value, percentile).

    With ten ops or fewer no such percentile exists and the maximum is given
    as percentile 100."""
    xs = sorted(latencies_ms)
    rank = len(xs) - 10
    if rank < 1:
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / len(xs)


def summarize(records):
    """End-to-end figures of one timed phase."""
    ops = [r for r in records if r["op"]]
    lat = [1e3 * r["s"] for r in ops]
    tail_ms, tail_pct = tail(lat)
    return {
        "wall_s": sum(r["s"] for r in records),
        "raw_wall_s": sum(r["raw_s"] for r in records),
        "cal_p50_ms": 1e3 * statistics.median(r["cal_s"] for r in records),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "ops": len(ops),
        "ops_failed": sum(r["status"] != OK for r in ops),
        "wrong": [r for r in records if r["status"] == WRONG],
        "known_failures": sorted({r["label"] for r in records
                                  if r["status"] not in (OK, WRONG)}),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(prepspill.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"prepspill imported from {prepspill.__file__}, not {src}")

    make_plan, warmup = workloads.PLANS[args.workload]
    passes = workloads.passes_for(args.workload, args.seconds)
    plan = make_plan(args.seed, passes, args.run_dir)
    warmup(args.run_dir)
    SETUP_CLOCK.stop()
    raw_setup_s = time.monotonic() - args.spawned_at - SETUP_CLOCK.inside_s
    setup_s = calibrate.scale(raw_setup_s, SETUP_CLOCK.cal_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return

    records = run_plan(plan)
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "passes": passes,
           **summarize(records),
           "steps": [[r["label"], r["s"], r["status"], r["raw_s"], r["cal_s"]]
                     for r in records]}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = summarize(run_plan(plan, tracer))
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = traced["wall_s"] - out["wall_s"]
        spans_path = Path(args.run_dir) / "spans.jsonl"
        tracer.write(spans_path)
        out.update(layers=layers, traced_wall_s=traced["wall_s"],
                   traced_wrong=traced["wrong"], spans=len(tracer.spans),
                   spans_file=str(spans_path), step_identity_violations=tracer.violations,
                   roadmap=tracing.roadmap_figures(tracer))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["env"] = {
        "pid": os.getpid(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
