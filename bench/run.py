"""prepspill benchmark: one seeded workload, checked, with end-to-end or layer metrics.

    python3 bench/run.py --workload study|sobol|probe --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Each
run starts fresh worker processes one after another, each single-threaded
with BLAS capped at one thread: SETUP_SAMPLES - 1 that only set up, then one
that sets up, runs the timed phase and checks every output.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a second,
traced pass over the same work.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; everything else
about the run goes to .bench_runs/<workload>-seed<N>-trace<T>/result.json.
See bench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("study", "sobol", "probe")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(1)


def worker(args, run_dir, deadline, setup_only):
    env = dict(os.environ)
    env.update({k: "1" for k in ONE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "prepspill" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'prepspill'}")
    deadline = time.monotonic() + DEADLINE_S

    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_runs = [worker(args, run_dir, deadline, True) for _ in range(SETUP_SAMPLES - 1)]
    res = worker(args, run_dir, deadline, False)
    setup_runs.append(res)
    setups = [r["setup_s"] for r in setup_runs]
    raw_setups = [r["raw_setup_s"] for r in setup_runs]
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    shutil.rmtree(run_dir / "configs", ignore_errors=True)

    e2e = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
           "op_p50_ms": res["op_p50_ms"], "op_tail_ms": res["op_tail_ms"],
           "peak_rss_mb": res["peak_rss_mb"]}
    wrong = res["wrong"] + res.get("traced_wrong", [])
    violations = res.get("step_identity_violations", [])
    correct = not wrong and not violations
    env = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), **res["env"],
           "processes": f"{SETUP_SAMPLES} fresh worker processes, one at a time; "
                        "the last one ran the timed phase"}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  passes {res['passes']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in END_TO_END:
        extra = ""
        if name == "setup_s":
            extra = (f"  (median of {', '.join(f'{s:.3f}' for s in setups)}; "
                     f"unscaled {statistics.median(raw_setups):.3f})")
        if name == "wall_s":
            extra = (f"  (unscaled {res['raw_wall_s']:.3f}; calibration kernel "
                     f"median {res['cal_p50_ms']:.3f} ms, reference "
                     f"{1e3 * calibrate.REF_S:.3f} ms)")
        if name == "op_tail_ms":
            extra = f"  (p{res['op_tail_percentile']:.1f} of {res['ops']} ops)"
        print(f"{name:14s} {e2e[name]:12.4f} {unit}{extra}")
    known = res["known_failures"]
    print(f"{'ops_failed':14s} {res['ops_failed']:7d} of {res['ops']} ops"
          + (f"  (known: {', '.join(known)})" if known else ""))
    kinds, raw_kinds = {}, {}
    for label, secs, _, raw_secs, _ in res["steps"]:
        kinds.setdefault(label, []).append(1e3 * secs)
        raw_kinds.setdefault(label, []).append(1e3 * raw_secs)
    op_medians = {k: statistics.median(v) for k, v in kinds.items()}
    raw_op_medians = {k: statistics.median(v) for k, v in raw_kinds.items()}
    for label, ms in sorted(op_medians.items(), key=lambda kv: kv[1]):
        print(f"  {label:40s} median {ms:10.2f} ms over {len(kinds[label])}  "
              f"(unscaled {raw_op_medians[label]:.2f})")
    basic_sobol = raw_op_medians.get("sobol basic L5/d4")
    if basic_sobol is not None:
        print(f"  ROADMAP Sobol L5/d4 (625 nodes): 5.3 s -> {basic_sobol / 1e3:.2f} s unscaled")
    for r in wrong:
        print(f"WRONG {r['label']}: {r['detail']}")
    for v in violations:
        print(f"STEP IDENTITY VIOLATED {v}")
    if args.trace:
        print(f"traced wall_s {res['traced_wall_s']:.4f} s, untraced {res['wall_s']:.4f} s, "
              f"overhead {res['layers']['trace.overhead_s']:.4f} s; "
              f"{res['spans']} spans in {res['spans_file']}")
        for name, value in res["layers"].items():
            print(f"  {name:36s} {value:16.4f}")
        for row in res["roadmap"]:
            print(f"  ROADMAP {row['figure']}: {row['roadmap']} -> {row['this_run']}")

    if args.trace:
        metrics = {name: {"value": float(res["layers"][name]), "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    summary = {"correct": correct, "attempted": res["ops"], "failed": res["ops_failed"],
               "metrics": metrics}
    record = {"args": vars(args), "env": env, "setup_samples_s": setups,
              "raw_setup_samples_s": raw_setups, "end_to_end": e2e,
              "op_medians_ms": op_medians, "raw_op_medians_ms": raw_op_medians,
              **{k: v for k, v in res.items() if k != "env"}, "summary": summary}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
