"""Seeded inputs, operations and output checks of the three workloads.

A workload is a list of passes and a pass is a list of Steps.  Every Step is
timed into ``wall_s`` and has its outputs checked after its timer stops; a
Step that is an *op* (one CLI invocation, one Sobol study or one probe call)
also contributes one latency sample.  The seed given to the benchmark makes
every input; the package only ever sees the generated configs and arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from prepspill import cli, reproduction, sobol
from prepspill.integrators import IntegratorConfig
from prepspill.presets import georgia_basic, georgia_risk

REF_DIR = Path(__file__).resolve().parent / "reference"

# Seconds one pass takes on the reference machine (2-core x86-64 container,
# Python 3.11, numpy 2.4, one BLAS thread).  They only turn --seconds into a
# fixed number of passes; the work of a run never depends on the clock.
PASS_SECONDS = {"study": 1.2, "sobol": 9.4, "probe": 8.5}

OK, KNOWN, WRONG = "ok", "known-failure", "wrong"

LABELS = {"basic": ("msm", "hetf", "hetm"),
          "risk": ("msm", "hetf_h", "hetf_l", "hetm")}


@dataclass
class Step:
    label: str
    run: object      # ctx -> outcome
    check: object    # outcome -> (status, detail)
    op: bool = True


def passes_for(workload, seconds):
    return max(1, int(seconds / PASS_SECONDS[workload] + 0.5))


def load_reference(name):
    with open(REF_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------- CSV checks

def _num(s):
    try:
        return float(s)
    except ValueError:
        return None


def _year_key(s):
    t = float(s)
    return f"{t:.1f}" if abs(t - round(t)) < 1e-9 else None


def _half_key(s):
    t = float(s)
    return f"{t:.2f}" if abs(2 * t - round(2 * t)) < 1e-9 else None


def _exact_key(s):
    return s


# How each output file is compared with its reference.  ``key`` maps the
# first ``nkey`` cells of a row to a row key (None drops the row): rows at
# adaptive-step nodes are compared only at whole years, which every
# integrator must hit.  Numbers agree when |a - b| <= rtol * scale + atol,
# scale being the column's largest reference magnitude (at least 1e-3 of the
# file's), so step placement and summation order may move a value but a
# wrong answer may not.  ``loose`` rows (half-year NNT values interpolated
# between yearly nodes) get ``loose_rtol`` of their own magnitude.
CSV_RULES = {
    "trajectory": dict(nkey=1, key=_year_key, rtol=1e-6, atol=0.0),
    "table": dict(nkey=3, key=_exact_key, rtol=1e-6, atol=2e-3),
    "spillover": dict(nkey=1, key=_year_key, rtol=1e-6, atol=0.0),
    "nnt": dict(nkey=3, key=_exact_key, rtol=2e-3, atol=2e-3),
    "baseline_series": dict(nkey=1, key=_exact_key, rtol=1e-6, atol=2e-6),
    "per_person_effects": dict(nkey=1, key=_year_key, rtol=1e-6, atol=0.0),
    "nnt_plot": dict(nkey=1, key=_half_key, rtol=2e-3, atol=2e-3,
                     loose=lambda k: not k.endswith(".00"), loose_rtol=0.05),
    "validation": dict(nkey=3, key=_exact_key, rtol=1e-6, atol=2e-3),
}


def extract_csv(text, rule):
    """Header plus {row key: cells} of the rows a rule keeps."""
    r = CSV_RULES[rule]
    rows = list(csv.reader(io.StringIO(text)))
    out = {}
    for row in rows[1:]:
        k = r["key"](",".join(row[:r["nkey"]]) if r["nkey"] > 1 else row[0])
        if k is not None:
            out[k] = row[r["nkey"]:]
    return {"header": rows[0] if rows else [], "rows": out}


def compare_csv(ref, text, rule):
    """None when ``text`` matches the reference extraction, else a reason."""
    return compare_rows(ref, extract_csv(text, rule), rule)


def compare_rows(ref, got, rule):
    r = CSV_RULES[rule]
    if got["header"] != ref["header"]:
        return f"header {got['header'][:4]}... differs from reference"
    if set(got["rows"]) != set(ref["rows"]):
        missing = sorted(set(ref["rows"]) - set(got["rows"]))[:3]
        extra = sorted(set(got["rows"]) - set(ref["rows"]))[:3]
        return f"row keys differ: missing {missing} extra {extra}"
    ncol = len(ref["header"]) - r["nkey"]
    scale = [0.0] * ncol
    for cells in ref["rows"].values():
        for c, s in enumerate(cells):
            v = _num(s)
            if v is not None and math.isfinite(v):
                scale[c] = max(scale[c], abs(v))
    floor = 1e-3 * max(scale, default=0.0)
    for k, cells in ref["rows"].items():
        new = got["rows"][k]
        loose = r.get("loose") is not None and r["loose"](k)
        for c, (a, b) in enumerate(zip(cells, new)):
            va, vb = _num(a), _num(b)
            if va is None or vb is None:
                if a != b:
                    return f"row {k} column {ref['header'][r['nkey'] + c]}: {b!r} != {a!r}"
                continue
            if loose:
                tol = r["loose_rtol"] * max(abs(va), abs(vb)) + r["atol"]
            else:
                tol = r["rtol"] * max(scale[c], floor) + r["atol"]
            if not abs(va - vb) <= tol:
                return (f"row {k} column {ref['header'][r['nkey'] + c]}: "
                        f"{vb!r} vs reference {va!r} (tol {tol:.3g})")
    return None


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -------------------------------------------------------------------- study

PRESET_COMMANDS = (("simulate",), ("spillover",), ("nnt",), ("ngm", "--json"),
                   ("emit-plots",), ("validate",))
# One file of each preset command and the rule it is compared by.
PRESET_FILES = {
    "simulate": (("trajectory_{v}.csv", "trajectory"), ("table_{v}.csv", "table")),
    "spillover": (("spillover_{v}.csv", "spillover"),),
    "nnt": (("nnt_{v}.csv", "nnt"),),
    "emit-plots": (("baseline_series_{v}.csv", "baseline_series"),
                   ("per_person_effects_{v}.csv", "per_person_effects"),
                   ("nnt_{v}.csv", "nnt_plot"), ("table_{v}.csv", "table")),
    "validate": (("validation.csv", "validation"),),
}
EXPECTED_RC = {"validate": 2}
# The literal risk preset's disease-free equilibrium is closure-infeasible,
# so ``ngm --model risk`` exits 1.  It stays in the workload and counts as a
# failed op; any other outcome of it is checked on its merits.
NGM_RISK_ERROR = "error: closure gives eta_msm"

# The seeded configs of one pass: (variant, allowed arm counts).  Basic
# configs take 7 to 13 ms at the reference speed and risk configs of 3 or 4
# arms 22 to 31 ms, either side of ``simulate --model basic`` (19 ms).  With
# this mix a pass has 17 ops, 8 of them faster than that command and 8
# slower, so the median falls among the runs of that one command.  A median
# between two ops would move with the configs a seed draws (by 7% when the
# variant and arm count were drawn freely).
GEN_CONFIGS = (("basic", (1, 2, 3, 4)),) * 4 + (("risk", (3, 4)),)
ARM_SIZES = (5000, 10000, 20000, 40000)
ARM_STARTS = (2020, 2021, 2022, 2023)
MODES = ("fixed-fraction", "tracked-count")


def arm_key(variant, mode, group, size, start):
    return f"{variant}|{mode}|{group}|{size}|{start}"


def generate_config(rng, variant, arm_counts):
    """A scenario config varying arm sizes, start years and the coverage mode."""
    mode = MODES[int(rng.integers(2))]
    arms = []
    for _ in range(int(rng.choice(arm_counts))):
        arms.append({
            "group": LABELS[variant][int(rng.integers(len(LABELS[variant])))],
            "additional_persons": ARM_SIZES[int(rng.integers(len(ARM_SIZES)))],
            "start_year": ARM_STARTS[int(rng.integers(len(ARM_STARTS)))]})
    return {"schema_version": 1, "model": variant, "intervention_mode": mode,
            "interventions": arms}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check_files(out_dir, variant, files, ref):
    for pattern, rule in files:
        name = pattern.format(v=variant)
        path = out_dir / name
        if not path.exists():
            return f"{name} not written"
        why = compare_csv(ref[f"{variant}/{rule}/{name}"], read_text(path), rule)
        if why:
            return f"{name}: {why}"
    return None


def _check_ngm(variant, rc, stdout, stderr, ref):
    if variant == "risk" and rc == 1 and stderr.startswith(NGM_RISK_ERROR):
        return KNOWN, stderr.strip()
    if rc != 0:
        return WRONG, f"exit {rc}: {stderr.strip()[:200]}"
    got = json.loads(stdout)
    if variant == "risk":
        ok = (math.isfinite(got["rc_numeric"]) and got["rc_numeric"] > 0
              and rel_close(got["rc_closed"], got["rc_numeric"], 1e-9))
        return (OK, "") if ok else (WRONG, "risk R_c closed and numeric disagree")
    want = ref["basic/ngm"]
    if got["closed_method"] != want["closed_method"]:
        return WRONG, f"closed_method {got['closed_method']!r}"
    for key in ("rc_numeric", "rc_closed"):
        if not rel_close(got[key], want[key], 1e-9):
            return WRONG, f"{key} {got[key]!r} vs reference {want[key]!r}"
    for key in ("F", "V"):
        a, b = np.array(got[key]), np.array(want[key])
        if a.shape != b.shape or not np.allclose(a, b, rtol=1e-9, atol=0.0):
            return WRONG, f"{key} differs from reference"
    return OK, ""


def _preset_step(cmd, variant, out_dir, ref):
    argv = [cmd[0], "--model", variant, "--out", str(out_dir), *cmd[1:]]

    def check(outcome):
        rc, stdout, stderr = outcome
        try:
            if cmd[0] == "ngm":
                return _check_ngm(variant, rc, stdout, stderr, ref)
            want = EXPECTED_RC.get(cmd[0], 0)
            if rc != want:
                return WRONG, f"exit {rc}, expected {want}: {stderr.strip()[:200]}"
            why = _check_files(out_dir, variant, PRESET_FILES[cmd[0]], ref)
            return (WRONG, why) if why else (OK, "")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Step(label=f"{' '.join(cmd)} --model {variant}",
                run=lambda ctx: run_cli(argv), check=check)


def _expected_table(raw, ref):
    """Table rows the arm catalog predicts for a generated config."""
    v, mode = raw["model"], raw["intervention_mode"]
    table = ref[f"{v}/table/table_{v}.csv"]["rows"]
    rows = {"0": table["baseline,,0"]}
    for i, arm in enumerate(raw["interventions"], start=1):
        rows[str(i)] = ref["arms"][arm_key(v, mode, arm["group"],
                                           arm["additional_persons"],
                                           arm["start_year"])]
    return rows


def _config_step(path, raw, out_dir, ref):
    v = raw["model"]
    argv = ["simulate", "--config", str(path), "--out", str(out_dir)]

    def check(outcome):
        rc, _, stderr = outcome
        try:
            if rc != 0:
                return WRONG, f"exit {rc}: {stderr.strip()[:200]}"
            name = f"trajectory_{v}.csv"
            why = compare_csv(ref[f"{v}/trajectory/{name}"], read_text(out_dir / name),
                              "trajectory")
            if why:
                return WRONG, f"{name}: {why}"
            # Arms share a row name when only their start years differ, so
            # rows are matched by position against the arm catalog.
            lines = list(csv.reader(io.StringIO(read_text(out_dir / f"table_{v}.csv"))))
            got = {"header": lines[0],
                   "rows": {str(i): row[3:] for i, row in enumerate(lines[1:])}}
            want = {"header": ref[f"{v}/table/table_{v}.csv"]["header"],
                    "rows": _expected_table(raw, ref)}
            why = compare_rows(want, got, "table")
            return (WRONG, f"table_{v}.csv: {why}") if why else (OK, "")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Step(label="simulate --config (seeded)", run=lambda ctx: run_cli(argv),
                check=check)


def study_passes(seed, passes, run_dir):
    ref = load_reference("study")
    rng = np.random.default_rng([seed, 1])
    out = Path(run_dir) / "out"
    cfg_dir = Path(run_dir) / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    plan = []
    for p in range(passes):
        steps = [_preset_step(cmd, v, out / f"{v}-{cmd[0]}", ref)
                 for v in ("basic", "risk") for cmd in PRESET_COMMANDS]
        for i, (variant, arm_counts) in enumerate(GEN_CONFIGS):
            raw = generate_config(rng, variant, arm_counts)
            path = cfg_dir / f"pass{p}-config{i}.json"
            path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
            steps.append(_config_step(path, raw, out / f"config{i}", ref))
        order = rng.permutation(len(steps))
        plan.append([steps[i] for i in order])
    return plan


def study_warmup(run_dir):
    rc, _, err = run_cli(["simulate", "--model", "basic", "--out",
                          str(Path(run_dir) / "out" / "warmup")])
    shutil.rmtree(Path(run_dir) / "out" / "warmup", ignore_errors=True)
    if rc != 0:
        raise RuntimeError(f"warm-up simulate exited {rc}: {err.strip()}")


# -------------------------------------------------------------------- sobol

SOBOL_STUDIES = (("basic", 5, 4), ("risk", 4, 3))   # preset, level, total degree
SOBOL_CROSSCHECK_NODES = 2


def sobol_inputs(study, rng):
    """Seeded uniform intervals.

    basic: the criterion-9 layout, three coverage inputs and one inert input,
    all on the "scale" domain.  risk: scale inputs for the groups with
    baseline coverage, count inputs (persons on PrEP) for the two without.
    Intervals stay inside the clamp-free region, so clamps never occur.
    """
    def scale():
        return float(rng.uniform(-0.5, -0.1)), float(rng.uniform(2.0, 4.0))

    def count():
        return float(rng.uniform(0.0, 5000.0)), float(rng.uniform(20000.0, 50000.0))

    U = sobol.UncertainInput
    if study == "basic":
        return tuple(U(g, *scale()) for g in LABELS["basic"]) + (U(None, *scale()),)
    return (U("msm", *scale()), U("hetf_h", *scale()),
            U("hetf_l", *count(), domain="count"), U("hetm", *count(), domain="count"))


def _sobol_check(spec, y0, inputs, level, degree, nodes_to_check):
    def check(study):
        grid = sobol.build_grid(inputs, level=level)
        if study.n_nodes != grid.n_nodes:
            return WRONG, f"{study.n_nodes} nodes, expected {grid.n_nodes}"
        if study.clamp_count != 0 or study.boundary_affected:
            return WRONG, f"{study.clamp_count} clamps on a clamp-free design"
        years = list(range(2017, 2031))
        if study.years != years:
            return WRONG, f"years {study.years[:3]}..."
        eps0 = {lbl: p.epsilon for (_, p), lbl in zip(spec.groups, spec.labels)}
        inert = [d for d, u in enumerate(inputs)
                 if u.group is None or (u.domain == "scale" and eps0[u.group] == 0.0)]
        for y in years:
            for lbl in spec.labels:
                si = study.indices.get((y, lbl))
                if si is None:
                    return WRONG, f"no indices for ({y}, {lbl})"
                samples = study.samples[(y, lbl)]
                mean = float(np.dot(grid.weights, samples))
                if not rel_close(si.mean, mean, 1e-9):
                    return WRONG, f"({y}, {lbl}) PCE mean {si.mean} vs quadrature {mean}"
                var = float(np.dot(grid.weights, (samples - mean) ** 2))
                if si.variance > var * (1 + 1e-9) + 1e-12:
                    return WRONG, f"({y}, {lbl}) PCE variance exceeds the quadrature variance"
                if not si.defined:
                    continue
                f, t = si.first_order, si.total
                if (np.any(f < -1e-9) or np.any(t > 1 + 1e-9) or np.any(f > t + 1e-9)
                        or f.sum() > 1 + 1e-9):
                    return WRONG, f"({y}, {lbl}) indices out of order: {f} {t}"
                if any(t[d] > 1e-8 for d in inert):
                    return WRONG, f"({y}, {lbl}) inert input has total index {t[inert]}"
        # Independent integrator path: Dormand-Prince at tight tolerance on a
        # few seeded nodes must agree with the ensemble's fixed-step samples.
        # The basic model agrees to ~1e-11; the risk closure's clamp of
        # xi_hetm puts kinks in the RHS that cost RK4 up to ~1.3e-5.
        cfg = IntegratorConfig(t0=2017.0, t_end=2031.0, rtol=1e-10, atol=1e-8)
        fn = sobol.coverage_model_fn(spec, y0, inputs, cfg)
        for i in nodes_to_check:
            _, table = fn(grid.nodes[i])
            for yi, y in enumerate(years):
                for gi, lbl in enumerate(spec.labels):
                    got = study.samples[(y, lbl)][i]
                    if not abs(got - table[yi, gi]) <= 1e-4 * max(abs(table[yi, gi]), 1.0):
                        return WRONG, (f"node {i} ({y}, {lbl}): ensemble {got} vs "
                                       f"Dormand-Prince {table[yi, gi]}")
        return OK, ""
    return check


def sobol_passes(seed, passes, run_dir):
    rng = np.random.default_rng([seed, 2])
    presets = {"basic": georgia_basic(), "risk": georgia_risk()}
    plan = []
    for _ in range(passes):
        steps = []
        for name, level, degree in SOBOL_STUDIES:
            spec, y0 = presets[name]
            inputs = sobol_inputs(name, rng)
            n_nodes = level ** len(inputs)
            picks = [int(i) for i in rng.choice(n_nodes, SOBOL_CROSSCHECK_NODES,
                                                replace=False)]

            def run(ctx, spec=spec, y0=y0, inputs=inputs, level=level, degree=degree):
                return sobol.sobol_timeseries(spec, y0, inputs, level=level,
                                              total_degree=degree)

            steps.append(Step(label=f"sobol {name} L{level}/d{degree}", run=run,
                              check=_sobol_check(spec, y0, inputs, level, degree, picks)))
        plan.append(steps)
    return plan


def sobol_warmup(run_dir):
    spec, y0 = georgia_basic()
    ins = tuple(sobol.UncertainInput(g, -0.5, 4.0) for g in LABELS["basic"])
    sobol.sobol_timeseries(spec, y0, ins, level=2, total_degree=1)


# -------------------------------------------------------------------- probe

PROBE_TARGET_RC = 0.9
PROBE_SEED_CATALOG = 256     # trial seeds 0..255 have stored reference results
# Final horizons of the one-trial decay probes in one pass, per spec.  A
# trial's seed alone decides whether its probe stops at 1024, 2048 or 4096
# years, so drawing seeds freely would make a run's work swing by ~12%
# between benchmark seeds.  Each pass instead draws one seed from each
# horizon class of the catalog (two from the common 2048 class); the seed
# still picks the trial states.
PROBE_DECAY_HORIZONS = (1024.0, 2048.0, 2048.0, 4096.0)


def stationary_risk():
    """Risk preset with recruitment balanced to the 2017 populations
    (Pi_j = mu * N0_j), whose disease-free equilibrium closes feasibly."""
    spec, y0 = georgia_risk()
    N0 = y0.N
    groups = tuple((gid, replace(p, Pi=spec.mu * N0[i]))
                   for i, (gid, p) in enumerate(spec.groups))
    return replace(spec, groups=groups)


def probe_specs():
    """delta = 0 specs the probes run on: basic preset and stationary risk."""
    return {"basic": georgia_basic()[0].with_delta_zero(),
            "risk": stationary_risk().with_delta_zero()}


def _tune_step(name, spec0, ref):
    def run(ctx):
        m = reproduction.tune_multiplier_to_rc(spec0, PROBE_TARGET_RC)
        ctx[name] = reproduction.scale_transmission(spec0, m)
        return m

    def check(m):
        if not rel_close(m, ref["multiplier"][name], 1e-7):
            return WRONG, f"multiplier {m!r} vs reference {ref['multiplier'][name]!r}"
        return OK, ""

    return Step(label=f"tune {name} to R_c={PROBE_TARGET_RC}", run=run, check=check,
                op=False)


def _growth_step(name, spec0, seed, ref):
    want = ref["growth"][name]

    def check(rep):
        if not (rep.regime == "growth" and rep.confirmed and rep.conclusive
                and rep.horizon == want["horizon"]
                and rel_close(rep.rc_hat, want["rc_hat"], 1e-9)
                and rel_close(rep.max_terminal_ratio, want["ratio"], 1e-5)):
            return WRONG, f"growth report {rep} vs reference {want}"
        return OK, ""

    return Step(label=f"growth probe {name}",
                run=lambda ctx: reproduction.stability_probe(spec0, seed=seed),
                check=check)


def _decay_step(name, seed, ref):
    horizon, ratio = ref["decay"][name][seed]

    def check(rep):
        if not (rep.regime == "decay" and rep.confirmed and rep.conclusive
                and rep.n_trials == 1 and rep.horizon == horizon
                and rel_close(rep.rc_hat, PROBE_TARGET_RC, 1e-9)
                and rel_close(rep.max_terminal_ratio, ratio, 1e-4)):
            return WRONG, (f"trial seed {seed}: decay report {rep} vs reference "
                           f"horizon {horizon}, ratio {ratio}")
        return OK, ""

    return Step(label=f"decay probe {name} {horizon:.0f}y",
                run=lambda ctx: reproduction.stability_probe(ctx[name], n_trials=1,
                                                             seed=seed),
                check=check)


def probe_passes(seed, passes, run_dir):
    ref = load_reference("probe")
    rng = np.random.default_rng([seed, 3])
    specs = probe_specs()
    classes = {name: {h: [s for s, (hs, _) in enumerate(ref["decay"][name]) if hs == h]
                      for h in set(PROBE_DECAY_HORIZONS)} for name in specs}
    plan = []
    for _ in range(passes):
        steps = [_tune_step(n, s, ref) for n, s in specs.items()]
        steps += [_growth_step(n, s, int(rng.integers(1 << 30)), ref)
                  for n, s in specs.items()]
        for name in specs:
            steps += [_decay_step(name, int(rng.choice(classes[name][h])), ref)
                      for h in PROBE_DECAY_HORIZONS]
        plan.append(steps)
    return plan


def probe_warmup(run_dir):
    reproduction.stability_probe(probe_specs()["basic"], seed=0)


PLANS = {"study": (study_passes, study_warmup),
         "sobol": (sobol_passes, sobol_warmup),
         "probe": (probe_passes, probe_warmup)}
