"""Config-driven scenario batches, golden-table validation, and file outputs.

A scenario config names the model variant, optional parameter overrides,
a burn-in/intervention/report window, and a list of interventions, each
adding a person count to one group's PrEP coverage at the intervention year:
eps_k <- eps_k0 + dE_k / S_k(start).  Coverage is set once at the start and
held (``fixed-fraction``); ``tracked-count`` instead re-derives eps from the
running susceptible pool at every step.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError, SchemaViolation, UnknownGroup
from .integrators import (NODE_TOL, IntegratorConfig, Trajectory, csv_text, integrate,
                          interp_rows, node_index, write_csv)
# the one file writer, under the name tracers rebind for the non-CSV outputs
from .integrators import write_text as _write
from .model import VARIANTS, ModelSpec, StateVec
from .presets import (INTERVENTION_START, REPORT_END, SIM_START, STUDIES,
                      combine_reported)
# nnt stays importable from here for tracers that rebind scenarios.nnt
from .spillover import block, integrate_with_spillover, nnt, simple_nnt  # noqa: F401
from .sobol import QuadratureGrid, UncertainInput, sobol_timeseries

SCHEMA_VERSION = 1
NNT_DISPLAY_CAP = 1e5  # person-years; larger values are suppressed in plot data
SOBOL_INTERVAL = (-0.5, 4.0)  # default bounds of each group's coverage-scale input


@dataclass(frozen=True)
class Intervention:
    group: str
    additional_persons: float
    start_year: float


@dataclass(frozen=True)
class ScenarioConfig:
    variant: str
    start: float
    intervention_year: float
    end: float
    interventions: tuple
    spec: ModelSpec       # the Georgia preset of the variant plus overrides
    y0: StateVec          # its initial state plus initial_conditions
    intervention_mode: str = "fixed-fraction"
    integrator: IntegratorConfig = None  # spans [start, end]
    raw: dict = field(default_factory=dict)

    def content_hash(self):
        import hashlib  # here, so a run that prints no hash loads no OpenSSL

        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_config(variant):
    """Config reproducing the published study for a variant."""
    # no arms for an unknown variant, which _config_from_raw refuses
    arms = STUDIES[variant].interventions if variant in STUDIES else ()
    raw = {
        "schema_version": SCHEMA_VERSION,
        "model": variant,
        "horizon": {"start": SIM_START, "intervention": INTERVENTION_START,
                    "end": REPORT_END},
        "interventions": [
            {"group": g, "additional_persons": d, "start_year": INTERVENTION_START}
            for g, d in arms],
    }
    return _config_from_raw(raw)


def load_config(path):
    """Parse and validate a JSON scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
        raise ParseError(f"config {path} is not valid JSON: {e}") from e
    return _config_from_raw(raw)


def _guarded(key, build, /, *args, **kwargs):
    """build(*args, **kwargs), a TypeError, ValueError or OverflowError from
    it reported as a SchemaViolation naming ``key`` (any keyword, a config's
    own ``key`` or ``build`` too, goes to build)."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaViolation(f"{key}: {e}", key=key) from e


def _number(value, key):
    """``value`` as a float if it is an int or a float (a bool is neither),
    else a SchemaViolation naming ``key``."""
    if type(value) not in (int, float):
        raise SchemaViolation(f"{key}: must be a number, got {value!r}", key=key)
    return _guarded(key, float, value)


def _known(obj, allowed, key):
    """The object ``obj``, refused as a SchemaViolation naming ``key`` if it
    holds a key outside ``allowed``."""
    if bad := obj.keys() - allowed:
        raise SchemaViolation(f"unknown {key} keys {sorted(bad)}", key=key)
    return obj


def _section(parent, key, prefix="", allowed=None):
    """The object at parent[key], {} when absent or null; the section is
    reported as prefix + key, and any key of it outside ``allowed`` (unless
    None) refused."""
    sec = parent.get(key)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise SchemaViolation(f"{prefix}{key} must be an object", key=prefix + key)
    return sec if allowed is None else _known(sec, allowed, prefix + key)


def _merged(record, parent, key, prefix, allowed=None):
    """Dataclass ``record`` with the numbers in the section parent[key] put in."""
    vals = _section(parent, key, prefix, allowed)
    key = prefix + key
    nums = {k: _number(v, f"{key}.{k}") for k, v in vals.items()}
    return _guarded(key, replace, record, **nums) if nums else record


def _config_from_raw(raw):
    """The one reading of the config schema: every value is checked, and the
    spec and initial state built, here."""
    if not isinstance(raw, dict):
        raise SchemaViolation("config root must be an object", key="<root>")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaViolation(f"unsupported schema_version {version}",
                              key="schema_version")
    _known(raw, {"schema_version", "model", "horizon", "interventions", "intervention_mode",
                 "integrator", "overrides", "initial_conditions"}, "config")
    variant = raw.get("model", "basic")
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise SchemaViolation(f"model must be {' or '.join(map(repr, VARIANTS))}, "
                              f"got {variant!r}", key="model")
    labels = VARIANTS[variant].GROUPS

    hor = _section(raw, "horizon", allowed={"start", "intervention", "end"})
    start = _number(hor.get("start", SIM_START), "horizon.start")
    inter = _number(hor.get("intervention", INTERVENTION_START), "horizon.intervention")
    end = _number(hor.get("end", REPORT_END), "horizon.end")
    if not (-math.inf < start <= inter < end < math.inf):
        raise SchemaViolation(
            f"horizon must be finite, start <= intervention < end, got {start}, {inter}, {end}",
            key="horizon")

    items = raw.get("interventions", [])
    if not isinstance(items, list):
        raise SchemaViolation("interventions must be a list", key="interventions")
    arms = []
    for i, item in enumerate(items):
        key = f"interventions[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolation("intervention must be an object", key=key)
        _known(item, {"group", "additional_persons", "start_year"}, key)
        g = item.get("group")
        if g not in labels:
            raise UnknownGroup(f"{key}.group: no group {g!r} in variant {variant!r}")
        persons = item.get("additional_persons")
        dE = _number(persons, f"{key}.additional_persons")
        if not 0.0 <= dE < math.inf:
            raise SchemaViolation(
                f"{key}.additional_persons must be a finite nonnegative number, got {persons!r}",
                key=f"{key}.additional_persons")
        sy = _number(item.get("start_year", inter), f"{key}.start_year")
        if not (start <= sy < end):
            raise SchemaViolation(f"{key}.start_year {sy} outside horizon",
                                  key=f"{key}.start_year")
        arms.append(Intervention(group=g, additional_persons=dE, start_year=sy))

    mode = raw.get("intervention_mode", "fixed-fraction")
    if mode not in ("fixed-fraction", "tracked-count"):
        raise SchemaViolation(f"unknown intervention_mode {mode!r}",
                              key="intervention_mode")

    icfg = _merged(IntegratorConfig(start, end), raw, "integrator", "",
                   {"rtol", "atol", "dt_min", "dt_max"})

    spec, y0 = STUDIES[variant].preset()
    overrides = _section(raw, "overrides", allowed={"mu", "probs", "mixing_priors", "groups"})
    if "mu" in overrides:
        mu = _number(overrides["mu"], "overrides.mu")
        spec = _guarded("overrides.mu", replace, spec, mu=mu)
    groups = _section(overrides, "groups", "overrides.")
    for g in groups:
        if g not in labels:
            raise UnknownGroup(f"overrides.groups: no group {g!r} in variant {variant!r}")
    spec = replace(spec, probs=_merged(spec.probs, overrides, "probs", "overrides."),
                   mixing_priors=_merged(spec.mixing_priors, overrides, "mixing_priors",
                                         "overrides."),
                   groups=tuple((g, _merged(p, groups, g, "overrides.groups."))
                                for g, p in spec.groups))

    ics = _section(raw, "initial_conditions")
    S, I = list(y0.S), list(y0.I)
    for g in ics:
        key = f"initial_conditions.{g}"
        if g not in labels:
            raise UnknownGroup(f"initial_conditions: no group {g!r} in variant {variant!r}")
        vals = _section(ics, g, "initial_conditions.", {"S", "I"})
        if not {"S", "I"} <= vals.keys():
            raise SchemaViolation(f"{key} needs S and I", key=key)
        i = labels.index(g)
        S[i], I[i] = _number(vals["S"], f"{key}.S"), _number(vals["I"], f"{key}.I")
        y0 = _guarded(key, StateVec.make, S, I)

    return ScenarioConfig(variant=variant, start=start, intervention_year=inter,
                          end=end, interventions=tuple(arms), spec=spec, y0=y0,
                          intervention_mode=mode, integrator=icfg, raw=raw)


def _baseline_samples(config):
    """The baseline's sample times: the intervention year and every arm's
    start year."""
    return [config.intervention_year] + [arm.start_year for arm in config.interventions]


def integrate_baseline(config):
    """The config's no-intervention run over [start, end], with a node at
    the intervention year and at every arm's start year, so the arms start
    from, and take window incidence at, stored rows."""
    return integrate(config.spec, config.y0, config.integrator,
                     sample_times=_baseline_samples(config))


def run_spillover(config, mode="practical", sample_times=None):
    """Sensitivities to every group's coverage over [intervention, end],
    started from the baseline state at the intervention year, with nodes at
    ``sample_times`` besides the whole years.

    Returns the joint run's Trajectory (spillover.block reads a source's
    sensitivities).  Only the baseline's head is integrated, over [start,
    intervention], with the baseline's whole years and sample times up to
    the intervention year: its steps are the full baseline's up to there,
    so the start state is the same bits as the full baseline's.  With the
    intervention at the start it is y0 itself.
    """
    t_int = config.intervention_year
    if t_int == config.start:
        y_int = config.y0
    else:
        head = integrate(config.spec, config.y0, config.integrator.over(config.start, t_int),
                         sample_times=[t for t in _baseline_samples(config) if t <= t_int])
        y_int = head.final_state()
    return integrate_with_spillover(config.spec, y_int, config.integrator.over(t_int, config.end),
                                    mode=mode, sample_times=sample_times)


@dataclass
class ScenarioResult:
    name: str
    group: str
    additional_persons: float
    incidence: dict       # reported columns -> window incidence
    prevented: dict       # reported columns -> infections prevented vs baseline


@dataclass
class RunReport:
    variant: str
    window: tuple
    baseline: ScenarioResult
    scenarios: list
    baseline_traj: Trajectory  # the baseline over [start, end]


def year_text(t):
    """The shortest text that reads back as the year t (repr of the float),
    less a trailing ".0": 2021 -> "2021", 2020.125 -> "2020.125"."""
    return repr(float(t)).removesuffix(".0")


def _window_incidence(traj, spec, t0, t1):
    """C(t1) - C(t0) per group as Python floats, read at stored nodes
    (Trajectory.node, which refuses any other t), never interpolated."""
    n = spec.n
    c0, c1 = (traj.states[traj.node(t), 2 * n:3 * n].tolist() for t in (t0, t1))
    return [b - a for a, b in zip(c0, c1)]


def run_scenarios(config):
    """Baseline plus every configured intervention arm.

    Interventions raise group coverage at their start year by
    additional_persons / S_k(start); incidence is aggregated over
    [intervention_year, end] per reported group.  Only the baseline lands on
    whole years: an arm, read at its window ends alone, steps freely to t_end
    from its start year with its window start as its one sample time,
    starting with the baseline's step at its start node.
    Arm names, unique in a report: prep_<group>_<int persons>, _<start year>
    unless it is the intervention year, and #<m> for the m-th of that name.
    """
    spec, icfg = config.spec, config.integrator
    t_int, t_end = config.intervention_year, config.end
    n = spec.n

    base_traj = integrate_baseline(config)
    base_inc = _window_incidence(base_traj, spec, t_int, t_end)
    base_cols = combine_reported(config.variant, base_inc)
    baseline = ScenarioResult(name="baseline", group="", additional_persons=0.0,
                              incidence=base_cols,
                              prevented={k: 0.0 for k in base_cols})

    # per start year t (a sample time of the baseline, so a node), shared by
    # the arms starting then: the baseline's row at t as a list and as a
    # state; the arms' integrator settings, stepping freely from t to t_end
    # and continuing the baseline with its step ending at t (the first one
    # at t0); and the baseline's incidence over [t_int, t] for t past t_int
    starts = {}
    for t in dict.fromkeys(arm.start_year for arm in config.interventions):
        i = base_traj.node(t)
        row = base_traj.states[i].tolist()
        h0, h1 = base_traj.times[max(i, 1) - 1:max(i, 1) + 1].tolist()
        arm_cfg = IntegratorConfig(float(t), float(t_end), icfg.rtol, icfg.atol, icfg.dt_min,
                                   icfg.dt_max, year_nodes=False, first_step=h1 - h0)
        pre = _window_incidence(base_traj, spec, t_int, t) if t > t_int else None
        starts[t] = row, StateVec.from_flat(row, n), arm_cfg, pre

    results, seen = [], {}
    for arm in config.interventions:
        k = spec.group_index(arm.group)
        window = max(arm.start_year, t_int)
        row, start_state, arm_cfg, pre = starts[arm.start_year]
        S_k = row[2 * k]
        arm_spec, counts = spec, None
        if config.intervention_mode == "fixed-fraction":
            # as with tracked counts: persons added to an empty pool cover it
            eps_k = spec.groups[k][1].epsilon
            if arm.additional_persons > 0.0:
                eps_k = min(eps_k + arm.additional_persons / S_k, 1.0) if S_k > 0.0 else 1.0
            arm_spec = spec.with_epsilon({arm.group: eps_k})
        else:
            counts = [0.0] * n
            counts[k] = spec.groups[k][1].epsilon * S_k + arm.additional_persons
        traj = integrate(arm_spec, start_state, arm_cfg, sample_times=[window],
                         tracked_counts=counts)
        inc = _window_incidence(traj, spec, window, t_end)
        if pre is not None:  # add the pre-intervention part of the window from baseline
            inc = [a + b for a, b in zip(inc, pre)]
        cols = combine_reported(config.variant, inc)
        prevented = {key: base_cols[key] - cols[key] for key in cols}
        name = f"prep_{arm.group}_{int(arm.additional_persons)}" + (
            f"_{year_text(arm.start_year)}" if arm.start_year != t_int else "")
        seen[name] = seen.get(name, 0) + 1
        results.append(ScenarioResult(
            name=name if seen[name] == 1 else f"{name}#{seen[name]}",
            group=arm.group, additional_persons=arm.additional_persons,
            incidence=cols, prevented=prevented))

    return RunReport(variant=config.variant, window=(t_int, t_end),
                     baseline=baseline, scenarios=results, baseline_traj=base_traj)


def report_to_csv(report, path):
    cols = list(STUDIES[report.variant].reported) + ["total"]
    header = ["scenario", "group", "additional_persons"]
    for c in cols:
        header += [f"incidence_{c}", f"prevented_{c}"]

    def rows():
        for r in [report.baseline] + report.scenarios:
            row = [r.name, r.group, int(r.additional_persons)]
            for c in cols:
                row += [f"{r.incidence[c]:.3f}", f"{r.prevented[c]:.3f}"]
            yield row

    write_csv(path, header, rows())


@dataclass
class CellCheck:
    table: str
    row: str
    cell: str
    expected: float
    actual: float
    tolerance: float
    ok: bool


@dataclass
class ValidationReport:
    cells: list

    @property
    def all_pass(self):
        return all(c.ok for c in self.cells)

    def failures(self):
        return [c for c in self.cells if not c.ok]

    def to_csv(self, path):
        write_csv(path,
                  ["table", "row", "cell", "expected", "actual", "tolerance", "status"],
                  ([c.table, c.row, c.cell, f"{c.expected:.3f}", f"{c.actual:.3f}",
                    f"{c.tolerance:.3f}", "ok" if c.ok else "FAIL"] for c in self.cells))


def validate_tables():
    """Run every published intervention study and diff against its golden tables.

    Baseline cells are held to +/-2 percent; each intervention row's
    "infections prevented" to +/-5 percent or +/-25 persons, whichever is
    larger.  Returns a per-cell report; nothing is raised on failure.
    """
    def check(variant, row, cell, exp, act, tol):
        return CellCheck(table=f"table_{variant}", row=row, cell=cell, expected=exp,
                         actual=act, tolerance=tol, ok=abs(act - exp) <= tol)

    cells = []
    for variant, study in STUDIES.items():
        report = run_scenarios(default_config(variant))
        for c in study.baseline_cells:
            exp = study.baseline[c]
            cells.append(check(variant, "baseline", c, exp, report.baseline.incidence[c],
                               0.02 * exp))
        for r in report.scenarios:
            group, persons = r.group, int(r.additional_persons)
            exp = study.interventions[(group, persons)]["prevented"]
            cells.append(check(variant, f"{group}+{persons}", "prevented_total", exp,
                               r.prevented["total"], max(0.05 * exp, 25.0)))
    return ValidationReport(cells=cells)


def _suppressed_json(cap, suppressed):
    """json.dumps({"display_cap": cap, "suppressed": suppressed}, indent=1,
    sort_keys=True), byte for byte, written directly: cap and each entry's
    "T" finite floats, its "j", "k" and "reason" strings."""
    q = encode_basestring_ascii
    entries = [f'  {{\n   "T": {s["T"]!r},\n   "j": {q(s["j"])},\n   "k": {q(s["k"])},\n'
               f'   "reason": {q(s["reason"])}\n  }}' for s in suppressed]
    listed = "[\n" + ",\n".join(entries) + "\n ]" if entries else "[]"
    return f'{{\n "display_cap": {cap!r},\n "suppressed": {listed}\n}}'


def emit_plot_data(out_dir, config):
    """Write the figure-analog CSV bundle for one config; file names carry
    the config's variant.

    The bundle: baseline_series (prevalence and annual incidence), the
    per-person incidence effects over time, the NNT curves (undefined or
    excessive values are left empty, with a sidecar note) and the scenario
    incidence table.  One run_scenarios gives the baseline and the table;
    the spillover system starts from the baseline's row at the intervention
    year.  Every file is built before out_dir is made, so a refusal writes
    nothing.  Paths come in that order, the table last.  Outputs are
    deterministic: reruns give identical bytes.
    """
    variant, labels = config.variant, config.spec.labels
    n = len(labels)
    report = run_scenarios(config)
    base_traj = report.baseline_traj
    t_int = config.intervention_year  # run_spillover's head gives this row bit for bit
    traj = integrate_with_spillover(config.spec, base_traj.state_at(t_int),
                                    config.integrator.over(t_int, config.end))
    S = traj.states[:, 0:2 * n:2]

    # the whole calendar years inside [start, end]; every year is a node
    t0, t1 = base_traj.times[0], base_traj.times[-1]
    first, last = math.ceil(t0 - NODE_TOL), math.floor(t1 + NODE_TOL)
    at = base_traj.states[[base_traj.node(float(y)) for y in range(first, last + 1)]]
    header = (["year"] + [f"prevalence_{l}" for l in labels]
              + [f"annual_incidence_{l}" for l in labels])
    rows = [[y] + [f"{v:.6f}" for v in prev] + [f"{v:.6f}" for v in row]
            for y, prev, row in zip(range(first, last), at[:-1, 1:2 * n:2].tolist(),
                                    (at[1:, 2 * n:3 * n] - at[:-1, 2 * n:3 * n]).tolist())]
    texts = [(f"baseline_series_{variant}.csv", csv_text(header, rows))]

    # gamma_j / S_k per node, j within the block of source k; where S_k <= 0
    # it has no value (nnt's rule), and source k's cells at that node are empty
    empty = S <= 0.0
    effects = np.concatenate([block(traj, k)[:, 1::2] / np.where(empty[:, [c]], 1.0, S[:, [c]])
                              for c, k in enumerate(labels)], axis=1)
    header = ["t"] + [f"per_person_{j}__{k}" for k in labels for j in labels]
    rows = [[f"{t:.6f}"] + ["" if gap else f"{v:.10e}" for v, gap in zip(row, gaps)]
            for t, row, gaps in zip(traj.times.tolist(), effects.tolist(),
                                    np.repeat(empty, n, axis=1).tolist())]
    texts.append((f"per_person_effects_{variant}.csv", csv_text(header, rows)))

    suppressed = []
    pairs = [(jl, k) for k in labels for jl in labels]
    header = ["T"] + [f"nnt_{jl}__{k}" for jl, k in pairs]
    rows = []
    # S_k, then gamma_j of each source block in pair order, per node
    table = np.concatenate([S] + [block(traj, k)[:, 1::2] for k in labels], axis=1)
    # every half year T <= end - t_int, within NODE_TOL of float noise
    horizons = [0.5 * i for i in range(1, int(2 * (config.end - t_int + NODE_TOL)) + 1)]
    # per node, the sources whose pool was empty at it or at a node before
    dry = np.logical_or.accumulate(empty, axis=0).tolist()
    for T in horizons:
        # nnt()'s nnt_simple from S_k and gamma_j at the horizon's node, else
        # the package's one read between nodes, linear (ROADMAP item 2);
        # undefined, as in nnt(), for a source empty at a node of the window
        t = traj.times[0] + T
        i = node_index(traj.times, t)
        at = (table[i] if i is not None else interp_rows(t, traj.times, table)).tolist()
        gone = dry[int(np.searchsorted(traj.times, t + NODE_TOL, side="right")) - 1]
        row = [f"{T:.2f}"]
        for p, (jl, k) in enumerate(pairs):
            simple = None if gone[p // n] else simple_nnt(T, at[p // n], at[n + p])
            if simple is None or simple > NNT_DISPLAY_CAP:
                row.append("")
                suppressed.append({"T": T, "j": jl, "k": k,
                                   "reason": "undefined" if simple is None
                                   else "excessive"})
            else:
                row.append(f"{simple:.3f}")
        rows.append(row)
    texts.append((f"nnt_{variant}.csv", csv_text(header, rows)))
    texts.append((f"nnt_{variant}_suppressed.json", _suppressed_json(NNT_DISPLAY_CAP, suppressed)))

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in texts:
        paths.append(os.path.join(out_dir, name))
        _write(paths[-1], text)
    paths.append(os.path.join(out_dir, f"table_{variant}.csv"))
    report_to_csv(report, paths[-1])
    return paths


def sobol_study(config, level, degree, lo=SOBOL_INTERVAL[0], hi=SOBOL_INTERVAL[1]):
    """The coverage Sobol study of a config: one "scale" input per group on
    [lo, hi], integrated over the config's window and tolerances."""
    inputs = tuple(UncertainInput(group=l, lo=lo, hi=hi) for l in config.spec.labels)
    return sobol_timeseries(config.spec, config.y0, inputs, level=level,
                            total_degree=degree, cfg=config.integrator)


def write_sobol(study, out_dir, variant):
    """Write sobol_<variant>.csv and its manifest into out_dir; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)

    def rows():
        for (year, lbl), si in sorted(study.indices.items()):
            for d, u in enumerate(study.inputs):
                name = u.group if u.group is not None else f"null_{d}"
                yield [year, lbl, name,
                       f"{si.first_order[d]:.10f}" if si.defined else "",
                       f"{si.total[d]:.10f}" if si.defined else "",
                       f"{si.mean:.6f}", f"{si.variance:.6f}"]

    path = os.path.join(out_dir, f"sobol_{variant}.csv")
    write_csv(path, ["year", "output_group", "input", "first_order", "total",
                     "mean", "variance"], rows())
    man = os.path.join(out_dir, f"sobol_{variant}_manifest.json")
    _write(man, json.dumps(sobol_manifest(study), indent=1, sort_keys=True))
    return [path, man]


def sobol_manifest(study):
    return {
        "rule": QuadratureGrid.rule,
        "level": study.grid_level,
        "node_count": study.n_nodes,
        "clamp_count": study.clamp_count,
        "boundary_affected": study.boundary_affected,
        "integrator": {"rtol": study.rtol, "atol": study.atol},
        "rhs_evals": study.rhs_evals,
        "steps_accepted": study.steps_accepted,
        "steps_rejected": study.steps_rejected,
        "members": study.members,
        "inputs": [
            {"group": u.group, "lo": u.lo, "hi": u.hi, "domain": u.domain}
            for u in study.inputs],
    }
