"""Outside-in tracing of the package's layers.

``install`` rebinds the public functions of each layer in every module
namespace that imported them, so the package's own internal calls are seen
without any change to the package.  Spans stay in memory and are written
when the run ends.  A span's self time is its duration minus the part its
child spans and leaf calls cover.

Leaf calls -- right-hand-side evaluations and mixing-closure solves, up to
millions per run -- are not kept as spans.  They are counted and timed into
the integrate_flat span (or, for closure solves, the enclosing span) they
occur in.
"""

from __future__ import annotations

import functools
import json
import os
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []         # finished spans, see close()
        self.stack = []         # open frames
        self.leaf = [0]         # ns in leaf calls: RHS evaluations and closure
                                # solves made outside an RHS evaluation
        self.closure = [0, 0]   # closure solves: calls, ns
        self.op = 0             # id of the op span the current spans belong to
        self.violations = []    # integrate_flat calls breaking a step identity
        self._next = 1
        self._bindings = []   # (owner, attribute, original, wrapper)

    def open(self, name):
        fr = {"id": self._next, "name": name, "child_ns": 0, "child_leaf": 0,
              "parent": self.stack[-1]["id"] if self.stack else 0, "attrs": {}}
        self._next += 1
        if not self.stack:
            self.op = fr["id"]
        self.stack.append(fr)
        fr["leaf0"] = self.leaf[0]
        fr["start"] = _now()
        return fr

    def close(self, fr):
        end = _now()
        self.stack.pop()
        dur = end - fr["start"]
        dleaf = self.leaf[0] - fr["leaf0"]
        if self.stack:
            self.stack[-1]["child_ns"] += dur
            self.stack[-1]["child_leaf"] += dleaf
        self.spans.append({
            "id": fr["id"], "parent": fr["parent"], "op": self.op, "name": fr["name"],
            "start_ns": fr["start"], "dur_ns": dur,
            "self_ns": dur - fr["child_ns"] - (dleaf - fr["child_leaf"]),
            **fr["attrs"]})

    # ---------------------------------------------------------- wrappers

    def span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            fr = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                fr["attrs"]["error"] = type(e).__name__
                raise
            finally:
                tracer.close(fr)
            if after is not None:
                after(tracer.spans[-1], args, kwargs, result)
            return result

        return wrapped

    def closure_solve(self, fn):
        closure, leaf = self.closure, self.leaf

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                closure[0] += 1
                closure[1] += dt
                leaf[0] += dt

        return wrapped

    def integrate_flat(self, fn, kind):
        """integrate_flat whose RHS is counted and timed; ``kind`` says whose
        RHS the namespace passes in ("model" flat RHS or spillover "aug")."""
        tracer = self
        closure, leaf = self.closure, self.leaf

        @functools.wraps(fn)
        def wrapped(f, y0, cfg, n_state, sample_times=None):
            # evaluations, their ns, evaluations solving a closure, that closure ns
            st = [0, 0, 0, 0]

            def rhs(t, y):
                c0, cns0 = closure[0], closure[1]
                t0 = _now()
                r = f(t, y)
                dt = _now() - t0
                st[0] += 1
                st[1] += dt
                if closure[0] != c0:
                    inner = closure[1] - cns0
                    st[2] += 1
                    st[3] += inner
                    dt -= inner   # already counted as leaf time by the closure wrapper
                leaf[0] += dt
                return r

            fr = tracer.open("integrators.integrate_flat")
            fr["attrs"].update(kind=kind, method=cfg.method, t0=cfg.t0,
                               t_end=cfg.t_end, dim=len(y0))
            try:
                result = fn(rhs, y0, cfg, n_state, sample_times=sample_times)
            except BaseException as e:
                fr["attrs"]["error"] = type(e).__name__
                raise
            finally:
                fr["attrs"].update(rhs_evals=st[0], rhs_ns=st[1], rhs_closure_evals=st[2],
                                   rhs_closure_ns=st[3])
                tracer.close(fr)
            tracer._steps(tracer.spans[-1], len(result[0]) - 1)
            return result

        return wrapped

    def _steps(self, span, accepted):
        """Accepted and rejected steps derived from the RHS count.

        RK4 evaluates 4 stages per step.  Dormand-Prince evaluates once at the
        start and 6 new stages per attempt (FSAL), so attempts = (evals - 1) / 6.
        """
        n = span["rhs_evals"]
        if span["method"] == "rk4_fixed":
            ok = n == 4 * accepted
            rejected = 0
        else:
            attempts, rem = divmod(n - 1, 6)
            ok = rem == 0 and attempts >= accepted
            rejected = attempts - accepted
        span.update(accepted=accepted, rejected=rejected)
        if not ok:
            self.violations.append({"span": span["id"], "method": span["method"],
                                    "rhs_evals": n, "accepted": accepted})

    # ------------------------------------------------------- installation

    def _rebind(self, owner, attr, new):
        self._bindings.append((owner, attr, getattr(owner, attr), new))

    def install(self):
        """Put the wrappers in place; uninstall() takes them out again."""
        if not self._bindings:
            self._wrap_all()
        for owner, attr, _, new in self._bindings:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in self._bindings:
            setattr(owner, attr, old)

    def _wrap_all(self):
        from prepspill import (cli, integrators, model, reproduction, scenarios,
                               sobol, spillover)

        def file_bytes(path_arg):
            def after(span, args, kwargs, result):
                path = path_arg(args, kwargs)
                if isinstance(path, (str, os.PathLike)):
                    span["bytes"] = os.path.getsize(path)
            return after

        def probe_after(span, args, kwargs, rep):
            span.update(n_trials=rep.n_trials, horizon=rep.horizon, regime=rep.regime)

        def scenarios_after(span, args, kwargs, report):
            span.update(variant=report.variant, arms=len(report.scenarios))

        csv_writers = (
            (cli, "report_to_csv", lambda a, k: a[1]),
            (scenarios, "report_to_csv", lambda a, k: a[1]),
            (cli, "sensitivity_to_csv", lambda a, k: a[2]),
            (scenarios, "_write", lambda a, k: a[0]),
            (integrators.Trajectory, "to_csv", lambda a, k: a[1]),
            (scenarios.ValidationReport, "to_csv", lambda a, k: a[1]),
        )
        for owner, attr, path_arg in csv_writers:
            self._rebind(owner, attr, self.span("scenarios.write_csv", getattr(owner, attr),
                                                file_bytes(path_arg)))
        spans = (
            (cli, "main", "cli.main", None),
            (cli, "run_scenarios", "scenarios.run_scenarios", scenarios_after),
            (scenarios, "run_scenarios", "scenarios.run_scenarios", scenarios_after),
            (cli, "emit_plot_data", "scenarios.emit_plot_data", None),
            (cli, "validate_tables", "scenarios.validate_tables", None),
            (cli, "nnt", "spillover.nnt", None),
            (scenarios, "nnt", "spillover.nnt", None),
            (cli, "build_ngm", "reproduction.build_ngm", None),
            (reproduction, "build_ngm", "reproduction.build_ngm", None),
            (cli, "rc_numeric", "reproduction.rc_numeric", None),
            (reproduction, "rc_numeric", "reproduction.rc_numeric", None),
            (cli, "rc_closed", "reproduction.rc_closed", None),
            (reproduction, "stability_probe", "reproduction.stability_probe", probe_after),
            (reproduction, "tune_multiplier_to_rc", "reproduction.tune_multiplier_to_rc",
             None),
            (sobol, "sobol_timeseries", "sobol.sobol_timeseries", None),
            (sobol, "fit_pce", "sobol.fit_pce", None),
        )
        for owner, attr, name, after in spans:
            self._rebind(owner, attr, self.span(name, getattr(owner, attr), after))

        make_fn = sobol.coverage_model_fn

        @functools.wraps(make_fn)
        def coverage_model_fn(*args, **kwargs):
            return self.span("sobol.node", make_fn(*args, **kwargs))

        self._rebind(sobol, "coverage_model_fn", coverage_model_fn)
        for attr in ("close_basic", "close_risk"):
            self._rebind(model, attr, self.closure_solve(getattr(model, attr)))
        self._rebind(integrators, "integrate_flat",
                     self.integrate_flat(integrators.integrate_flat, "model"))
        self._rebind(spillover, "integrate_flat",
                     self.integrate_flat(spillover.integrate_flat, "aug"))

    def op_span(self, label):
        """Root span around one benchmark step; its id tags every span below."""
        fr = self.open("bench.step")
        fr["attrs"]["label"] = label
        return fr

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


# ------------------------------------------------------------ layer metrics

PER_LAYER = (
    ("mixing.close_calls", "count"), ("mixing.close_us", "us"),
    ("mixing.memo_hit_ratio", "ratio"),
    ("model.rhs_evals", "count"), ("model.rhs_self_us", "us"),
    ("integrators.calls", "count"), ("integrators.steps_accepted", "count"),
    ("integrators.steps_rejected", "count"), ("integrators.model_years", "years"),
    ("integrators.rk4_self_us_per_rhs", "us"), ("integrators.dp_self_us_per_rhs", "us"),
    ("spillover.aug_rhs_evals", "count"), ("spillover.aug_rhs_us", "us"),
    ("spillover.nnt_calls", "count"), ("spillover.nnt_s", "s"),
    ("reproduction.probe_model_years", "years"), ("reproduction.probe_useful_ratio", "ratio"),
    ("reproduction.ngm_rc_us", "us"),
    ("sobol.nodes", "count"), ("sobol.ensemble_s", "s"), ("sobol.fit_s", "s"),
    ("scenarios.run_scenarios_s", "s"), ("scenarios.csv_s", "s"),
    ("scenarios.csv_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

_NGM = {"reproduction.build_ngm", "reproduction.rc_numeric", "reproduction.rc_closed"}


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer):
    """Per-layer figures for the whole traced phase (all passes)."""
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def under(s, name):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == name:
                return True
            p = by_id.get(p["parent"])
        return False

    def total(ss, key="dur_ns"):
        return sum(s[key] for s in ss)

    flat = named("integrators.integrate_flat")
    mdl = [s for s in flat if s["kind"] == "model"]
    aug = [s for s in flat if s["kind"] == "aug"]
    rk4 = [s for s in flat if s["method"] == "rk4_fixed"]
    dp = [s for s in flat if s["method"] != "rk4_fixed"]
    probes = named("reproduction.stability_probe")
    probe_years = sum(s["t_end"] - s["t0"] for s in flat
                      if under(s, "reproduction.stability_probe"))
    ngm_top = [s for s in spans if s["name"] in _NGM
               and by_id.get(s["parent"], {}).get("name") not in _NGM]
    mdl_evals = total(mdl, "rhs_evals")
    aug_evals = total(aug, "rhs_evals")
    m = {
        "mixing.close_calls": tracer.closure[0],
        "mixing.close_us": _div(tracer.closure[1], tracer.closure[0]) / 1e3,
        "mixing.memo_hit_ratio": _div(mdl_evals - total(mdl, "rhs_closure_evals"), mdl_evals),
        "model.rhs_evals": mdl_evals,
        "model.rhs_self_us": _div(total(mdl, "rhs_ns") - total(mdl, "rhs_closure_ns"),
                                  mdl_evals) / 1e3,
        "integrators.calls": len(flat),
        "integrators.steps_accepted": total(flat, "accepted"),
        "integrators.steps_rejected": total(flat, "rejected"),
        "integrators.model_years": sum(s["t_end"] - s["t0"] for s in flat),
        "integrators.rk4_self_us_per_rhs": _div(total(rk4, "self_ns"),
                                                total(rk4, "rhs_evals")) / 1e3,
        "integrators.dp_self_us_per_rhs": _div(total(dp, "self_ns"),
                                               total(dp, "rhs_evals")) / 1e3,
        "spillover.aug_rhs_evals": aug_evals,
        "spillover.aug_rhs_us": _div(total(aug, "rhs_ns") - total(aug, "rhs_closure_ns"),
                                     aug_evals) / 1e3,
        "spillover.nnt_calls": len(named("spillover.nnt")),
        "spillover.nnt_s": total(named("spillover.nnt")) / 1e9,
        "reproduction.probe_model_years": probe_years,
        "reproduction.probe_useful_ratio": _div(
            sum(s["n_trials"] * s["horizon"] for s in probes), probe_years),
        "reproduction.ngm_rc_us": _div(total(ngm_top),
                                       len(named("reproduction.build_ngm"))) / 1e3,
        "sobol.nodes": len(named("sobol.node")),
        "sobol.ensemble_s": total(named("sobol.node")) / 1e9,
        "sobol.fit_s": total(named("sobol.fit_pce")) / 1e9,
        "scenarios.run_scenarios_s": total(named("scenarios.run_scenarios")) / 1e9,
        "scenarios.csv_s": total(named("scenarios.write_csv")) / 1e9,
        "scenarios.csv_bytes": sum(s.get("bytes", 0) for s in named("scenarios.write_csv")),
        "cli.self_s": total(named("cli.main"), "self_ns") / 1e9,
    }
    return m


def roadmap_figures(tracer):
    """This run's figures beside the ROADMAP aim-1 baselines they supersede."""
    spans = tracer.spans
    flat = [s for s in spans if s["name"] == "integrators.integrate_flat"]
    out = []

    def per_eval(ss):
        n = sum(s["rhs_evals"] for s in ss)
        return _div(sum(s["rhs_ns"] for s in ss), n) / 1e3, n

    mdl = [s for s in flat if s["kind"] == "model"]
    if mdl:
        us, n = per_eval(mdl)
        hit = [s for s in mdl if s["rhs_closure_evals"] < s["rhs_evals"]]
        out.append({"figure": "flat RHS (fresh closure)", "roadmap": "8.5 us",
                    "this_run": f"{us:.2f} us over {n} evaluations",
                    "memo_hit_evals": sum(s["rhs_evals"] - s["rhs_closure_evals"]
                                          for s in hit)})
    for dim, label, roadmap in ((27, "3-source augmented spillover RHS (basic)", "118 us"),
                                (44, "4-source augmented spillover RHS (risk)", "-")):
        ss = [s for s in flat if s["kind"] == "aug" and s["dim"] == dim]
        if ss:
            us, n = per_eval(ss)
            out.append({"figure": label, "roadmap": roadmap,
                        "this_run": f"{us:.2f} us over {n} evaluations"})
    dp = [s for s in flat if s["method"] != "rk4_fixed"]
    if dp:
        us = _div(sum(s["dur_ns"] for s in dp), sum(s["rhs_evals"] for s in dp)) / 1e3
        out.append({"figure": "cost per RHS inside Dormand-Prince", "roadmap": "32 us",
                    "this_run": f"{us:.2f} us (integrator self + RHS)"})
    for dim, label, roadmap in ((9, "14-year basic integration", "3.3 ms (103 RHS)"),
                                (12, "14-year risk integration", "9.4 ms")):
        ss = [s for s in dp if s["kind"] == "model" and s["dim"] == dim
              and s["t0"] == 2017.0 and s["t_end"] == 2031.0]
        if ss:
            ms = sum(s["dur_ns"] for s in ss) / len(ss) / 1e6
            rhs = sum(s["rhs_evals"] for s in ss) / len(ss)
            out.append({"figure": label, "roadmap": roadmap,
                        "this_run": f"{ms:.2f} ms ({rhs:.0f} RHS), mean of {len(ss)}"})
    rs = [s for s in spans if s["name"] == "scenarios.run_scenarios"
          and s.get("variant") == "basic" and s.get("arms") == 9]
    if rs:
        ms = sum(s["dur_ns"] for s in rs) / len(rs) / 1e6
        out.append({"figure": "run_scenarios basic", "roadmap": "33 ms",
                    "this_run": f"{ms:.1f} ms, mean of {len(rs)}"})
    return out
