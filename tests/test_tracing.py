"""The benchmark's tracer (bench/tracing.py) rebinds package names by
attribute, so a name that looks unused inside the package may still be one
it needs.  This pins that every name it rebinds exists and is restored, and
that the output files go through the names it traces."""

from pathlib import Path

import pytest

from conftest import stationary_risk
from prepspill import integrators, model, reproduction, sobol
from prepspill.cli import main
from prepspill.presets import georgia_basic

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = model.close_basic
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model.close_basic is not original
        assert all(getattr(owner, attr) is new for owner, attr, _, new in tracer._bindings)
    finally:
        tracer.uninstall()
    assert model.close_basic is original
    assert all(getattr(owner, attr) is old for owner, attr, old, _ in tracer._bindings)


@pytest.mark.parametrize("command, rc", [("simulate", 0), ("spillover", 0),
                                         ("emit-plots", 0), ("validate", 2)])
def test_traced_csv_bytes_are_the_files_written(monkeypatch, tmp_path, command, rc):
    # a writer that bypasses the traced names would drop out of the
    # benchmark's scenarios.csv_bytes; here it fails the sum
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main([command, "--model", "basic", "--out", str(tmp_path)]) == rc
    finally:
        tracer.uninstall()
    traced = sum(s.get("bytes", 0) for s in tracer.spans if s["name"] == "scenarios.write_csv")
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert written > 0 and traced == written


def test_traced_sobol_batch_and_simulate_keep_the_step_identity(monkeypatch, tmp_path):
    # the tracer reads cfg.method and wraps integrate_flat by its signature;
    # the Sobol batch steps through integrate_flat, so it is one such span,
    # and its RHS count keeps the Dormand-Prince identity as scalar runs do
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    spec, y0 = georgia_basic()
    inputs = [sobol.UncertainInput(group=lbl, lo=-0.5, hi=1.0) for lbl in spec.labels]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        study = sobol.sobol_timeseries(spec, y0, inputs, level=2, total_degree=1)
        batch = [s for s in tracer.spans if s["name"] == "integrators.integrate_flat"]
        assert main(["simulate", "--model", "basic", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.violations == []
    assert len(batch) == 1 and batch[0]["rhs_evals"] == study.rhs_evals
    assert batch[0]["method"] == "rk45_adaptive" and "error" not in batch[0]
    flat = [s for s in tracer.spans if s["name"] == "integrators.integrate_flat"]
    assert len(flat) > 1


def test_traced_spans_read_the_runs_own_counts(monkeypatch, tmp_path):
    # each traced integrate_flat span counts the RHS evaluations its
    # trajectory reports, and the tracer's rejections (attempts less
    # accepted steps) are the trajectory's on every run that retried no
    # attempt at a switch; a retry counts 6 evaluations and is neither
    # accepted nor rejected, so the tracer counts it as a rejection
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    trajs, retries = [], [0]
    of, retry = integrators.Trajectory.of.__func__, integrators._SwitchWatch.retry

    def counting_retry(watch, *args):
        short = retry(watch, *args)
        retries[0] += short is not None
        return short

    def spy(cls, run, labels):
        trajs.append((of(cls, run, labels), retries[0]))
        retries[0] = 0
        return trajs[-1][0]

    monkeypatch.setattr(integrators._SwitchWatch, "retry", counting_retry)
    monkeypatch.setattr(integrators.Trajectory, "of", classmethod(spy))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for args in (["simulate"], ["spillover"], ["sobol", "--level", "2", "--degree", "1"]):
            for variant in ("basic", "risk"):
                assert main(args + ["--model", variant, "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.violations == []
    flat = [s for s in tracer.spans if s["name"] == "integrators.integrate_flat"]
    assert len(flat) == len(trajs)
    for span, (traj, retried) in zip(flat, trajs):
        assert span["rhs_evals"] == traj.rhs_evals
        assert span["rejected"] == traj.steps_rejected + retried
    assert sum(r > 0 for _, r in trajs) == 12  # the risk arms, each once at xi_hetm
    # the two Sobol batches: a batch never retries
    assert [r for t, r in trajs if t.states.ndim == 3] == [0, 0]
    assert sum(t.steps_rejected > 0 and r == 0 for t, r in trajs) >= 3


def test_traced_tunes_take_three_ngm_solves(monkeypatch):
    # the probe benchmark traces build_ngm, rc_numeric and the tune itself;
    # rc_of looks build_ngm and rc_numeric up in the module, so each of the
    # tune's three NGM solves is one span under the tune's span
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for spec, _ in (georgia_basic(), stationary_risk()):
            reproduction.tune_multiplier_to_rc(spec.with_delta_zero(), 0.9)
    finally:
        tracer.uninstall()
    assert tracer.violations == []
    tunes = [s["id"] for s in tracer.spans
             if s["name"] == "reproduction.tune_multiplier_to_rc"]
    assert len(tunes) == 2
    for tune in tunes:
        for name in ("reproduction.build_ngm", "reproduction.rc_numeric"):
            assert sum(s["name"] == name and s["parent"] == tune
                       for s in tracer.spans) == 3


def test_traced_spillover_integrates_the_baseline_head_once(monkeypatch, tmp_path):
    # spillover reads the baseline only at the intervention year, so it
    # integrates [start, intervention] once (a model span) and then the
    # augmented system (an aug span), each keeping the step identity
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["spillover", "--model", "risk", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.violations == []
    flat = sorted((s for s in tracer.spans if s["name"] == "integrators.integrate_flat"),
                  key=lambda s: s["kind"])
    assert [(s["kind"], s["t0"], s["t_end"]) for s in flat] == [
        ("aug", 2020.0, 2031.0), ("model", 2017.0, 2020.0)]


def test_traced_probes_pass_every_span_through_integrate_flat(monkeypatch):
    # the probe benchmark reads model.rhs_evals, the step counts and
    # reproduction.probe_model_years from the tracer's integrate_flat
    # wrapper: every integration of a decay and a growth probe goes through
    # it (one that bypassed it would read zero), and each keeps the
    # Dormand-Prince identity, 1 + 6 RHS evaluations per attempted step,
    # with the attempts counted at the step itself
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    attempts, calls = [0], []  # per integration: (attempts, accepted steps)
    make_step, integrate_rhs = integrators._dp_step_maker, reproduction.integrate_rhs

    def counting_step_maker(w=None):
        step = make_step(w)

        def counted(*args):
            attempts[0] += 1
            return step(*args)
        return counted

    def spy(*args, **kwargs):
        before = attempts[0]
        run = integrate_rhs(*args, **kwargs)
        calls.append((attempts[0] - before, len(run[0]) - 1))  # its times
        return run

    monkeypatch.setattr(integrators, "_dp_step_maker", counting_step_maker)
    monkeypatch.setattr(reproduction, "integrate_rhs", spy)
    spec0 = georgia_basic()[0].with_delta_zero()
    tuned = reproduction.scale_transmission(
        spec0, reproduction.tune_multiplier_to_rc(spec0, 0.9))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [reproduction.stability_probe(tuned, n_trials=2, seed=3),
                   reproduction.stability_probe(spec0, seed=0)]
    finally:
        tracer.uninstall()
    assert [r.regime for r in reports] == ["decay", "growth"]
    assert tracer.violations == []
    flat = [s for s in tracer.spans if s["name"] == "integrators.integrate_flat"]
    assert len(flat) == len(calls) > 2
    assert [(s["rhs_evals"], s["accepted"], s["rejected"]) for s in flat] == [
        (1 + 6 * n, acc, n - acc) for n, acc in calls]
    assert all(s["kind"] == "model" and s["dim"] == spec0.n for s in flat)
    m = tracing.layer_metrics(tracer)
    assert m["model.rhs_evals"] == sum(1 + 6 * n for n, _ in calls)
    assert m["reproduction.probe_model_years"] == sum(r.n_trials * r.horizon for r in reports)
