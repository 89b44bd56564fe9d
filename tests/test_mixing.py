from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basic_residuals, random_spec, risk_objective, risk_residuals
from prepspill.errors import InfeasibleClosure
from prepspill.model import contact_matrix, dfe, flat_rhs_factory
from prepspill.presets import georgia_risk
from prepspill.mixing import (BasicMixing, RiskMixing, _empty_interval_error, _hetm_deficit,
                              _risk_projection, _risk_xi_shares, _unit_interval_error,
                              basic_fractions, close_basic, close_basic_batch,
                              close_risk, close_risk_batch, risk_fractions)

# Georgia nominal populations and contact rates (2017 totals)
N3 = np.array([165418.0, 3274801.0, 3145939.0])
A3 = np.array([94.7, 47.3, 48.5])
N4 = np.array([165418.0, 252160.0, 3022642.0, 3145939.0])
A4 = np.array([94.7, 91.0, 43.7, 48.5])
PRIORS3 = BasicMixing(eta_msm=0.858, alpha_hetf=0.02)
PRIORS4 = RiskMixing(eta_msm=0.858, eta_hetfh=0.071, alpha_hetfh=0.06,
                     alpha_hetfl=0.01, xi_hetm=0.005)


def test_basic_georgia_values():
    # independent elimination oracle, straight from the balance equations
    B = N3 * A3
    alpha_oracle = 1.0 - B[2] / B[1]
    eta_oracle = 1.0 - alpha_oracle * B[1] / B[0]
    mix = close_basic(N3, A3, PRIORS3)
    assert mix.alpha_hetf == pytest.approx(alpha_oracle, rel=1e-14)
    assert mix.eta_msm == pytest.approx(eta_oracle, rel=1e-14)
    # frozen values (hand-checked against the published priors 0.02 / 0.858)
    assert mix.alpha_hetf == pytest.approx(0.0149779, abs=1e-6)
    assert mix.eta_msm == pytest.approx(0.8518970, abs=1e-6)
    assert np.max(np.abs(basic_residuals(mix, N3, A3))) < 1e-12


def test_basic_identical_products():
    # equal N*a everywhere: HETM consumes all HETF contacts
    N = np.array([1e5, 1e5, 1e5])
    a = np.array([50.0, 50.0, 50.0])
    mix = close_basic(N, a, BasicMixing(eta_msm=0.5, alpha_hetf=0.5))
    assert mix.alpha_hetf == 0.0
    assert mix.eta_msm == 1.0


def test_basic_infeasible():
    N = np.array([1e5, 1e5, 2e5])  # hetm contact volume exceeds hetf's
    a = np.array([50.0, 50.0, 50.0])
    with pytest.raises(InfeasibleClosure):
        close_basic(N, a, PRIORS3)


def test_basic_idempotent():
    mix = close_basic(N3, A3, PRIORS3)
    again = close_basic(N3, A3, mix)
    assert abs(again.eta_msm - mix.eta_msm) < 1e-14
    assert abs(again.alpha_hetf - mix.alpha_hetf) < 1e-14


def _feasible_xi_interval(N, a):
    B = N * a
    lo = max(0.0, (B[1] - B[0]) / B[3], 1.0 - B[2] / B[3])
    hi = min(1.0, B[1] / B[3])
    return B, lo, hi


def _tuple_at_xi(B, xi):
    return RiskMixing(eta_msm=1.0 - (B[1] + B[2] - B[3]) / B[0],
                      eta_hetfh=(B[1] - xi * B[3]) / B[0],
                      alpha_hetfh=1.0 - xi * B[3] / B[1],
                      alpha_hetfl=1.0 - (1.0 - xi) * B[3] / B[2],
                      xi_hetm=xi)


def test_risk_georgia_against_grid_search():
    mix = close_risk(N4, A4, PRIORS4)
    assert np.max(np.abs(risk_residuals(mix, N4, A4))) < 1e-12
    # dense 1e-6 grid over the feasible interval
    B, lo, hi = _feasible_xi_interval(N4, A4)
    xs = np.arange(lo, hi, 1e-6)
    best = min(xs, key=lambda x: risk_objective(_tuple_at_xi(B, x), PRIORS4))
    assert mix.xi_hetm == pytest.approx(best, abs=2e-6)
    assert risk_objective(mix, PRIORS4) <= risk_objective(_tuple_at_xi(B, best),
                                                          PRIORS4) + 1e-12
    # frozen solution values for the published populations
    assert mix.eta_msm == pytest.approx(0.843097, abs=1e-5)
    assert mix.xi_hetm == pytest.approx(0.141581, abs=1e-5)


def test_risk_priors_already_feasible_fixed_point():
    B, lo, hi = _feasible_xi_interval(N4, A4)
    target = _tuple_at_xi(B, 0.5 * (lo + hi))
    mix = close_risk(N4, A4, target)
    assert risk_objective(mix, target) < 1e-24
    for got, want in zip(mix.as_tuple(), target.as_tuple()):
        assert got == pytest.approx(want, abs=1e-12)


def test_risk_beats_random_feasible_points():
    rng = np.random.default_rng(3)
    mix = close_risk(N4, A4, PRIORS4)
    fbest = risk_objective(mix, PRIORS4)
    B, lo, hi = _feasible_xi_interval(N4, A4)
    for x in rng.uniform(lo, hi, 1000):
        assert fbest <= risk_objective(_tuple_at_xi(B, x), PRIORS4) + 1e-15


def test_risk_infeasible_interval():
    # tiny high-risk group, huge hetm: no xi can balance
    N = np.array([1e5, 1e3, 1e4, 1e7])
    a = np.array([50.0, 50.0, 50.0, 50.0])
    with pytest.raises(InfeasibleClosure):
        close_risk(N, a, PRIORS4)


def test_risk_idempotent():
    mix = close_risk(N4, A4, PRIORS4)
    again = close_risk(N4, A4, mix)
    for got, want in zip(again.as_tuple(), mix.as_tuple()):
        assert abs(got - want) < 1e-14


def test_residuals_along_georgia_trajectory(baseline_basic, basic):
    spec, _ = basic
    _, a, _, _ = spec.param_arrays()
    n = spec.n
    for row in baseline_basic.states[::5]:
        N = row[0:2 * n:2] + row[1:2 * n:2]
        mix = close_basic(N, a, spec.mixing_priors)
        assert np.max(np.abs(basic_residuals(mix, N, a))) < 1e-12


def test_residuals_along_risk_trajectory(baseline_risk, risk):
    spec, _ = risk
    _, a, _, _ = spec.param_arrays()
    n = spec.n
    for row in baseline_risk.states[::5]:
        N = row[0:2 * n:2] + row[1:2 * n:2]
        mix = close_risk(N, a, spec.mixing_priors)
        assert np.max(np.abs(risk_residuals(mix, N, a))) < 1e-12


def test_risk_pair_fractions_nonnegative_past_roundoff():
    # accepted: eta_msm + eta_hetfh exceeds 1 by 1.1e-15, within roundoff
    mix = RiskMixing(eta_msm=0.5, eta_hetfh=0.5000000000000011, alpha_hetfh=0.06,
                     alpha_hetfl=0.01, xi_hetm=0.005)
    assert min(mix.pair_fractions()) >= 0.0
    assert contact_matrix(georgia_risk()[0], mix).min() >= 0.0


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_batch_closure_equals_scalar_along_trajectory(variant, request):
    # every trajectory row as one member, through the risk xi_hetm clamp of 2027
    spec, _ = request.getfixturevalue(variant)
    traj = request.getfixturevalue(f"baseline_{variant}")
    n = spec.n
    N = traj.states[:, 0:2 * n:2] + traj.states[:, 1:2 * n:2]
    a = spec.param_arrays()[1]
    close, batch = ((close_basic, close_basic_batch) if variant == "basic"
                    else (close_risk, close_risk_batch))
    got = batch(list(N.T), a, spec.mixing_priors)
    for b, row in enumerate(N):
        want = close(tuple(row), a, spec.mixing_priors).pair_fractions()
        assert all(np.broadcast_to(g, len(N))[b] == w for g, w in zip(got, want))


@pytest.mark.parametrize("priors", [
    PRIORS4,
    # pulls xi_hetm past its upper bound B1/B3: the clamp at hi
    RiskMixing(eta_msm=0.858, eta_hetfh=0.0, alpha_hetfh=0.0, alpha_hetfl=1.0,
               xi_hetm=1.0)])
def test_batch_risk_closure_equals_scalar_at_random_points(priors):
    rng = np.random.default_rng(5)
    points = []
    for N in N4 * rng.uniform(0.9, 1.1, (400, 4)):
        try:
            points.append((N, close_risk(tuple(N), A4, priors).pair_fractions()))
        except InfeasibleClosure:
            pass
    got = close_risk_batch(list(np.array([N for N, _ in points]).T), A4, priors)
    assert len(points) > 100
    for b, (_, want) in enumerate(points):
        assert [g[b] for g in got] == list(want)


@pytest.mark.parametrize("close, batch, N, a, priors", [
    (close_basic, close_basic_batch, N3, A3, PRIORS3),
    (close_risk, close_risk_batch, N4, A4, PRIORS4)])
def test_batch_closure_names_first_failing_member(close, batch, N, a, priors):
    cols = [np.full(5, v) for v in N]
    bad = N.copy()
    bad[-1] *= 1.5  # too many HETM contacts for the HETF to balance
    for b in (3, 4):
        for j, v in enumerate(bad):
            cols[j][b] = v
    with pytest.raises(InfeasibleClosure) as scalar:
        close(tuple(bad), a, priors)
    with pytest.raises(InfeasibleClosure) as batched:
        batch(cols, a, priors)
    assert str(batched.value) == str(scalar.value)
    assert batched.value.member == 3 and scalar.value.member is None


@pytest.mark.parametrize("close, batch, N, a, priors", [
    (close_basic, close_basic_batch, N3, A3, PRIORS3),
    (close_risk, close_risk_batch, N4, A4, PRIORS4)])
def test_batch_closure_checks_keep_their_order(close, batch, N, a, priors):
    # Member 1 has too many HETM contacts (basic: alpha_hetf, risk: eta_msm),
    # member 2 a NaN MSM population (eta_msm = nan), member 3 no HETF volume,
    # which the volume screen sees first.  The batch names the lowest failing
    # member with the scalar closure's error for it; each mended in turn, the
    # next one is named.
    cols = np.tile(N[:, None], 5)
    cols[-1, 1] *= 1.5
    cols[0, 2] = np.nan
    cols[1, 3] = 0.0
    for want in (1, 2, 3):
        with pytest.raises(InfeasibleClosure) as scalar:
            close(tuple(cols[:, want]), a, priors)
        with pytest.raises(InfeasibleClosure) as batched:
            batch(list(cols), a, priors)
        assert type(batched.value) is type(scalar.value)
        assert (str(batched.value), batched.value.member) == (str(scalar.value), want)
        cols[:, want] = N
    cols[1, 4] = 0.0  # a zero volume alone, with no NaN to fail the reduction
    with pytest.raises(InfeasibleClosure, match="nonpositive total") as batched:
        batch(list(cols), a, priors)
    assert batched.value.member == 4
    cols[:, 4] = N
    want = close(tuple(N), a, priors).pair_fractions()
    assert all(np.all(g == w) for g, w in zip(batch(list(cols), a, priors), want))


def _generated_rhs_pair(spec, form):
    """The unpinned generated RHS of one form (flat, tracked or spillover)
    and the same RHS pinned to a given mixing record: ``pinned(mix)``."""
    tracked, mode = form
    counts = [2e3 if j in tracked else 0.0 for j in range(spec.n)]
    unpinned = flat_rhs_factory(spec, counts, mode)
    return unpinned, lambda mix: flat_rhs_factory(replace(spec, mixing=mix), counts, mode)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_closure_core_property(variant):
    # Random feasible specs, populations scattered around each DFE: the core's
    # tuple is the record's pair_fractions() bit for bit, balances hold, and an
    # infeasible point fails with one message on the core, record and batch.
    # At every point the generated RHS, which evaluates the closure inline,
    # equals the same RHS pinned to the core's tuple bit for bit (flat,
    # tracked and spillover forms), or raises the core's error.
    core, close, batch, residuals = (
        (basic_fractions, close_basic, close_basic_batch, basic_residuals)
        if variant == "basic" else
        (risk_fractions, close_risk, close_risk_batch, risk_residuals))
    rng = np.random.default_rng(17)
    block_rng = np.random.default_rng(19)
    n = 3 if variant == "basic" else 4
    forms = [((), None), ((1,), None), ((), "practical"), ((), "exact_delta")]
    seen = {"interior": 0, "lo": 0, "hi": 0, "infeasible": 0, "roundoff": 0}
    for _ in range(12):
        spec = random_spec(rng, variant)
        a = tuple(spec.param_arrays()[1])
        pulls = [spec.mixing_priors]
        if variant == "risk":  # pull xi_hetm to its upper bound B1/B3
            pulls.append(replace(spec.mixing_priors, eta_hetfh=0.0, alpha_hetfh=0.0,
                                 alpha_hetfl=1.0, xi_hetm=1.0))
        rhs_pairs = {priors: [_generated_rhs_pair(replace(spec, mixing_priors=priors), form)
                              for form in forms]
                     for priors in pulls}
        for N in dfe(spec).N * rng.uniform(0.5, 1.5, (40, spec.n)):
            N = tuple(float(v) for v in N)
            # S_j = I_j = N_j / 2 exactly, so the RHS closes at N itself
            y = [v / 2 for v in N for _ in (0, 1)] + [0.0] * n
            ys = [y, y] + [y + (block_rng.uniform(-1.0, 1.0, 2 * n * n)
                                * 1e4).tolist() for form in forms[2:]]
            for priors in pulls:
                try:
                    got = core(N, a, priors)
                except InfeasibleClosure as e:
                    seen["infeasible"] += 1
                    for other in (close, lambda N, a, priors: batch(
                            [np.full(2, v) for v in N], a, priors)):
                        with pytest.raises(InfeasibleClosure) as again:
                            other(N, a, priors)
                        assert str(again.value) == str(e)
                    # the RHS passes its t, which the message then names
                    with pytest.raises(InfeasibleClosure) as at_t:
                        core(N, a, priors, t=2020.0)
                    for (unpinned, _), yy in zip(rhs_pairs[priors], ys):
                        with pytest.raises(InfeasibleClosure) as again:
                            unpinned(2020.0, yy)
                        assert str(again.value) == str(at_t.value) and again.value.t == 2020.0
                    continue
                mix = close(N, a, priors)
                assert got == mix.pair_fractions()
                assert max(abs(r) for r in residuals(mix, N, a)) < 1e-12
                for (unpinned, pinned), yy in zip(rhs_pairs[priors], ys):
                    assert unpinned(2020.0, yy) == pinned(mix)(2020.0, yy)
                if variant == "risk":
                    B = [n * x for n, x in zip(N, a)]
                    x = _risk_projection(*B, priors)
                    seen["lo" if x < mix.xi_hetm else "hi" if x > mix.xi_hetm
                         else "interior"] += 1
                    # the shares before the roundoff clamp (which keeps xi_hetm,
                    # already clamped into [lo, hi])
                    shares = _risk_xi_shares(*B, mix.xi_hetm)
                    seen["roundoff"] += not all(0.0 <= v <= 1.0 for v in shares)
                else:
                    seen["interior"] += 1
    assert seen["interior"] > 50 and seen["infeasible"] > 20
    if variant == "risk":
        assert seen["lo"] > 20 and seen["hi"] > 20 and seen["roundoff"] > 0


# Contact volumes (a = 1) whose xi_hetm interval is empty: lo2 = hi1 up to
# the last bit, with lo2 > hi1.
EMPTY_INTERVAL_B = (75061430.79574226, 20425178.543547347, 26305102.710140765,
                    46730281.25368811)


def _scalar_outcomes(core, cols, a, priors, t):
    """Per member (column of ``cols``), the scalar core's fractions or its
    InfeasibleClosure."""
    out = []
    for col in cols.T.tolist():
        try:
            out.append(core(col, a, priors, t))
        except InfeasibleClosure as e:
            out.append(e)
    return out


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_batch_closure_judged_by_scalar_property(variant):
    # Batches of 2-8 columns scattered around random DFEs, some made
    # infeasible at random members (a NaN, a nonpositive volume, too many
    # HETM contacts): the batch gives each member's scalar fractions bit for
    # bit, or the scalar error (type, message, t) of the lowest failing
    # member, tagged with it, also when a later member fails an earlier check.
    core, batch = ((basic_fractions, close_basic_batch) if variant == "basic"
                   else (risk_fractions, close_risk_batch))
    rng = np.random.default_rng(23)
    seen = {"passed": 0, "failed": 0, "later_fails_volume": 0}
    for _ in range(10):
        spec = random_spec(rng, variant)
        a, priors, n = tuple(spec.param_arrays()[1]), spec.mixing_priors, spec.n
        for _ in range(30):
            B = int(rng.integers(2, 9))
            cols = dfe(spec).N[:, None] * rng.uniform(0.8, 1.2, (n, B))
            for b in np.flatnonzero(rng.random(B) < 0.2):
                kind = rng.integers(3)
                if kind == 0:
                    cols[rng.integers(n), b] = np.nan
                elif kind == 1:
                    cols[rng.integers(n), b] = -rng.uniform(0.0, 1e3) * rng.integers(2)
                else:
                    cols[-1, b] *= rng.uniform(1.5, 3.0)
            t = float(rng.choice([2020.0, 2031.25]))
            outcomes = _scalar_outcomes(core, cols, a, priors, t)
            failing = [i for i, o in enumerate(outcomes) if isinstance(o, InfeasibleClosure)]
            if not failing:
                got = batch(list(cols), a, priors, t=t)
                assert [np.broadcast_to(row, B).tolist() for row in got] == [
                    list(r) for r in zip(*outcomes)]
                seen["passed"] += 1
                continue
            want = outcomes[failing[0]]
            with pytest.raises(InfeasibleClosure) as exc:
                batch(list(cols), a, priors, t=t)
            assert type(exc.value) is type(want)
            assert (str(exc.value), exc.value.t, exc.value.member) == (str(want), t, failing[0])
            seen["failed"] += 1
            seen["later_fails_volume"] += "nonpositive" not in str(want) and any(
                "nonpositive" in str(outcomes[i]) for i in failing[1:])
    assert seen["passed"] > 50 and seen["failed"] > 50 and seen["later_fails_volume"] > 10
    if variant == "risk":
        # the empty xi_hetm interval as member 2, after two feasible members
        ones = (1.0,) * 4
        B0 = dfe(spec).N * spec.param_arrays()[1]
        cols = np.column_stack((B0, B0, EMPTY_INTERVAL_B, B0))
        message = "empty feasible interval for xi_hetm: [0.437087, 0.437087]"
        with pytest.raises(InfeasibleClosure) as scalar:
            risk_fractions(EMPTY_INTERVAL_B, ones, priors)
        with pytest.raises(InfeasibleClosure) as batched:
            close_risk_batch(list(cols), ones, priors)
        assert str(scalar.value) == str(batched.value) == message
        assert batched.value.member == 2


def test_risk_priors_refuse_msm_and_hetfh_shares_past_one():
    with pytest.raises(ValueError, match=r"^eta_msm \+ eta_hetfh exceeds 1$"):
        RiskMixing(eta_msm=0.6, eta_hetfh=0.5, alpha_hetfh=0.06, alpha_hetfl=0.01,
                   xi_hetm=0.005)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ANY = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["alpha_hetf", "eta_msm", "eta_hetfh", "alpha_hetfh",
                             "alpha_hetfl", "xi_hetm"]),
       value=_ANY, lo=_ANY, hi=_ANY, t=st.one_of(st.none(), _FINITE),
       B=st.tuples(_FINITE, _FINITE, st.floats(min_value=1e-300, max_value=1e300)),
       with_detail=st.booleans())
def test_closure_errors_format_the_eager_text_property(name, value, lo, hi, t, B,
                                                       with_detail):
    # each closure error's message is the text of the eager f-strings, and
    # the error keeps the same t and value
    def at(t):
        return "" if t is None else f" at t = {t:.6f}"
    B1, B2, B3 = B
    deficit = B3 - (B1 + B2)
    detail = (f"; contact-volume deficit B_hetm - (B_hh + B_hl) = {deficit:.6g}"
              f" ({deficit / B3:.3%} of B_hetm)") if with_detail else ""
    e = (_unit_interval_error(name, value, t, _hetm_deficit(B1, B2, B3)) if with_detail
         else _unit_interval_error(name, value, t))
    shown = f"1 + {value - 1.0:.6g}" if value > 1.0 and f"{value:.6g}" == "1" else f"{value:.6g}"
    want = f"closure gives {name} = {shown} outside [0, 1]{detail}{at(t)}"
    assert isinstance(e, InfeasibleClosure) and e.t is t and e.value is value
    assert str(e) == str(e) == want
    e = _empty_interval_error(lo, hi, t)
    assert e.t is t and e.value is lo
    assert str(e) == f"empty feasible interval for xi_hetm: [{lo:.6g}, {hi:.6g}]{at(t)}"


@pytest.mark.parametrize("value, shown", [
    (1.0 + 2 ** -40, "1 + 9.09495e-13"), (1.000004, "1 + 4e-06"), (1.000006, "1.00001"),
    (1.0, "1")])
def test_a_value_rounded_onto_one_shows_its_excess(value, shown):
    # ":.6g" prints a value just past 1 as "1", which reads as inside
    # [0, 1]: such a value prints as 1 plus its excess
    assert str(_unit_interval_error("eta_msm", value, None)) == \
        f"closure gives eta_msm = {shown} outside [0, 1]"


@pytest.mark.parametrize("number", [complex, np.complex128], ids=["complex", "complex128"])
def test_closure_errors_built_from_complex_values_print_their_real_parts(number):
    # a complex-step run's closure error prints like the real run's: every
    # complex number in the message shows its real part
    e = _unit_interval_error("eta_msm", number(1.18, 1e-30), number(0.5, 1e-30),
                             _hetm_deficit(number(1.0, 1e-30), 2.0, 3.5))
    assert str(e) == str(_unit_interval_error("eta_msm", 1.18, 0.5, _hetm_deficit(1.0, 2.0, 3.5)))
    assert str(e) == ("closure gives eta_msm = 1.18 outside [0, 1]; contact-volume deficit "
                      "B_hetm - (B_hh + B_hl) = 0.5 (14.286% of B_hetm) at t = 0.500000")
    e = _empty_interval_error(number(0.25, -1e-30), number(0.125, 1e-30), None)
    assert str(e) == "empty feasible interval for xi_hetm: [0.25, 0.125]"
