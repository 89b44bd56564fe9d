import math
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (build_lambda_vectors, contact_matrix_at, incidence,
                      random_spec, random_state, rhs)
from prepspill import model
from prepspill.errors import PrepspillError, ZeroPopulation
from prepspill.integrators import IntegratorConfig, integrate, integrate_flat
from prepspill.model import (MODES, VARIANTS, GroupParams, StateVec, TransmissionProbs,
                             batched_rhs_factory, closed_mixing, contact_matrix, dfe,
                             flat_rhs_factory, make_spec, variant_of)
from prepspill.mixing import BasicMixing, RiskMixing, basic_fractions, risk_fractions
from prepspill.reproduction import build_ngm


def hand_contact_matrix(spec, mix):
    """Reference contact coefficients written out entry by entry (the form
    the model, spillover and NGM code each spelled out per variant before
    they were derived from the mixing classes' contact-pair tables)."""
    _, a, _, _ = spec.param_arrays()
    p = spec.probs
    W = np.zeros((spec.n, spec.n))
    if spec.variant == "basic":
        eta, al = mix.eta_msm, mix.alpha_hetf
        W[0, 0] = a[0] * eta * p.beta_mm
        W[0, 1] = a[0] * (1 - eta) * p.beta_fm
        W[1, 0] = a[1] * al * p.beta_mf
        W[1, 2] = a[1] * (1 - al) * p.beta_mf
        W[2, 1] = a[2] * p.beta_fm
    else:
        em, ehh, ahh, ahl, xi = mix.as_tuple()
        W[0, 0] = a[0] * em * p.beta_mm
        W[0, 1] = a[0] * ehh * p.beta_fm
        W[0, 2] = a[0] * max(0.0, 1 - em - ehh) * p.beta_fm  # share 0, not -1e-16
        W[1, 0] = a[1] * ahh * p.beta_mf
        W[1, 3] = a[1] * (1 - ahh) * p.beta_mf
        W[2, 0] = a[2] * ahl * p.beta_mf
        W[2, 3] = a[2] * (1 - ahl) * p.beta_mf
        W[3, 1] = a[3] * xi * p.beta_fm
        W[3, 2] = a[3] * (1 - xi) * p.beta_fm
    return W


def test_contact_matrix_matches_hand_coefficients():
    rng = np.random.default_rng(23)
    for variant in ("basic", "risk"):
        for _ in range(40):
            spec = random_spec(rng, variant)
            Nstar = dfe(spec).N
            mix = closed_mixing(spec, Nstar)
            want = hand_contact_matrix(spec, mix)
            assert np.allclose(contact_matrix(spec, mix), want, rtol=1e-15, atol=0.0)
            # F_jp = a_j (1 - eps_j) frac beta N*_j / N*_p, entry by entry
            _, _, _, eps = spec.param_arrays()
            F = (1 - eps)[:, None] * want * Nstar[:, None] / Nstar[None, :]
            assert np.allclose(build_ngm(spec).F, F, rtol=1e-12, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]),
       pinned=st.booleans(), tracked=st.booleans())
def test_flat_rhs_equals_structured_property(seed, variant, pinned, tracked):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant)
    state = random_state(rng, spec)
    if pinned:
        # fixed fractions, not the closure at this state
        spec = replace(spec, mixing=spec.mixing_priors)
    counts = None
    if tracked:
        # some groups tracked, some counts beyond S (coverage capped at 1)
        counts = list(state.S * rng.uniform(0.0, 1.5, spec.n)
                      * rng.integers(0, 2, spec.n))
    got = np.array(flat_rhs_factory(spec, tracked_counts=counts)(0.0, list(state.to_flat())))
    if tracked:
        spec = spec.with_epsilon({spec.labels[j]: min(E / state.S[j], 1.0)
                                  for j, E in enumerate(counts) if E})
    want = rhs(spec, state)
    # each component to 1e-12 of the magnitudes of the terms it sums
    Pi, _, delta, _ = spec.param_arrays()
    inc = want.C
    scale = np.concatenate([Pi + inc + spec.mu * state.S,
                            inc + (spec.mu + delta) * state.I, inc])
    n = spec.n
    err = np.abs(np.concatenate([got[0:2 * n:2] - want.S, got[1:2 * n:2] - want.I,
                                 got[2 * n:] - want.C]))
    assert np.all(err <= 1e-12 * scale)


def _closed_form_n(spec, state, t0, t):
    """N_j(t) = Ns_j + (N_j(t0) - Ns_j) e^(-mu (t - t0)) and Ns_j = Pi_j /
    mu, N(t0) that of ``state``, in Python floats as the infected-only form
    computes it."""
    mu = float(spec.mu)
    e = math.exp(-mu * (t - t0))
    return [Pi / mu + (N0 - Pi / mu) * e
            for Pi, N0 in zip(spec.param_arrays()[0].tolist(), state.N.tolist())]


def _infected_start(rng, spec, pinned):
    """A delta = 0 copy of ``spec`` (pinned to its priors if ``pinned``), a
    random start state, a start time t0 and a later time t."""
    spec = spec.with_delta_zero()
    if pinned:
        spec = replace(spec, mixing=spec.mixing_priors)
    t0 = float(rng.uniform(0.0, 2000.0))
    return spec, random_state(rng, spec), t0, t0 + float(rng.uniform(0.0, 40.0))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]),
       pinned=st.booleans(), tracked=st.booleans())
@example(seed=84067171, variant="basic", pinned=False, tracked=True)
def test_infected_only_rhs_is_the_full_rhs_at_closed_form_n_property(seed, variant, pinned,
                                                                    tracked):
    # the infected-only form of a delta = 0 spec maps the n I slots at t to
    # the full RHS's I entries at (N(t) - I, I), N_j(t) = Ns_j + (N_j(t0) -
    # Ns_j) e^(-mu (t - t0)) and Ns_j = Pi_j / mu, bit for bit; it refuses a
    # spec with disease deaths, and has no spillover form.  The full form
    # reads S = N - I and I' = N - S, whose sum is N exactly (Sterbenz), so
    # both forms see the same N and S; the example's basic closure is
    # ill-conditioned (alpha_hetf = 0.0197), where a last-bit difference in
    # N grew 50x in the fractions
    rng = np.random.default_rng(seed)
    spec0 = random_spec(rng, variant)
    spec, state, t0, t = _infected_start(rng, spec0, pinned)
    counts = list(state.S * rng.uniform(0.0, 1.5, spec.n)
                  * rng.integers(0, 2, spec.n)) if tracked else None
    f = flat_rhs_factory(spec, tracked_counts=counts, start=(t0, state))
    N = _closed_form_n(spec, state, t0, t)
    S = [n - i for n, i in zip(N, (state.I * rng.uniform(0.5, 1.5, spec.n)).tolist())]
    I = [n - s for n, s in zip(N, S)]
    assert [s + i for s, i in zip(S, I)] == N
    y = StateVec(S=np.array(S), I=np.array(I), C=np.zeros(spec.n)).to_flat().tolist()
    try:
        full = flat_rhs_factory(spec, tracked_counts=counts)(t, y)
    except PrepspillError as e:
        with pytest.raises(type(e)):
            f(t, I)
        return
    assert f(t, I) == full[1:2 * spec.n:2]
    with pytest.raises(ValueError, match="^the infected-only RHS form needs delta = 0$"):
        flat_rhs_factory(spec0, start=(t0, state))
    with pytest.raises(ValueError, match="no spillover"):
        flat_rhs_factory(spec, mode="practical", start=(t0, state))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]),
       pinned=st.booleans())
def test_batched_rhs_equals_flat_rhs_property(seed, variant, pinned):
    # member b of the batch is the scalar flat RHS with coverage eps[b], bit
    # for bit (signed zeros too: some infected counts are -0.0), and the
    # batch's derivative is one (3n, B) array, for the state as one array
    # or as its rows
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant)
    states = [random_state(rng, spec) for _ in range(4)]
    if pinned:
        spec = replace(spec, mixing=spec.mixing_priors)
    eps = rng.uniform(0.0, 1.0, (4, spec.n))
    y = np.array([s.to_flat() for s in states]).T
    S, I, zero = y[0:2 * spec.n:2], y[1:2 * spec.n:2], rng.random((spec.n, 4)) < 0.3
    S[zero], I[zero] = (S + I)[zero], -0.0  # the same N
    f = batched_rhs_factory(spec, eps)
    got = f(0.0, y)
    assert type(got) is np.ndarray and got.shape == (3 * spec.n, 4)
    assert f(0.0, list(y)).tobytes() == got.tobytes()
    for b in range(4):
        one = spec.with_epsilon(dict(zip(spec.labels, eps[b])))
        want = flat_rhs_factory(one)(0.0, y[:, b].tolist())
        assert got[:, b].tobytes() == np.array(want).tobytes()


def test_pairs_are_listed_by_group_then_partner():
    # the batched RHS sums each group's pairs as one contiguous run, in
    # partner order, as the scalar RHS does
    for var in VARIANTS.values():
        pairs = var.PAIRS
        assert list(pairs) == sorted(pairs, key=lambda pair: pair[:2])


def test_batched_rhs_names_zero_population_member(basic):
    spec, y0 = basic
    y = [np.full(3, v) for v in y0.to_flat()]
    y[2][1] = y[3][1] = 0.0  # member 1 has no HETF
    with pytest.raises(ZeroPopulation) as exc:
        batched_rhs_factory(spec, np.tile(spec.param_arrays()[3], (3, 1)))(2020.0, y)
    assert exc.value.member == 1
    assert str(exc.value) == "group hetf has N = 0 at t = 2020.0"


def test_batched_rhs_checks_keep_their_order(basic):
    # Member 3 has no HETF (the population check, first), member 1 too many
    # HETM contacts (the closure's alpha_hetf check), member 2 a NaN MSM
    # population, which the population check passes and eta_msm fails.  Each
    # mended in turn, the next failure is the scalar RHS's for that member.
    spec, y0 = basic
    f = batched_rhs_factory(spec, np.tile(spec.param_arrays()[3], (5, 1)))
    y = np.tile(y0.to_flat()[:, None], 5)
    y[4:6, 1] *= 1.5
    y[0, 2] = np.nan
    y[2:4, 3] = 0.0
    for want in (3, 1, 2):
        with pytest.raises(PrepspillError) as scalar:
            flat_rhs_factory(spec)(2020.0, y[:, want].tolist())
        with pytest.raises(PrepspillError) as batched:
            f(2020.0, list(y))
        assert type(batched.value) is type(scalar.value)
        assert (str(batched.value), batched.value.member) == (str(scalar.value), want)
        y[:, want] = y0.to_flat()
    assert [list(g) for g in f(2020.0, list(y))] == [
        [v] * 5 for v in flat_rhs_factory(spec)(2020.0, y0.to_flat().tolist())]


def test_lambda_vectors_zero_betas(basic):
    spec, y0 = basic
    from dataclasses import replace
    spec0 = replace(spec, probs=TransmissionProbs(0.0, 0.0, 0.0))
    assert np.all(build_lambda_vectors(spec0, y0) == 0.0)


def test_lambda_vectors_hand_value(basic):
    spec, y0 = basic
    # oracle: closure by elimination at the 2017 populations, then the
    # msm-msm coefficient a * eta * beta_mm / N_msm
    B = y0.N * spec.param_arrays()[1]
    alpha = 1.0 - B[2] / B[1]
    eta = 1.0 - alpha * B[1] / B[0]
    expected = 94.7 * eta * 0.0008 / 165418.0
    L = build_lambda_vectors(spec, y0)
    assert L[0, 1] == pytest.approx(expected, rel=1e-12)
    assert L[0, 1] == pytest.approx(3.901e-7, rel=1e-3)  # hand arithmetic


def test_lambda_vectors_risk_hetm_structure(risk):
    spec, y0 = risk
    L = build_lambda_vectors(spec, y0)
    hetm = spec.group_index("hetm")
    nz = np.flatnonzero(L[hetm])
    # exactly the infected slots of the two HETF strata
    assert list(nz) == [2 * spec.group_index("hetf_h") + 1,
                        2 * spec.group_index("hetf_l") + 1]


def test_lambda_vectors_zero_population(basic):
    spec, _ = basic
    bad = StateVec.make([0.0, 1e6, 1e6], [0.0, 1e4, 1e4])
    with pytest.raises(ZeroPopulation):
        build_lambda_vectors(spec, bad)


def test_rhs_at_dfe_is_zero(basic, risk_stationary):
    # the literal risk preset's DFE is not mixing-feasible (see notes), so the
    # risk check runs on the recruitment-balanced variant
    for spec, _ in (basic, risk_stationary):
        d = rhs(spec, dfe(spec))
        assert np.allclose(d.S, 0.0, atol=1e-9)
        assert np.allclose(d.I, 0.0)
        assert np.allclose(d.C, 0.0)


def test_rhs_full_prep_blocks_infection(basic):
    spec, y0 = basic
    spec1 = spec.with_epsilon({l: 1.0 for l in spec.labels})
    d = rhs(spec1, y0)
    _, _, delta, _ = spec.param_arrays()
    assert np.allclose(d.I, -(spec.mu + delta) * y0.I, rtol=1e-12)
    assert np.allclose(d.C, 0.0)


def test_rhs_hand_value_hetm(basic):
    spec, y0 = basic
    # dI_hetm/dt = a_hetm * (1-0) * beta_fm * I_hetf/N_hetf * S_hetm - (mu+delta)*I_hetm
    expected = 48.5 * 0.0003 * (14700.0 / 3274801.0) * 3138939.0 \
        - (0.02 + 0.02) * 7000.0
    d = rhs(spec, y0)
    assert d.I[2] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-74.9, abs=0.2)  # hand arithmetic


def test_incidence_zero_cases(basic):
    spec, y0 = basic
    no_inf = StateVec.make(y0.S, np.zeros(3))
    assert np.allclose(incidence(spec, no_inf), 0.0)
    spec1 = spec.with_epsilon({l: 1.0 for l in spec.labels})
    assert np.allclose(incidence(spec1, y0), 0.0)


def test_incidence_identity_random_states():
    rng = np.random.default_rng(11)
    for variant in ("basic", "risk"):
        for _ in range(50):
            spec = random_spec(rng, variant)
            state = random_state(rng, spec)
            lam = incidence(spec, state)
            d = rhs(spec, state)
            _, _, delta, _ = spec.param_arrays()
            assert np.allclose(lam, d.I + (spec.mu + delta) * state.I,
                               rtol=1e-10, atol=1e-8)
            assert np.all(lam >= 0.0)


def test_dfe_values(basic):
    spec, _ = basic
    eq = dfe(spec)
    assert eq.S[0] == pytest.approx(3874.0 / 0.02)  # 193,700
    assert eq.S[0] == 193700.0
    assert np.all(eq.I == 0.0)


def test_dfe_zero_recruitment():
    spec = make_spec("basic", Pi=(0, 0, 0), a=(50, 50, 50), delta=(0, 0, 0),
                     epsilon=(0, 0, 0),
                     probs=TransmissionProbs(0.0008, 0.0003, 0.0004), mu=0.02,
                     mixing_priors=BasicMixing(0.8, 0.02))
    assert np.all(dfe(spec).S == 0.0)


def test_rhs_zero_at_dfe_random_specs():
    rng = np.random.default_rng(7)
    for variant in ("basic", "risk"):
        for _ in range(25):
            spec = random_spec(rng, variant)
            d = rhs(spec, dfe(spec))
            scale = np.max(dfe(spec).S)
            assert np.max(np.abs(d.S)) < 1e-9 * scale
            assert np.max(np.abs(d.I)) == 0.0


def test_flat_rhs_matches_structured(basic, risk):
    # two independent code paths (generated floats vs contact-matrix algebra);
    # jitter kept small so the risk closure stays feasible
    rng = np.random.default_rng(5)
    for spec, y0 in (basic, risk):
        f = flat_rhs_factory(spec)
        for _ in range(20):
            state = StateVec.make(y0.S * rng.uniform(0.998, 1.002, spec.n),
                                  y0.I * rng.uniform(0.9, 1.1, spec.n),
                                  rng.uniform(0, 1e4, spec.n))
            got = np.array(f(0.0, list(state.to_flat())))
            want = rhs(spec, state)
            assert np.allclose(got[0:2 * spec.n:2], want.S, rtol=1e-12)
            assert np.allclose(got[1:2 * spec.n:2], want.I, rtol=1e-12)
            assert np.allclose(got[2 * spec.n:], want.C, rtol=1e-12)


def test_forward_invariance(basic):
    spec, y0 = basic
    rng = np.random.default_rng(2)
    Pi, _, _, _ = spec.param_arrays()
    for _ in range(5):
        state = random_state(rng, spec)
        cfg = IntegratorConfig(t0=0.0, t_end=30.0, rtol=1e-8, atol=1e-6)
        traj = integrate(spec, state, cfg)
        n = spec.n
        pops = traj.states[:, :2 * n]
        tol_neg = 1e-9 * np.sum(state.N)
        assert pops.min() >= -tol_neg
        Ntot = pops[:, 0::2].sum(axis=1) + pops[:, 1::2].sum(axis=1)
        bound = max(np.sum(state.N), np.sum(Pi) / spec.mu) * (1 + 1e-9)
        assert np.all(Ntot <= bound)


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_forward_invariance_random_specs(variant):
    # 14-year Dormand-Prince runs from random feasible points: S and I stay
    # nonnegative at every node without a single clamp, and C never falls
    rng = np.random.default_rng(31)
    n = 3 if variant == "basic" else 4
    cfg = IntegratorConfig(t0=2017.0, t_end=2031.0)
    for _ in range(12):
        spec = random_spec(rng, variant)
        traj = integrate(spec, random_state(rng, spec), cfg)
        assert traj.clamp_events == []
        assert traj.states[:, :2 * n].min() >= 0.0
        assert np.diff(traj.states[:, 2 * n:], axis=0).min() >= 0.0


def _float_guard_cases(rng, variant):
    """(spec, tracked counts, state) for the spec's own coverage, a tracked
    count given as np.float64, pinned mixing closed on a numpy N, and
    GroupParams (and mu and probs) holding np.float64 fields."""
    spec = random_spec(rng, variant)
    state = random_state(rng, spec)
    counts = [0.0] * spec.n
    counts[1] = np.float64(0.3) * state.S[1]
    pinned = replace(spec, mixing=closed_mixing(spec, state.N))

    def numpy_fields(record):
        return replace(record, **{k: np.float64(v) for k, v in vars(record).items()})
    numpy_params = replace(spec, groups=tuple((gid, numpy_fields(p)) for gid, p in spec.groups),
                           mu=np.float64(spec.mu), probs=numpy_fields(spec.probs))
    return [(spec, None, state), (spec, counts, state), (pinned, None, state),
            (numpy_params, None, state)]


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_flat_rhs_and_dp_stages_are_python_floats(variant):
    # the float-cell rule: no numpy scalar reaches the generated RHS, so its
    # entries, the integrator's rows and its next step are all Python floats
    rng = np.random.default_rng(43)
    cfg = IntegratorConfig(t0=2017.0, t_end=2019.0)
    for spec, counts, state in _float_guard_cases(rng, variant):
        f = flat_rhs_factory(spec, tracked_counts=counts)
        assert all(type(v) is float for v in f(2017.0, state.to_flat().tolist()))
        _, rows, _, h, *_ = integrate_flat(f, state.to_flat(), cfg, n_state=2 * spec.n)
        assert all(type(v) is float for row in rows for v in row)
        assert type(h) is float


@pytest.mark.parametrize("variant", ["basic", "risk"])
def test_float_cells_keep_the_arithmetic(variant):
    # the generated RHS gives the same values bit for bit on np.float64
    # state entries as on Python floats (numpy-scalar arithmetic, as with
    # numpy-scalar cells before the float-cell rule), tracked and untracked,
    # as does the augmented spillover system (all sources, both modes), and
    # the closure core gives the same contact matrix for a list N
    rng = np.random.default_rng(47)
    block_rng = np.random.default_rng(59)
    for i in range(8):
        spec = random_spec(rng, variant)
        if i % 2:
            spec = replace(spec, mixing=spec.mixing_priors)
        _, a, _, _ = spec.param_arrays()
        for _ in range(5):
            state = random_state(rng, spec)
            y = state.to_flat().tolist()
            k = int(rng.integers(spec.n))
            counts = [0.0] * spec.n
            counts[k] = float(state.S[k] * rng.uniform(0.0, 1.5))
            for f in (flat_rhs_factory(spec), flat_rhs_factory(spec, tracked_counts=counts)):
                assert f(2017.0, y) == f(2017.0, list(map(np.float64, y)))
            ya = y + (block_rng.uniform(-1.0, 1.0, 2 * spec.n ** 2) * state.N.mean()).tolist()
            for mode in MODES:
                f = flat_rhs_factory(spec, mode=mode)
                assert f(2017.0, ya) == f(2017.0, list(map(np.float64, ya)))
            core = basic_fractions if variant == "basic" else risk_fractions
            mix = spec.mixing or core(state.N, a, spec.mixing_priors)
            assert np.array_equal(contact_matrix_at(spec, state.N),
                                  contact_matrix(spec, mix))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]),
       pinned=st.booleans(), tracked=st.booleans(),
       form=st.sampled_from(["full", "infected", "spillover"]))
def test_margins_agree_with_their_rhs_property(seed, variant, pinned, tracked, form):
    # the margins an RHS carries: the closure's (unless pinned), then
    # S_j - c_j for a tracked group, whose sign is that group's coverage
    # branch; none on a form without them, and none on a spillover form.
    # The infected-only form's margins at (t, I) are the full form's at the
    # row (N(t) - I, I), up to rounding in N (within 1e-14 of the larger of
    # 1 and the margin; measured: 7.3e-16 over 3,000 draws), with the same
    # signs
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant)
    if form == "infected":
        spec, state, t0, t = _infected_start(rng, spec, pinned)
        I = state.I.tolist()
        row = StateVec(S=np.subtract(_closed_form_n(spec, state, t0, t), I), I=state.I,
                       C=state.C).to_flat().tolist()
    else:
        state, t = random_state(rng, spec), float(rng.uniform(0.0, 2000.0))
        if pinned:
            spec = replace(spec, mixing=spec.mixing_priors)
        row = state.to_flat().tolist()
    n, tracked = spec.n, tracked and form != "spillover"
    k = int(rng.integers(n))
    counts = None
    if tracked:  # the count below, at or above the pool
        counts = [0.0] * n
        counts[k] = float(row[2 * k] * rng.choice([rng.uniform(0.0, 1.5), 1.0]))
    full = flat_rhs_factory(spec, tracked_counts=counts)
    f = (flat_rhs_factory(spec, mode="practical") if form == "spillover" else
         flat_rhs_factory(spec, tracked_counts=counts, start=(t0, state))
         if form == "infected" else full)
    names = (() if pinned else VARIANTS[variant].SWITCH_NAMES) + (
        (f"S_{spec.labels[k]} - c_{spec.labels[k]}",) if tracked else ())
    if form == "spillover" or not names:
        assert f.switches is None
        return
    got, signs, margins = f.switches
    assert got == names
    y = I if form == "infected" else row
    w = margins(t, y)
    assert len(w) == len(names)
    assert signs(t, y) == sum((m > 0.0) << i for i, m in enumerate(w))
    if form == "infected":
        _, full_signs, full_margins = full.switches
        wf = full_margins(t, row)
        assert all(abs(a - b) <= 1e-14 * max(1.0, abs(b)) for a, b in zip(w, wf))
        assert signs(t, y) == full_signs(t, row)
    if tracked:
        assert w[-1] == row[2 * k] - counts[k]
        inc = full(t, row)
        assert (w[-1] <= 0.0) == (inc[2 * n + k] == 0.0)


def test_tracked_coverage_with_empty_pool(basic):
    # S_j <= c_j means full coverage, also at S_j = 0 (no division by zero)
    spec, y0 = basic
    state = StateVec.make(y0.S * [0.0, 1.0, 1.0], y0.I)
    f = flat_rhs_factory(spec, tracked_counts=[1000.0, 0.0, 0.0])
    got = f(2017.0, state.to_flat().tolist())
    want = rhs(spec.with_epsilon({"msm": 1.0}), state)
    assert np.allclose(got, StateVec(S=want.S, I=want.I, C=want.C).to_flat(),
                       rtol=1e-12, atol=0.0)


def test_population_relaxation_delta_zero(basic):
    spec, y0 = basic
    spec0 = spec.with_delta_zero()
    cfg = IntegratorConfig(t0=0.0, t_end=10.0, rtol=1e-10, atol=1e-8)
    traj = integrate(spec0, y0, cfg)
    Pi, _, _, _ = spec.param_arrays()
    end = traj.final_state()
    expected = Pi / spec.mu + (y0.N - Pi / spec.mu) * np.exp(-spec.mu * 10.0)
    assert np.allclose(end.N, expected, rtol=1e-8)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]))
def test_population_balance_property(seed, variant):
    # Infection only moves people from S to I: total population changes by
    # recruitment minus natural removal minus disease-induced deaths.
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant)
    state = random_state(rng, spec)
    Pi, _, delta, _ = spec.param_arrays()
    want = Pi.sum() - spec.mu * state.N.sum() - (delta * state.I).sum()
    d = rhs(spec, state)
    flat = flat_rhs_factory(spec)(0.0, list(state.to_flat()))
    scale = Pi.sum() + spec.mu * state.N.sum() + (delta * state.I).sum() + d.C.sum()
    for got in ((d.S + d.I).sum(), sum(flat[:2 * spec.n])):
        assert abs(got - want) <= 1e-12 * scale


def test_zero_population_names_group_and_time(basic):
    spec, y0 = basic
    empty = StateVec.make(y0.S * [1.0, 0.0, 1.0], y0.I * [1.0, 0.0, 1.0])
    with pytest.raises(ZeroPopulation, match=r"^group hetf has N = 0$"):
        incidence(spec, empty)
    with pytest.raises(ZeroPopulation, match=r"^group hetf has N = 0 at t = 2020.5$"):
        build_lambda_vectors(spec, empty, t=2020.5)
    with pytest.raises(ZeroPopulation, match=r"^group hetf has N = 0 at t = 2020.5$"):
        flat_rhs_factory(spec)(2020.5, list(empty.to_flat()))


@pytest.mark.parametrize("mode, name", [(None, "<flat_rhs basic>"),
                                        ("practical", "<flat_rhs basic practical>")])
def test_generated_rhs_traceback_shows_its_source(basic, mode, name):
    # each generated form is compiled under its own name, with its text in
    # linecache, so a traceback shows the generated line that raised
    spec, y0 = basic
    empty = StateVec.make(y0.S * [1.0, 0.0, 1.0], y0.I * [1.0, 0.0, 1.0])
    f = flat_rhs_factory(spec, mode=mode)
    y = empty.to_flat().tolist() + [0.0] * (18 * bool(mode))
    with pytest.raises(ZeroPopulation) as exc:
        f(2020.5, y)
    text = "".join(traceback.format_exception(exc.value))
    assert f'File "{name}", line 8, in f\n' in text
    assert "    raise zero_population(labels, (N0, N1, N2), t)\n" in text


@pytest.mark.parametrize("variant, kw, error, match", [
    ("basic", {"mode": "nosuch"}, ValueError, "^unknown mode 'nosuch'$"),
    ("risk", {"mode": "nosuch"}, ValueError, "^unknown mode 'nosuch'$"),
    ("basic", {"mode": "practical", "start": (0.0, None)}, ValueError, "no spillover blocks"),
    ("basic", {"mode": "exact_delta", "tracked_counts": [1e3, 0.0, 0.0]}, ValueError,
     "no spillover blocks"),
], ids=["unknown-mode", "unknown-mode-risk", "no-incidence", "tracked"])
def test_spillover_form_refused_before_compiling(basic, risk, monkeypatch, variant, kw,
                                                 error, match):
    # an unknown mode is named first; no refused form reaches the compiler
    spec = (basic if variant == "basic" else risk)[0]
    monkeypatch.setattr(model, "exec_source", None)
    with pytest.raises(error, match=match):
        flat_rhs_factory(spec, **kw)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["basic", "risk"]),
       pinned=st.booleans())
def test_spillover_blocks_are_independent_property(seed, variant, pinned):
    # block k's rows read the state and block k alone: random values in the
    # other blocks leave them bit for bit, in every mode, so
    # a one-block oracle may read the all-source form with zeros elsewhere
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant)
    state = random_state(rng, spec)
    if pinned:
        spec = replace(spec, mixing=spec.mixing_priors)
    n, x = spec.n, state.to_flat().tolist()
    for mode in MODES:
        f = flat_rhs_factory(spec, mode=mode)
        blocks = rng.uniform(-1.0, 1.0, (n, 2 * n)) * state.N.mean()
        for k in range(n):
            alone = np.zeros_like(blocks)
            alone[k] = blocks[k]
            rows = slice(3 * n + 2 * n * k, 3 * n + 2 * n * (k + 1))
            got = f(2017.0, x + blocks.ravel().tolist())[rows]
            want = f(2017.0, x + alone.ravel().tolist())[rows]
            assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("S, I, C", [((1.0, 2.0), (5.0,), None),
                                     ((1.0,), (5.0, 6.0), None),
                                     ((1.0, 2.0), (5.0, 6.0), (0.0,)),
                                     ((1.0, 2.0), (5.0, 6.0), (0.0, 0.0, 0.0))])
def test_state_vec_refuses_compartments_of_unequal_length(S, I, C):
    # to_flat would broadcast the shorter compartment over the groups
    with pytest.raises(ValueError) as e:
        StateVec.make(S, I, C)
    lengths = (len(S), len(I), len(S) if C is None else len(C))
    assert str(e.value) == "S, I and C have lengths {}, {} and {}".format(*lengths)


@pytest.mark.parametrize("field", ["Pi", "a", "delta", "epsilon"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_group_params_reject_non_finite(field, value):
    # NaN passes both the < 0 and the > 1 comparison, so finiteness is
    # checked first
    with pytest.raises(ValueError, match="must be finite"):
        GroupParams(**{"Pi": 1000.0, "a": 50.0, "delta": 0.01, "epsilon": 0.2,
                       field: value})


_RISK_PRIORS = RiskMixing(eta_msm=0.858, eta_hetfh=0.071, alpha_hetfh=0.06,
                          alpha_hetfl=0.01, xi_hetm=0.005)


@pytest.mark.parametrize("run, error, match", [
    (lambda spec: variant_of("nosuch"), ValueError, "^unknown variant 'nosuch'$"),
    (lambda spec: replace(spec, groups=spec.groups[:2]),
     ValueError, r"^variant 'basic' needs groups \('msm', 'hetf', 'hetm'\), "
                 r"got \('msm', 'hetf'\)$"),
    (lambda spec: replace(spec, mixing_priors=_RISK_PRIORS),
     ValueError, "^mixing_priors must be BasicMixing for basic$"),
    (lambda spec: replace(spec, mixing=_RISK_PRIORS),
     ValueError, "^mixing must be BasicMixing for basic$"),
    (lambda spec: spec.group_index("hetf_h"),
     KeyError, "no group 'hetf_h' in variant 'basic'"),
], ids=["unknown-variant", "wrong-groups", "priors-class", "pinned-class", "group-index"])
def test_spec_refusals(basic, run, error, match):
    with pytest.raises(error, match=match):
        run(basic[0])
