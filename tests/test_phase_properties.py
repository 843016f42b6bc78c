"""Property tests of the quantum PD phase structure over the whole parameter cube.

Points are drawn both uniformly and on purpose on the seams: d_g or d_r in
{0, +-1}, d_g == d_r, and gamma at 0, pi/2, gamma1, gamma2 or gamma_star,
each also shifted by +-5e-10 and +-PHASE_TOL. Also covered: the players'
payoff antisymmetry, the [0, 1] domain of every strategy weight, and the
classical two-NE selection on chicken games. The quantum NE set must agree
with the phase: each interior phase lists its own set and a boundary the union
of the sets beside its thresholds, at angles within a few ulps of
gamma1, gamma2 +- PHASE_TOL. On coexistence bands down to d_r - d_g = 1e-12,
where gamma_star lies within PHASE_TOL of a seam, select_rde,
select_rde_quantum, rde and a one-row sweep give one RDE, as they do on a
transitional seam: the seam's pure record. An int, a bool, a Fraction, a
numpy.float64 or a 0-d array equal to a float gives what that float gives,
and a Decimal or a str the domain error. Hypothesis
runs derandomized, so every run draws the same examples.
"""

import inspect
import itertools
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpd_rde import ewl, quantum_rde
from qpd_rde.errors import DegenerateBase, DegenerateDenominator
from qpd_rde.ewl import (
    PHASE_TOL,
    classify_quantum_ne,
    expected_payoff_quantum,
    resolve_phase,
    thresholds,
)
from qpd_rde.game_core import DilemmaParams, PayoffMatrix2x2, StrategyProfile, build_dilemma_matrix
from qpd_rde.quantum_rde import (
    select_rde_quantum,
    sensitivity_indices,
    transitional_mixing_probability,
    unilateral_deviation_payoffs,
)
from qpd_rde.risk_dominance import select_rde_asymmetric, select_rde_symmetric
from test_entry_points import run, run_json, same, shifted

SETTINGS = settings(derandomize=True, database=None, max_examples=400, deadline=None)

OFFSETS = (0.0, 5e-10, -5e-10, PHASE_TOL, -PHASE_TOL)

any_strength = st.one_of(st.floats(-1.0, 1.0), st.sampled_from((0.0, 1.0, -1.0)))
positive_strength = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1.0))


def seam_angles(params):
    thr = thresholds(params)
    anchors = (0.0, math.pi / 2, thr.gamma1, thr.gamma2, thr.gamma_star)
    return [g for g in anchors if g is not None]


@st.composite
def points(draw, strength=any_strength):
    """(params, gamma), gamma possibly a seam angle shifted outside [0, pi/2]."""
    d_g = draw(strength)
    d_r = draw(st.one_of(strength, st.just(d_g)))
    params = DilemmaParams(d_g, d_r)
    gamma = draw(st.one_of(
        st.floats(0.0, math.pi / 2),
        st.builds(lambda g, off: g + off, st.sampled_from(seam_angles(params)),
                  st.sampled_from(OFFSETS))))
    return params, gamma


def in_domain(gamma):
    return 0.0 <= gamma <= math.pi / 2


@SETTINGS
@given(points(positive_strength))
def test_ne_and_rde_report_the_same_phase(point):
    params, gamma = point
    assume(in_domain(gamma))
    ne_phase = classify_quantum_ne(params, gamma).phase
    try:
        rde_phase, _ = select_rde_quantum(params, gamma)
    except DegenerateDenominator:
        assert params.d_g == params.d_r and ne_phase == "boundary"
        return
    assert ne_phase == rde_phase


@SETTINGS
@given(points(positive_strength))
def test_pure_rde_is_in_the_ne_set(point):
    params, gamma = point
    assume(in_domain(gamma))
    try:
        phase, rde = select_rde_quantum(params, gamma)
    except DegenerateDenominator:
        return
    ne = {(rec.profile.p, rec.profile.q) for rec in classify_quantum_ne(params, gamma).equilibria}
    if rde.kind == "pure":
        assert (rde.profile.p, rde.profile.q) in ne
    else:
        # a mixture of the band's NE pair
        assert phase in ("transitional", "coexistence") and len(ne) == 2


# The pure-quantum NE set of each interior phase, and the interior phase on
# each side (-1 below, +1 above) of gamma1 and of gamma2.
INTERIOR_NE = {"classical-like": {"(D,D)"}, "transitional": {"(Q,D)", "(D,Q)"},
               "coexistence": {"(Q,Q)", "(D,D)"}, "fully-quantum": {"(Q,Q)"}}
PHASE_BY_SIDES = {(-1, -1): "classical-like", (1, -1): "transitional",
                  (-1, 1): "coexistence", (1, 1): "fully-quantum"}
TOL_OFFSETS = (0.0, 5e-10, -5e-10, PHASE_TOL, -PHASE_TOL, 2 * PHASE_TOL, -2 * PHASE_TOL)


@st.composite
def threshold_points(draw):
    """A PD pair, uniform, on the diagonal or 1 ulp or about 1e-9 off it, and an
    angle within 2 ulps of gamma1 or gamma2 shifted by up to 2 PHASE_TOL."""
    d_g = draw(positive_strength)
    d_r = draw(st.one_of(positive_strength, st.builds(
        shifted, st.just(d_g), st.sampled_from((0.0, 1e-9, -1e-9)), st.integers(-1, 1))))
    assume(0.0 < d_r <= 1.0)
    thr = thresholds(DilemmaParams(d_g, d_r))
    gamma = draw(st.builds(shifted, st.sampled_from((thr.gamma1, thr.gamma2)),
                           st.sampled_from(TOL_OFFSETS), st.integers(-2, 2)))
    assume(in_domain(gamma))
    return DilemmaParams(d_g, d_r), gamma


@SETTINGS
@given(threshold_points())
# CHANGES.md's 0.4.1 example: (Q,D) and (D,Q) listed as classical-like, (D,D) as transitional.
@example((DilemmaParams(0.42636586502253654, 0.2663275827900337), 0.40787599873979397))
@example((DilemmaParams(0.42636586502253654, 0.2663275827900337), 0.407876000739794))
def test_quantum_ne_set_agrees_with_the_phase(point):
    params, gamma = point
    thr = thresholds(params)
    report = classify_quantum_ne(params, gamma)
    listed = {f"({'QD'[rec.profile.p == 0.0]},{'QD'[rec.profile.q == 0.0]})"
              for rec in report.equilibria}
    # Each threshold's sides: both within PHASE_TOL of it, else the one gamma is on.
    sides = [(-1, 1) if abs(gamma - t) <= PHASE_TOL else (-1,) if gamma < t else (1,)
             for t in (thr.gamma1, thr.gamma2)]
    if report.phase == "boundary":
        assert len(sides[0]) + len(sides[1]) > 2
        expected = set().union(*(INTERIOR_NE[PHASE_BY_SIDES[s1, s2]]
                                 for s1 in sides[0] for s2 in sides[1]))
    else:
        assert PHASE_BY_SIDES[sides[0] + sides[1]] == report.phase
        expected = INTERIOR_NE[report.phase]
    assert listed == expected


@SETTINGS
@given(st.data())
def test_transitional_seam_p_star_is_pure(data):
    d_g, d_r = sorted((data.draw(positive_strength), data.draw(positive_strength)), reverse=True)
    assume(d_g > d_r)
    params = DilemmaParams(d_g, d_r)
    thr = thresholds(params)
    offset = data.draw(st.sampled_from(OFFSETS))
    gamma = data.draw(st.sampled_from((thr.gamma1, thr.gamma2))) + offset
    assume(in_domain(gamma))
    phase = resolve_phase(params, gamma)
    if abs(offset) < PHASE_TOL:
        assert phase.name == "boundary"
    if phase.name != "boundary":
        return
    p_star = transitional_mixing_probability(params, gamma)
    assert p_star == (0.0 if phase.seam == "lower" else 1.0)
    try:
        sensitivity_indices(params, gamma)
    except DegenerateBase:
        assert p_star == 0.0
    except DegenerateDenominator:
        assert (d_g - d_r) ** 2 == 0.0
    else:
        assert p_star == 1.0


@SETTINGS
@given(st.data())
def test_transitional_seam_rde_takes_its_pure_cells_payoffs(data):
    # Where p* snaps to 0 or 1, select_rde gives the seam's pure record, (D,D) at (0, 0) below
    # and (Q,Q) at (1, 1) above, kind and label included, as select_rde_quantum, rde and the sweep give it.
    d_g, d_r = sorted((data.draw(positive_strength), data.draw(positive_strength)), reverse=True)
    assume(d_g > d_r)
    params = DilemmaParams(d_g, d_r)
    thr = thresholds(params)
    gamma = data.draw(st.sampled_from((thr.gamma1, thr.gamma2))) + data.draw(st.sampled_from(OFFSETS))
    assume(in_domain(gamma) and resolve_phase(params, gamma).name == "boundary")
    t = 0.0 if resolve_phase(params, gamma).seam == "lower" else 1.0
    outcome = quantum_rde.select_rde(params, gamma).rde
    assert outcome == select_rde_quantum(params, gamma)[1]
    assert outcome == ("pure", (t, t), (t, t), "(D,D)" if t == 0.0 else "(Q,Q)")
    expected = [outcome.kind, outcome.label, *outcome.profile, *outcome.payoffs]
    argv = (f"--dg={d_g!r}", f"--dr={d_r!r}", f"--gamma={gamma!r}")
    code, rde, err = run_json((d_g, d_r, gamma), "rde", *argv)
    assert code == 0, err
    assert same([rde[key] for key in ("rde_kind", "rde_label", "p", "q", "payoff_a", "payoff_b")], expected)
    code, (row,), err = run_json((d_g, d_r, gamma), "sweep", *argv, "--quantities", "rde")
    assert code == 0, err
    assert same([row[cell] for cell in ("rde_kind", "rde_label", "rde_p", "rde_q", "rde_payoff_a",
                                        "rde_payoff_b")], expected)


@st.composite
def narrow_coexistence_points(draw):
    """A coexistence band down to d_r - d_g = 1e-12, at its seams +-PHASE_TOL or at gamma_star."""
    d_g = draw(st.floats(0.0, 1.0, exclude_min=True))
    d_r = d_g + 10.0 ** draw(st.floats(-12.0, -6.0))
    assume(d_g < d_r <= 1.0)
    thr = thresholds(DilemmaParams(d_g, d_r))
    gamma = draw(st.one_of(
        st.builds(shifted, st.sampled_from((thr.gamma1, thr.gamma2)),
                  st.sampled_from((-PHASE_TOL, 0.0, PHASE_TOL)), st.sampled_from((-1, 0, 1))),
        st.just(thr.gamma_star)))
    return d_g, d_r, gamma


@SETTINGS
@given(narrow_coexistence_points())
@example((0.5, 0.5 + 2e-9, 0.5235987753096237))  # gamma2, with gamma_star within PHASE_TOL of it
@example((0.5, 0.5 + 2e-9, 0.523598775886974))  # gamma_star
@example((0.5, 0.5 + 2e-9, 0.5235987764643242))  # gamma1
def test_every_entry_point_takes_one_coexistence_rde_on_a_narrow_band(point):
    # Where gamma_star lies within PHASE_TOL of a seam, select_rde takes the seam's record,
    # as select_rde_quantum, rde and the sweep do, not the U(0.5) tie.
    d_g, d_r, gamma = point
    params = DilemmaParams(d_g, d_r)
    assume(in_domain(gamma) and resolve_phase(params, gamma).name in ("coexistence", "boundary"))
    outcome = quantum_rde.select_rde(params, gamma).rde
    expected = [outcome.kind, outcome.profile.p, outcome.profile.q, *outcome.payoffs]
    _, selected = select_rde_quantum(params, gamma)
    assert same([selected.kind, *selected.profile, *selected.payoffs], expected)
    argv = (f"--dg={d_g!r}", f"--dr={d_r!r}", f"--gamma={gamma!r}")
    code, rde, err = run_json(point, "rde", *argv)
    assert code == 0, err
    assert same([rde[key] for key in ("rde_kind", "p", "q", "payoff_a", "payoff_b")], expected)
    code, (row,), err = run_json(point, "sweep", *argv, "--quantities", "rde")
    assert code == 0, err
    assert same([row[cell] for cell in ("rde_kind", "rde_p", "rde_q", "rde_payoff_a", "rde_payoff_b")],
                expected)


# Each phase off the seams and the class of the effective strengths (d_g - x, d_r - x).
CLASS_OF_PHASE = {"classical-like": "PD", "transitional": "CH", "coexistence": "SH",
                  "fully-quantum": "TRIVIAL"}


@SETTINGS
@given(positive_strength, positive_strength, st.floats(0.0, math.pi / 2))
def test_off_the_seams_the_quantum_rde_is_the_classical_rule_at_the_effective_strengths(
        d_g, d_r, gamma):
    params = DilemmaParams(d_g, d_r)
    assume(all(abs(gamma - angle) > 1e-6 for angle in thresholds(params)))
    x = (1.0 + d_g + d_r) * math.sin(gamma) ** 2
    g, r = d_g - x, d_r - x
    # The classical rule, written out at (g, r) with Q as the first action.
    if g > 0 and r > 0:
        kind, expected = "PD", ("pure", "(D,D)", 0.0)
    elif g < 0 and r < 0:
        kind, expected = "TRIVIAL", ("pure", "(Q,Q)", 1.0)
    elif g > r:
        kind, expected = "CH", ("mixed", None, -r / (g - r))
    else:
        kind, expected = "SH", ("pure", "(Q,Q)", 1.0) if abs(g) > r else ("pure", "(D,D)", 0.0)
    phase, outcome = select_rde_quantum(params, gamma)
    assert CLASS_OF_PHASE[phase] == kind
    assert (outcome.kind, outcome.label) == expected[:2]
    assert outcome.profile.p == outcome.profile.q == pytest.approx(expected[2], abs=1e-12)


def _gamma_functions():
    """Every public function of ewl and quantum_rde with a gamma parameter."""
    for module in (ewl, quantum_rde):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and "gamma" in inspect.signature(fn).parameters:
                yield fn


GAMMA_FUNCTIONS = list(_gamma_functions())
ARGUMENTS = {"p": 0.5, "q": 0.5, "fixed_a": "D"}


def test_gamma_functions_are_discovered():
    assert [fn.__name__ for fn in GAMMA_FUNCTIONS] == [
        "initial_state", "entangling_gate", "final_state", "joint_distribution",
        "expected_payoff_quantum", "pure_quantum_matrix", "resolve_phase",
        "classify_quantum_ne", "pure_ne", "grid_best_response_gain",
        "situ_risk_transitional", "situ_risk_coexistence", "select_rde_quantum", "select_rde",
        "transitional_mixing_probability", "sensitivity_partials", "sensitivity_indices",
        "unilateral_deviation_payoffs",
    ]


@SETTINGS
@given(points(),
       st.one_of(st.floats(-10.0, 10.0).filter(lambda g: not in_domain(g)),
                 st.sampled_from((-5e-10, -PHASE_TOL, math.pi / 2 + 5e-10,
                                  math.nextafter(math.pi / 2, 4.0), math.nan))))
def test_gamma_outside_domain_raises(point, gamma):
    params, _ = point
    for fn in GAMMA_FUNCTIONS:
        try:
            call_at(fn, params, gamma)
        except ValueError:
            continue
        raise AssertionError(f"{fn.__name__} accepted gamma={gamma}")


def call_at(fn, params, gamma):
    """fn of GAMMA_FUNCTIONS at params and gamma, its other required arguments from ARGUMENTS."""
    kwargs = {}
    for name, parameter in inspect.signature(fn).parameters.items():
        if name == "gamma":
            kwargs[name] = gamma
        elif name == "params":
            kwargs[name] = params
        elif parameter.default is inspect.Parameter.empty:
            kwargs[name] = ARGUMENTS[name]
    return fn(**kwargs)


def outcome(call, value):
    """repr of call(value), or its error's type and text."""
    try:
        return repr(call(value))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def equal_numbers(x):
    """x as an int, a bool, a Fraction, a numpy.float64 and a 0-d array, each where float() gives x
    back, the sign of a zero included."""
    numbers = []
    for kind in (int, bool, Fraction, np.float64, np.array):
        try:
            number = kind(x)
        except (ValueError, OverflowError):  # no int or Fraction is nan or inf
            continue
        if repr(float(number)) == repr(x):
            numbers.append(number)
    return numbers


# Floats equal to an int or a bool, in and out of each domain, NaN, inf and any float in [-2, 2].
number = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 0.1, math.nan, math.inf)),
                   st.floats(-2.0, 2.0))


@settings(SETTINGS, max_examples=100)  # grid_best_response_gain takes ~10 ms a call
@given(points(), number)
def test_a_number_equal_to_a_float_gives_what_the_float_gives(point, x):
    """Every gamma function at gamma and the record constructors at each field give, for a number
    equal to the float x, the repr or error x gives, with the phase cache warm and cleared; a Decimal
    and a str raise the domain error."""
    params, _ = point
    calls = [lambda value, fn=fn: call_at(fn, params, value) for fn in GAMMA_FUNCTIONS]
    calls += [lambda value: DilemmaParams(value, params.d_r), lambda value: DilemmaParams(params.d_g, value),
              lambda value: StrategyProfile(value, 0.5), lambda value: StrategyProfile(0.5, value)]
    for call in calls:
        expected = outcome(call, x)  # resolves, and so caches, (params, x) where in the domain
        for value in equal_numbers(x):
            for clear in (False, True):
                if clear:
                    ewl._resolved.cache_clear()
                assert outcome(call, value) == expected, (value, clear)
        for value in (Decimal(repr(x)), repr(x)):
            for clear in (False, True):
                if clear:
                    ewl._resolved.cache_clear()
                with pytest.raises(ValueError, match=" must lie in "):
                    call(value)


unit = st.floats(0.0, 1.0)
angle = st.floats(0.0, math.pi / 2)


@SETTINGS
@given(st.builds(DilemmaParams, any_strength, any_strength), unit, unit, angle)
def test_payoffs_are_antisymmetric_under_player_swap(params, p, q, gamma):
    assert expected_payoff_quantum(params, p, q, gamma)[0] == pytest.approx(
        expected_payoff_quantum(params, q, p, gamma)[1], abs=1e-12)


# Every public function taking a strategy weight, with that weight as argument.
WEIGHT_CALLS = {
    "StrategyProfile p": lambda params, t, gamma: StrategyProfile(t, 0.5),
    "StrategyProfile q": lambda params, t, gamma: StrategyProfile(0.5, t),
    "strategy_operator t": lambda params, t, gamma: ewl.strategy_operator(t),
    "final_state p": lambda params, t, gamma: ewl.final_state(t, 0.5, gamma),
    "final_state q": lambda params, t, gamma: ewl.final_state(0.5, t, gamma),
    "joint_distribution p": lambda params, t, gamma: ewl.joint_distribution(t, 0.5, gamma),
    "joint_distribution q": lambda params, t, gamma: ewl.joint_distribution(0.5, t, gamma),
    "PayoffMatrix2x2.expected_payoffs p":
        lambda params, t, gamma: build_dilemma_matrix(params).expected_payoffs(t, 0.5),
    "PayoffMatrix2x2.expected_payoffs q":
        lambda params, t, gamma: build_dilemma_matrix(params).expected_payoffs(0.5, t),
    "expected_payoff_quantum p": lambda params, t, gamma: expected_payoff_quantum(params, t, 0.5, gamma),
    "expected_payoff_quantum q": lambda params, t, gamma: expected_payoff_quantum(params, 0.5, t, gamma),
    "grid_best_response_gain p":
        lambda params, t, gamma: ewl.grid_best_response_gain(params, t, 0.5, gamma),
    "grid_best_response_gain q":
        lambda params, t, gamma: ewl.grid_best_response_gain(params, 0.5, t, gamma),
    "unilateral_deviation_payoffs q":
        lambda params, t, gamma: unilateral_deviation_payoffs(params, gamma, "half", t),
}


@SETTINGS
@given(st.builds(DilemmaParams, any_strength, any_strength), angle,
       st.one_of(st.floats(-10.0, 10.0).filter(lambda t: not 0.0 <= t <= 1.0),
                 st.sampled_from((math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0),
                                  math.inf, -math.inf, math.nan))))
def test_weight_outside_unit_interval_raises(params, gamma, t):
    for name, call in WEIGHT_CALLS.items():
        try:
            call(params, t, gamma)
        except ValueError:
            continue
        raise AssertionError(f"{name} accepted {t}")


def swap_b_columns(matrix):
    return PayoffMatrix2x2([[(matrix.a[r][1 - c], matrix.b[r][1 - c]) for c in range(2)]
                            for r in range(2)], matrix.labels)


@SETTINGS
@given(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)),
       st.one_of(st.floats(-1.0, 0.0, exclude_max=True), st.just(-1.0)))
def test_asymmetric_selection_is_symmetric_selection_with_b_columns_swapped(d_g, d_r):
    """Chicken's off-diagonal NEs always tie; swapping B's columns puts them on the diagonal."""
    matrix = build_dilemma_matrix(DilemmaParams(d_g, d_r))
    swapped = swap_b_columns(matrix)
    try:
        asym = select_rde_asymmetric(matrix)
    except DegenerateDenominator:
        with pytest.raises(DegenerateDenominator):
            select_rde_symmetric(swapped)
        return
    sym = select_rde_symmetric(swapped)
    assert asym.kind == sym.kind == "mixed"
    assert asym.profile.p == pytest.approx(sym.profile.p, abs=1e-12)
    assert asym.profile.q == pytest.approx(1.0 - sym.profile.q, abs=1e-12)
    assert asym.payoffs == pytest.approx(sym.payoffs, abs=1e-12)


# The PD square, subnormal strengths, 1 ulp below 1 and d_g == d_r included.
pd_strength = st.one_of(st.floats(5e-324, 1.0), st.sampled_from(
    (5e-324, 2.2250738585072014e-308, 1e-300, 1e-16, 0.5, math.nextafter(1.0, 0.0), 1.0)))
SEAM_STEP = 2.5e-10  # 8 steps of it span a threshold's boundary band, 2 * PHASE_TOL wide


def assert_rde_rises(rdes):
    """Over (p, q, payoffs) of each defined RDE in order of gamma: p, q and the payoff sum never
    decrease, and each payoff lies in [0, 1]."""
    for (p0, q0, pay0), (p1, q1, pay1) in itertools.pairwise(rdes):
        assert p0 <= p1 and q0 <= q1 and sum(pay0) <= sum(pay1)
    for _, _, payoffs in rdes:
        assert all(0.0 <= x <= 1.0 for x in payoffs)


@SETTINGS
@given(st.tuples(pd_strength, pd_strength) | pd_strength.map(lambda d: (d, d)), st.integers(2, 60))
def test_entanglement_moves_the_rde_from_mutual_defection_to_quantum_cooperation(pair, steps):
    """The paper's claims over the PD square: along gamma the RDE's weights on Q and its payoff sum
    never decrease, its payoffs stay in [0, 1], and it is (D,D) at 0 and (Q,Q) at pi/2, wherever it
    is defined (at the common threshold of d_g == d_r it is not). Through select_rde at angles
    stepped around each threshold, and through one multi-angle JSON sweep."""
    params = DilemmaParams(*pair)
    gammas = set(ewl._linspace(0.0, math.pi / 2, 41))
    for angle in thresholds(params):
        gammas.update(angle + k * SEAM_STEP for k in range(-12, 13))
    path = {}
    for gamma in sorted(g for g in gammas if in_domain(g)):
        try:
            rde = quantum_rde.select_rde(params, gamma).rde
        except DegenerateDenominator:
            assert params.d_g == params.d_r and resolve_phase(params, gamma).name == "boundary"
            continue
        path[gamma] = (*rde.profile, rde.payoffs)
    assert_rde_rises(list(path.values()))
    for gamma, weights in ((0.0, (0.0, 0.0)), (math.pi / 2, (1.0, 1.0))):
        assert gamma not in path or path[gamma][:2] == weights
    assert math.pi / 2 in path

    code, out, err = run("sweep", "--dg", repr(params.d_g), "--dr", repr(params.d_r), "--gamma-range", "0",
                         repr(math.pi / 2), str(steps), "--quantities", "rde", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)
    rdes = [(row["rde_p"], row["rde_q"], (row["rde_payoff_a"], row["rde_payoff_b"])) for row in rows
            if row["rde_kind"] is not None]
    assert_rde_rises(rdes)
    for row in rows:
        if row["gamma"] in path:
            assert (row["rde_p"], row["rde_q"]) == path[row["gamma"]][:2], row
    assert (rows[-1]["rde_p"], rows[-1]["rde_q"]) == (1.0, 1.0)
