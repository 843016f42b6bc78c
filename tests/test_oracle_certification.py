"""The quantum NE sets and the quantum RDE, certified against the state-vector oracle.

Both properties take their payoffs from ``state_vector_oracle.oracle_payoffs``,
which uses ``ewl.final_state`` and nothing else. They are stated off the seams:
every angle keeps MARGIN from the thresholds where the answer changes. Within
a hair of a threshold the closed forms decide by angle (PHASE_TOL) and the
generic Harsanyi-Selten routine by payoff (TIE_EPS), so the two routes may
legitimately differ there; the seams themselves are covered by
``test_entry_points.py`` and ``test_phase_properties.py``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qpd_rde.ewl import classify_quantum_ne, thresholds
from qpd_rde.game_core import TIE_EPS, DilemmaParams, PayoffMatrix2x2
from qpd_rde.quantum_rde import select_rde_quantum
from qpd_rde.risk_dominance import select_rde_asymmetric, select_rde_symmetric
from state_vector_oracle import oracle_payoffs

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)
MARGIN = 1e-5  # distance of every drawn angle from the thresholds that matter
GAP = 0.01  # smallest |d_g - d_r| of a two-NE point, so the RDE is well conditioned
PURE = (1.0, 0.0)  # Q, D


def pure_payoffs(params, gamma):
    """Oracle payoffs of the four pure profiles, keyed by (p, q)."""
    return {(p, q): oracle_payoffs(params, p, q, gamma) for p in PURE for q in PURE}


def off_seams(seams, lo=0.0, hi=math.pi / 2):
    """Angles in [lo, hi] at least MARGIN from each seam: anywhere, or 2*MARGIN off a seam."""
    near = st.builds(lambda seam, side: seam + 2 * side * MARGIN, st.sampled_from(seams),
                     st.sampled_from((-1, 1)))
    return st.one_of(st.floats(lo, hi), st.sampled_from((lo, hi)), near).filter(
        lambda gamma: lo <= gamma <= hi and all(abs(gamma - s) > MARGIN for s in seams))


@st.composite
def quantum_points(draw):
    """A quantum PD pair, d_g == d_r included, and an angle off gamma1 and gamma2."""
    d_g = draw(st.floats(1e-3, 1.0))
    d_r = draw(st.one_of(st.floats(1e-3, 1.0), st.just(d_g)))
    thr = thresholds(DilemmaParams(d_g, d_r))
    return DilemmaParams(d_g, d_r), draw(off_seams((thr.gamma1, thr.gamma2)))


@st.composite
def two_ne_points(draw):
    """A pair with a two-NE band and an angle inside it, off its ends and off gamma_star."""
    d_r = draw(st.floats(GAP, 1.0))
    d_g = draw(st.floats(GAP, 1.0).filter(lambda d_g: abs(d_g - d_r) >= GAP))
    thr = thresholds(DilemmaParams(d_g, d_r))
    lo, hi = sorted((thr.gamma1, thr.gamma2))
    seams = (lo, hi, thr.gamma_star) if d_r > d_g else (lo, hi)
    return DilemmaParams(d_g, d_r), draw(off_seams(seams, lo + MARGIN, hi - MARGIN))


@SETTINGS
@given(quantum_points())
def test_quantum_ne_sets_are_the_oracle_pure_equilibria(point):
    """classify_quantum_ne lists exactly the pure profiles that no pure deviation improves on
    by more than TIE_EPS. Pure deviations suffice: payoffs are affine in a player's own weight."""
    params, gamma = point
    pay = pure_payoffs(params, gamma)
    oracle_ne = {(p, q) for (p, q), (a, b) in pay.items()
                 if pay[1.0 - p, q][0] - a <= TIE_EPS and pay[p, 1.0 - q][1] - b <= TIE_EPS}
    records = classify_quantum_ne(params, gamma).equilibria
    assert {(rec.profile.p, rec.profile.q) for rec in records} == oracle_ne
    for rec in records:
        oracle = pay[rec.profile.p, rec.profile.q]
        assert all(abs(x - y) <= 1e-12 for x, y in zip(rec.payoffs, oracle)), (rec, oracle)


@SETTINGS
@given(two_ne_points())
def test_quantum_rde_is_the_harsanyi_selten_selection_on_oracle_payoffs(point):
    """select_rde_quantum agrees with the generic selection between the band's two NEs on the
    pure-strategy matrix built from oracle payoffs: same kind and label, values within 1e-12."""
    params, gamma = point
    pay = pure_payoffs(params, gamma)
    matrix = PayoffMatrix2x2([[pay[1.0, 1.0], pay[1.0, 0.0]], [pay[0.0, 1.0], pay[0.0, 0.0]]],
                             labels=("Q", "D"))
    phase, outcome = select_rde_quantum(params, gamma)
    assert phase == ("transitional" if params.d_g > params.d_r else "coexistence")
    generic = (select_rde_asymmetric if phase == "transitional" else select_rde_symmetric)(matrix)
    assert (outcome.kind, outcome.label) == (generic.kind, generic.label)
    values = (outcome.profile.p, outcome.profile.q, *outcome.payoffs)
    expected = (generic.profile.p, generic.profile.q, *generic.payoffs)
    assert all(abs(x - y) <= 1e-12 for x, y in zip(values, expected)), (outcome, generic)
