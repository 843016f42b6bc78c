"""Property tests of the quantum PD phase structure over the whole parameter cube.

Points are drawn both uniformly and on purpose on the seams: d_g or d_r in
{0, +-1}, d_g == d_r, and gamma at 0, pi/2, gamma1, gamma2 or gamma_star,
each also shifted by +-5e-10 and +-PHASE_TOL. Hypothesis runs derandomized,
so every run draws the same examples.
"""

import inspect
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpd_rde import ewl, quantum_rde
from qpd_rde.errors import DegenerateBase, DegenerateDenominator
from qpd_rde.ewl import PHASE_TOL, classify_quantum_ne, resolve_phase, thresholds
from qpd_rde.game_core import DilemmaParams
from qpd_rde.quantum_rde import (
    select_rde_quantum,
    sensitivity_indices,
    transitional_mixing_probability,
)

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


def _gamma_functions():
    """Every public function of ewl and quantum_rde with a gamma parameter."""
    for module in (ewl, quantum_rde):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and "gamma" in inspect.signature(fn).parameters:
                yield fn


GAMMA_FUNCTIONS = list(_gamma_functions())
ARGUMENTS = {"p": 0.5, "q": 0.5, "phase": "transitional", "fixed_a": "D"}


def test_gamma_functions_are_discovered():
    assert len(GAMMA_FUNCTIONS) >= 20


@SETTINGS
@given(points(),
       st.one_of(st.floats(-10.0, 10.0).filter(lambda g: not in_domain(g)),
                 st.sampled_from((-5e-10, -PHASE_TOL, math.pi / 2 + 5e-10,
                                  math.nextafter(math.pi / 2, 4.0), math.nan))))
def test_gamma_outside_domain_raises(point, gamma):
    params, _ = point
    for fn in GAMMA_FUNCTIONS:
        kwargs = {}
        for name, parameter in inspect.signature(fn).parameters.items():
            if name == "gamma":
                kwargs[name] = gamma
            elif name == "params":
                kwargs[name] = params
            elif parameter.default is inspect.Parameter.empty:
                kwargs[name] = ARGUMENTS[name]
        try:
            fn(**kwargs)
        except ValueError:
            continue
        raise AssertionError(f"{fn.__name__} accepted gamma={gamma}")
