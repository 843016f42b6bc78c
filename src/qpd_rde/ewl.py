"""EWL quantum prisoner's dilemma with the one-parameter strategy family.

Two routes to the outcome statistics are kept deliberately independent:
closed-form expressions for the joint distribution and payoffs, and a
two-qubit state-vector pipeline (entangle, apply local unitaries, disentangle,
measure) that serves as the oracle. One block kernel, ``_states``, runs that
pipeline for final_state and for oracle-check's grid. The entangler couples
CC only with DD and CD only with DC, so the kernel reads only the gate's two
2x2 blocks; ``_entangled`` checks each angle's gate for exact zeros off those
blocks and raises ValueError otherwise, so the structure is checked, never
assumed. Basis ordering is (CC, CD, DC, DD) throughout.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from collections import namedtuple

from .errors import OutOfRegime
from .game_core import (DilemmaParams, StrategyProfile, _check_real, _dilemma_matrix, _layout_ne,
                        expected_payoff_classical)

__all__ = [
    "JointDistribution",
    "QuantumPayoffMatrix",
    "PhaseThresholds",
    "Phase",
    "QuantumNeReport",
    "initial_state",
    "strategy_operator",
    "entangling_gate",
    "final_state",
    "joint_distribution",
    "expected_payoff_quantum",
    "pure_quantum_matrix",
    "thresholds",
    "resolve_phase",
    "classify_quantum_ne",
    "pure_ne",
    "grid_best_response_gain",
]

GAMMA_MAX = math.pi / 2
_NORMAL_MIN = sys.float_info.min  # below it a threshold's radicand has lost digits to underflow

# The one angle tolerance of the phase structure, read only by _side: within it
# of gamma1 or gamma2 every entry point reports the boundary phase.
PHASE_TOL = 1e-9
# The most phases resolve_phase keeps per process, least recently used out first. A scalar
# query reads its point's phase once per quantum entry point it calls; the sweep never reads it.
_PHASES = 256

_SIGMA_Y = ((0.0, -1.0j), (1.0j, 0.0))
_SIGMA_X = ((0.0, 1.0), (1.0, 0.0))


def _check_gamma(gamma: float) -> float:
    """gamma as a float in [0, pi/2]; every entry point computes on what this returns."""
    return _check_real(gamma, "gamma", 0.0, GAMMA_MAX, "[0, pi/2]")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num) on floats: start + i*step, stop exactly last."""
    div, delta = max(num - 1, 1), stop - start
    step = delta / div
    # Where the step underflows to zero, numpy scales i/div by delta instead.
    points = [(i * step if step else i / div * delta) + start for i in range(num)]
    return points[:-1] + [stop] if num > 1 else points


def _kron(a, b):
    """Row-major Kronecker product of two 2x2 matrices."""
    (a00, a01), (a10, a11), (b00, b01), (b10, b11) = *a, *b
    return ((a00 * b00, a00 * b01, a01 * b00, a01 * b01), (a00 * b10, a00 * b11, a01 * b10, a01 * b11),
            (a10 * b00, a10 * b01, a11 * b00, a11 * b01), (a10 * b10, a10 * b11, a11 * b10, a11 * b11))


# Each gate's Pauli square as (r == c, k) terms, built once: its entry is cos * (r == c) - isin * k.
_TERMS_Y, _TERMS_X = (tuple(tuple((r == c, k) for c, k in enumerate(row)) for r, row in enumerate(square))
                      for square in (_kron(_SIGMA_Y, _SIGMA_Y), _kron(_SIGMA_X, _SIGMA_X)))


class JointDistribution(namedtuple("JointDistribution", "eps1 eps2 eps3 eps4")):
    """Outcome probabilities over (CC, CD, DC, DD)."""

    __slots__ = ()


class QuantumPayoffMatrix(namedtuple("QuantumPayoffMatrix", "matrix pi_q pi_d")):
    """Pure-quantum-strategy PayoffMatrix2x2 with its off-diagonal scalars."""

    __slots__ = ()


class PhaseThresholds(namedtuple("PhaseThresholds", "gamma1 gamma2 gamma_star")):
    """Entanglement angles delimiting the NE phases; None when undefined."""

    __slots__ = ()


class Phase(namedtuple("Phase", "name band seam thresholds")):
    """Where gamma sits in the quantum PD phase structure of a (d_g, d_r) pair.

    ``band`` is the pair's two-NE band, "transitional" (d_g > d_r) or
    "coexistence" (d_r > d_g), and None when d_g == d_r. On a "boundary",
    ``seam`` names the threshold within PHASE_TOL of gamma: "lower" or "upper".
    """

    __slots__ = ()


_CLASSICAL = Phase("classical", None, None, None)  # the classical game: no angle, band or thresholds


class QuantumNeReport(namedtuple("QuantumNeReport", "phase equilibria")):
    """Phase name and the list of NashEquilibriumRecord at one angle."""

    __slots__ = ()


def initial_state(gamma: float) -> tuple[complex, ...]:
    """Entangled initial state cos(g/2)|CC> + i sin(g/2)|DD>."""
    gamma = _check_gamma(gamma)
    return (complex(math.cos(gamma / 2)), 0.0j, 0.0j, 1.0j * math.sin(gamma / 2))


def strategy_operator(t: float) -> tuple[tuple[complex, ...], ...]:
    """One-parameter local unitary; t=1 is quantum-cooperate, t=0 is defect."""
    t = _check_real(t, "t")
    rt, ru = math.sqrt(t), math.sqrt(1.0 - t)
    return ((1.0j * rt, complex(ru)), (complex(-ru), -1.0j * rt))


def entangling_gate(gamma: float, tampered: bool = False) -> tuple[tuple[complex, ...], ...]:
    """Entangler J = cos(g/2) I - i sin(g/2) (sigma_y x sigma_y).

    ``tampered=True`` substitutes sigma_x x sigma_x, a deliberately wrong
    convention used as a negative control: it does not reproduce the
    closed-form joint distribution.
    """
    gamma = _check_gamma(gamma)
    cos, isin = math.cos(gamma / 2), 1.0j * math.sin(gamma / 2)
    terms = _TERMS_X if tampered else _TERMS_Y
    return tuple([tuple([cos * e - isin * k for e, k in row]) for row in terms])


# The gate entries outside its {CC, DD} and {CD, DC} blocks; each must be exactly zero.
_OFF_BLOCK = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))


def _entangled(gamma, tampered):
    """The angle's gate J as the ten amplitudes the block kernel reads: Jdag's diagonal and
    anti-diagonal by rows, then the CC and DD amplitudes of J|CC>, J's first column. Raises
    ValueError where J has a nonzero entry off its blocks."""
    gate = entangling_gate(gamma, tampered=tampered)
    for r, c in _OFF_BLOCK:
        if gate[r][c]:
            raise ValueError(f"entangling gate entry [{r}][{c}] is {gate[r][c]}, not 0: "
                             f"the gate must couple CC only with DD and CD only with DC")
    (j00, _, _, j03), (_, j11, j12, _), (_, j21, j22, _), (j30, _, _, j33) = gate
    return (j00.conjugate(), j30.conjugate(), j11.conjugate(), j21.conjugate(),
            j12.conjugate(), j22.conjugate(), j03.conjugate(), j33.conjugate(), j00, j30)


def _states(products, entangled):
    """Block kernel: Jdag L J|CC> per operator product L, then per angle's _entangled, in 16 complex
    products and 8 additions a point (a dense kernel takes 32 and 24). Each sum is the dense 4x4
    product's left-to-right sum with its structurally zero terms left out; the nested reference in
    tests/test_ewl.py holds it to the dense product bit for bit, signed zeros included."""
    for (a0, _, _, a3), (b0, _, _, b3), (c0, _, _, c3), (d0, _, _, d3) in products:
        for e0, e3, f1, f2, g1, g2, h0, h3, k0, k3 in entangled:
            v0, v1, v2, v3 = a0 * k0 + a3 * k3, b0 * k0 + b3 * k3, c0 * k0 + c3 * k3, d0 * k0 + d3 * k3
            yield e0 * v0 + e3 * v3, f1 * v1 + f2 * v2, g1 * v1 + g2 * v2, h0 * v0 + h3 * v3


def final_state(p: float, q: float, gamma: float, tampered: bool = False) -> tuple[complex, ...]:
    """State-vector oracle: Jdag (U(p) x U(q)) J |CC>."""
    entangled = _entangled(gamma, tampered)  # checks gamma
    p, q = _check_real(p, "p"), _check_real(q, "q")  # named p and q, as in joint_distribution, not t
    return next(_states([_kron(strategy_operator(p), strategy_operator(q))], [entangled]))


def _grid_states(weights, angles, tampered=False):
    """final_state over product(weights, weights, angles), bit for bit; builds each operand once."""
    entangled = [_entangled(gamma, tampered) for gamma in angles]
    operators = [strategy_operator(t) for t in weights]
    return _states((_kron(u_p, u_q) for u_p in operators for u_q in operators), entangled)


def _grid_pairs(weights, angles, tampered=False):
    """(closed form, state vector) at each point of product(weights, weights, angles), streamed: _joint,
    unchecked as the grid lies in its domain, at cos^2 and sin^2 taken once per angle, zipped with
    _grid_states; the one order of both grids."""
    squares = [(math.cos(gamma) ** 2, math.sin(gamma) ** 2) for gamma in angles]
    closed = (_joint(p, q, c2, s2) for p, q, (c2, s2) in itertools.product(weights, weights, squares))
    return zip(closed, _grid_states(weights, angles, tampered))


def joint_distribution(p: float, q: float, gamma: float) -> JointDistribution:
    """Closed-form outcome probabilities of the quantum game."""
    p, q = _check_real(p, "p"), _check_real(q, "q")
    gamma = _check_gamma(gamma)
    return JointDistribution._make(_joint(p, q, math.cos(gamma) ** 2, math.sin(gamma) ** 2))


def _joint(p: float, q: float, c2: float, s2: float) -> tuple[float, float, float, float]:
    """joint_distribution as a 4-tuple, at checked p and q, c2 = cos^2(gamma), s2 = sin^2(gamma)."""
    return (p * q, p * (1.0 - q) * c2 + (1.0 - p) * q * s2,
            (1.0 - p) * q * c2 + p * (1.0 - q) * s2, (1.0 - p) * (1.0 - q))


def _shift(params: DilemmaParams, s2: float) -> float:
    """Entanglement shift x = (1+d_r+d_g) s2 at s2 = sin^2(gamma); every payoff is affine in it."""
    return (1.0 + params.d_r + params.d_g) * s2


def expected_payoff_quantum(params: DilemmaParams, p: float, q: float, gamma: float) -> tuple[float, float]:
    """Classical expected payoffs plus an entanglement term antisymmetric between the players."""
    profile = p, q = StrategyProfile(p, q)  # checks p, then q
    gamma = _check_gamma(gamma)
    pay_a, pay_b = expected_payoff_classical(params, profile)
    shift = (p - q) * _shift(params, math.sin(gamma) ** 2)
    return pay_a + shift, pay_b - shift


def _pure_payoffs(params: DilemmaParams, s2: float) -> tuple[float, float]:
    """Off-diagonal payoffs (pi_q, pi_d) of the pure-quantum matrix at s2 = sin^2(gamma)."""
    x = _shift(params, s2)
    return -params.d_r + x, 1.0 + params.d_g - x


def pure_quantum_matrix(params: DilemmaParams, gamma: float) -> QuantumPayoffMatrix:
    """Payoff matrix over the pure quantum strategies Q and D."""
    gamma = _check_gamma(gamma)
    pi_q, pi_d = _pure_payoffs(params, math.sin(gamma) ** 2)
    return QuantumPayoffMatrix(_dilemma_matrix(pi_q, pi_d, ("Q", "D")), pi_q, pi_d)


def _arcsin_sqrt(num: float, den: float) -> float | None:
    radicand = num / den
    if _NORMAL_MIN <= radicand <= 1.0:
        return math.asin(math.sqrt(radicand))
    if 0.0 <= radicand < _NORMAL_MIN:  # subnormal or 0: sqrt(num) / sqrt(den) keeps what num / den lost
        return math.asin(math.sqrt(num) / math.sqrt(den)) if num > 0.0 else 0.0  # 0.0, not -0.0
    return None


def thresholds(params: DilemmaParams) -> PhaseThresholds:
    """Phase thresholds gamma1, gamma2 and the coexistence switch gamma_star.

    sin^2(gamma1) = d_r/(1+d_r+d_g), sin^2(gamma2) = d_g/(1+d_r+d_g) and
    sin^2(gamma_star) = (d_g+d_r)/(2(1+d_g+d_r)); an angle whose radicand
    leaves [0, 1] is reported as None.
    """
    dg, dr = params.d_g, params.d_r
    s = _shift(params, 1.0)  # the strength sum 1 + d_r + d_g
    if s <= 0.0:
        return PhaseThresholds(None, None, None)
    return PhaseThresholds(
        gamma1=_arcsin_sqrt(dr, s),
        gamma2=_arcsin_sqrt(dg, s),
        gamma_star=_arcsin_sqrt(dg + dr, 2.0 * s),
    )


def resolve_phase(params: DilemmaParams, gamma: float) -> Phase:
    """The phase of the quantum PD at this angle; every phase decision goes here or to its body.

    Checks gamma's domain and the regime (d_g > 0 and d_r > 0). Within
    PHASE_TOL of gamma1 or gamma2 the phase is "boundary"; otherwise it is
    "classical-like" below both thresholds, "fully-quantum" above both, and
    the pair's band between them. The last _PHASES phases are kept, so a point
    asked through several entry points resolves once.
    """
    return _resolved(params, _check_gamma(gamma))


@functools.lru_cache(maxsize=_PHASES, typed=True)
def _resolved(params: DilemmaParams, gamma: float) -> Phase:
    """resolve_phase's body at the float _check_gamma returned, which the calling entry point computes
    on too; kept per (params, gamma) and their types, raises not kept. Exact: a Phase holds no gamma,
    -0.0 and 0.0 lie on the same sides, and the regime has no -0.0."""
    if params.d_g <= 0.0 or params.d_r <= 0.0:
        raise OutOfRegime("quantum PD regime requires d_g > 0 and d_r > 0")
    return _phase(params, gamma, thresholds(params))


def _side(gamma: float, angle: float) -> int:
    """-1 below angle, 0 within PHASE_TOL of it, +1 above: the one angle-tolerance test."""
    return 0 if abs(gamma - angle) <= PHASE_TOL else -1 if gamma < angle else 1


def _phase(params: DilemmaParams, gamma: float, thr: PhaseThresholds) -> Phase:
    """resolve_phase on the pair's thresholds, for a checked gamma and regime."""
    lo, hi = sorted((thr.gamma1, thr.gamma2))
    band = (None if params.d_g == params.d_r
            else "transitional" if params.d_g > params.d_r else "coexistence")
    side_lo, side_hi = _side(gamma, lo), _side(gamma, hi)
    if side_lo == 0 or side_hi == 0:
        return Phase("boundary", band, "lower" if side_lo == 0 else "upper", thr)
    if side_lo == side_hi:  # below both thresholds or above both
        return Phase("classical-like" if side_lo < 0 else "fully-quantum", band, None, thr)
    return Phase(band, band, None, thr)


def _runs(params: DilemmaParams, gammas: list[float], thr: PhaseThresholds) -> list[tuple[int, int, Phase]]:
    """(start, stop, phase) spans of a monotone angle axis: off the quantum PD regime one span of
    _CLASSICAL; on it the spans over which _side of each angle in thr stays the same, each with the
    _phase of its first angle. Cut by sides, not phase names: where gamma1 and gamma2 lie within
    2 PHASE_TOL, one lower seam covers the sides (0, -1) and (0, 0), whose NE sets differ. As float
    subtraction is monotone, each side times the axis's direction is nondecreasing along the axis:
    <= 0 before ``at``, the first angle on or past the threshold, and >= 0 from it. So _side is read
    at at - 1 and at, and bisected further only on a side where that angle is within the tolerance."""
    if params.d_g <= 0.0 or params.d_r <= 0.0:
        return [(0, len(gammas), _CLASSICAL)]
    n = len(gammas)
    sign = 1 if gammas[0] <= gammas[-1] else -1
    cuts = {0, n}
    for angle in thr:
        def side(gamma, angle=angle):
            return sign * _side(gamma, angle)

        at = bisect.bisect_left(gammas, sign * angle, key=None if sign > 0 else operator.neg)
        low = at if at == 0 or side(gammas[at - 1]) < 0 else bisect.bisect_left(gammas, 0, 0, at - 1, key=side)
        high = at if at == n or side(gammas[at]) > 0 else bisect.bisect_left(gammas, 1, at + 1, n, key=side)
        cuts |= {low, high}
    return [(start, stop, _phase(params, gammas[start], thr)) for start, stop in itertools.pairwise(sorted(cuts))]


def classify_quantum_ne(params: DilemmaParams, gamma: float) -> QuantumNeReport:
    """Phase label and pure-quantum-strategy NEs at the given entanglement: pure_ne of the quantum game."""
    gamma = _check_gamma(gamma)
    return _pure_ne(params, gamma, _resolved(params, gamma))


def pure_ne(params: DilemmaParams, gamma: float | None = None) -> QuantumNeReport:
    """Phase and pure NEs, row-major, of the dilemma layout: the classical game (phase "classical") where
    gamma is None, read from the signs of the strengths, or the pure-quantum game at entanglement gamma."""
    return _pure_ne(params, None, _CLASSICAL) if gamma is None else classify_quantum_ne(params, gamma)


def _pure_ne(params: DilemmaParams, gamma: float | None, phase: Phase) -> QuantumNeReport:
    """pure_ne at the phase already resolved for gamma, or at _CLASSICAL for the classical game."""
    if phase is _CLASSICAL:
        dg, dr = params
        return QuantumNeReport("classical", _layout_ne(-dr, -dg, *_pure_payoffs(params, 0.0)))
    thr = phase.thresholds
    return QuantumNeReport(phase.name, _layout_ne(_side(gamma, thr.gamma1), _side(gamma, thr.gamma2),
                                                  *_pure_payoffs(params, math.sin(gamma) ** 2)))


def grid_best_response_gain(params: DilemmaParams, p: float, q: float, gamma: float) -> tuple[float, float]:
    """Best unilateral improvement each player can find on the 1001-point strategy grid.

    Brute-force certification helper: a profile is an NE of the one-parameter
    game iff both gains are (numerically) nonpositive.
    """
    base_a, base_b = expected_payoff_quantum(params, p, q, gamma)
    grid = _linspace(0.0, 1.0, 1001)
    gain_a = max(expected_payoff_quantum(params, t, q, gamma)[0] - base_a for t in grid)
    gain_b = max(expected_payoff_quantum(params, p, t, gamma)[1] - base_b for t in grid)
    return gain_a, gain_b
