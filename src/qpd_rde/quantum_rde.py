"""Risk-dominant equilibrium selection in the classical dilemma and across the quantum PD phases.

select_rde answers for either game. Covers the transitional phase (d_g > d_r, two asymmetric
NEs) and the coexistence phase (d_r > d_g, mutual defection vs. mutual quantum-cooperation),
plus Situ risk measures, sensitivity analysis of the transitional mixing
probability, the group-benefit entanglement threshold, and the
unilateral-deviation payoff curves. Both RDEs and their deviation losses are
risk_dominance's rule for the dilemma layout shifted by x = ewl._shift.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateBase, DegenerateDenominator, OutOfPhase, OutOfRegime
from .ewl import (_CLASSICAL, Phase, _arcsin_sqrt, _check_gamma, _pure_payoffs, _resolved, _shift, _side,
                  expected_payoff_quantum)
from .game_core import _PURE, DilemmaParams, classify_dilemma
from .risk_dominance import _CH, _PD, _RDE_DD, _SH, _TRIVIAL, RdeOutcome, _layout_losses, _layout_rde

__all__ = [
    "RdeReport",
    "SituRisk",
    "SensitivityReport",
    "CriticalAngles",
    "situ_risk_transitional",
    "situ_risk_coexistence",
    "select_rde_quantum",
    "select_rde",
    "transitional_mixing_probability",
    "sensitivity_partials",
    "sensitivity_critical_angles",
    "sensitivity_indices",
    "group_benefit_threshold",
    "unilateral_deviation_payoffs",
]

_RDE_QQ = RdeOutcome("pure", _PURE[0][0], (1.0, 1.0), "(Q,Q)")
_TIE_LABEL = "U(0.5)xU(0.5)"
# Off the seams each phase is the class of the effective strengths (d_g - x, d_r - x).
_KIND = {"classical-like": _PD, "transitional": _CH, "coexistence": _SH, "fully-quantum": _TRIVIAL}


RdeReport = namedtuple("RdeReport", "phase rde losses")
RdeReport.__doc__ = """The Phase ("classical", without thresholds, in the classical game), the RdeOutcome, and
(StrategyProfile, DeviationLossPair) at each NE of a two-NE class, row-major, or () off one."""

SituRisk = namedtuple("SituRisk", "risk_a risk_b")
SituRisk.__doc__ = """Maximum loss each player at an NE can suffer from the opponent deviating."""

SensitivityReport = namedtuple("SensitivityReport", "p_star partial_dg partial_dr partial_gamma "
                               "index_dg index_dr index_gamma semi_elasticity_gamma", defaults=(None,) * 4)
SensitivityReport.__doc__ = """Partials and (optionally) indices of the transitional mixing probability."""

CriticalAngles = namedtuple("CriticalAngles", "gamma_g gamma_r")
CriticalAngles.__doc__ = """Angles where the d_g and d_r partials of the mixing probability change sign."""


def _on_band(phase: Phase, band: str) -> bool:
    """Whether a resolved phase lies on the closed ``band``: inside it or on one of its seams."""
    return phase.band == band and phase.name in (band, "boundary")


def _in_band(params: DilemmaParams, gamma: float, band: str) -> tuple[float, Phase]:
    """gamma as a checked float and its phase, which must lie on the pair's closed ``band``."""
    gamma = _check_gamma(gamma)
    phase = _resolved(params, gamma)
    if phase.band is None:
        raise OutOfPhase("(d_g, d_r) = ({}, {}) has no two-NE band", params.d_g, params.d_r)
    if not _on_band(phase, band):  # a template and its values: the text is formatted only if read
        raise OutOfPhase("gamma={} outside the {} band of (d_g, d_r) = ({}, {})",
                         gamma, band, params.d_g, params.d_r)
    return gamma, phase


def situ_risk_transitional(params: DilemmaParams, gamma: float) -> tuple[SituRisk, SituRisk]:
    """Situ risks at the asymmetric NEs, returned as (at D(x)Q, at Q(x)D).

    At D(x)Q only the defector bears risk; the payoffs are affine in the
    deviating parameter, so the maximum loss is attained at an endpoint.
    """
    gamma, _ = _in_band(params, gamma, "transitional")
    loss = _pure_payoffs(params, math.sin(gamma) ** 2)[1]
    return SituRisk(loss, 0.0), SituRisk(0.0, loss)


def situ_risk_coexistence(params: DilemmaParams, gamma: float) -> tuple[SituRisk, SituRisk]:
    """Situ risks at the symmetric NEs, returned as (at D(x)D, at Q(x)Q)."""
    gamma, _ = _in_band(params, gamma, "coexistence")
    loss = 1.0 + params.d_r - _shift(params, math.sin(gamma) ** 2)
    return SituRisk(0.0, 0.0), SituRisk(loss, loss)


def transitional_mixing_probability(params: DilemmaParams, gamma: float) -> float:
    """Mixing probability p* of the transitional RDE, its weight on Q: 0 at the lower seam, 1 at the upper."""
    return _select_rde(params, *_in_band(params, gamma, "transitional")).profile.p


def select_rde_quantum(params: DilemmaParams, gamma: float) -> tuple[str, RdeOutcome]:
    """select_rde's phase label and RDE in the quantum game; requires d_g, d_r > 0."""
    gamma = _check_gamma(gamma)
    phase = _resolved(params, gamma)
    return phase.name, _select_rde(params, gamma, phase)


def select_rde(params: DilemmaParams, gamma: float | None = None) -> RdeReport:
    """Phase, RDE and deviation losses of the classical game where gamma is None, or else of the
    pure-quantum game at entanglement gamma: the unique NE outside the two-NE bands and on a seam
    the pure limit both sides share, (D,D) at the lower threshold and (Q,Q) at the upper one."""
    if gamma is None:
        kind = classify_dilemma(params).kind  # once, for both the RDE and the losses
        return RdeReport(_CLASSICAL, _layout_rde(params, kind), _layout_losses(params, kind))
    gamma = _check_gamma(gamma)
    phase = _resolved(params, gamma)
    kind = _KIND.get(phase.name)
    shift = _shift(params, math.sin(gamma) ** 2) if kind in (_CH, _SH) else 0.0  # read only by the two-NE classes
    return RdeReport(phase, _select_rde(params, gamma, phase), _layout_losses(params, kind, shift))


def _select_rde(params: DilemmaParams, gamma: float | None, phase: Phase) -> RdeOutcome:
    """The RDE at the phase resolved for gamma, the one phase-to-record rule; phase _CLASSICAL is the
    classical game. Off a seam it is _layout_rde of the phase's class; on one, the pure limit."""
    if phase is _CLASSICAL:
        return _layout_rde(params, classify_dilemma(params).kind)
    if phase.seam is None:  # the shift is read only by CH, the side of gamma_star only by SH
        kind = _KIND[phase.name]
        return _layout_rde(params, kind, _shift(params, math.sin(gamma) ** 2) if kind is _CH else 0.0,
                           _side(gamma, phase.thresholds.gamma_star) if kind is _SH else None,
                           _RDE_QQ, _TIE_LABEL)
    if phase.band is None:
        # d_g == d_r at the common threshold: both deviation-loss products vanish.
        raise DegenerateDenominator("RDE undefined at the common threshold when d_g equals d_r")
    return _RDE_DD if phase.seam == "lower" else _RDE_QQ


def sensitivity_partials(params: DilemmaParams, gamma: float) -> SensitivityReport:
    """Closed-form partials of p* with respect to d_g, d_r and gamma."""
    gamma, phase = _in_band(params, gamma, "transitional")
    return SensitivityReport(*_partials(params, gamma, _select_rde(params, gamma, phase).profile.p))


def _partials(params: DilemmaParams, gamma: float, p_star: float) -> tuple[float, float, float, float]:
    """p* and its partials in d_g, d_r and gamma on the transitional band, at the caller's p*."""
    dg, dr = params.d_g, params.d_r
    sin = math.sin(gamma)
    s2 = sin ** 2
    gap2 = (dg - dr) ** 2
    if gap2 == 0.0:
        raise DegenerateDenominator("(d_g - d_r)^2 underflows; the partials are undefined")
    return (p_star,
            (dr - (1.0 + 2.0 * dr) * s2) / gap2,
            (-dg + (1.0 + 2.0 * dg) * s2) / gap2,
            2.0 * _shift(params, 1.0) * sin * math.cos(gamma) / (dg - dr))


def sensitivity_critical_angles(params: DilemmaParams) -> CriticalAngles:
    """Sign-change angles of the d_g and d_r partials."""
    if params.d_g <= 0.0 or params.d_r <= 0.0:
        raise OutOfRegime("critical angles require d_g > 0 and d_r > 0")
    return CriticalAngles(gamma_g=_arcsin_sqrt(params.d_r, 1.0 + 2.0 * params.d_r),
                          gamma_r=_arcsin_sqrt(params.d_g, 1.0 + 2.0 * params.d_g))


def sensitivity_indices(params: DilemmaParams, gamma: float) -> SensitivityReport:
    """Full sensitivity report: elasticities S_x = (dp*/dx) x / p*.

    ``semi_elasticity_gamma`` is (dp*/dgamma)/p*, reported alongside the
    literal gamma elasticity because the two answer different questions.
    """
    gamma, phase = _in_band(params, gamma, "transitional")
    return _indices(params, gamma, _select_rde(params, gamma, phase).profile.p)


def _indices(params: DilemmaParams, gamma: float, p_star: float) -> SensitivityReport:
    """sensitivity_indices at the caller's p*, the RDE's weight on Q, on the band the caller settled."""
    p_star, partial_dg, partial_dr, partial_gamma = _partials(params, gamma, p_star)
    if p_star == 0.0:
        raise DegenerateBase("sensitivity indices undefined where p* vanishes")
    return SensitivityReport(p_star, partial_dg, partial_dr, partial_gamma,
                             partial_dg * params.d_g / p_star, partial_dr * params.d_r / p_star,
                             partial_gamma * gamma / p_star, partial_gamma / p_star)


def group_benefit_threshold(params: DilemmaParams) -> float:
    """Smallest transitional angle above which the RDE's payoff sum exceeds 1.

    The condition is sin(2 gamma) > rhs = sqrt(2(d_r + 2 d_r d_g + d_g))/(1+d_r+d_g), a payoff sum
    of the RDE above 1; the other transitional NEs, (D,Q) and (Q,D), sum to 1 + d_g - d_r. The lower
    crossing is atan2 of rhs and its cosine hypot(1, d_g-d_r)/(1+d_r+d_g), free of cancellation. For
    d_g > d_r > 0 it lies inside the band, as sin(2 gamma1) < rhs < sin(2 min(gamma2, pi/4)).
    """
    dg, dr = params.d_g, params.d_r
    if not (dg > dr > 0.0):
        raise OutOfPhase("group-benefit threshold requires d_g > d_r > 0")
    return math.atan2(math.sqrt(2.0 * (dr + 2.0 * dr * dg + dg)), math.hypot(1.0, dg - dr)) / 2.0


def unilateral_deviation_payoffs(params: DilemmaParams, gamma: float, fixed_a: str,
                                 q: float) -> tuple[float, float]:
    """Payoff pair when A holds a fixed strategy and B plays U(q).

    ``fixed_a`` is "D", "Q" or "half" (A plays U(0.5)): the general expected
    payoff at p in {0, 1, 0.5}.
    """
    p = {"D": 0.0, "Q": 1.0, "half": 0.5}.get(fixed_a) if isinstance(fixed_a, str) else None
    if p is None:
        raise ValueError(f"fixed_a must be 'D', 'Q' or 'half', got {fixed_a!r}")
    return expected_payoff_quantum(params, p, q, gamma)
