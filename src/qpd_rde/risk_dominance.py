"""Harsanyi-Selten risk dominance for 2x2 bimatrix games with two NEs.

At each candidate equilibrium the deviation loss of a player is the payoff
drop the *opponent's* unilateral deviation inflicts on the deviator; the
equilibrium whose product of deviation losses is larger is risk dominant.
Ties select the mixed profile built from the loss ratios.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegenerateDenominator, NotAnEquilibrium, WrongClass
from .game_core import (TIE_EPS, _PURE, DilemmaKind, DilemmaParams, PayoffMatrix2x2, StrategyProfile,
                        classify_dilemma, expected_payoff_classical)

__all__ = [
    "DeviationLossPair",
    "RdeOutcome",
    "deviation_losses_symmetric",
    "deviation_losses_asymmetric",
    "select_rde_symmetric",
    "select_rde_asymmetric",
    "rde_chicken",
    "rde_staghunt",
]


class DeviationLossPair(namedtuple("DeviationLossPair", "loss_a loss_b")):
    """Per-player deviation losses at one equilibrium and their product."""

    __slots__ = ()

    @property
    def product(self) -> float:
        return self.loss_a * self.loss_b


RdeOutcome = namedtuple("RdeOutcome", "kind profile payoffs label", defaults=(None,))
RdeOutcome.__doc__ = """Selected risk-dominant equilibrium on the owning game, of ``kind`` "pure" or "mixed"."""


_RDE_CC = RdeOutcome("pure", _PURE[0][0], (1.0, 1.0), "(C,C)")
_RDE_DD = RdeOutcome("pure", _PURE[1][1], (0.0, 0.0), "(D,D)")
# Bound once, so that each game's dispatch reads module names, not enum attributes.
_PD, _CH, _SH, _TRIVIAL = DilemmaKind.PD, DilemmaKind.CH, DilemmaKind.SH, DilemmaKind.TRIVIAL


def _pure_outcome(matrix: PayoffMatrix2x2, row: int, col: int) -> RdeOutcome:
    label = f"({matrix.labels[row]},{matrix.labels[col]})"
    return RdeOutcome("pure", _PURE[row][col], matrix.payoff(row, col), label)


def _losses(matrix: PayoffMatrix2x2, cells) -> tuple[DeviationLossPair, DeviationLossPair]:
    """Deviation losses at the two NE cells, in the order given."""
    for row, col in cells:
        if not matrix.is_pure_ne(row, col, tol=TIE_EPS):
            la, lb = matrix.labels[row], matrix.labels[col]
            raise NotAnEquilibrium(f"cell ({la},{lb}) is not a Nash equilibrium")
    a, b = matrix.a, matrix.b
    return tuple(DeviationLossPair(a[r][c] - a[1 - r][c], b[r][c] - b[r][1 - c])
                 for r, c in cells)


def _select(matrix: PayoffMatrix2x2, cells) -> RdeOutcome:
    """Risk-dominant selection between the two NE cells.

    On a tie A plays its first action with weight B's loss at the NE where A
    plays its second action, over the sum of B's losses; B likewise. Each weight
    is clamped to [0, 1], as _chicken_weight clamps: a loss within TIE_EPS of 0
    may have either sign, so the ratio may round outside the interval. A tie stays
    "mixed", with no label, even where both weights land on a vertex: that vertex
    may lie outside the two cells compared, as (1, 1), (Q,Q), does for the pair
    (Q,D), (D,Q), and (1, 0), (C,D), for the pair (C,C), (D,D).
    """
    first, second = _losses(matrix, cells)
    diff = first.product - second.product
    if diff > TIE_EPS:
        return _pure_outcome(matrix, *cells[0])
    if diff < -TIE_EPS:
        return _pure_outcome(matrix, *cells[1])
    denom_p = first.loss_b + second.loss_b
    denom_q = first.loss_a + second.loss_a
    if abs(denom_p) <= TIE_EPS or abs(denom_q) <= TIE_EPS:
        raise DegenerateDenominator("tie with vanishing loss sums; mixed profile undefined")
    at_a_second = second if cells[1][0] else first
    at_b_second = second if cells[1][1] else first
    ratios = at_a_second.loss_b / denom_p, at_b_second.loss_a / denom_q
    p, q = (0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t for t in ratios)
    return RdeOutcome("mixed", StrategyProfile(p, q), matrix.expected_payoffs(p, q))


def deviation_losses_symmetric(matrix: PayoffMatrix2x2) -> tuple[DeviationLossPair, DeviationLossPair]:
    """Deviation losses at the diagonal NEs, returned as (at (C,C), at (D,D))."""
    return _losses(matrix, ((0, 0), (1, 1)))


def deviation_losses_asymmetric(matrix: PayoffMatrix2x2) -> tuple[DeviationLossPair, DeviationLossPair]:
    """Deviation losses at the off-diagonal NEs, returned as (at (C,D), at (D,C))."""
    return _losses(matrix, ((0, 1), (1, 0)))


def _layout_losses(params: DilemmaParams, kind: DilemmaKind | None, x: float = 0.0) -> tuple:
    """Closed-form (profile, DeviationLossPair) at each NE of the layout shifted by x (see _layout_rde):
    CH at (C,D), (D,C), SH at (C,C), (D,D), and () for any other kind."""
    if kind is _CH:  # d - x + 0.0: no -0.0 at a zero strength
        loss_c, loss_d = x - params.d_r, params.d_g - x + 0.0
        return ((_PURE[0][1], DeviationLossPair(loss_c, loss_d)),
                (_PURE[1][0], DeviationLossPair(loss_d, loss_c)))
    if kind is _SH:
        loss_c, loss_d = x - params.d_g, params.d_r - x + 0.0
        return ((_PURE[0][0], DeviationLossPair(loss_c, loss_c)),
                (_PURE[1][1], DeviationLossPair(loss_d, loss_d)))
    return ()


def select_rde_symmetric(matrix: PayoffMatrix2x2) -> RdeOutcome:
    """Risk-dominant selection between the diagonal NEs (C,C) and (D,D)."""
    return _select(matrix, ((0, 0), (1, 1)))


def select_rde_asymmetric(matrix: PayoffMatrix2x2) -> RdeOutcome:
    """Risk-dominant selection between the off-diagonal NEs (C,D) and (D,C)."""
    return _select(matrix, ((0, 1), (1, 0)))


def rde_chicken(params: DilemmaParams) -> RdeOutcome:
    """Closed-form chicken RDE: the symmetric mixed profile -d_r/(-d_r + d_g)."""
    if classify_dilemma(params).kind is not _CH:
        raise WrongClass(f"({params.d_g}, {params.d_r}) is not a chicken game")
    return _layout_rde(params, _CH)


def rde_staghunt(params: DilemmaParams) -> RdeOutcome:
    """Closed-form stag-hunt RDE: (C,C) if |d_g|>d_r, (D,D) if |d_g|<d_r, else (0.5, 0.5)."""
    if classify_dilemma(params).kind is not _SH:
        raise WrongClass(f"({params.d_g}, {params.d_r}) is not a stag-hunt game")
    return _layout_rde(params, _SH)


def _chicken_weight(params: DilemmaParams, x: float) -> float:
    """Weight of the chicken's symmetric mixed RDE on the first action, at shift x, clamped to [0, 1]."""
    t = (x - params.d_r) / (params.d_g - params.d_r)
    return 0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t


def _layout_rde(params: DilemmaParams, kind: DilemmaKind, x: float = 0.0, tie_side: int | None = None,
                first: RdeOutcome = _RDE_CC, tie_label: str | None = None) -> RdeOutcome:
    """RDE, or the unique NE, of the dilemma layout shifted by x, of class ``kind`` at (d_g - x, d_r - x).

    The defaults are the classical game's; x is ewl._shift at angle gamma in the pure-quantum one,
    whose phases are the classes of those strengths: classical-like PD, transitional CH, coexistence
    SH, fully-quantum TRIVIAL. ``first`` is the game's pure record of its first action, the trivial
    game's NE; a stag hunt selects it on ``tie_side`` > 0, (D,D) below 0 and U(0.5) labelled
    ``tie_label`` at 0, and a None ``tie_side`` is the sign of |d_g| - d_r outside TIE_EPS.
    """
    if kind is _CH:
        t = _chicken_weight(params, x)
        profile = StrategyProfile(t, t)  # p == q: the entanglement term (p - q) x vanishes
        return RdeOutcome("mixed", profile, expected_payoff_classical(params, profile))
    if kind is _SH:
        if tie_side is None:
            diff = abs(params.d_g) - params.d_r
            tie_side = (diff > TIE_EPS) - (diff < -TIE_EPS)
        if tie_side:
            return first if tie_side > 0 else _RDE_DD
        pay = ((1.0 - params.d_r) + (1.0 + params.d_g)) / 4.0
        return RdeOutcome("mixed", StrategyProfile(0.5, 0.5), (pay, pay), tie_label)
    return _RDE_DD if kind is _PD else first
