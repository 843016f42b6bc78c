"""Harsanyi-Selten risk dominance for 2x2 bimatrix games with two NEs.

At each candidate equilibrium the deviation loss of a player is the payoff
drop the *opponent's* unilateral deviation inflicts on the deviator; the
equilibrium whose product of deviation losses is larger is risk dominant.
Ties select the mixed profile built from the loss ratios.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegenerateDenominator, NotAnEquilibrium, WrongClass
from .game_core import (
    TIE_EPS,
    _PURE,
    DilemmaKind,
    DilemmaParams,
    PayoffMatrix2x2,
    StrategyProfile,
    build_dilemma_matrix,
    classify_dilemma,
    expected_payoff_classical,
)

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


class RdeOutcome(namedtuple("RdeOutcome", "kind profile payoffs label", defaults=(None,))):
    """Selected risk-dominant equilibrium on the owning game, of ``kind`` "pure" or "mixed"."""

    __slots__ = ()


_RDE_CC = RdeOutcome("pure", _PURE[0][0], (1.0, 1.0), "(C,C)")
_RDE_DD = RdeOutcome("pure", _PURE[1][1], (0.0, 0.0), "(D,D)")


def _pure_outcome(matrix: PayoffMatrix2x2, row: int, col: int) -> RdeOutcome:
    label = f"({matrix.labels[row]},{matrix.labels[col]})"
    return RdeOutcome("pure", _PURE[row][col], matrix.payoff(row, col), label)


def _mixed_outcome(matrix: PayoffMatrix2x2, p: float, q: float) -> RdeOutcome:
    profile = StrategyProfile(p, q)
    return RdeOutcome("mixed", profile, matrix.expected_payoffs(p, q))


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
    plays its second action, over the sum of B's losses; B likewise.
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
    return _mixed_outcome(matrix, at_a_second.loss_b / denom_p, at_b_second.loss_a / denom_q)


def deviation_losses_symmetric(matrix: PayoffMatrix2x2) -> tuple[DeviationLossPair, DeviationLossPair]:
    """Deviation losses at the diagonal NEs, returned as (at (C,C), at (D,D))."""
    return _losses(matrix, ((0, 0), (1, 1)))


def deviation_losses_asymmetric(matrix: PayoffMatrix2x2) -> tuple[DeviationLossPair, DeviationLossPair]:
    """Deviation losses at the off-diagonal NEs, returned as (at (C,D), at (D,C))."""
    return _losses(matrix, ((0, 1), (1, 0)))


def _classical_losses(params: DilemmaParams, kind: DilemmaKind) -> tuple[DeviationLossPair, ...]:
    """Closed-form deviation losses of the classical CH at (C,D), (D,C) or SH at (C,C), (D,D)."""
    if kind is DilemmaKind.CH:  # 0.0 - x and x + 0.0: no -0.0 at a zero strength
        loss_c, loss_d = 0.0 - params.d_r, params.d_g + 0.0
        return DeviationLossPair(loss_c, loss_d), DeviationLossPair(loss_d, loss_c)
    loss_c, loss_d = 0.0 - params.d_g, params.d_r + 0.0
    return DeviationLossPair(loss_c, loss_c), DeviationLossPair(loss_d, loss_d)


def select_rde_symmetric(matrix: PayoffMatrix2x2) -> RdeOutcome:
    """Risk-dominant selection between the diagonal NEs (C,C) and (D,D)."""
    return _select(matrix, ((0, 0), (1, 1)))


def select_rde_asymmetric(matrix: PayoffMatrix2x2) -> RdeOutcome:
    """Risk-dominant selection between the off-diagonal NEs (C,D) and (D,C)."""
    return _select(matrix, ((0, 1), (1, 0)))


def rde_chicken(params: DilemmaParams) -> RdeOutcome:
    """Closed-form chicken RDE: the symmetric mixed profile -d_r/(-d_r + d_g)."""
    if classify_dilemma(params).kind is not DilemmaKind.CH:
        raise WrongClass(f"({params.d_g}, {params.d_r}) is not a chicken game")
    return _classical_rde(params, DilemmaKind.CH)


def rde_staghunt(params: DilemmaParams) -> RdeOutcome:
    """Closed-form stag-hunt RDE: (C,C) if |d_g|>d_r, (D,D) if |d_g|<d_r, else (0.5, 0.5)."""
    if classify_dilemma(params).kind is not DilemmaKind.SH:
        raise WrongClass(f"({params.d_g}, {params.d_r}) is not a stag-hunt game")
    return _classical_rde(params, DilemmaKind.SH)


def _classical_rde(params: DilemmaParams, kind: DilemmaKind) -> RdeOutcome:
    """RDE, or the unique NE, of the classical dilemma of class ``kind``."""
    if kind is DilemmaKind.CH:
        t = -params.d_r / (-params.d_r + params.d_g) + 0.0  # + 0.0: no -0.0 when d_r == 0
        profile = StrategyProfile(t, t)
        return RdeOutcome("mixed", profile, expected_payoff_classical(params, profile))
    if kind is DilemmaKind.SH:
        diff = abs(params.d_g) - params.d_r
        if diff > TIE_EPS:
            return _RDE_CC
        if diff < -TIE_EPS:
            return _RDE_DD
        return _mixed_outcome(build_dilemma_matrix(params), 0.5, 0.5)
    # PD: defection dominates; TRIVIAL: cooperation dominates.
    return _RDE_DD if kind is DilemmaKind.PD else _RDE_CC
