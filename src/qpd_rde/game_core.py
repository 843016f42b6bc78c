"""Parametrized symmetric 2x2 dilemmas: construction, classification, payoffs, Nash equilibria.

The base game is normalized so mutual cooperation pays 1 and mutual defection
pays 0. Two strength parameters remain: ``d_g`` (gain from defecting against a
cooperator) and ``d_r`` (loss from cooperating against a defector), both in
[-1, 1].
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from enum import Enum

__all__ = [
    "DilemmaParams",
    "StrategyProfile",
    "PayoffMatrix2x2",
    "DilemmaKind",
    "DilemmaClass",
    "NashEquilibriumRecord",
    "build_dilemma_matrix",
    "classify_dilemma",
    "expected_payoff_classical",
    "enumerate_pure_ne",
    "verify_mixed_ne",
]

# The one payoff-tie tolerance: a best-response shortfall this small still
# counts as an NE, and deviation-loss products this close select the mixed
# profile (risk_dominance).
TIE_EPS = 1e-9


def _check_real(x, name: str, low: float = 0.0, high: float = 1.0, span: str = "[0, 1]") -> float:
    """x as a float, where x is a real number in [low, high]: a numbers.Real, or a 0-d array of one.
    Anything else (out of range, NaN, a Decimal, a str) raises ValueError "<name> must lie in <span>,
    got <x>", x as its float where it has one.
    The one domain check of the package: strengths, strategy weights (the default span) and angles."""
    if type(x) is float:  # tested first: the isinstance test below costs some 25 times as much
        if low <= x <= high:
            return x
    else:
        element = x[()] if getattr(x, "shape", None) == () else x  # a 0-d array's one number
        if isinstance(element, numbers.Real):
            try:
                return _check_real(float(element), name, low, high, span)
            except OverflowError:  # an int or Fraction beyond the floats: out of every domain
                pass
    raise ValueError(f"{name} must lie in {span}, got {x!r}")


def _check_cell(row: int, col: int) -> None:
    if not (isinstance(row, int) and isinstance(col, int) and row in (0, 1) and col in (0, 1)):
        raise ValueError(f"cell row and column must each be the int 0 or 1, got ({row!r}, {col!r})")


@classmethod
def _checked_make(cls, iterable):
    """namedtuple's _make through __new__, so that _make and _replace check the domain too."""
    return cls(*iterable)


class DilemmaParams(namedtuple("DilemmaParams", "d_g d_r")):
    """Dilemma strength parameters (d_g, d_r), each a float in [-1, 1]."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, d_g: float, d_r: float):
        return tuple.__new__(cls, (_check_real(d_g, "d_g", -1.0, 1.0, "[-1, 1]"),
                                   _check_real(d_r, "d_r", -1.0, 1.0, "[-1, 1]")))


class StrategyProfile(namedtuple("StrategyProfile", "p q")):
    """Mixed profile: p (q), a float in [0, 1], is player A's (B's) weight on the first action."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, p: float, q: float):
        return tuple.__new__(cls, (_check_real(p, "p"), _check_real(q, "q")))


class PayoffMatrix2x2:
    """General 2x2 bimatrix.

    ``entries`` is row-major, one ``(a, b)`` payoff pair per cell; row index is
    player A's action, column index player B's. Row/column 0 carry the first
    action label (C by default). ``a`` and ``b`` hold each player's payoffs as
    row-major tuples, indexed ``a[row][col]``.
    """

    def __init__(self, entries, labels=("C", "D")):
        try:
            ((a00, b00), (a01, b01)), ((a10, b10), (a11, b11)) = entries
        except (TypeError, ValueError):
            raise ValueError("expected 2x2 entries of payoff pairs") from None
        self.a = ((float(a00), float(a01)), (float(a10), float(a11)))
        self.b = ((float(b00), float(b01)), (float(b10), float(b11)))
        if not all(map(math.isfinite, self.a[0] + self.a[1] + self.b[0] + self.b[1])):
            raise ValueError("payoff entries must be finite")
        if len(labels) != 2:
            raise ValueError("expected two action labels")
        self.labels = (str(labels[0]), str(labels[1]))

    def payoff(self, row: int, col: int) -> tuple[float, float]:
        _check_cell(row, col)
        return self.a[row][col], self.b[row][col]

    def expected_payoffs(self, p: float, q: float) -> tuple[float, float]:
        """Expected payoff pair when A (B) plays the first action with weight p (q)."""
        p, q = _check_real(p, "p"), _check_real(q, "q")
        w = (p * q, p * (1.0 - q), (1.0 - p) * q, (1.0 - p) * (1.0 - q))
        # Row-major, left to right from 0.0 (so a sum of -0.0 terms is 0.0).
        return tuple(0.0 + m[0][0] * w[0] + m[0][1] * w[1] + m[1][0] * w[2] + m[1][1] * w[3]
                     for m in (self.a, self.b))

    def is_pure_ne(self, row: int, col: int, tol: float = 0.0) -> bool:
        """Weak best-response check of the cell; ties within tol (finite, >= 0) count."""
        if tol and not 0.0 < tol < math.inf:  # the default 0.0 skips the range test
            raise ValueError(f"tol must be finite and >= 0, got {tol}")
        _check_cell(row, col)
        return (self.a[row][col] >= self.a[1 - row][col] - tol
                and self.b[row][col] >= self.b[row][1 - col] - tol)

    def __repr__(self):
        return (f"PayoffMatrix2x2(labels={self.labels}, a={[list(r) for r in self.a]}, "
                f"b={[list(r) for r in self.b]})")


class DilemmaKind(Enum):
    PD = "PD"
    CH = "CH"
    SH = "SH"
    TRIVIAL = "TRIVIAL"


class DilemmaClass(namedtuple("DilemmaClass", "kind boundary", defaults=(False,))):
    """A DilemmaKind, and whether a zero strength puts the pair on a class boundary."""

    __slots__ = ()


# The eight classes, each indexed by its boundary flag; classify_dilemma returns these records.
_PD_CLASS, _CH_CLASS, _SH_CLASS, _TRIVIAL_CLASS = (
    (DilemmaClass(kind, False), DilemmaClass(kind, True)) for kind in DilemmaKind)


class NashEquilibriumRecord(namedtuple("NashEquilibriumRecord", "profile payoffs")):
    """A StrategyProfile and its (A, B) payoff pair."""

    __slots__ = ()


def _dilemma_matrix(sucker: float, temptation: float, labels) -> PayoffMatrix2x2:
    """Symmetric dilemma layout: (1,1) and (0,0) on the diagonal, (sucker, temptation) off it."""
    return PayoffMatrix2x2([[(1.0, 1.0), (sucker, temptation)],
                            [(temptation, sucker), (0.0, 0.0)]], labels)


def build_dilemma_matrix(params: DilemmaParams) -> PayoffMatrix2x2:
    """Payoff matrix of the normalized dilemma: (C,C)=(1,1), (D,D)=(0,0)."""
    # 0.0 - d_r: no -0.0 when d_r == 0
    return _dilemma_matrix(0.0 - params.d_r, 1.0 + params.d_g, ("C", "D"))


def classify_dilemma(params: DilemmaParams) -> DilemmaClass:
    """Classify by the signs of (d_g, d_r): PD, CH, SH or TRIVIAL, as one of eight shared records.

    PD if both strengths are positive; TRIVIAL if both are negative or both
    zero; otherwise CH if d_g > d_r and SH if not. A zero strength sets the
    boundary flag, and the class is that of the adjacent class with the richer
    weak-equilibrium set (e.g. d_g=0, d_r>0 -> SH; d_r=0, d_g>0 -> CH).
    """
    dg, dr = params.d_g, params.d_r
    if dg > 0 and dr > 0:
        return _PD_CLASS[False]
    boundary = dg == 0.0 or dr == 0.0
    if (dg < 0 and dr < 0) or dg == dr == 0:
        return _TRIVIAL_CLASS[boundary]
    return (_CH_CLASS if dg > dr else _SH_CLASS)[boundary]


def expected_payoff_classical(params: DilemmaParams, profile: StrategyProfile) -> tuple[float, float]:
    """Expected payoffs of the mixed-strategy classical game.

    A's payoff is (d_r - d_g) p q - d_r p + (1 + d_g) q; B's is the same with
    p and q exchanged.
    """
    dg, dr = params.d_g, params.d_r
    p, q = profile.p, profile.q
    pay_a = (dr - dg) * p * q - dr * p + (1.0 + dg) * q
    pay_b = (dr - dg) * p * q - dr * q + (1.0 + dg) * p
    return pay_a, pay_b


# The four pure profiles, indexed [row][col]: row (column) 0 is A's (B's) first action.
_PURE = tuple(tuple(StrategyProfile(p, q) for q in (1.0, 0.0)) for p in (1.0, 0.0))
_NE_CC = NashEquilibriumRecord(_PURE[0][0], (1.0, 1.0))
_NE_DD = NashEquilibriumRecord(_PURE[1][1], (0.0, 0.0))


def _layout_ne(s1: float, s2: float, sucker: float, temptation: float) -> list[NashEquilibriumRecord]:
    """Row-major pure NEs of the dilemma layout; s1 has the sign of sucker, s2 of 1 - temptation: the
    first action's gain over the second against the second action, and against the first."""
    records = [_NE_CC] if s2 >= 0 else []
    if s1 >= 0 >= s2:
        records += (NashEquilibriumRecord(_PURE[0][1], (sucker, temptation)),
                    NashEquilibriumRecord(_PURE[1][0], (temptation, sucker)))
    if s1 <= 0:
        records.append(_NE_DD)
    return records


def enumerate_pure_ne(matrix: PayoffMatrix2x2) -> list[NashEquilibriumRecord]:
    """Row-major pure NEs of the float bimatrix, compared on its payoff tuples; exact ties count.

    In build_dilemma_matrix's, 1 + d_g rounds to 1 for d_g in [-2^-54, 2^-53]: ties the dilemma lacks.
    The dilemma's own NE set, in both games, is ewl.pure_ne's.
    """
    a, b = matrix.a, matrix.b
    return [NashEquilibriumRecord(_PURE[r][c], (a[r][c], b[r][c])) for r in (0, 1) for c in (0, 1)
            if a[r][c] >= a[1 - r][c] and b[r][c] >= b[r][1 - c]]


def verify_mixed_ne(params: DilemmaParams, profile: StrategyProfile) -> bool:
    """True iff no unilateral deviation gains more than TIE_EPS.

    Payoffs are affine in each player's own weight, so checking the two pure
    deviations of each player suffices.
    """
    base_a, base_b = expected_payoff_classical(params, profile)
    for p_dev in (0.0, 1.0):
        dev_a, _ = expected_payoff_classical(params, StrategyProfile(p_dev, profile.q))
        if dev_a > base_a + TIE_EPS:
            return False
    for q_dev in (0.0, 1.0):
        _, dev_b = expected_payoff_classical(params, StrategyProfile(profile.p, q_dev))
        if dev_b > base_b + TIE_EPS:
            return False
    return True
