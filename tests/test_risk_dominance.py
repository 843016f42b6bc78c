import numpy as np
import pytest

from qpd_rde.errors import DegenerateDenominator, NotAnEquilibrium, WrongClass
from qpd_rde.game_core import TIE_EPS, DilemmaParams, PayoffMatrix2x2, build_dilemma_matrix
from qpd_rde.quantum_rde import select_rde
from qpd_rde.risk_dominance import (
    deviation_losses_asymmetric,
    deviation_losses_symmetric,
    rde_chicken,
    rde_staghunt,
    select_rde_asymmetric,
    select_rde_symmetric,
)


def sh_matrix(dg, dr):
    return build_dilemma_matrix(DilemmaParams(dg, dr))


def scale_matrix(matrix, k):
    """The matrix with every payoff multiplied by k."""
    return PayoffMatrix2x2([[(matrix.a[r][c] * k, matrix.b[r][c] * k) for c in range(2)]
                            for r in range(2)], matrix.labels)


def swap_labels(matrix):
    """The matrix with both players' actions permuted consistently."""
    return PayoffMatrix2x2([[(matrix.a[1 - r][1 - c], matrix.b[1 - r][1 - c]) for c in range(2)]
                            for r in range(2)], matrix.labels[::-1])


def test_symmetric_losses_staghunt():
    cc, dd = deviation_losses_symmetric(sh_matrix(-0.6, 0.3))
    assert cc.product == pytest.approx(0.36, abs=1e-12)
    assert dd.product == pytest.approx(0.09, abs=1e-12)

    cc, dd = deviation_losses_symmetric(sh_matrix(-0.3, 0.3))
    assert cc.product == pytest.approx(dd.product, abs=1e-12)
    assert cc.product == pytest.approx(0.09, abs=1e-12)


def test_symmetric_losses_indifferent_deviation():
    # a11 == a21: A loses nothing when B stays and A deviates at (C,C)
    entries = [[(1, 1), (0, 0)], [(1, 0), (2, 2)]]
    cc, _ = deviation_losses_symmetric(PayoffMatrix2x2(entries))
    assert cc.loss_a == 0.0


def test_symmetric_losses_reject_non_ne():
    matrix = build_dilemma_matrix(DilemmaParams(0.5, 0.5))  # (C,C) is not an NE in PD
    with pytest.raises(NotAnEquilibrium):
        deviation_losses_symmetric(matrix)


def test_asymmetric_losses_chicken():
    cd, dc = deviation_losses_asymmetric(build_dilemma_matrix(DilemmaParams(0.5, -0.5)))
    assert cd.product == pytest.approx(0.25, abs=1e-12)
    assert dc.product == pytest.approx(0.25, abs=1e-12)

    cd, dc = deviation_losses_asymmetric(build_dilemma_matrix(DilemmaParams(1.0, -1.0)))
    assert cd.product == pytest.approx(1.0, abs=1e-12)
    assert dc.product == pytest.approx(1.0, abs=1e-12)


def test_asymmetric_losses_zero_component():
    # b12 == b11: B indifferent between staying and deviating at (C,D)
    entries = [[(0, 1), (1, 1)], [(2, 0), (0, 0)]]
    cd, _ = deviation_losses_asymmetric(PayoffMatrix2x2(entries))
    assert cd.loss_b == 0.0


@pytest.mark.parametrize("dg,dr,expect_kind,expect_pq", [
    (-0.6, 0.3, "pure", (1.0, 1.0)),
    (-0.2, 0.4, "pure", (0.0, 0.0)),
    (-0.3, 0.3, "mixed", (0.5, 0.5)),
])
def test_select_rde_symmetric_staghunt(dg, dr, expect_kind, expect_pq):
    outcome = select_rde_symmetric(sh_matrix(dg, dr))
    assert outcome.kind == expect_kind
    assert (outcome.profile.p, outcome.profile.q) == pytest.approx(expect_pq, abs=1e-12)


def test_select_rde_asymmetric_chicken():
    outcome = select_rde_asymmetric(build_dilemma_matrix(DilemmaParams(0.5, -0.5)))
    assert outcome.kind == "mixed"
    assert outcome.profile.p == pytest.approx(0.5, abs=1e-12)

    outcome = select_rde_asymmetric(build_dilemma_matrix(DilemmaParams(0.9, -0.3)))
    assert outcome.profile.p == pytest.approx(0.25, abs=1e-12)
    assert outcome.profile.q == pytest.approx(0.25, abs=1e-12)


def test_degenerate_denominator():
    # diagonal cells tie in every direction: all losses vanish
    entries = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]
    with pytest.raises(DegenerateDenominator):
        select_rde_symmetric(PayoffMatrix2x2(entries))


@pytest.mark.parametrize("dg,dr,expected", [
    (0.5, -0.5, 0.5),
    (0.9, -0.3, 0.25),
    (0.1, -0.9, 0.9),
])
def test_rde_chicken_closed_form(dg, dr, expected):
    outcome = rde_chicken(DilemmaParams(dg, dr))
    assert outcome.kind == "mixed"
    assert outcome.profile.p == pytest.approx(expected, abs=1e-12)
    assert outcome.profile.q == pytest.approx(expected, abs=1e-12)


def test_rde_chicken_symmetric_strengths():
    for dg in (0.2, 0.4, 0.8):
        outcome = rde_chicken(DilemmaParams(dg, -dg))
        assert outcome.profile.p == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("dr", [0.0, -0.0])
def test_rde_chicken_on_the_d_r_zero_boundary_is_positive_zero(dr):
    for dg in (0.5, 1.0, 5e-324):
        outcome = rde_chicken(DilemmaParams(dg, dr))
        assert (outcome.profile.p.hex(), outcome.profile.q.hex()) == ("0x0.0p+0", "0x0.0p+0")


def test_rde_wrong_class():
    with pytest.raises(WrongClass):
        rde_chicken(DilemmaParams(-0.5, 0.5))
    with pytest.raises(WrongClass):
        rde_staghunt(DilemmaParams(0.5, -0.5))


def test_rde_staghunt_branches():
    assert rde_staghunt(DilemmaParams(-0.6, 0.3)).label == "(C,C)"
    assert rde_staghunt(DilemmaParams(-0.2, 0.4)).label == "(D,D)"
    mixed = rde_staghunt(DilemmaParams(-0.3, 0.3))
    assert mixed.kind == "mixed"
    assert mixed.profile.p == pytest.approx(0.5, abs=1e-12)


def test_specialization_consistency():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        dg = rng.uniform(1e-3, 1.0)
        dr = -rng.uniform(1e-3, 1.0)
        params = DilemmaParams(dg, dr)
        closed = rde_chicken(params)
        generic = select_rde_asymmetric(build_dilemma_matrix(params))
        assert abs(closed.profile.p - generic.profile.p) < 1e-12
        assert abs(closed.profile.q - generic.profile.q) < 1e-12

    for _ in range(10_000):
        dg = -rng.uniform(1e-3, 1.0)
        dr = rng.uniform(1e-3, 1.0)
        params = DilemmaParams(dg, dr)
        closed = rde_staghunt(params)
        generic = select_rde_symmetric(build_dilemma_matrix(params))
        assert closed.kind == generic.kind
        assert abs(closed.profile.p - generic.profile.p) < 1e-12
        assert abs(closed.profile.q - generic.profile.q) < 1e-12


def test_scale_invariance_of_selection():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dg, dr = -rng.uniform(0.01, 1), rng.uniform(0.01, 1)
        matrix = build_dilemma_matrix(DilemmaParams(dg, dr))
        k = rng.uniform(0.1, 10)
        base = select_rde_symmetric(matrix)
        scaled = select_rde_symmetric(scale_matrix(matrix, k))
        cc, dd = deviation_losses_symmetric(matrix)
        cc_k, dd_k = deviation_losses_symmetric(scale_matrix(matrix, k))
        assert cc_k.product == pytest.approx(k * k * cc.product, rel=1e-12)
        assert dd_k.product == pytest.approx(k * k * dd.product, rel=1e-12)
        if base.kind == "pure":
            assert scaled.label == base.label
        else:
            assert scaled.profile.p == pytest.approx(base.profile.p, abs=1e-12)


def test_mixing_probabilities_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(500):
        dg, dr = -rng.uniform(0.01, 1), rng.uniform(0.01, 1)
        matrix = build_dilemma_matrix(DilemmaParams(dg, dr))
        cc, dd = deviation_losses_symmetric(matrix)
        assert min(cc.loss_a, cc.loss_b, dd.loss_a, dd.loss_b) >= 0
        p = dd.loss_b / (cc.loss_b + dd.loss_b)
        q = dd.loss_a / (cc.loss_a + dd.loss_a)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0


def test_label_swap_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dg, dr = -rng.uniform(0.01, 1), rng.uniform(0.01, 1)
        matrix = build_dilemma_matrix(DilemmaParams(dg, dr))
        base = select_rde_symmetric(matrix)
        swapped = select_rde_symmetric(swap_labels(matrix))
        assert swapped.profile.p == pytest.approx(1.0 - base.profile.p, abs=1e-12)
        assert swapped.profile.q == pytest.approx(1.0 - base.profile.q, abs=1e-12)


# Each TIE_EPS edge of the risk-dominance rules, with its input exactly at the bound: a tie and a
# vanishing loss sum are closed, so each comparison's strict or non-strict form shows.


@pytest.mark.parametrize("dg, dr", [(-2e-9, 1e-9), (-1e-9, 2e-9)])
def test_staghunt_tie_is_closed_at_tie_eps(dg, dr):
    # |d_g| - d_r is exactly +TIE_EPS, then -TIE_EPS: both are ties, not (C,C) or (D,D).
    params = DilemmaParams(dg, dr)
    assert abs(abs(dg) - dr) == TIE_EPS
    outcome = select_rde(params).rde
    assert (outcome.kind, tuple(outcome.profile)) == ("mixed", (0.5, 0.5))


@pytest.mark.parametrize("b_cc, b_dd", [(2e-9, 1e-9), (1e-9, 2e-9)])
def test_loss_products_tie_is_closed_at_tie_eps(b_cc, b_dd):
    # Losses (1, b_cc) at (C,C) and (1, b_dd) at (D,D): the products differ by exactly TIE_EPS.
    matrix = PayoffMatrix2x2([[(1.0, b_cc), (0.0, 0.0)], [(0.0, 0.0), (1.0, b_dd)]])
    cc, dd = deviation_losses_symmetric(matrix)
    assert (cc, dd) == ((1.0, b_cc), (1.0, b_dd)) and abs(cc.product - dd.product) == TIE_EPS
    outcome = select_rde_symmetric(matrix)
    assert outcome.kind == "mixed"
    assert tuple(outcome.profile) == (b_dd / (b_cc + b_dd), 0.5)


@pytest.mark.parametrize("loss_a, loss_b", [(1.0, 5e-10), (5e-10, 1.0)])
def test_mixed_profile_loss_sums_are_closed_at_tie_eps(loss_a, loss_b):
    # The same losses at both NEs tie, and one player's loss sum is exactly TIE_EPS: undefined.
    matrix = PayoffMatrix2x2([[(loss_a, loss_b), (0.0, 0.0)], [(0.0, 0.0), (loss_a, loss_b)]])
    assert min(loss_a + loss_a, loss_b + loss_b) == TIE_EPS
    with pytest.raises(DegenerateDenominator):
        select_rde_symmetric(matrix)
