"""RDE selection across the quantum PD phases, Situ risks, the sensitivity of p*, the group-benefit
threshold and the unilateral-deviation payoffs.

The closed forms are held to the generic Harsanyi-Selten routines on the pure-quantum matrix and to
brute-force grids; next to the diagonal the two differ by design (see the README's "Phases and
seams"). The text of each off-band OutOfPhase equals the f-string it replaced, at 5e-324, 1e-300,
1 ulp below 1 and a 17-digit float. sensitivity_indices equals, bit for bit or by the same error,
the partials' record _replace'd with the indices, as it was built before 0.5.19, on seeded
transitional points, both seams and PHASE_TOL / 2 and 2 * PHASE_TOL off them, pairs 1 ulp apart and
subnormal strengths whose (d_g - d_r)^2 underflows.
"""

import math

import numpy as np
import pytest

from qpd_rde import quantum_rde
from qpd_rde.errors import DegenerateBase, OutOfPhase, OutOfRegime, QpdError
from qpd_rde.ewl import PHASE_TOL, expected_payoff_quantum, pure_quantum_matrix, thresholds
from qpd_rde.game_core import TIE_EPS, DilemmaParams
from qpd_rde.quantum_rde import (
    group_benefit_threshold,
    select_rde,
    select_rde_quantum,
    sensitivity_critical_angles,
    sensitivity_indices,
    sensitivity_partials,
    situ_risk_coexistence,
    situ_risk_transitional,
    transitional_mixing_probability,
    unilateral_deviation_payoffs,
)
from qpd_rde.risk_dominance import (
    deviation_losses_asymmetric,
    deviation_losses_symmetric,
    select_rde_asymmetric,
    select_rde_symmetric,
)

TRANS = DilemmaParams(0.9, 0.2)   # transitional-phase parameters
COEX = DilemmaParams(0.2, 0.9)    # coexistence-phase parameters


def rde_at(params, gamma):
    return select_rde(params, gamma).rde


def losses_at(params, gamma):
    """select_rde's deviation-loss pairs, row-major: (Q(x)D, D(x)Q) or (Q(x)Q, D(x)D)."""
    return tuple(loss for _, loss in select_rde(params, gamma).losses)


def p_star_oracle(dg, dr, gamma):
    return (-dr + (1 + dr + dg) * math.sin(gamma) ** 2) / (dg - dr)


def draw_transitional(rng):
    while True:
        dr = rng.uniform(0.01, 0.95)
        dg = rng.uniform(dr + 0.02, 1.0)
        if dg > dr + 0.02:
            params = DilemmaParams(dg, dr)
            thr = thresholds(params)
            gamma = rng.uniform(thr.gamma1 + 1e-6, thr.gamma2 - 1e-6)
            return params, gamma


# ---------------------------------------------------------------------------
# Situ risks


def test_situ_transitional_example():
    dq, qd = situ_risk_transitional(TRANS, math.pi / 6)
    assert dq.risk_a == pytest.approx(1.375, abs=1e-12)
    assert dq.risk_b == 0.0
    assert qd.risk_a == 0.0
    assert qd.risk_b == pytest.approx(1.375, abs=1e-12)


def test_situ_transitional_equals_pi_d_at_gamma2():
    thr = thresholds(TRANS)
    dq, _ = situ_risk_transitional(TRANS, thr.gamma2)
    assert dq.risk_a == pytest.approx(pure_quantum_matrix(TRANS, thr.gamma2).pi_d, abs=1e-12)


def test_situ_transitional_grid_oracle():
    # the closed form must equal the brute-force maximum over B's deviations
    rng = np.random.default_rng(21)
    for _ in range(50):
        params, gamma = draw_transitional(rng)
        dq, qd = situ_risk_transitional(params, gamma)
        base_a, _ = expected_payoff_quantum(params, 0.0, 1.0, gamma)
        grid_max = max(base_a - expected_payoff_quantum(params, 0.0, t, gamma)[0]
                       for t in np.linspace(0, 1, 1001))
        assert dq.risk_a == pytest.approx(grid_max, abs=1e-9)
        assert qd.risk_b == pytest.approx(dq.risk_a, abs=1e-12)


def test_situ_coexistence():
    dd, qq = situ_risk_coexistence(COEX, 0.4)
    assert dd.risk_a == 0.0 and dd.risk_b == 0.0
    assert qq.risk_a == pytest.approx(1.9 - 2.1 * math.sin(0.4) ** 2, abs=1e-12)

    thr = thresholds(COEX)
    _, qq = situ_risk_coexistence(COEX, thr.gamma1)
    assert qq.risk_a == pytest.approx(1.0, abs=1e-12)


def test_situ_coexistence_grid_oracle():
    gamma = 0.45
    _, qq = situ_risk_coexistence(COEX, gamma)
    base_a, _ = expected_payoff_quantum(COEX, 1.0, 1.0, gamma)
    grid_max = max(base_a - expected_payoff_quantum(COEX, 1.0, t, gamma)[0]
                   for t in np.linspace(0, 1, 1001))
    assert qq.risk_a == pytest.approx(grid_max, abs=1e-9)


def test_situ_out_of_phase():
    with pytest.raises(OutOfPhase):
        situ_risk_transitional(TRANS, 0.1)
    with pytest.raises(OutOfPhase):
        situ_risk_transitional(COEX, 0.5)
    with pytest.raises(OutOfPhase):
        situ_risk_coexistence(COEX, 1.4)


# ---------------------------------------------------------------------------
# Deviation losses


def test_deviation_losses_transitional_example():
    qd, dq = losses_at(TRANS, math.pi / 6)
    assert qd.product == pytest.approx(0.121875, abs=1e-12)
    assert dq.product == pytest.approx(0.121875, abs=1e-12)


def test_deviation_losses_coexistence_example():
    qq, dd = losses_at(COEX, 0.4)
    s2 = math.sin(0.4) ** 2
    assert qq.product == pytest.approx((-0.2 + 2.1 * s2) ** 2, abs=1e-12)
    assert dd.product == pytest.approx((0.9 - 2.1 * s2) ** 2, abs=1e-12)


def test_deviation_losses_vanish_at_gamma1():
    # On the seam the NE set is three pure NEs, so select_rde gives no two-NE losses; inside the
    # band the products fall linearly, as x - d_r does, toward it.
    thr = thresholds(TRANS)
    assert select_rde(TRANS, thr.gamma1).losses == ()
    for k in (2, 20, 200):
        qd, dq = losses_at(TRANS, thr.gamma1 + k * PHASE_TOL)
        assert qd.product == dq.product
        assert 0.0 < qd.product < 2.0 * k * PHASE_TOL


def test_deviation_losses_match_generic_machinery():
    rng = np.random.default_rng(31)
    for _ in range(200):
        params, gamma = draw_transitional(rng)
        qd, dq = losses_at(params, gamma)
        cd, dc = deviation_losses_asymmetric(pure_quantum_matrix(params, gamma).matrix)
        assert qd.loss_a == pytest.approx(cd.loss_a, abs=1e-12)
        assert qd.loss_b == pytest.approx(cd.loss_b, abs=1e-12)
        assert dq.loss_a == pytest.approx(dc.loss_a, abs=1e-12)
        assert dq.loss_b == pytest.approx(dc.loss_b, abs=1e-12)

    for _ in range(200):
        dg = rng.uniform(0.01, 0.93)
        dr = rng.uniform(dg + 0.02, 0.98)
        params = DilemmaParams(dg, dr)
        thr = thresholds(params)
        gamma = rng.uniform(thr.gamma2 + 1e-6, thr.gamma1 - 1e-6)
        qq, dd = losses_at(params, gamma)
        cc_g, dd_g = deviation_losses_symmetric(pure_quantum_matrix(params, gamma).matrix)
        assert qq.product == pytest.approx(cc_g.product, abs=1e-12)
        assert dd.product == pytest.approx(dd_g.product, abs=1e-12)


def test_a_pair_with_equal_strengths_has_no_band_to_name():
    with pytest.raises(OutOfPhase) as excinfo:
        transitional_mixing_probability(DilemmaParams(0.5, 0.5), math.pi / 6)
    assert str(excinfo.value) == "(d_g, d_r) = (0.5, 0.5) has no two-NE band"
    with pytest.raises(OutOfPhase, match="no two-NE band"):
        sensitivity_indices(DilemmaParams(0.5, 0.5), 1.2)


# ---------------------------------------------------------------------------
# Transitional RDE


def test_rde_transitional_seams_and_midband():
    thr = thresholds(TRANS)
    assert transitional_mixing_probability(TRANS, thr.gamma1) == pytest.approx(0.0, abs=1e-9)
    assert transitional_mixing_probability(TRANS, thr.gamma2) == pytest.approx(1.0, abs=1e-9)
    assert transitional_mixing_probability(TRANS, math.pi / 6) == pytest.approx(13 / 28, abs=1e-12)

    outcome = rde_at(TRANS, math.pi / 6)
    assert outcome.kind == "mixed"
    assert outcome.profile.p == outcome.profile.q


def test_rde_transitional_agrees_with_generic_selector():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        params, gamma = draw_transitional(rng)
        closed = transitional_mixing_probability(params, gamma)
        generic = select_rde_asymmetric(pure_quantum_matrix(params, gamma).matrix)
        assert generic.kind == "mixed"
        assert abs(closed - generic.profile.p) < 1e-12
        assert abs(closed - generic.profile.q) < 1e-12


def test_rde_transitional_monotone_in_gamma():
    thr = thresholds(TRANS)
    gammas = np.linspace(thr.gamma1, thr.gamma2, 1001)
    values = [transitional_mixing_probability(TRANS, g) for g in gammas]
    assert all(b > a for a, b in zip(values, values[1:]))
    payoffs = [rde_at(TRANS, g).payoffs[0] for g in gammas]
    assert all(b > a for a, b in zip(payoffs, payoffs[1:]))


# ---------------------------------------------------------------------------
# Coexistence RDE


def test_rde_coexistence_branches():
    outcome = rde_at(COEX, 0.4)
    assert outcome.label == "(D,D)"
    assert outcome.payoffs == (0.0, 0.0)

    outcome = rde_at(COEX, 0.6)
    assert outcome.label == "(Q,Q)"
    assert outcome.payoffs == (1.0, 1.0)

    g_star = thresholds(COEX).gamma_star
    outcome = rde_at(COEX, g_star)
    assert outcome.kind == "mixed"
    assert outcome.profile.p == 0.5
    assert outcome.payoffs[0] == pytest.approx((2 + 0.2 - 0.9) / 4, abs=1e-12)


def test_rde_coexistence_agrees_with_generic_selector():
    rng = np.random.default_rng(55)
    count = 0
    while count < 10_000:
        dg = rng.uniform(0.01, 0.93)
        dr = rng.uniform(dg + 0.02, 0.98)
        params = DilemmaParams(dg, dr)
        thr = thresholds(params)
        gamma = rng.uniform(thr.gamma2 + 1e-6, thr.gamma1 - 1e-6)
        # skip the tie neighborhood where the two tie tolerances differ in kind
        if abs(gamma - thr.gamma_star) < 1e-6:
            continue
        count += 1
        mine = rde_at(params, gamma)
        generic = select_rde_symmetric(pure_quantum_matrix(params, gamma).matrix)
        assert mine.kind == generic.kind == "pure"
        assert mine.label == generic.label
        assert abs(mine.profile.p - generic.profile.p) < 1e-12


def test_near_the_diagonal_the_closed_form_and_generic_rde_differ_by_design():
    # The closed form decides by angle (PHASE_TOL around gamma*), the generic selector by
    # payoff (TIE_EPS on a product difference of at most (d_r - d_g)^2, here 1e-10).
    params = DilemmaParams(0.5, 0.50001)
    gamma = 0.5235984869
    assert abs(gamma - thresholds(params).gamma_star) > PHASE_TOL
    qq, dd = losses_at(params, gamma)
    assert abs(qq.product - dd.product) <= TIE_EPS
    assert select_rde_quantum(params, gamma) == ("coexistence", rde_at(params, gamma))
    assert rde_at(params, gamma).label == "(D,D)"
    generic = select_rde_symmetric(pure_quantum_matrix(params, gamma).matrix)
    assert generic.kind == "mixed"
    assert generic.profile.p == pytest.approx(0.8, abs=1e-5)


def test_coexistence_switch_single_sign_change():
    rng = np.random.default_rng(99)
    for _ in range(100):
        dg = rng.uniform(0.01, 0.9)
        dr = rng.uniform(dg + 0.05, 0.98)
        params = DilemmaParams(dg, dr)
        thr = thresholds(params)
        # Off the seams, where select_rde gives the two NEs' losses.
        gammas = np.linspace(thr.gamma2 + 2 * PHASE_TOL, thr.gamma1 - 2 * PHASE_TOL, 2001)
        diffs = []
        for g in gammas:
            qq, dd = losses_at(params, g)
            diffs.append(qq.product - dd.product)
        signs = np.sign(diffs)
        changes = np.nonzero(np.diff(signs))[0]
        assert len(changes) == 1
        lo, hi = gammas[changes[0]], gammas[changes[0] + 1]
        assert lo - 1e-9 <= thr.gamma_star <= hi + 1e-9


# ---------------------------------------------------------------------------
# Sensitivity


def test_sensitivity_partials_examples():
    report = sensitivity_partials(TRANS, math.pi / 6)
    assert report.partial_dg == pytest.approx((0.2 - 1.4 * 0.25) / 0.49, abs=1e-12)
    assert report.partial_gamma == pytest.approx(2.1 * math.sin(math.pi / 3) / 0.7, abs=1e-12)
    assert report.partial_gamma > 0

    angles = sensitivity_critical_angles(TRANS)
    report = sensitivity_partials(TRANS, angles.gamma_g)
    assert abs(report.partial_dg) < 1e-12


def test_sensitivity_partials_match_finite_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(100):
        params, gamma = draw_transitional(rng)
        dg, dr = params.d_g, params.d_r
        report = sensitivity_partials(params, gamma)
        fd_dg = (p_star_oracle(dg + h, dr, gamma) - p_star_oracle(dg - h, dr, gamma)) / (2 * h)
        fd_dr = (p_star_oracle(dg, dr + h, gamma) - p_star_oracle(dg, dr - h, gamma)) / (2 * h)
        fd_g = (p_star_oracle(dg, dr, gamma + h) - p_star_oracle(dg, dr, gamma - h)) / (2 * h)
        assert report.partial_dg == pytest.approx(fd_dg, rel=1e-6)
        assert report.partial_dr == pytest.approx(fd_dr, rel=1e-6)
        assert report.partial_gamma == pytest.approx(fd_g, rel=1e-6)


def test_critical_angles():
    angles = sensitivity_critical_angles(TRANS)
    assert math.sin(angles.gamma_g) ** 2 * (1 + 2 * 0.2) == pytest.approx(0.2, abs=1e-12)
    assert math.sin(angles.gamma_r) ** 2 * (1 + 2 * 0.9) == pytest.approx(0.9, abs=1e-12)

    thr = thresholds(TRANS)
    assert thr.gamma1 < angles.gamma_g < angles.gamma_r < thr.gamma2

    # the partials change sign across their critical angles
    eps = 1e-3
    assert sensitivity_partials(TRANS, angles.gamma_g - eps).partial_dg > 0
    assert sensitivity_partials(TRANS, angles.gamma_g + eps).partial_dg < 0
    assert sensitivity_partials(TRANS, angles.gamma_r - eps).partial_dr < 0
    assert sensitivity_partials(TRANS, angles.gamma_r + eps).partial_dr > 0


def test_critical_angle_small_dr_limit():
    angles = sensitivity_critical_angles(DilemmaParams(0.9, 1e-6))
    assert angles.gamma_g < 2e-3


@pytest.mark.parametrize("dg,dr", [(0.0, 0.5), (0.5, 0.0), (-0.3, 0.5), (0.5, -0.3)])
def test_critical_angles_out_of_regime(dg, dr):
    with pytest.raises(OutOfRegime):
        sensitivity_critical_angles(DilemmaParams(dg, dr))


def test_sensitivity_indices_reference_values():
    report = sensitivity_indices(TRANS, math.pi / 6)
    assert report.index_dg == pytest.approx(-0.593, abs=0.005)
    assert report.index_dr == pytest.approx(-0.175824, abs=1e-4)
    assert report.semi_elasticity_gamma == pytest.approx(5.596, abs=0.01)
    assert report.index_gamma == pytest.approx(2.930, abs=0.005)

    report = sensitivity_indices(TRANS, math.pi / 5)
    assert report.index_dr == pytest.approx(0.037, abs=0.001)

    report = sensitivity_indices(TRANS, math.pi / 9)
    assert report.index_dg == pytest.approx(1.0204, abs=1e-3)


def test_sensitivity_indices_identity():
    rng = np.random.default_rng(15)
    for _ in range(100):
        params, gamma = draw_transitional(rng)
        report = sensitivity_indices(params, gamma)
        assert report.index_dg == pytest.approx(
            report.partial_dg * params.d_g / report.p_star, abs=1e-12)
        assert report.index_gamma == pytest.approx(
            report.partial_gamma * gamma / report.p_star, abs=1e-12)


def outcome(function, *args):
    """A result as the exact bits of its fields, or its error's type and text."""
    try:
        return [float(x).hex() for x in function(*args)]
    except QpdError as exc:
        return type(exc).__name__, str(exc)


def two_step_indices(params, gamma):
    """The indices as built before the report was built once: the partials' record, _replace'd."""
    partials = sensitivity_partials(params, gamma)
    p_star = partials.p_star
    if p_star == 0.0:
        raise DegenerateBase("sensitivity indices undefined where p* vanishes")
    return partials._replace(
        index_dg=partials.partial_dg * params.d_g / p_star,
        index_dr=partials.partial_dr * params.d_r / p_star,
        index_gamma=partials.partial_gamma * gamma / p_star,
        semi_elasticity_gamma=partials.partial_gamma / p_star,
    )


def test_sensitivity_indices_equal_the_two_step_record_bit_for_bit():
    # Seeded points across the band, its seams exactly and PHASE_TOL / 2 and 2 PHASE_TOL off them,
    # pairs 1 ulp apart and subnormal strengths whose (d_g - d_r)^2 underflows.
    rng = np.random.default_rng(42)
    pairs = [draw_transitional(rng)[0] for _ in range(60)]
    pairs += [DilemmaParams(math.nextafter(dr, 2.0), dr) for dr in (0.2, 0.5, math.nextafter(1.0, 0.0))]
    pairs += [DilemmaParams(1e-323, 5e-324), DilemmaParams(1e-300, 5e-324), DilemmaParams(0.9, 5e-324)]
    points = []
    for params in pairs:
        thr = thresholds(params)
        points += [(params, rng.uniform(thr.gamma1, thr.gamma2)) for _ in range(5)]
        points += [(params, seam + step * PHASE_TOL) for seam in (thr.gamma1, thr.gamma2)
                   for step in (-2.0, -0.5, 0.0, 0.5, 2.0) if 0.0 <= seam + step * PHASE_TOL <= math.pi / 2]
    results = [outcome(sensitivity_indices, *point) for point in points]
    assert results == [outcome(two_step_indices, *point) for point in points]
    errors = {result[0] for result in results if isinstance(result, tuple)}
    assert errors == {"DegenerateBase", "DegenerateDenominator", "OutOfPhase"}


def test_sensitivity_indices_degenerate_base():
    thr = thresholds(TRANS)
    with pytest.raises(DegenerateBase):
        sensitivity_indices(TRANS, thr.gamma1)


# ---------------------------------------------------------------------------
# RDE payoff, group benefit, midpoint


def test_rde_expected_payoff_anchors():
    thr = thresholds(TRANS)
    assert rde_at(TRANS, thr.gamma1).payoffs == pytest.approx((0, 0), abs=1e-9)
    assert rde_at(TRANS, thr.gamma2).payoffs == pytest.approx((1, 1), abs=1e-9)


def test_rde_expected_payoff_matches_direct_evaluation():
    rng = np.random.default_rng(25)
    for _ in range(100):
        params, gamma = draw_transitional(rng)
        t = transitional_mixing_probability(params, gamma)
        assert rde_at(params, gamma).payoffs == pytest.approx(
            expected_payoff_quantum(params, t, t, gamma), abs=1e-12)


def test_midpoint_identity():
    rng = np.random.default_rng(35)
    for _ in range(100):
        params, _ = draw_transitional(rng)
        dg, dr = params.d_g, params.d_r
        gamma = math.asin(math.sqrt((dg + dr) / (2 * (1 + dg + dr))))
        assert transitional_mixing_probability(params, gamma) == pytest.approx(0.5, abs=1e-9)
        expected = (2 + dg - dr) / 4
        assert rde_at(params, gamma).payoffs == pytest.approx(
            (expected, expected), abs=1e-12)


def test_group_benefit_threshold():
    threshold = group_benefit_threshold(TRANS)
    rhs = math.sqrt(2 * (0.2 + 2 * 0.2 * 0.9 + 0.9)) / 2.1
    # independent closed form: first crossing of sin(2g) on the rising branch
    assert threshold == pytest.approx(math.asin(rhs) / 2, abs=1e-9)
    thr = thresholds(TRANS)
    assert thr.gamma1 < threshold < thr.gamma2
    assert math.sin(2 * thr.gamma2) > rhs


def test_group_benefit_threshold_marks_payoff_sum_crossing():
    # the mixed RDE's payoff sum crosses 1 exactly at the threshold angle
    threshold = group_benefit_threshold(TRANS)
    assert sum(rde_at(TRANS, threshold).payoffs) == pytest.approx(1.0, abs=1e-9)
    for gamma in np.linspace(threshold + 1e-3, thresholds(TRANS).gamma2, 20):
        assert sum(rde_at(TRANS, gamma).payoffs) > 1.0
    for gamma in np.linspace(thresholds(TRANS).gamma1 + 1e-3, threshold - 1e-3, 20):
        assert sum(rde_at(TRANS, gamma).payoffs) < 1.0


def test_group_benefit_threshold_always_inside_band():
    # the crossing exists for every transitional pair: the sum is 0 at one
    # band edge and 2 at the other
    rng = np.random.default_rng(67)
    pairs = []
    for _ in range(200):
        params, _ = draw_transitional(rng)
        pairs.append(params)
        thr = thresholds(params)
        threshold = group_benefit_threshold(params)
        assert thr.gamma1 < threshold < thr.gamma2
        assert sum(rde_at(params, threshold).payoffs) == pytest.approx(1.0, abs=1e-9)
    # a few ulps off the diagonal, where gamma1 and gamma2 coincide in floats
    for ulps in range(1, 9):
        for dr in rng.uniform(0.001, 0.999, 25):
            dg = dr
            for _ in range(ulps):
                dg = math.nextafter(dg, 2.0)
            pairs.append(DilemmaParams(dg, float(dr)))
    for params in pairs:
        dg, dr = params.d_g, params.d_r
        thr = thresholds(params)
        threshold = group_benefit_threshold(params)
        # The paper's asin form loses up to 3.5 eps (300,000 pairs) that the atan2 form keeps;
        # tests/test_reference.py bounds the threshold against 60 digits.
        assert threshold == pytest.approx(
            math.asin(math.sqrt(2 * (dr + 2 * dr * dg + dg)) / (1 + dr + dg)) / 2, rel=4 * 2.0 ** -52, abs=0)
        assert thr.gamma1 - PHASE_TOL <= threshold <= thr.gamma2 + PHASE_TOL


@pytest.mark.parametrize("dg, dr", [(0.2, 0.9), (0.5, 0.5), (0.5, 0.0), (0.5, -0.2)])
def test_group_benefit_threshold_requires_the_transitional_regime(dg, dr):
    with pytest.raises(OutOfPhase) as excinfo:
        group_benefit_threshold(DilemmaParams(dg, dr))
    assert str(excinfo.value) == "group-benefit threshold requires d_g > d_r > 0"


# ---------------------------------------------------------------------------
# Unilateral deviations


def test_unilateral_deviation_matches_general_payoff():
    rng = np.random.default_rng(45)
    for _ in range(200):
        params = DilemmaParams(rng.uniform(-0.9, 1), rng.uniform(-0.9, 1))
        gamma = rng.uniform(0, math.pi / 2)
        q = rng.uniform()
        for fixed, p in (("D", 0.0), ("Q", 1.0), ("half", 0.5)):
            assert unilateral_deviation_payoffs(params, gamma, fixed, q) == pytest.approx(
                expected_payoff_quantum(params, p, q, gamma), abs=1e-12)


def test_unilateral_deviation_corners():
    assert unilateral_deviation_payoffs(COEX, 0.5, "Q", 1.0) == pytest.approx((1, 1), abs=1e-12)
    assert unilateral_deviation_payoffs(COEX, 0.5, "D", 0.0) == pytest.approx((0, 0), abs=1e-12)
    # at the switch angle B's payoff against a half-mixing A is flat in q
    g_star = thresholds(COEX).gamma_star
    for q in (0.0, 0.3, 1.0):
        pay_a, pay_b = unilateral_deviation_payoffs(COEX, g_star, "half", q)
        assert pay_a == pytest.approx(q + (0.2 - 0.9) / 4, abs=1e-12)
        assert pay_b == pytest.approx((2 + 0.2 - 0.9) / 4, abs=1e-12)


def test_unilateral_deviation_monotonicity_contracts():
    thr = thresholds(COEX)
    qs = np.linspace(0, 1, 101)
    gamma_lo = (thr.gamma2 + thr.gamma_star) / 2     # below the switch
    a_vals = [unilateral_deviation_payoffs(COEX, gamma_lo, "D", q)[0] for q in qs]
    b_vals = [unilateral_deviation_payoffs(COEX, gamma_lo, "D", q)[1] for q in qs]
    assert all(y > x for x, y in zip(a_vals, a_vals[1:]))
    assert all(y < x for x, y in zip(b_vals, b_vals[1:]))

    gamma_hi = (thr.gamma_star + thr.gamma1) / 2     # above the switch
    a_vals = [unilateral_deviation_payoffs(COEX, gamma_hi, "Q", q)[0] for q in qs]
    b_vals = [unilateral_deviation_payoffs(COEX, gamma_hi, "Q", q)[1] for q in qs]
    assert all(y > x for x, y in zip(a_vals, a_vals[1:]))
    assert all(y > x for x, y in zip(b_vals, b_vals[1:]))


def test_unilateral_deviation_validation():
    with pytest.raises(ValueError):
        unilateral_deviation_payoffs(COEX, 0.5, "X", 0.5)
    with pytest.raises(ValueError):
        unilateral_deviation_payoffs(COEX, 0.5, "D", 1.5)
    with pytest.raises(ValueError):
        unilateral_deviation_payoffs(COEX, 5.0, "D", 0.5)
    for fixed_a in (["D"], {"Q": 1.0}):  # unhashable: the documented error, not a TypeError
        with pytest.raises(ValueError) as excinfo:
            unilateral_deviation_payoffs(COEX, 0.5, fixed_a, 0.5)
        assert str(excinfo.value) == f"fixed_a must be 'D', 'Q' or 'half', got {fixed_a!r}"


# ---------------------------------------------------------------------------
# Unified quantum selection


def test_select_rde_quantum_phases():
    phase, outcome = select_rde_quantum(TRANS, 0.15)
    assert phase == "classical-like" and outcome.label == "(D,D)"
    phase, outcome = select_rde_quantum(TRANS, 1.2)
    assert phase == "fully-quantum" and outcome.label == "(Q,Q)"
    phase, outcome = select_rde_quantum(TRANS, 0.5)
    assert phase == "transitional" and outcome.kind == "mixed"
    phase, outcome = select_rde_quantum(COEX, 0.6)
    assert phase == "coexistence" and outcome.label == "(Q,Q)"
    with pytest.raises(OutOfRegime):
        select_rde_quantum(DilemmaParams(-0.1, 0.5), 0.5)


@pytest.mark.parametrize("params, gamma, name", [
    (TRANS, 0.15, "classical-like"), (TRANS, 0.5, "transitional"), (COEX, 0.6, "coexistence"),
    (TRANS, 1.2, "fully-quantum"), (TRANS, thresholds(TRANS).gamma1, "boundary"),
])
def test_select_rde_takes_the_shift_only_where_a_loss_or_the_rde_reads_it(monkeypatch, params, gamma, name):
    # The losses read the shift only for the two-NE bands; the RDE only for the transitional one.
    calls = []
    shift = quantum_rde._shift
    monkeypatch.setattr(quantum_rde, "_shift", lambda *args: calls.append(args) or shift(*args))
    report = select_rde(params, gamma)
    assert report.phase.name == name
    assert len(calls) == {"transitional": 2, "coexistence": 1}.get(name, 0)


# Subnormal, tiny, 1 ulp below 1 and a float whose repr takes 17 digits.
ODD_FLOATS = [5e-324, 1e-300, math.nextafter(1.0, 0.0), 0.30000000000000004]


@pytest.mark.parametrize("value", ODD_FLOATS)
def test_off_band_text_is_the_eager_f_string(value):
    # The two _in_band raises carry a template and its values; the text they read is the one
    # the f-strings built before, for each float spelling.
    cases = [(sensitivity_indices, DilemmaParams(value, value), 0.5, None),
             (transitional_mixing_probability, DilemmaParams(0.9, 0.2), value, "transitional"),
             (sensitivity_indices, DilemmaParams(value, 1.0), 0.5, "transitional"),
             (situ_risk_coexistence, DilemmaParams(1.0, value), value, "coexistence")]
    for function, params, gamma, band in cases:
        with pytest.raises(OutOfPhase) as excinfo:
            function(params, gamma)
        if band is None:
            expected = f"(d_g, d_r) = ({params.d_g}, {params.d_r}) has no two-NE band"
            values = (params.d_g, params.d_r)
        else:
            expected = f"gamma={gamma} outside the {band} band of (d_g, d_r) = ({params.d_g}, {params.d_r})"
            values = (gamma, band, params.d_g, params.d_r)
        assert str(excinfo.value) == expected
        assert excinfo.value.args[1:] == values


def test_a_one_argument_error_reads_its_text_verbatim():
    assert str(QpdError("{x} {}")) == "{x} {}"
    assert str(OutOfPhase("gamma={} off", 0.1)) == "gamma=0.1 off"
    assert str(QpdError()) == ""
