"""The closed forms against a 60-digit reference.

The chicken weight, the chicken's mixed payoff and the stag hunt's tie payoff are
checked in both games: the classical game at (d_g, d_r) and the pure-quantum game at
(d_g, d_r, gamma), whose transitional RDE is the chicken of the layout shifted by
x = (1 + d_g + d_r) sin^2(gamma). So are the quantum game's own forms: the deviation
losses on both bands, both situ risks, the critical angles of the sensitivity
partials, the four outcome probabilities eps1 to eps4, both players' expected
payoffs, the pure-quantum payoffs pi_q and pi_d that the sweep prints, the
thresholds gamma1, gamma2 and gamma_star (subnormal strengths included), the
group-benefit threshold, and the partials, indices and gamma semi-elasticity of
the transitional mixing probability. pi_d = 1 + d_g - x cancels near gamma = pi/2,
where it is about -d_r, and misses the bound there: that test is an expected
failure, kept strict so that a mend shows. So are the classical deviation
losses, which select_rde gives for the gamma of None. The reference is mpmath at 60 digits
on the same float inputs, from the paper's formulas, and never calls the
package. Each float must lie within
C * EPS * (|ref| + sum_i |x_i d ref / d x_i|) of it: C roundings of the result, or
relative perturbations of the inputs, of size EPS; mp.diff takes the partials, with
a step relative to each input, so that strengths down to 5e-324 get theirs.
"""

import math
import random

import pytest

from qpd_rde.ewl import expected_payoff_quantum, joint_distribution, pure_quantum_matrix, thresholds
from qpd_rde.game_core import DilemmaParams
from qpd_rde.quantum_rde import (group_benefit_threshold, select_rde, sensitivity_critical_angles,
                                 sensitivity_indices, situ_risk_coexistence, situ_risk_transitional,
                                 transitional_mixing_probability)
from qpd_rde.risk_dominance import rde_chicken, rde_staghunt

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

EPS = 2.0 ** -52
C = 2  # one constant for every quantity, both games and every point


def weight(d_g, d_r, gamma=0):
    """Chicken weight (x - d_r) / (d_g - d_r) at the shift x of gamma; x = 0 classically."""
    x = (1 + d_g + d_r) * mp.sin(gamma) ** 2
    return (x - d_r) / (d_g - d_r)


def mixed_payoff(d_g, d_r, gamma=0):
    """A player's payoff when both play the first action with the chicken weight t."""
    t = weight(d_g, d_r, gamma)
    return (d_r - d_g) * t * t - d_r * t + (1 + d_g) * t


def tie_payoff(d_g, d_r):
    """A player's payoff at U(0.5) x U(0.5): the mean of the four cells 1, -d_r, 1 + d_g, 0."""
    return (2 + d_g - d_r) / 4


def shift(d_g, d_r, gamma):
    return (1 + d_g + d_r) * mp.sin(gamma) ** 2


def sucker_gain(d_g, d_r, gamma):
    """x - d_r: the quantum sucker payoff, a deviation loss at Q(x)D and D(x)Q."""
    return shift(d_g, d_r, gamma) - d_r


def temptation_gain(d_g, d_r, gamma):
    """d_g - x: the quantum temptation payoff less 1, the other loss at Q(x)D and D(x)Q."""
    return d_g - shift(d_g, d_r, gamma)


def loss_at_qq(d_g, d_r, gamma):
    return shift(d_g, d_r, gamma) - d_g


def loss_at_dd(d_g, d_r, gamma):
    return d_r - shift(d_g, d_r, gamma)


def classical(reference):
    """A quantum form of (d_g, d_r, gamma) at gamma = 0: the classical game's."""
    return lambda d_g, d_r: reference(d_g, d_r, 0)


def partial_dg(d_g, d_r, gamma):
    """dp*/dd_g = (d_r - (1 + 2 d_r) sin^2 gamma) / (d_g - d_r)^2."""
    return (d_r - (1 + 2 * d_r) * mp.sin(gamma) ** 2) / (d_g - d_r) ** 2


def partial_dr(d_g, d_r, gamma):
    """dp*/dd_r = (-d_g + (1 + 2 d_g) sin^2 gamma) / (d_g - d_r)^2."""
    return (-d_g + (1 + 2 * d_g) * mp.sin(gamma) ** 2) / (d_g - d_r) ** 2


def partial_gamma(d_g, d_r, gamma):
    """dp*/dgamma = (1 + d_g + d_r) sin(2 gamma) / (d_g - d_r)."""
    return (1 + d_g + d_r) * mp.sin(2 * gamma) / (d_g - d_r)


def index_dg(d_g, d_r, gamma):
    return partial_dg(d_g, d_r, gamma) * d_g / weight(d_g, d_r, gamma)


def index_dr(d_g, d_r, gamma):
    return partial_dr(d_g, d_r, gamma) * d_r / weight(d_g, d_r, gamma)


def index_gamma(d_g, d_r, gamma):
    return partial_gamma(d_g, d_r, gamma) * gamma / weight(d_g, d_r, gamma)


def semi_elasticity_gamma(d_g, d_r, gamma):
    return partial_gamma(d_g, d_r, gamma) / weight(d_g, d_r, gamma)


def situ_transitional(d_g, d_r, gamma):
    """The defector's worst loss at D(x)Q: the temptation payoff 1 + d_g - x."""
    return 1 + d_g - shift(d_g, d_r, gamma)


def situ_coexistence(d_g, d_r, gamma):
    """Each player's worst loss at Q(x)Q: 1 less the sucker payoff x - d_r."""
    return 1 + d_r - shift(d_g, d_r, gamma)


def critical_angle(d):
    """The angle where a partial of p* changes sign: sin^2 = d / (1 + 2 d), d the other strength."""
    return mp.asin(mp.sqrt(d / (1 + 2 * d)))


def gamma1(d_g, d_r):
    """The lower PD threshold: sin^2(gamma1) = d_r / (1 + d_g + d_r)."""
    return mp.asin(mp.sqrt(d_r / (1 + d_g + d_r)))


def gamma2(d_g, d_r):
    return gamma1(d_r, d_g)


def gamma_star(d_g, d_r):
    """The coexistence switch: sin^2(gamma_star) = (d_g + d_r) / (2 (1 + d_g + d_r))."""
    return mp.asin(mp.sqrt((d_g + d_r) / (2 * (1 + d_g + d_r))))


def group_benefit(d_g, d_r):
    """The lower angle where sin(2 gamma) = sqrt(2 (d_r + 2 d_r d_g + d_g)) / (1 + d_r + d_g)."""
    return mp.asin(mp.sqrt(2 * (d_r + 2 * d_r * d_g + d_g)) / (1 + d_r + d_g)) / 2


def eps1(p, q, gamma):
    return p * q


def eps2(p, q, gamma):
    return p * (1 - q) * mp.cos(gamma) ** 2 + (1 - p) * q * mp.sin(gamma) ** 2


def eps3(p, q, gamma):
    return (1 - p) * q * mp.cos(gamma) ** 2 + p * (1 - q) * mp.sin(gamma) ** 2


def eps4(p, q, gamma):
    return (1 - p) * (1 - q)


def payoff_a(d_g, d_r, p, q, gamma):
    """A's expected payoff: the cells 1, -d_r, 1 + d_g and 0 weighted by the joint distribution."""
    return p * q - d_r * eps2(p, q, gamma) + (1 + d_g) * eps3(p, q, gamma)


def payoff_b(d_g, d_r, p, q, gamma):
    return payoff_a(d_g, d_r, q, p, gamma)


def margin(value, reference, inputs):
    """|value - ref| in units of EPS * (|ref| + sum_i |x_i d ref / d x_i|)."""
    with mp.workdps(60):
        args = [mp.mpf(x) for x in inputs]
        ref = reference(*args)
        scale = abs(ref)
        for i, x in enumerate(args):
            if x:
                order = [0] * len(args)
                order[i] = 1
                scale += abs(x * mp.diff(reference, args, tuple(order), h=abs(x) * mp.mpf(2) ** -100))
        error = abs(mp.mpf(value) - ref)
        return float(error / (EPS * scale)) if scale else (0.0 if error == 0 else math.inf)


def chicken_pairs(rng, count):
    """Classical chicken pairs d_g > 0 > d_r, with the seams d_g = 0 and d_r = 0 and tiny strengths."""
    pairs = [(0.5, 0.0), (0.0, -0.5), (1e-17, -0.5), (0.5, -1e-17), (1.0, -1.0)]
    pairs += [(rng.uniform(0.0, 1.0), -rng.uniform(0.0, 1.0)) for _ in range(count)]
    return pairs


def transitional_points(rng, count):
    """Pairs d_g > d_r > 0 at angles in their transitional band, some within 1e-8 of a threshold."""
    points = []
    while len(points) < count:
        d_g, d_r = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)), reverse=True)
        if d_g - d_r < 1e-3:
            continue
        lo, hi = thresholds(DilemmaParams(d_g, d_r))[:2]
        gamma = rng.choice((rng.uniform(lo, hi), lo + 1e-8, hi - 1e-8))
        points.append((d_g, d_r, gamma))
    return points


def tie_pairs(rng, count):
    """Stag-hunt pairs at |d_g| == d_r, each also with d_r one ulp up."""
    pairs = []
    for _ in range(count):
        d_r = rng.uniform(0.0, 1.0)
        pairs += [(-d_r, d_r), (-d_r, math.nextafter(d_r, 2.0))]
    return pairs


def coexistence_ties(rng, count):
    """Pairs d_r > d_g > 0 at their gamma_star, where both players mix with weight 0.5."""
    pairs = []
    while len(pairs) < count:
        d_g, d_r = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
        if d_r - d_g > 1e-3:
            pairs.append((d_g, d_r, thresholds(DilemmaParams(d_g, d_r)).gamma_star))
    return pairs


def cases():
    rng = random.Random(2024)
    for d_g, d_r in chicken_pairs(rng, 100):
        outcome = rde_chicken(DilemmaParams(d_g, d_r))
        yield "classical chicken weight", outcome.profile.p, weight, (d_g, d_r)
        yield "classical mixed payoff", outcome.payoffs[0], mixed_payoff, (d_g, d_r)
    for d_g, d_r, gamma in transitional_points(rng, 100):
        params = DilemmaParams(d_g, d_r)
        yield ("transitional weight", transitional_mixing_probability(params, gamma), weight,
               (d_g, d_r, gamma))
        yield "transitional payoff", select_rde(params, gamma).rde.payoffs[0], mixed_payoff, (
            d_g, d_r, gamma)
    for d_g, d_r in tie_pairs(rng, 40):
        for value in rde_staghunt(DilemmaParams(d_g, d_r)).payoffs:
            yield "classical tie payoff", value, tie_payoff, (d_g, d_r)
    for d_g, d_r, gamma in coexistence_ties(rng, 40):
        outcome = select_rde(DilemmaParams(d_g, d_r), gamma).rde
        assert outcome.label == "U(0.5)xU(0.5)"
        yield "coexistence tie payoff", outcome.payoffs[0], tie_payoff, (d_g, d_r)
    # The classical losses, row-major: (C,D) and (D,C) in a chicken, (C,C) and (D,D) in a stag hunt.
    chicken = (sucker_gain, temptation_gain, temptation_gain, sucker_gain)
    staghunt = (loss_at_qq,) * 2 + (loss_at_dd,) * 2
    for (d_g, d_r), references in [*((pair, chicken) for pair in chicken_pairs(rng, 50)),
                                   *((pair, staghunt) for pair in tie_pairs(rng, 20))]:
        (_, first), (_, second) = select_rde(DilemmaParams(d_g, d_r)).losses
        for value, reference in zip((*first, *second), references):
            yield "classical deviation losses", value, classical(reference), (d_g, d_r)


def band_points(rng, count, band):
    """PD pairs with the band's order of d_g and d_r, a fifth of them 1e-12, 1e-9 or 1e-6 apart,
    at angles inside the band, on its seams and within 1e-8 of them."""
    points = []
    while len(points) < count:
        d_g, d_r = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        if rng.random() < 0.2:
            d_r = d_g + rng.choice((1e-12, 1e-9, 1e-6)) * rng.choice((1.0, -1.0))
        if (d_g > d_r) != (band == "transitional") or not 0.0 < d_r < 1.0 or d_g == d_r:
            continue
        lo, hi = sorted(thresholds(DilemmaParams(d_g, d_r))[:2])
        gamma = rng.choice((rng.uniform(lo, hi), lo, hi, min(lo + 1e-8, hi), max(hi - 1e-8, lo)))
        points.append((d_g, d_r, gamma))
    return points


def critical_pairs(rng, count):
    """PD pairs with either strength uniform or tiny: 5e-324, 1e-310, 1e-300, 1e-17."""
    tiny = (5e-324, 1e-310, 1e-300, 1e-17)
    pairs = [(a, b) for a in tiny for b in (*tiny, 0.5, 1.0)] + [(b, a) for a in tiny for b in (0.5, 1.0)]
    pairs += [(rng.uniform(0.0, 1.0) or 0.5, rng.uniform(0.0, 1.0) or 0.5) for _ in range(count)]
    return pairs


def group_benefit_pairs(rng, count):
    """Pairs d_g > d_r > 0, uniform, with tiny d_r and gaps down to 1 ulp of 1."""
    pairs = [(0.5, 5e-324), (1e-17, 5e-324), (1.0, 1e-310), (1.0, 1e-300), (0.5, 0.5 - 1e-12),
             (1.0, 1.0 - 2.0 ** -53)]
    while len(pairs) < count:
        d_g, d_r = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)), reverse=True)
        if d_g > d_r > 0.0:
            pairs.append((d_g, d_r))
    return pairs


def weights(rng, count):
    """(p, q, gamma) uniform, with each weight sometimes 0, 1 or 0.5 and gamma sometimes 0 or pi/2."""
    def pick(ends, low, high):
        return rng.choice(ends) if rng.random() < 0.2 else rng.uniform(low, high)
    return [(pick((0.0, 0.5, 1.0), 0.0, 1.0), pick((0.0, 0.5, 1.0), 0.0, 1.0),
             pick((0.0, math.pi / 2), 0.0, math.pi / 2)) for _ in range(count)]


def quantum_cases():
    rng = random.Random(2025)
    for d_g, d_r, gamma in band_points(rng, 200, "transitional"):
        params, inputs = DilemmaParams(d_g, d_r), (d_g, d_r, gamma)
        losses = select_rde(params, gamma).losses  # at Q(x)D and D(x)Q; () on a seam's three NEs
        if losses:
            (_, at_qd), (_, at_dq) = losses
            for value, reference in zip((*at_qd, *at_dq),
                                        (sucker_gain, temptation_gain, temptation_gain, sucker_gain)):
                yield "transitional deviation losses", value, reference, inputs
        at_dq, at_qd = situ_risk_transitional(params, gamma)
        assert at_dq.risk_b == at_qd.risk_a == 0.0
        for value in (at_dq.risk_a, at_qd.risk_b):
            yield "transitional situ risk", value, situ_transitional, inputs
    for d_g, d_r, gamma in band_points(rng, 200, "coexistence"):
        params, inputs = DilemmaParams(d_g, d_r), (d_g, d_r, gamma)
        losses = select_rde(params, gamma).losses
        if losses:
            (_, at_qq), (_, at_dd) = losses
            for value, reference in zip((*at_qq, *at_dd), (loss_at_qq,) * 2 + (loss_at_dd,) * 2):
                yield "coexistence deviation losses", value, reference, inputs
        at_dd, at_qq = situ_risk_coexistence(params, gamma)
        assert at_dd == (0.0, 0.0)
        for value in at_qq:
            yield "coexistence situ risk", value, situ_coexistence, inputs
    for d_g, d_r in critical_pairs(rng, 200):
        angles = sensitivity_critical_angles(DilemmaParams(d_g, d_r))
        yield "critical angle gamma_g", angles.gamma_g, critical_angle, (d_r,)
        yield "critical angle gamma_r", angles.gamma_r, critical_angle, (d_g,)
    for p, q, gamma in weights(rng, 200):
        dist = joint_distribution(p, q, gamma)
        for name, reference in zip(("joint eps1", "joint eps2", "joint eps3", "joint eps4"),
                                   (eps1, eps2, eps3, eps4)):
            yield name, getattr(dist, name[6:]), reference, (p, q, gamma)
    for p, q, gamma in weights(rng, 200):
        d_g, d_r = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        pay_a, pay_b = expected_payoff_quantum(DilemmaParams(d_g, d_r), p, q, gamma)
        yield "quantum payoff A", pay_a, payoff_a, (d_g, d_r, p, q, gamma)
        yield "quantum payoff B", pay_b, payoff_b, (d_g, d_r, p, q, gamma)


def angle_cases():
    rng = random.Random(2026)
    cube = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(200)]
    for d_g, d_r in critical_pairs(rng, 200) + cube:
        for name, value, reference in zip(("gamma1", "gamma2", "gamma_star"),
                                          thresholds(DilemmaParams(d_g, d_r)), (gamma1, gamma2, gamma_star)):
            if value is not None:  # defined where the radicand lies in [0, 1]
                yield f"threshold {name}", value, reference, (d_g, d_r)
    for d_g, d_r in group_benefit_pairs(rng, 300):
        yield ("group-benefit threshold", group_benefit_threshold(DilemmaParams(d_g, d_r)), group_benefit,
               (d_g, d_r))


def payoff_points(rng, count):
    """Pairs over the cube and the PD square, at angles uniform, at 0 and pi/2, and at gamma1 and
    within 1e-8 of it, where pi_q cancels."""
    points = []
    for _ in range(count):
        d_g, d_r = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if rng.random() < 0.5:
            d_g, d_r = abs(d_g), abs(d_r)
        angles = [rng.uniform(0.0, math.pi / 2), 0.0, math.pi / 2]
        lo = thresholds(DilemmaParams(d_g, d_r)).gamma1
        if lo is not None:
            angles += [lo, lo + 1e-8, max(lo - 1e-8, 0.0)]
        points += [(d_g, d_r, gamma) for gamma in angles]
    return points


def pi_d_worst_points(rng, count):
    """PD pairs at gamma = pi/2 and in [1.4, pi/2), where 1 + d_g - x cancels to about -d_r."""
    return [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), gamma) for _ in range(count)
            for gamma in (math.pi / 2, rng.uniform(1.4, math.pi / 2))]


SENSITIVITY = (partial_dg, partial_dr, partial_gamma, index_dg, index_dr, index_gamma, semi_elasticity_gamma)


def sensitivity_cases():
    rng = random.Random(7)
    for d_g, d_r, gamma in band_points(rng, 400, "transitional"):
        params = DilemmaParams(d_g, d_r)
        if select_rde(params, gamma).phase.seam is not None:
            continue  # p* snaps to 0 or 1 on a seam: no closed form to check
        report = sensitivity_indices(params, gamma)
        for reference in SENSITIVITY:
            yield reference.__name__, getattr(report, reference.__name__), reference, (d_g, d_r, gamma)


def worst_margins(cases):
    """The worst margin of each quantity and its inputs, printed one line each."""
    worst = {}
    for name, value, reference, inputs in cases:
        m = margin(value, reference, inputs)
        if m > worst.get(name, (-1.0,))[0]:
            worst[name] = (m, inputs)
    for name, (m, inputs) in worst.items():
        print(f"{name}: worst margin {m:.3g} of C = {C} at {inputs}")
    return worst


def test_shared_forms_are_within_the_conditioning_bound():
    worst = worst_margins(cases())
    assert len(worst) == 7
    assert all(m <= C for m, _ in worst.values()), worst


def test_quantum_forms_are_within_the_conditioning_bound():
    worst = worst_margins(quantum_cases())
    assert len(worst) == 12
    assert all(m <= C for m, _ in worst.values()), worst


def test_angle_forms_are_within_the_conditioning_bound():
    worst = worst_margins(angle_cases())
    assert len(worst) == 4
    assert all(m <= C for m, _ in worst.values()), worst


# The sweep's payoffs cells have references above: pi_q = x - d_r, sucker_gain, and pi_d = 1 + d_g - x,
# situ_transitional.


def test_pure_quantum_sucker_payoff_is_within_the_conditioning_bound():
    worst = worst_margins(("pi_q", pure_quantum_matrix(DilemmaParams(d_g, d_r), gamma).pi_q, sucker_gain,
                           (d_g, d_r, gamma)) for d_g, d_r, gamma in payoff_points(random.Random(2027), 200))
    assert all(m <= C for m, _ in worst.values()), worst


@pytest.mark.xfail(strict=True, reason="1 + d_g - x cancels near pi/2, where pi_d is about -d_r")
def test_pure_quantum_temptation_payoff_is_within_the_conditioning_bound_near_pi_over_2():
    worst = worst_margins(("pi_d", pure_quantum_matrix(DilemmaParams(d_g, d_r), gamma).pi_d, situ_transitional,
                           (d_g, d_r, gamma)) for d_g, d_r, gamma in pi_d_worst_points(random.Random(2028), 100))
    assert all(m <= C for m, _ in worst.values()), worst


def test_sensitivity_forms_are_within_the_conditioning_bound():
    worst = worst_margins(sensitivity_cases())
    assert len(worst) == len(SENSITIVITY)
    assert all(m <= C for m, _ in worst.values()), worst


def test_sensitivity_references_are_derivatives_of_the_weight():
    # The references' algebra against mp.diff of the chicken weight, at points inside the band.
    with mp.workdps(60):
        for d_g, d_r, gamma in [(0.9, 0.2, math.pi / 6), (0.7, 0.1, 0.5), (0.5, 0.3, 0.6)]:
            args = [mp.mpf(d_g), mp.mpf(d_r), mp.mpf(gamma)]
            for i, reference in enumerate((partial_dg, partial_dr, partial_gamma)):
                order = [0, 0, 0]
                order[i] = 1
                assert abs(reference(*args) - mp.diff(weight, args, tuple(order))) < mp.mpf(10) ** -40
