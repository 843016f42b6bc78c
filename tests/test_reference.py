"""The shared risk-dominance forms against a 60-digit reference.

The chicken weight, the chicken's mixed payoff and the stag hunt's tie payoff are
checked in both games: the classical game at (d_g, d_r) and the pure-quantum game at
(d_g, d_r, gamma), whose transitional RDE is the chicken of the layout shifted by
x = (1 + d_g + d_r) sin^2(gamma). The reference is mpmath at 60 digits on the same
float inputs, from the paper's formulas, and never calls the package. Each float must
lie within C * EPS * (|ref| + sum_i |x_i d ref / d x_i|) of it: C roundings of the
result, or relative perturbations of the inputs, of size EPS; mp.diff takes the partials.
"""

import math
import random

import pytest

from qpd_rde.ewl import thresholds
from qpd_rde.game_core import DilemmaParams
from qpd_rde.quantum_rde import rde_coexistence, rde_transitional, transitional_mixing_probability
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
                scale += abs(x * mp.diff(reference, args, tuple(order)))
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
        yield "transitional payoff", rde_transitional(params, gamma).payoffs[0], mixed_payoff, (
            d_g, d_r, gamma)
    for d_g, d_r in tie_pairs(rng, 40):
        for value in rde_staghunt(DilemmaParams(d_g, d_r)).payoffs:
            yield "classical tie payoff", value, tie_payoff, (d_g, d_r)
    for d_g, d_r, gamma in coexistence_ties(rng, 40):
        outcome = rde_coexistence(DilemmaParams(d_g, d_r), gamma)
        assert outcome.label == "U(0.5)xU(0.5)"
        yield "coexistence tie payoff", outcome.payoffs[0], tie_payoff, (d_g, d_r)


def test_shared_forms_are_within_the_conditioning_bound():
    worst = {}
    for name, value, reference, inputs in cases():
        m = margin(value, reference, inputs)
        if m > worst.get(name, (-1.0,))[0]:
            worst[name] = (m, inputs)
    for name, (m, inputs) in worst.items():
        print(f"{name}: worst margin {m:.3g} of C = {C} at {inputs}")
    assert len(worst) == 6
    assert all(m <= C for m, _ in worst.values()), worst
