"""State-vector oracle helpers shared by the tests.

Everything here is built from ``ewl.final_state`` and the payoff vectors of
the normalized dilemma alone, with no closed form involved, so the tests can
hold the closed forms against it. Basis order is CC, CD, DC, DD; p = 1 (q = 1)
is quantum-cooperate (Q) and p = 0 (q = 0) is defect (D).
"""

import math

from qpd_rde.ewl import final_state


def oracle_payoffs(params, p, q, gamma):
    """(A, B) payoffs from the state vector alone."""
    probs = [abs(z) ** 2 for z in final_state(p, q, gamma)]
    dg, dr = params.d_g, params.d_r
    return tuple(sum(w * v for w, v in zip(probs, vector))
                 for vector in ((1.0, -dr, 1.0 + dg, 0.0), (1.0, 1.0 + dg, -dr, 0.0)))


def oracle_switch_gain(params, gamma):
    """A's gain from switching D -> Q against D; (D,D) is an NE while it is <= 0."""
    stay = oracle_payoffs(params, 0.0, 0.0, gamma)[0]
    return oracle_payoffs(params, 1.0, 0.0, gamma)[0] - stay


def oracle_product_difference(params, gamma):
    """(Q,Q) minus (D,D) product of the two players' deviation losses."""
    qq, qd, dq, dd = (oracle_payoffs(params, p, q, gamma)
                      for p, q in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)))
    return (qq[0] - dq[0]) * (qq[1] - qd[1]) - (dd[0] - qd[0]) * (dd[1] - dq[1])


def oracle_sign_change(f, lo=0.0, hi=math.pi / 2, tol=1e-12):
    """Bisect the one sign change of f on [lo, hi] down to tol."""
    lo_negative = f(lo) < 0
    assert lo_negative != (f(hi) < 0), "no sign change to bisect"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
