"""Correctness checks for the benchmark workloads.

Every expected value here comes from the paper's closed forms written out
again in this file; nothing calls into qpd_rde. A check returns the names of
the conditions an output broke, so an empty list means the output is correct.
"""

from __future__ import annotations

import math

# The sweep CSV prints 12 significant digits, so identities between printed
# cells hold to about 1e-11; exact-precision JSON holds them far tighter.
IDENTITY_TOL = 1e-10

# Half-width of the tolerance band the package puts around each phase
# threshold; a phase disagreement inside it is the known seam defect.
SEAM_BAND = 1e-9

GAMMA_MAX = math.pi / 2


def dilemma_class(dg: float, dr: float) -> str:
    """Class from the signs of (d_g, d_r); a zero takes the richer adjacent class."""
    if dg == 0.0 and dr == 0.0:
        return "TRIVIAL"
    if dg == 0.0:
        return "SH" if dr > 0 else "CH"
    if dr == 0.0:
        return "CH" if dg > 0 else "SH"
    if dg > 0:
        return "PD" if dr > 0 else "CH"
    return "SH" if dr > 0 else "TRIVIAL"


def threshold_angles(dg: float, dr: float) -> tuple[float | None, float | None, float | None]:
    """(gamma1, gamma2, gamma*) from sin^2 = d_r/s, d_g/s, (d_g+d_r)/(2s), s = 1+d_g+d_r."""
    s = 1.0 + dg + dr
    if s <= 0.0:
        return None, None, None

    def angle(radicand):
        return math.asin(math.sqrt(radicand)) if 0.0 <= radicand <= 1.0 else None

    return angle(dr / s), angle(dg / s), angle((dg + dr) / (2.0 * s))


def _identity_failures(dg, dr, thresholds) -> list[str]:
    failures = []
    s = 1.0 + dg + dr
    targets = (dr, dg, (dg + dr) / 2.0)
    names = ("gamma1", "gamma2", "gamma_star")
    for name, got, want, target in zip(names, thresholds, threshold_angles(dg, dr), targets):
        if (got is None) != (want is None):
            failures.append(f"{name}_defined")
        elif got is not None and abs(math.sin(got) ** 2 * s - target) > IDENTITY_TOL:
            failures.append(f"{name}_identity")
    return failures


# ---------------------------------------------------------------------------
# sweep rows


def sweep_row_failures(row: dict, dg: float, dr: float, gamma: float, exact: bool) -> list[str]:
    """Checks on one sweep row with all six quantities.

    ``row`` maps column names to parsed cells (number, str or None);
    ``dg``, ``dr`` and ``gamma`` are the grid point the row must carry.
    ``exact`` compares the grid columns bit for bit (JSON) instead of at the
    CSV's 12 significant digits.
    """
    failures = []
    if exact:
        same_point = (row["d_g"], row["d_r"], row["gamma"]) == (dg, dr, gamma)
    else:
        same_point = all(f"{got:.12g}" == f"{want:.12g}"
                         for got, want in zip((row["d_g"], row["d_r"], row["gamma"]),
                                              (dg, dr, gamma)))
    if not same_point:
        failures.append("row_order")
    if row["class"] != dilemma_class(dg, dr) or row["boundary"] != int(dg == 0.0 or dr == 0.0):
        failures.append("class")
    if abs(row["pi_q"] + row["pi_d"] - (1.0 + dg - dr)) > IDENTITY_TOL:
        failures.append("pi_sum")
    failures += _identity_failures(dg, dr, (row["gamma1"], row["gamma2"], row["gamma_star"]))
    if row["rde_kind"] == "pure" and row["rde_label"] not in (row["ne_list"] or "").split("|"):
        failures.append("rde_not_in_ne")
    if row["p_star"] is not None and not 0.0 <= row["p_star"] <= 1.0:
        failures.append("p_star_range")
    return failures


def parse_csv_cell(text: str):
    """A CSV cell as float, or None when blank, or the text itself."""
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# oracle-check


def oracle_failures(exit_code: int, text: str, grid: int, tampered: bool) -> list[str]:
    """The genuine gate passes on grid^3 + 100 points; the tampered one must fail."""
    lines = text.splitlines()
    if tampered:
        return [] if exit_code == 2 and "result: FAIL" in lines else ["tampered_not_caught"]
    failures = []
    if exit_code != 0 or "result: PASS" not in lines:
        failures.append("oracle_fail")
    if f"points: {grid ** 3 + 100}" not in lines:
        failures.append("oracle_points")
    return failures


# ---------------------------------------------------------------------------
# single-point queries


def profile_label(p: float, q: float, labels: tuple[str, str]) -> str:
    return f"({labels[0] if p == 1.0 else labels[1]},{labels[0] if q == 1.0 else labels[1]})"


def query_failures(dg: float, dr: float, gamma: float, out: dict) -> list[str]:
    """Checks on one normalised query result (see worker.normalise_query)."""
    failures = []
    if out["class"] != dilemma_class(dg, dr) or out["boundary"] != (dg == 0.0 or dr == 0.0):
        failures.append("class")
    quantum = dg > 0.0 and dr > 0.0
    in_domain = 0.0 <= gamma <= GAMMA_MAX
    error = out.get("error")
    if error is not None:
        # A validation error is the package's answer to an angle outside the
        # domain, or to the one in-domain point where the closed form is
        # undefined; anywhere else any exception is a failure.
        if not error["validation"] or (in_domain and not is_undefined_point(dg, dr, gamma)):
            failures.append("unexpected_error")
        return failures
    if quantum and not in_domain:
        failures.append("out_of_domain_accepted")
    rde = out["rde"]
    if rde is not None and rde["kind"] == "pure" and rde["label"] not in out["ne"]:
        failures.append("rde_not_in_ne")
    if quantum and out["ne_phase"] != "boundary" and out["ne_phase"] != out["rde_phase"]:
        failures.append("phase_mismatch")
    if out.get("p_star") is not None and not 0.0 <= out["p_star"] <= 1.0:
        failures.append("p_star_range")
    return failures


def is_undefined_point(dg: float, dr: float, gamma: float) -> bool:
    """True where the mixed equilibrium's denominator vanishes: d_g == d_r > 0,
    so gamma1 == gamma2, at an angle within the package's band around them."""
    return dg == dr > 0.0 and abs(gamma - threshold_angles(dg, dr)[0]) <= SEAM_BAND


def is_known_seam_defect(dg: float, dr: float, gamma: float, failures: list[str]) -> bool:
    """True for the documented defect: ``ne`` and ``rde`` name different phases
    at an angle within the package's 1e-9 band around gamma1 or gamma2."""
    if failures != ["phase_mismatch"]:
        return False
    g1, g2, _ = threshold_angles(dg, dr)
    return any(g is not None and abs(gamma - g) <= SEAM_BAND for g in (g1, g2))
