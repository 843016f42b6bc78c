"""Mutation check of the library's tolerance edges, the CLI's check bounds and a signed-zero guard.

Each mutant flips the strictness of one tolerance comparison in src/qpd_rde/ (or drops the
leading 0.0 of PayoffMatrix2x2.expected_payoffs, the types from the phase cache's key, or the
float conversion from the domain check, so that it returns its input unconverted, or makes
classify_dilemma read the wrong one of a class's two shared records, or makes ewl._runs trust the
float cut next to a threshold within the angle tolerance or bisect a descending axis as ascending,
or drops the clamp of the generic selectors' tie weights to [0, 1], or makes the sweep print an
unlabeled RDE's label as "" where every other entry point prints null),
in a temporary copy of src/, tests/ and pyproject.toml, and runs there the tests that pin that edge
with an input exactly at its bound. A mutant is killed when those tests fail. The unmutated copy
must pass them first. The two other check bounds of cli cannot be reached: an oracle-check
normalization sum in [0.5, 2] minus 1 is exact and a multiple of 2^-53, which 1e-12 is not (outside
that range it is at least 0.5), and each Table 6 entry's value - target is exact near the target,
where target +- tol is not a double.

    python tests/edge_mutants.py    # one line per mutant; exits 1 if any survives

Not part of Tier-1: it runs pytest once per mutant. CI runs it after Tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RD, GC, CLI = "src/qpd_rde/risk_dominance.py", "src/qpd_rde/game_core.py", "src/qpd_rde/cli.py"
RUNS = "tests/test_entry_points.py::test_the_sweeps_runs_are_its_per_row_sides"
TIE = "tests/test_risk_dominance.py::test_staghunt_tie_is_closed_at_tie_eps"
PRODUCTS = "tests/test_risk_dominance.py::test_loss_products_tie_is_closed_at_tie_eps"
SUMS = "tests/test_risk_dominance.py::test_mixed_profile_loss_sums_are_closed_at_tie_eps"
VERIFY = "tests/test_game_core.py::test_verify_mixed_ne_is_closed_at_tie_eps"
CLAMP = "tests/test_risk_dominance.py::test_select_rde_asymmetric_clamps_the_tie_weights"

# (name, file, text, its mutant, the tests that must kill it); each text occurs once in its file.
MUTANTS = [
    ("ewl._side: <= PHASE_TOL to <", "src/qpd_rde/ewl.py", "abs(gamma - angle) <= PHASE_TOL",
     "abs(gamma - angle) < PHASE_TOL", ["tests/test_ewl.py::test_side_is_closed_at_the_angle_tolerance"]),
    ("ewl._runs: the low cut's side < 0 to <= 0", "src/qpd_rde/ewl.py", "side(gammas[at - 1]) < 0",
     "side(gammas[at - 1]) <= 0", [RUNS]),
    ("ewl._runs: the high cut's side > 0 to >= 0", "src/qpd_rde/ewl.py", "side(gammas[at]) > 0",
     "side(gammas[at]) >= 0", [RUNS]),
    ("ewl._runs: no key on a descending axis", "src/qpd_rde/ewl.py", "key=None if sign > 0 else operator.neg",
     "key=None", [RUNS]),
    ("ewl._resolved: typed=True to False", "src/qpd_rde/ewl.py", "maxsize=_PHASES, typed=True",
     "maxsize=_PHASES, typed=False",
     ["tests/test_ewl.py::test_a_plain_tuple_raises_after_its_equal_params_were_cached"]),
    ("game_core._check_real: returns its input unconverted", GC,
     "return _check_real(float(element), name, low, high, span)",
     "_check_real(float(element), name, low, high, span); return x",
     ["tests/test_phase_properties.py::test_a_number_equal_to_a_float_gives_what_the_float_gives"]),
    ("_layout_rde tie side: diff > TIE_EPS to >=", RD, "tie_side = (diff > TIE_EPS)",
     "tie_side = (diff >= TIE_EPS)", [TIE]),
    ("_layout_rde tie side: diff < -TIE_EPS to <=", RD, "- (diff < -TIE_EPS)", "- (diff <= -TIE_EPS)", [TIE]),
    ("_select: diff > TIE_EPS to >=", RD, "if diff > TIE_EPS:", "if diff >= TIE_EPS:", [PRODUCTS]),
    ("_select: diff < -TIE_EPS to <=", RD, "if diff < -TIE_EPS:", "if diff <= -TIE_EPS:", [PRODUCTS]),
    ("_select: abs(denom_p) <= TIE_EPS to <", RD, "abs(denom_p) <= TIE_EPS", "abs(denom_p) < TIE_EPS", [SUMS]),
    ("_select: abs(denom_q) <= TIE_EPS to <", RD, "abs(denom_q) <= TIE_EPS", "abs(denom_q) < TIE_EPS", [SUMS]),
    ("_select: the tie's weights unclamped", RD, "p, q = (0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t for t in ratios)",
     "p, q = ratios", [CLAMP]),
    ("classify_dilemma: the non-PD read ignores the boundary flag", GC,
     "boundary = dg == 0.0 or dr == 0.0", "boundary = False",
     ["tests/test_game_core.py::test_classify_dilemma_on_every_seam"]),
    ("classify_dilemma: the PD branch returns the flagged record", GC, "return _PD_CLASS[False]",
     "return _PD_CLASS[True]", ["tests/test_game_core.py::test_classify_dilemma"]),
    ("verify_mixed_ne: A's > to >=", GC, "dev_a > base_a + TIE_EPS", "dev_a >= base_a + TIE_EPS", [VERIFY]),
    ("verify_mixed_ne: B's > to >=", GC, "dev_b > base_b + TIE_EPS", "dev_b >= base_b + TIE_EPS", [VERIFY]),
    ("expected_payoffs: no leading 0.0", GC, "tuple(0.0 + m[0][0]", "tuple(m[0][0]",
     ["tests/test_game_core.py::test_expected_payoffs_of_negative_zero_entries_are_positive_zero"]),
    ("oracle-check: max_dev <= 1e-12 to <", CLI, "ok = max_dev <= 1e-12", "ok = max_dev < 1e-12",
     ["tests/test_cli.py::test_oracle_check_deviation_bound_is_closed"]),
    ("sweep: an unlabeled RDE's label printed as \"\"", CLI, "(rde.kind, rde.label, *rde.profile",
     '(rde.kind, rde.label or "", *rde.profile', ["tests/test_entry_points.py::test_entry_points_agree"]),
    ("tables: Table 5's <= TIE_EPS to <", CLI, "gamma)) <= game_core.TIE_EPS", "gamma)) < game_core.TIE_EPS",
     ["tests/test_cli.py::test_table5_certification_is_closed_at_tie_eps"]),
    ("tables: Table 6's <= 1e-6 * abs(value) to <", CLI, "<= 1e-6 * abs(value)", "< 1e-6 * abs(value)",
     ["tests/test_cli.py::test_table6_finite_difference_bound_is_closed"]),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _passes(copy: Path, tests: list[str]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        every_test = sorted({test for *_, tests in MUTANTS for test in tests})
        if not _passes(copy, every_test):
            print("the unmutated copy fails the edge tests")
            return 1
        for name, rel, text, mutant, tests in MUTANTS:
            path = copy / rel
            source = path.read_text()
            if source.count(text) != 1:
                raise SystemExit(f"{rel}: {text!r} occurs {source.count(text)} times, not once")
            path.write_text(source.replace(text, mutant))
            try:
                killed = not _passes(copy, tests)
            finally:
                path.write_text(source)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {name}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
