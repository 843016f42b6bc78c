"""Seeded golden corpus: one sha256 per family of CLI outputs and public-function results.

The points are seeded: uniform over the cube, the edges 0, -0.0, +-1 and subnormal
strengths, d_g == d_r, and in the quantum PD each threshold at 0, PHASE_TOL / 2 and
2 * PHASE_TOL from it on both sides, with gamma at 0, pi/4 and pi/2. The families are
the classify, ne, rde and sensitivity commands in text and JSON, classical and quantum,
each hashed with its exit code and stderr; the 21x21x17 all-quantity sweep in CSV and
JSON, and in CSV with a descending angle axis in radians and in degrees; tables;
oracle-check plain and with --tampered-gate; and, one family per public function, the
repr of each result or the type and message of each exception.

    python tests/golden_corpus.py           # print the manifest the code gives now
    python tests/golden_corpus.py --write   # re-record tests/golden_manifest.json

Re-record only the families a change means to move, and say which and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

from qpd_rde import cli, ewl, game_core, quantum_rde, risk_dominance
from qpd_rde.game_core import DilemmaParams, StrategyProfile

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEED = 11
TOL = ewl.PHASE_TOL
OFFSETS = (0.0, TOL / 2, -TOL / 2, 2 * TOL, -2 * TOL)
EDGES = (-1.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0)
# Outside the domain: each makes the entry points print or raise their domain error.
BAD_PAIRS = ((1.5, 0.0), (0.0, -1.0000000000000002), (math.nan, 0.5), (0.5, math.inf))
BAD_GAMMAS = (-5e-324, math.pi / 2 + 1e-9, math.nan, -math.inf)
WEIGHTS = (0.0, 5e-324, 1 / 3, 0.5, 1 - 2 ** -53, 1.0)
BAD_WEIGHTS = (-5e-324, 1.0000000000000002, math.nan)
QUANTITIES = ",".join(cli._COLUMNS)


def pairs(rng: random.Random) -> list[tuple[float, float]]:
    """The edge grid, d_g == d_r, then uniform pairs over the cube and over the quantum PD."""
    diagonal = [(x, x) for x in (1e-300, 0.25, *(rng.uniform(0.0, 1.0) for _ in range(10)))]
    cube = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(120)]
    pd = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(50)]
    return [(a, b) for a in EDGES for b in EDGES] + diagonal + cube + pd


def angles(dg: float, dr: float, rng: random.Random) -> list[float]:
    """0, pi/4, pi/2 and a uniform angle; in the quantum PD also each threshold and its offsets."""
    points = [0.0, math.pi / 4, math.pi / 2, rng.uniform(0.0, math.pi / 2)]
    if dg > 0.0 and dr > 0.0:
        points += [t + off for t in ewl.thresholds(DilemmaParams(dg, dr)) for off in OFFSETS]
    return points


def points() -> tuple[list, list]:
    """(pairs, (d_g, d_r, gamma) points), seeded; bad values are appended to both."""
    rng = random.Random(SEED)
    grid = pairs(rng)
    triples = [(dg, dr, g) for dg, dr in grid for g in angles(dg, dr, rng)]
    triples += [(0.9, 0.2, g) for g in BAD_GAMMAS] + [(dg, dr, 0.5) for dg, dr in BAD_PAIRS]
    return grid + list(BAD_PAIRS), triples


def _record(call, *args) -> str:
    try:
        return f"{args!r} -> {call(*args)!r}\n"
    except Exception as exc:  # the domain errors are part of the corpus
        return f"{args!r} !! {type(exc).__name__}: {exc}\n"


def _cli(*argv) -> str:
    """argv, exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return f"{argv!r} -> {code!r}\n{out.getvalue()}\0{err.getvalue()}\0\n"


def cli_families(grid, triples):
    for fmt in ("text", "json"):
        yield f"cli.classify.{fmt}", [_cli("classify", "--dg", repr(dg), "--dr", repr(dr), "--format", fmt)
                                       for dg, dr in grid]
        for command in ("ne", "rde", "sensitivity"):
            yield f"cli.{command}.classical.{fmt}", [
                _cli(command, "--dg", repr(dg), "--dr", repr(dr), "--format", fmt) for dg, dr in grid]
            yield f"cli.{command}.quantum.{fmt}", [
                _cli(command, "--dg", repr(dg), "--dr", repr(dr), "--gamma", repr(g), "--format", fmt)
                for dg, dr, g in triples]
    for fmt in ("csv", "json"):
        yield f"cli.sweep.{fmt}", [_cli("sweep", "--dg-range", "-1", "1", "21", "--dr-range", "-1", "1", "21",
                                        "--gamma-range", "0", repr(math.pi / 2), "17",
                                        "--quantities", QUANTITIES, "--format", fmt)]
    # Descending angle axes, in radians and in degrees: the order a sweep walks its angles in.
    yield "cli.sweep.descending.csv", [
        _cli("sweep", "--dg-range", "-1", "1", "21", "--dr-range", "-1", "1", "21",
             "--gamma-range", *ends, "17", *unit, "--quantities", QUANTITIES)
        for ends, unit in (((repr(math.pi / 2), "0"), ()), (("90", "0"), ("--degrees",)))]
    yield "cli.tables", [_cli("tables")]
    yield "cli.oracle-check", [_cli("oracle-check")]
    yield "cli.oracle-check.tampered", [_cli("oracle-check", "--tampered-gate")]


def api_calls(grid, triples):
    """(function, argument tuples) for each public function, by family name."""
    rng = random.Random(SEED + 1)
    params = [DilemmaParams(dg, dr) for dg, dr in grid if (dg, dr) not in BAD_PAIRS]
    quantum = [(DilemmaParams(dg, dr), g) for dg, dr, g in triples if (dg, dr) not in BAD_PAIRS]
    gammas = sorted({g for _, g in quantum if not math.isnan(g)}) + [math.nan]
    weights = [*WEIGHTS, *(rng.random() for _ in range(4))]
    profiles = [StrategyProfile(p, q) for p in weights for q in weights]
    matrices = ([game_core.build_dilemma_matrix(p) for p in params]
                + [ewl.pure_quantum_matrix(p, g).matrix for p, g in quantum[::7] if 0 <= g <= math.pi / 2])
    mixed = [(p, *rng.sample(weights, 2), g) for p, g in quantum[::5]]
    mixed += [(params[-1], w, 0.5, 0.3) for w in BAD_WEIGHTS] + [(params[-1], 0.5, 0.5, g) for g in BAD_GAMMAS]
    gq = [(p, g) for p, g in quantum]
    return {
        "DilemmaParams": (DilemmaParams, grid),
        "StrategyProfile": (StrategyProfile, [(p, q) for p in (*WEIGHTS, *BAD_WEIGHTS) for q in (0.5, *BAD_WEIGHTS)]),
        "build_dilemma_matrix": (game_core.build_dilemma_matrix, [(p,) for p in params]),
        "classify_dilemma": (game_core.classify_dilemma, [(p,) for p in params]),
        "expected_payoff_classical": (game_core.expected_payoff_classical,
                                      [(p, s) for p in params[::4] for s in profiles[::3]]),
        "enumerate_pure_ne": (game_core.enumerate_pure_ne, [(m,) for m in matrices]),
        "verify_mixed_ne": (game_core.verify_mixed_ne, [(p, s) for p in params[::4] for s in profiles[::3]]),
        "deviation_losses_symmetric": (risk_dominance.deviation_losses_symmetric, [(m,) for m in matrices]),
        "deviation_losses_asymmetric": (risk_dominance.deviation_losses_asymmetric, [(m,) for m in matrices]),
        "select_rde_symmetric": (risk_dominance.select_rde_symmetric, [(m,) for m in matrices]),
        "select_rde_asymmetric": (risk_dominance.select_rde_asymmetric, [(m,) for m in matrices]),
        "rde_chicken": (risk_dominance.rde_chicken, [(p,) for p in params]),
        "rde_staghunt": (risk_dominance.rde_staghunt, [(p,) for p in params]),
        "initial_state": (ewl.initial_state, [(g,) for g in gammas]),
        "strategy_operator": (ewl.strategy_operator, [(w,) for w in (*weights, *BAD_WEIGHTS)]),
        "entangling_gate": (ewl.entangling_gate, [(g, t) for g in gammas for t in (False, True)]),
        "final_state": (ewl.final_state, [(p, q, g, t) for _, p, q, g in mixed for t in (False, True)]),
        "joint_distribution": (ewl.joint_distribution, [(p, q, g) for _, p, q, g in mixed]),
        "expected_payoff_quantum": (ewl.expected_payoff_quantum, mixed),
        "pure_quantum_matrix": (ewl.pure_quantum_matrix, gq),
        "thresholds": (ewl.thresholds, [(p,) for p in params]),
        "resolve_phase": (ewl.resolve_phase, gq),
        "classify_quantum_ne": (ewl.classify_quantum_ne, gq),
        "pure_ne": (ewl.pure_ne, [(p,) for p in params] + gq),
        "grid_best_response_gain": (ewl.grid_best_response_gain, mixed[::40]),
        "situ_risk_transitional": (quantum_rde.situ_risk_transitional, gq),
        "situ_risk_coexistence": (quantum_rde.situ_risk_coexistence, gq),
        "select_rde_quantum": (quantum_rde.select_rde_quantum, gq),
        "select_rde": (quantum_rde.select_rde, [(p,) for p in params] + gq),
        "transitional_mixing_probability": (quantum_rde.transitional_mixing_probability, gq),
        "sensitivity_partials": (quantum_rde.sensitivity_partials, gq),
        "sensitivity_critical_angles": (quantum_rde.sensitivity_critical_angles, [(p,) for p in params]),
        "sensitivity_indices": (quantum_rde.sensitivity_indices, gq),
        "group_benefit_threshold": (quantum_rde.group_benefit_threshold, [(p,) for p in params]),
        "unilateral_deviation_payoffs": (quantum_rde.unilateral_deviation_payoffs,
                                         [(p, g, a, q) for p, g in gq[::9] for a in ("D", "Q", "half", "x", None)
                                          for q in (0.25, 1.0)]),
    }


def manifest() -> dict[str, str]:
    """The sha256 of each family, by family name."""
    grid, triples = points()
    families = dict(cli_families(grid, triples))
    for name, (call, args) in api_calls(grid, triples).items():
        families[f"api.{name}"] = [_record(call, *a) for a in args]
    return {name: hashlib.sha256("".join(lines).encode()).hexdigest() for name, lines in families.items()}


def main(argv) -> int:
    digests = manifest()
    text = json.dumps(digests, indent=2) + "\n"
    if argv[1:] == ["--write"]:
        MANIFEST.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
