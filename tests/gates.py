"""Whole-program gates: the README's CLI block, the sweep against itself, its payoffs against the
public function, and the phase cache.

Each gate runs the installed package end to end on a fixed grid or a seeded stream of points,
prints one line and passes or fails; they are too slow for Tier-1.

    python tests/gates.py                      # every gate; exits 1 if any fails
    python tests/gates.py sweep payoffs        # the named gates only

Not part of Tier-1. CI runs it after Tier-1, with the package installed. Beyond the package it
needs the standard library, and numpy (a test extra) for the phase cache gate's numpy.float64 points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUANTITIES = "class,ne,rde,payoffs,sensitivity,thresholds"
PD_GRID = ["--dg-range", "0.025", "1", "40", "--dr-range", "0.025", "1", "40"]  # the 40x40 PD strengths


def readme_cli() -> bool:
    """Every command in the README's CLI block, as written there, must exit 0 in a fresh directory."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", text, re.S | re.M).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        runs = [subprocess.run(command, shell=True, cwd=tmp, capture_output=True, text=True)
                for command in commands]
    for command, run in zip(commands, runs):
        print(f"exit {run.returncode}: {' '.join(command.split())}")
        if run.returncode:
            print(run.stderr, end="")
    return bool(runs) and all(run.returncode == 0 for run in runs)


def _cli(argv: list[str]) -> str:
    """Standard output of one in-process CLI call, which must exit 0."""
    from qpd_rde import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code:
        raise SystemExit(f"qpd-rde {' '.join(argv)} exited {code}")
    return out.getvalue()


def _cube(fmt: str) -> str:
    """The 81x81x8 all-quantity sweep of the whole cube in one call."""
    return _cli(["sweep", "--dg-range", "-1", "1", "81", "--dr-range", "-1", "1", "81",
                 "--gamma-range", "0", repr(math.pi / 2), "8", "--format", fmt, "--quantities", QUANTITIES])


def sweep() -> bool:
    """The 40x40 all-quantity strengths grid over a descending range of 50 angles must equal, row for
    row, its sweeps at each one of those angles: the sweep's runs of angles, on a descending axis,
    against rows with no run to share."""
    from qpd_rde import ewl

    def rows_of(*gamma):
        return _cli(["sweep", *PD_GRID, *gamma, "--quantities", QUANTITIES]).splitlines()[1:]

    rows = rows_of("--gamma-range", repr(math.pi / 2), "0", "50")
    single = {tuple(row.split(",", 3)[:3]): row
              for gamma in ewl._linspace(math.pi / 2, 0.0, 50) for row in rows_of("--gamma", repr(gamma))}
    equal = sum(single.get(tuple(row.split(",", 3)[:3])) == row for row in rows)
    print(f"{equal} of {len(rows)} rows equal their one-angle sweeps' rows")
    return equal == len(rows) == len(single) == 80000


def sweep_json() -> bool:
    """The 81x81x8 all-quantity JSON sweep of the whole cube and the 40x40x50 one of the PD quadrant,
    each in one call, must each be json.dumps(indent=2) of its own rows: float groups from their
    templates and the encoder's groups alike, over classical None and float mixes, the seams,
    d_g == d_r, and the rows of the transitional band, whose rde and sensitivity are made per row."""
    texts = [_cube("json"), _cli(["sweep", *PD_GRID, "--gamma-range", "0", repr(math.pi / 2), "50",
                                  "--format", "json", "--quantities", QUANTITIES])]
    rows = [json.loads(text) for text in texts]
    same = [text == json.dumps(each, indent=2) + "\n" for text, each in zip(texts, rows)]
    print(f"{' and '.join(str(len(each)) for each in rows)} rows; "
          f"each text is json.dumps(indent=2) of its rows: {same}")
    return all(same) and [len(each) for each in rows] == [52488, 80000]


def sweep_cache() -> bool:
    """The 81x81x8 all-quantity cube, in JSON and in CSV, must be the same bytes with no cache of
    texts (cli._TEXTS = 0) as at the default size."""
    from qpd_rde import cli

    texts = {fmt: _cube(fmt) for fmt in ("json", "csv")}
    size, cli._TEXTS = cli._TEXTS, 0
    try:
        same = {fmt: _cube(fmt) == text for fmt, text in texts.items()}
    finally:
        cli._TEXTS = size
    print(f"the cube with no cache equals the default run: {same}")
    return all(same.values())


def payoffs() -> bool:
    """The 40x40 all-quantity strengths grid over 50 ascending and 50 descending angles, in one call
    each, in CSV and JSON: each row's strengths, angle, pi_q and pi_d must print as its point and
    pure_quantum_matrix there, called point by point, print: as f"{x:.12g}" in CSV, as repr in JSON."""
    import csv
    import itertools

    from qpd_rde import DilemmaParams, ewl, pure_quantum_matrix

    keys = ("d_g", "d_r", "gamma", "pi_q", "pi_d")
    strengths = ewl._linspace(0.025, 1.0, 40)
    rows = equal = 0
    for ends in ((0.0, math.pi / 2), (math.pi / 2, 0.0)):
        points = list(itertools.product(strengths, strengths, ewl._linspace(*ends, 50)))
        matrices = [pure_quantum_matrix(DilemmaParams(dg, dr), gamma) for dg, dr, gamma in points]
        for fmt, text in (("csv", lambda x: f"{x:.12g}"), ("json", repr)):
            out = _cli(["sweep", *PD_GRID, "--gamma-range", *map(repr, ends), "50", "--format", fmt,
                        "--quantities", QUANTITIES])
            printed = ([row[key] for key in keys] for row in csv.DictReader(io.StringIO(out))) if fmt == "csv" \
                else ([repr(row[key]) for key in keys] for row in json.loads(out))
            expected = ([text(x) for x in (*point, matrix.pi_q, matrix.pi_d)]
                        for point, matrix in zip(points, matrices))
            for got, want in itertools.zip_longest(printed, expected):
                rows += 1
                equal += got == want
    print(f"{equal} of {rows} rows print their point and pure_quantum_matrix's pi_q and pi_d there")
    return equal == rows == 320000


def _exact(kind, x: float):
    """x as a kind that float() gives back as x, the sign of a zero included; else x itself."""
    try:
        number = kind(x)
    except (ValueError, OverflowError):
        return x
    return number if repr(float(number)) == repr(x) else x


def phase_cache() -> bool:
    """20,000 seeded points, uniform over the cube with every tenth on the diagonal and every tenth
    within a few PHASE_TOL of a threshold, through the three quantum entry points: the results and
    error texts must be the same with the phase cache warm as with it cleared before every call, and
    as with the same points passed as an int, a Fraction or a numpy.float64 where one is exact."""
    import numpy as np

    from qpd_rde import DilemmaParams, classify_quantum_ne, ewl, select_rde_quantum, sensitivity_indices

    rng = random.Random(0)
    points = []
    for i in range(20000):
        dg, dr, gamma = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, math.pi / 2)
        params = DilemmaParams(dg, dg if i % 10 == 1 else dr)
        angles = [angle for angle in ewl.thresholds(params) if angle is not None]
        if i % 10 == 0 and angles:
            gamma = min(max(rng.choice(angles) + rng.choice((-2, -1, -0.5, 0, 0.5, 1, 2)) * ewl.PHASE_TOL,
                            0.0), math.pi / 2)
        points.append((params, gamma))

    def stream(points, clear):
        out = []
        for params, gamma in points:
            for entry in (classify_quantum_ne, select_rde_quantum, sensitivity_indices):
                if clear:
                    ewl._resolved.cache_clear()
                try:
                    out.append(repr(entry(params, gamma)))
                except Exception as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
        return out

    warm = stream(points, False)
    hits = ewl._resolved.cache_info().hits
    same = warm == stream(points, True)
    print(f"{len(warm)} results, {hits} read from the warm cache; equal to the cleared runs: {same}")
    kinds = (int, Fraction, np.float64)  # by turns, point by point
    retyped = [[_exact(kinds[i % 3], x) for x in (*params, gamma)] for i, (params, gamma) in enumerate(points)]
    others = sum(type(x) is not float for point in retyped for x in point)
    same_typed = warm == stream([(DilemmaParams(dg, dr), gamma) for dg, dr, gamma in retyped], False)
    print(f"with {others} values passed as an int, a Fraction or a numpy.float64: equal: {same_typed}")
    return same and bool(hits) and same_typed


GATES = {"readme-cli": readme_cli, "sweep": sweep, "sweep-json": sweep_json, "sweep-cache": sweep_cache,
         "payoffs": payoffs, "phase-cache": phase_cache}


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in GATES]
    if unknown:
        print(f"unknown gate(s) {', '.join(unknown)}; the gates are {', '.join(GATES)}")
        return 2
    failed = 0
    for name in argv or GATES:
        ok = GATES[name]()
        failed += not ok
        print(f"{'pass' if ok else 'FAIL'}: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
