"""Command-line front end: classification, equilibria, RDE selection, sweeps,
table reproduction and oracle self-checks, with CSV/JSON output.

Exit codes: 0 success, 1 validation error, 2 check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import random
import re
import sys

from . import ewl, game_core, quantum_rde
from .errors import DegenerateBase, DegenerateDenominator, QpdError
from .game_core import DilemmaParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

# The most sweep rows or oracle-check points one request may ask for, checked before any
# axis is built; the README's "Request size" paragraph gives the reasons for the value.
MAX_ITEMS = 1_000_000
# The most texts above row scope one sweep keeps, least recently used out first: those of one pair
# only (its thresholds, a classical chicken's mixed RDE) leave, so a sweep's memory is about its
# output. The largest benchmark call, one d_g of the 81x81x8 cube, reads 134 texts; the cube shares 22.
_TEXTS = 256

# Sweep columns of each quantity, in the order rows lay them out, and its scope: the widest
# span of a quantum PD pair's rows over which its cells stay the same. That is the (d_g, d_r)
# pair; the side of gamma1 and gamma2 (phase and NE set); the band: the side of gamma1, gamma2
# and gamma_star (the coexistence RDE's switch), but the row on the transitional band; or the row.
_COLUMNS = {
    "class": ("pair", ("class", "boundary")),
    "ne": ("side", ("ne_phase", "ne_count", "ne_list")),
    "rde": ("band", ("rde_kind", "rde_label", "rde_p", "rde_q", "rde_payoff_a", "rde_payoff_b")),
    "payoffs": ("row", ("pi_q", "pi_d")),
    "sensitivity": ("band", ("p_star", "partial_dg", "partial_dr", "partial_gamma",
                             "s_dg", "s_dr", "s_gamma", "semi_elasticity_gamma")),
    "thresholds": ("pair", ("gamma1", "gamma2", "gamma_star")),
}
_BLANK = {q: (None,) * len(columns) for q, (_, columns) in _COLUMNS.items()}  # undefined
_KEYS = {"strengths": ("d_g", "d_r"), "gamma": ("gamma",), **{q: c for q, (_, c) in _COLUMNS.items()}}


class _Echo:
    """A file whose write returns the text it is given."""

    write = staticmethod(str)


# csv.writerow returns what its file's write returns: here the line, quoted as csv quotes.
_csv_line = csv.writer(_Echo(), lineterminator="").writerow
_json_object = json.JSONEncoder(separators=(",\n    ", ": ")).encode  # no indent: the C encoder
# Each group's members with a %r for each cell's value, its keys as the encoder quotes them.
_TEMPLATES = {group: ",\n    ".join(f"{json.dumps(key)}: %r" for key in keys) for group, keys in _KEYS.items()}


def _fmt(x: float) -> str:
    """12-significant-digit text of a float in reports and tables; sweep CSV cells inline it."""
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the exit-code contract."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1e-07", "-.5", "-1_000", "-inf" and "-NaN" as negative numbers, not as options.
        digits = r"\d(_?\d)*"  # with single underscores between digits, as float() reads them
        self._negative_number_matcher = re.compile(
            rf"(?i)-(({digits}(\.({digits})?)?|\.{digits})(e[-+]?{digits})?|inf(inity)?|nan)$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _gamma_from(args) -> float | None:
    """--gamma in radians; resolving the phase checks its domain."""
    return math.radians(args.gamma) if args.degrees and args.gamma is not None else args.gamma


def _write_output(chunks: list[str], out: str | None) -> None:
    """Write the text chunks in one call, to the file ``out`` or to stdout."""
    try:
        if not out:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        with open(out, "w", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise QpdError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from exc


def _emit_report(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(f"{key}: {_fmt(value) if isinstance(value, float) else value}"
                         for key, value in payload.items())
    _write_output([text, "\n"], args.out)


def _ne_labels(report) -> list[str]:
    """Action labels of the report's pure NEs: C and D in the classical game, Q and D in the quantum one."""
    labels = "CD" if report.phase == "classical" else "QD"  # weight 1 on the first action is labels[0]
    return [f"({labels[rec.profile.p != 1.0]},{labels[rec.profile.q != 1.0]})" for rec in report.equilibria]


# ---------------------------------------------------------------------------
# classify / ne


def _ne_payload(report) -> dict:
    return {"pure_ne": _ne_labels(report), "pure_ne_payoffs": [list(rec.payoffs) for rec in report.equilibria]}


def _head(params: DilemmaParams, gamma: float | None, phase: str) -> dict:
    """The strengths, then the classical mode, or gamma, the quantum mode and the phase."""
    game = {"mode": "classical"} if gamma is None else {"gamma": gamma, "mode": "quantum", "phase": phase}
    return {"d_g": params.d_g, "d_r": params.d_r, **game}


def cmd_classify(args) -> int:
    params = DilemmaParams(args.dg, args.dr)
    cls = game_core.classify_dilemma(params)
    payload = {"d_g": params.d_g, "d_r": params.d_r, "class": cls.kind.value,
               "boundary": cls.boundary, **_ne_payload(ewl.pure_ne(params))}
    _emit_report(payload, args)
    return EXIT_OK


def cmd_ne(args) -> int:
    params = DilemmaParams(args.dg, args.dr)
    gamma = _gamma_from(args)
    report = ewl.pure_ne(params, gamma)
    _emit_report({**_head(params, gamma, report.phase), **_ne_payload(report)}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rde


def cmd_rde(args) -> int:
    params = DilemmaParams(args.dg, args.dr)
    gamma = _gamma_from(args)
    phase, outcome, losses = quantum_rde.select_rde(params, gamma)
    payload = _head(params, gamma, phase.name) | ({} if gamma is None else phase.thresholds._asdict())
    payload.update(rde_kind=outcome.kind, rde_label=outcome.label, p=outcome.profile.p, q=outcome.profile.q,
                   payoff_a=outcome.payoffs[0], payoff_b=outcome.payoffs[1])
    actions = "cd" if phase.name == "classical" else "qd"
    payload.update((f"delta_{actions[p != 1.0]}{actions[q != 1.0]}", loss.product) for (p, q), loss in losses)
    _emit_report(payload, args)
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    params = DilemmaParams(args.dg, args.dr)
    gamma = _gamma_from(args)
    if gamma is None:
        raise QpdError("sensitivity requires --gamma")
    report = quantum_rde.sensitivity_indices(params, gamma)
    angles = quantum_rde.sensitivity_critical_angles(params)
    _emit_report({"d_g": params.d_g, "d_r": params.d_r, "gamma": gamma,
                  **report._asdict(), **angles._asdict()}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _axis(single, rng, name):
    """A sweep axis as (start, stop, steps): a range as given, or its one value with steps None."""
    if rng is None:
        value = single if single is not None else 0.0
        return value, value, None
    start, stop, steps = rng
    if not (1 <= steps <= sys.maxsize and steps.is_integer()):
        raise QpdError(f"{name} steps must be a whole number in [1, sys.maxsize], got {steps}")
    return start, stop, int(steps)


def _csv_text(group, cells) -> str:
    """CSV text of one group of cells: floats to 12 significant digits, None blank, and other
    cells as csv.writer quotes them. csv.writer never quotes %.12g text and quotes a row of two
    or more cells cell by cell; only a row of one empty cell does it write as '""'."""
    return ",".join([f"{x:.12g}" if type(x) is float else "" if x is None else _csv_line((x,))
                     for x in cells])


def _json_text(group, cells) -> str:
    """JSON members of a group of cells, keyed by _KEYS, one to a line as in json.dumps(indent=2).
    json writes a finite float as float.__repr__, so a group of finite floats fills its template;
    a group with any other cell (str, int, None, inf or nan) goes through the encoder."""
    for x in cells:
        if type(x) is not float or not math.isfinite(x):
            return _json_object(dict(zip(_KEYS[group], cells)))[1:-1]
    return _TEMPLATES[group] % tuple(cells)


def _ne_cells(params: DilemmaParams, gamma: float, phase, rde) -> tuple:
    report = ewl._pure_ne(params, gamma, phase)
    return report.phase, len(report.equilibria), "|".join(_ne_labels(report))


def _rde_cells(params: DilemmaParams, gamma: float, phase, rde) -> tuple:
    """RDE cells; blank at the common threshold of d_g == d_r, where the RDE is undefined (None)."""
    return _BLANK["rde"] if rde is None else (rde.kind, rde.label, *rde.profile, *rde.payoffs)


def _sensitivity_cells(params: DilemmaParams, gamma: float, phase, rde) -> tuple:
    """Sensitivity cells on the transitional band; blank off it, where p* is 0 or the gap underflows."""
    if not quantum_rde._on_band(phase, "transitional"):
        return _BLANK["sensitivity"]
    try:
        return quantum_rde._indices(params, gamma, rde.profile.p)  # its fields are the columns, in order
    except (DegenerateBase, DegenerateDenominator):
        return _BLANK["sensitivity"]


def _run_rde(params: DilemmaParams, gamma: float, phase):
    """The RDE at gamma and the phase resolved for it, or None where it is undefined."""
    try:
        return quantum_rde._select_rde(params, gamma, phase)
    except DegenerateDenominator:
        return None


# Cells of each quantity of side or band scope at gamma, its phase (the classical Phase in the classical
# game) and the run's RDE there, which the band groups read; the payoffs are ewl._pure_payoffs at sin^2.
_CELLS = {"ne": _ne_cells, "rde": _rde_cells, "sensitivity": _sensitivity_cells}
# CSV text of the payoffs group's tuple, its two cells always floats: _csv_text's, without its per-cell test.
_PAYOFFS_CSV = "%.12g,%.12g".__mod__


def _pair_rows(dg: float, dr: float, axis, quantities, render, row_text, between, cached) -> list[str]:
    """Sweep rows of one (d_g, d_r) pair, one text per angle, its groups joined by ``between``.

    ``render(group, cells)`` is a group's text and ``cached`` the same behind the sweep's cache;
    ``row_text((pi_q, pi_d))`` is the payoffs group's template; ``axis`` holds the angles, in
    monotone order, their texts and their sin^2. The angles split into ewl._runs, each with its
    phase. A run asked for rde or sensitivity selects its RDEs once for both: per row on the
    transitional band, where d_g > d_r and _select_rde cannot raise, else once. Each run joins the
    pair's and its own texts above row scope around a lazy column per group made per row: the
    payoffs, ``row_text`` over ewl._pure_payoffs, and on the transitional band rde and sensitivity,
    ``render`` over their _CELLS. Undefined cells are blank.
    """
    params = DilemmaParams(dg, dr)
    cls = game_core.classify_dilemma(params)
    thr = ewl.thresholds(params)
    head = render("strengths", (dg, dr))
    pair = {"class": (cls.kind.value, int(cls.boundary)), "thresholds": thr}  # cells of the pair-scope groups
    pair = {group: between + cached(group, pair[group]) for group in quantities if group in pair}
    band = "rde" in quantities or "sensitivity" in quantities
    gammas, texts, squares = axis
    rows = []
    for start, stop, phase in ewl._runs(params, gammas, thr):
        transitional = quantum_rde._on_band(phase, "transitional")  # where rde and sensitivity change per row
        rdes = (list(map(quantum_rde._select_rde, itertools.repeat(params), gammas[start:stop],
                         itertools.repeat(phase))) if band and transitional
                else [_run_rde(params, gammas[start], phase) if band else None])
        # Texts between the groups made per row, each joined once, and each such group's texts.
        columns, text = [itertools.repeat(head + between), texts[start:stop]], ""
        for group in quantities:
            scope = _COLUMNS[group][0]
            if scope == "pair":
                text += pair[group]
                continue
            if scope == "row":  # payoffs
                column = map(row_text, map(ewl._pure_payoffs, itertools.repeat(params), squares[start:stop]))
            elif scope == "band" and transitional:
                column = map(render, itertools.repeat(group), map(
                    _CELLS[group], itertools.repeat(params), gammas[start:stop], itertools.repeat(phase), rdes))
            else:
                text += between + cached(group, _CELLS[group](params, gammas[start], phase, rdes[0]))
                continue
            columns += [itertools.repeat(text + between), column]
            text = ""
        rows += map("".join, zip(*columns, itertools.repeat(text)))
    return rows


def cmd_sweep(args) -> int:
    chosen = [q.strip() for q in args.quantities.split(",") if q.strip()]
    for q in chosen:
        if q not in _COLUMNS:
            raise QpdError(f"unknown quantity {q!r}; choose from {', '.join(_COLUMNS)}")
    quantities = [q for q in _COLUMNS if q in chosen]

    axes = [_axis(args.dg, args.dg_range, "dg"), _axis(args.dr, args.dr_range, "dr"),
            _axis(args.gamma, args.gamma_range, "gamma")]
    # The library checks the ends as given (an infinite one makes NaN of its linspace's start)
    # before any pair is computed, so a bad value fails at once and as ne and rde report it.
    for d_g, d_r in zip(axes[0][:2], axes[1][:2]):
        DilemmaParams(d_g, d_r)
    count = math.prod(steps or 1 for *_, steps in axes)
    if count > MAX_ITEMS:
        raise QpdError(f"a sweep of {count} rows is above {MAX_ITEMS}")
    dgs, drs, gammas = ([start] if steps is None else ewl._linspace(start, stop, steps)
                        for start, stop, steps in axes)
    gamma_ends, gammas = ([math.radians(g) for g in axis] if args.degrees else axis
                          for axis in (axes[2][:2], gammas))
    for gamma in (*gamma_ends, *gammas):
        ewl._check_gamma(gamma)

    header = [c for group in ("strengths", "gamma", *quantities) for c in _KEYS[group]]
    # The payoffs group's template: in JSON _json_text's for finite cells, as pi_q, pi_d lie in [-1, 2].
    render, row_text, chunks, between_groups, between_rows, end = {
        "csv": (_csv_text, _PAYOFFS_CSV, [_csv_line(header), "\n"], ",", "\n", "\n"),
        "json": (_json_text, _TEMPLATES["payoffs"].__mod__, ["[\n  {\n    "], ",\n    ",
                 "\n  },\n  {\n    ", "\n  }\n]\n"),
    }[args.format]
    # Each angle's text and sin^2, once per sweep.
    axis = gammas, [render("gamma", (gamma,)) for gamma in gammas], [math.sin(gamma) ** 2 for gamma in gammas]
    # Text above row scope by (group, cells), shared by every run of every pair. A value key would
    # merge 0.0 and -0.0, which print differently, but the library's + 0.0 guards keep -0.0 out of
    # side-level cells, and the seam properties, which compare sweeps as printed, would catch a
    # merged signed zero. Pair-scope cells hold none: class is a str and an int, and a threshold
    # is never -0.0 (ewl._arcsin_sqrt returns 0.0 for a zero radicand).
    cached = functools.lru_cache(maxsize=_TEXTS)(render)
    for dg in dgs:
        for dr in drs:
            rows = _pair_rows(dg, dr, axis, quantities, render, row_text, between_groups, cached)
            chunks += [between_rows.join(rows), between_rows]
    chunks[-1] = end  # in place of the text between the last pair's rows and the next's
    # Written only once every row is made: a sweep that fails prints no rows.
    _write_output(chunks, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables


# Each check yields (status when it holds, name, holds, detail); a check that
# does not hold prints as FAIL.


def _check_table2():
    cases = [
        ((0.5, 0.5), "PD", {"(D,D)"}),
        ((0.5, -0.5), "CH", {"(D,C)", "(C,D)"}),
        ((-0.5, 0.5), "SH", {"(C,C)", "(D,D)"}),
    ]
    for (dg, dr), expected_class, expected_ne in cases:
        params = DilemmaParams(dg, dr)
        cls = game_core.classify_dilemma(params).kind.value
        found = set(_ne_labels(ewl.pure_ne(params)))
        yield ("PASS", f"Table2 class({dg},{dr})", cls == expected_class,
               f"computed {cls}, expected {expected_class}")
        yield ("PASS", f"Table2 NE({dg},{dr})", found == expected_ne,
               f"computed {sorted(found)}, expected {sorted(expected_ne)}")


def _check_table5():
    cases = [
        # (dg, dr), [(sample gamma per band, expected NE set), ...]
        ((0.9, 0.2), [(0.15, {"(D,D)"}), (0.5, {"(D,Q)", "(Q,D)"}), (1.2, {"(Q,Q)"})]),
        ((0.5, 0.5), [(0.3, {"(D,D)"}), (1.0, {"(Q,Q)"})]),
        ((0.2, 0.9), [(0.2, {"(D,D)"}), (0.45, {"(D,D)", "(Q,Q)"}), (1.0, {"(Q,Q)"})]),
    ]
    for (dg, dr), bands in cases:
        params = DilemmaParams(dg, dr)
        for gamma, expected in bands:
            report = ewl.pure_ne(params, gamma)
            found = set(_ne_labels(report))
            certified = all(
                max(ewl.grid_best_response_gain(params, rec.profile.p, rec.profile.q,
                                                gamma)) <= game_core.TIE_EPS
                for rec in report.equilibria)
            yield ("PASS", f"Table5 NE set ({dg},{dr}) at gamma={gamma}",
                   found == expected and certified,
                   f"computed {sorted(found)}, expected {sorted(expected)}"
                   + ("" if certified else "; grid certification failed"))


def _fd_index(params: DilemmaParams, gamma: float, strength: str) -> float:
    """Central-difference elasticity of the transitional mixing probability in one strength."""
    h = 1e-6
    p_star = quantum_rde.transitional_mixing_probability
    x = getattr(params, strength)
    partial = (p_star(params._replace(**{strength: x + h}), gamma)
               - p_star(params._replace(**{strength: x - h}), gamma)) / (2 * h)
    return partial * x / p_star(params, gamma)


def _check_table6():
    params = DilemmaParams(0.9, 0.2)
    cases = [
        # (entry, gamma, SensitivityReport field, target, tolerance, deviation); a deviation
        # (strength, printed value) does not reproduce and is re-verified by finite difference.
        ("S_Dg(pi/6)", math.pi / 6, "index_dg", -0.593, 0.005, None),
        ("S_Dr(pi/5)", math.pi / 5, "index_dr", 0.037, 0.001, None),
        ("S_gamma(pi/6) as semi-elasticity", math.pi / 6, "semi_elasticity_gamma", 5.596, 0.01, None),
        ("S_Dg(pi/9)", math.pi / 9, "index_dg", 1.020, 0.005, ("d_g", "1.029")),
        ("S_Dr(pi/6)", math.pi / 6, "index_dr", -0.1758, 0.0005, ("d_r", "-0.173")),
    ]
    for entry, gamma, field, target, tol, deviation in cases:
        value = getattr(quantum_rde.sensitivity_indices(params, gamma), field)
        status, ok, detail = "PASS", abs(value - target) <= tol, f"computed {_fmt(value)}"
        if deviation:
            strength, printed = deviation
            status = "DOCUMENTED-DEVIATION"
            ok = abs(value - _fd_index(params, gamma, strength)) <= 1e-6 * abs(value) and ok
            detail += f" vs printed {printed}; finite-difference confirmed"
        yield status, f"Table6 {entry}", ok, detail


def cmd_tables(args) -> int:
    results = [*_check_table2(), *_check_table5(), *_check_table6()]
    _write_output([f"[{status if ok else 'FAIL'}] {name}: {detail}\n"
                   for status, name, ok, detail in results], args.out)
    return EXIT_OK if all(ok for _, _, ok, _ in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# oracle check


def cmd_oracle_check(args) -> int:
    density = args.grid
    if density < 2:
        raise QpdError("--grid must be >= 2")
    if args.seed < 0:
        raise QpdError("--seed must be >= 0")
    if density ** 3 + 100 > MAX_ITEMS:
        raise QpdError(f"--grid {density} checks {density ** 3 + 100} points, above {MAX_ITEMS}")
    rng = random.Random(args.seed)
    tampered = args.tampered_gate
    unit = ewl._linspace(0.0, 1.0, density)
    angles = ewl._linspace(0.0, ewl.GAMMA_MAX, density)
    # The seeded points take the checked public functions.
    seeded = ((rng.random(), rng.random(), rng.uniform(0.0, ewl.GAMMA_MAX)) for _ in range(100))
    checks = itertools.chain(ewl._grid_pairs(unit, angles, tampered), (
        (ewl.joint_distribution(*point), ewl.final_state(*point, tampered=tampered)) for point in seeded))

    max_dev = max_norm_dev = 0.0
    for (e1, e2, e3, e4), (z1, z2, z3, z4) in checks:
        a1, a2, a3, a4 = abs(z1) ** 2, abs(z2) ** 2, abs(z3) ** 2, abs(z4) ** 2
        max_dev = max(max_dev, abs(a1 - e1), abs(a2 - e2), abs(a3 - e3), abs(a4 - e4))
        max_norm_dev = max(max_norm_dev, abs(a1 + a2 + a3 + a4 - 1.0))

    ok = max_dev <= 1e-12 and max_norm_dev <= 1e-12
    lines = [
        f"points: {density ** 3 + 100}",
        f"max |state-vector - closed-form| deviation: {max_dev:.3e}",
        f"max normalization deviation: {max_norm_dev:.3e}",
        f"result: {'PASS' if ok else 'FAIL'}",
    ]
    _write_output(["\n".join(lines), "\n"], args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="qpd-rde",
                     description="Risk-dominant equilibria of 2x2 dilemmas and their "
                                 "EWL quantum extension")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gamma=True):
        p.add_argument("--dg", type=float, required=True, help="gamble-intending strength")
        p.add_argument("--dr", type=float, required=True, help="risk-averting strength")
        if gamma:
            p.add_argument("--gamma", type=float, default=None, help="entanglement angle")
            p.add_argument("--degrees", action="store_true", help="interpret angles as degrees")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to FILE")

    p = sub.add_parser("classify", help="dilemma class and pure NEs")
    add_common(p, gamma=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ne", help="Nash equilibria (classical, or quantum with --gamma)")
    add_common(p)
    p.set_defaults(func=cmd_ne)

    p = sub.add_parser("rde", help="risk-dominant equilibrium selection")
    add_common(p)
    p.set_defaults(func=cmd_rde)

    p = sub.add_parser("sensitivity", help="sensitivity of the transitional RDE")
    add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("sweep", help="parameter sweep emitting CSV/JSON rows")
    for axis in ("dg", "dr", "gamma"):  # one value or a range, not both
        group = p.add_mutually_exclusive_group()
        group.add_argument(f"--{axis}", type=float, default=None)
        group.add_argument(f"--{axis}-range", type=float, nargs=3, metavar=("START", "STOP", "STEPS"))
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--quantities", default="class,rde",
                   help=f"comma-separated subset of {{{','.join(_COLUMNS)}}}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tables", help="reproduce the reference tables with pass/fail lines")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("oracle-check", help="state-vector vs closed-form equivalence check")
    p.add_argument("--grid", type=int, default=11, help="grid density per axis")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tampered-gate", action="store_true",
                   help="debug: use the wrong sigma_x entangler (check must fail)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser main reuses: parse_args reads it and returns a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # By name, so a cmd_* rebound after the parser was built (a tracer's wrapper) runs.
        return globals()[args.func.__name__](args)
    except (QpdError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
