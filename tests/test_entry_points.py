"""Every entry point reports the same thing about the same (d_g, d_r, gamma).

One derandomized hypothesis property runs ``classify``, ``ne``, ``rde`` and
``sensitivity`` with ``--format json``, a one-row all-quantity
``sweep --format json``, the single-game scalar API
(``transitional_mixing_probability`` on its closed band too) and the two entries for both
games, ``pure_ne`` and ``select_rde``, in-process, and compares them field
by field, bit for bit. Points sit on the seams on purpose: d_g or d_r in
{0, -0.0, +-1}, d_g == d_r, and gamma at 0, pi/2 or gamma1, gamma2, gamma_star
shifted by +-PHASE_TOL and +-1 ulp.

Two differences are by design. Outside the PD regime ``ne`` and ``rde`` with
``--gamma`` exit 1, while the sweep row falls back to the classical game, which
``ne`` and ``rde`` without ``--gamma`` report. A label of None prints as
``None`` in ``rde`` text output and as an empty sweep cell. Where a quantity is
undefined the sweep row blanks its cells and the command exits 1: the
``rde_*`` cells exactly where ``rde --gamma`` fails (the common threshold of a
d_g == d_r pair) and the sensitivity cells exactly where ``sensitivity`` fails.

Another checks that the classical NEs are the exact game's, where 1 + d_g rounds
to 1 too: one NE in PD and TRIVIAL and two in CH and SH off a class boundary,
and the quantum game's at gamma = 0 where that game is classical. ``pure_ne``
lists them there, while ``enumerate_pure_ne`` on the float bimatrix keeps the
ties that the rounding adds.

Two more properties pin the sweep's layout: a multi-row sweep is its one-row
sweeps, in JSON and as CSV text, at any size of its cache of texts, and any
``--quantities`` subset, order or repeat gives the all-quantity sweep's
columns, cell for cell. Another checks
that the runs the sweep bisects a pair's angle axis into are the spans of equal
per-row sides of its three thresholds. One pins its
writers: the JSON text is ``json.dumps(indent=2)`` of its own rows, and the CSV
text is ``csv.writer`` over those rows. Another checks that each quantity's
cells stay the same over the scope the sweep's layout table gives it. A further
one checks that a sweep rejects a bad d_g, d_r or gamma with the line ``rde``
prints, given as one value or as a range's end. The last checks that every
spelling float() reads, -inf and -NaN in any case included, is read as a value
after an option, as its own word or after "=", never as an option.
"""

import contextlib
import csv
import io
import itertools
import json
import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from qpd_rde import cli
from qpd_rde.cli import _COLUMNS, build_parser, main
from qpd_rde.errors import QpdError
from qpd_rde.ewl import (_CLASSICAL, PHASE_TOL, _linspace, _runs, _side, classify_quantum_ne, pure_ne,
                         pure_quantum_matrix, resolve_phase, thresholds)
from qpd_rde.game_core import (DilemmaKind, DilemmaParams, build_dilemma_matrix, classify_dilemma,
                               enumerate_pure_ne)
from qpd_rde.quantum_rde import (select_rde, select_rde_quantum, sensitivity_critical_angles, sensitivity_indices,
                                 transitional_mixing_probability)
from qpd_rde.risk_dominance import rde_chicken, rde_staghunt

SETTINGS = settings(derandomize=True, database=None, max_examples=400, deadline=None)

strength = st.one_of(st.floats(-1.0, 1.0), st.sampled_from((0.0, -0.0, 1.0, -1.0)))
ECHOED = ("d_g", "d_r", "gamma")
RDE_CELLS = ("rde_kind", "rde_label", "rde_p", "rde_q", "rde_payoff_a", "rde_payoff_b")
SENSITIVITY = (("p_star", "p_star"), ("partial_dg", "partial_dg"), ("partial_dr", "partial_dr"),
               ("partial_gamma", "partial_gamma"), ("index_dg", "s_dg"), ("index_dr", "s_dr"),
               ("index_gamma", "s_gamma"), ("semi_elasticity_gamma", "semi_elasticity_gamma"))


def shifted(angle, offset, ulps):
    gamma = angle + offset
    for _ in range(abs(ulps)):
        gamma = math.nextafter(gamma, math.copysign(math.inf, ulps))
    return gamma


def angles(d_g, d_r):
    """Any angle, the ends of [0, pi/2], and the pair's thresholds +-PHASE_TOL and +-1 ulp."""
    thr = thresholds(DilemmaParams(d_g, d_r))
    anchors = [g for g in (thr.gamma1, thr.gamma2, thr.gamma_star) if g is not None]
    choices = [st.floats(0.0, math.pi / 2), st.sampled_from((0.0, -0.0, math.pi / 2))]
    if anchors:
        choices.append(st.builds(shifted, st.sampled_from(anchors),
                                 st.sampled_from((-PHASE_TOL, 0.0, PHASE_TOL)),
                                 st.sampled_from((-1, 0, 1))))
    return st.one_of(choices).filter(lambda gamma: 0.0 <= gamma <= math.pi / 2)


@st.composite
def points(draw):
    d_g = draw(strength)
    d_r = draw(st.one_of(strength, st.just(d_g)))
    return d_g, d_r, draw(angles(d_g, d_r))


def same(x, y):
    """Equal as printed: bit for bit, sign of zero included."""
    return json.dumps(x) == json.dumps(y)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(point, *argv):
    """Exit code, parsed JSON payload (None on failure) and stderr."""
    code, out, err = run(*argv, "--format", "json")
    if code != 0:
        return code, None, err
    payload = json.loads(out)
    for row in payload if isinstance(payload, list) else [payload]:
        assert_no_negative_zero(row, point)
    return code, payload, err


def assert_no_negative_zero(payload, point):
    """Echoed inputs print as given; nothing else prints -0.0."""
    for key, value in payload.items():
        if key in ECHOED:
            assert same(value, point[ECHOED.index(key)]), (key, value)
            continue
        for x in value if isinstance(value, list) else [value]:
            for y in x if isinstance(x, list) else [x]:
                assert not (isinstance(y, float) and y == 0.0 and math.copysign(1.0, y) < 0), key


def labels(records, actions):
    return [f"({actions[r.profile.p != 1.0]},{actions[r.profile.q != 1.0]})" for r in records]


def classical_rde(params):
    kind = classify_dilemma(params).kind
    if kind is DilemmaKind.CH:
        return rde_chicken(params)
    if kind is DilemmaKind.SH:
        return rde_staghunt(params)
    return None  # one dominant NE; compared through the sweep row only


@SETTINGS
@given(points())
@example((4.983299845074014e-131, 4.983299845074014e-131, 0.0))  # 1 + d_g rounds to 1
@example((1e-17, 0.5, 0.0))
@example((1e-17, -0.5, 0.0))
@example((-1e-17, -0.5, 0.0))
@example((5e-324, 0.5, 0.0))
def test_entry_points_agree(point):
    d_g, d_r, gamma = point
    params = DilemmaParams(d_g, d_r)
    pair = (f"--dg={d_g!r}", f"--dr={d_r!r}")
    at = f"--gamma={gamma!r}"
    quantum = d_g > 0.0 and d_r > 0.0

    code, row, sweep_err = run_json(point, "sweep", *pair, at, "--quantities",
                                    "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, sweep_err
    (row,) = row

    # classify: a cell is an NE iff each action is a best response in exact arithmetic,
    # (C,C) iff 1 >= 1 + d_g, (D,D) iff 0 >= -d_r, (C,D) and (D,C) iff -d_r >= 0 and 1 + d_g >= 1
    cls = classify_dilemma(params)
    classical_ne = [(label, payoffs) for label, payoffs, is_ne in (
        ("(C,C)", (1.0, 1.0), d_g <= 0.0), ("(C,D)", (0.0 - d_r, 1.0 + d_g), d_r <= 0.0 <= d_g),
        ("(D,C)", (1.0 + d_g, 0.0 - d_r), d_r <= 0.0 <= d_g), ("(D,D)", (0.0, 0.0), d_r >= 0.0))
        if is_ne]
    code, out, _ = run_json(point, "classify", *pair)
    assert code == 0
    assert out["class"] == cls.kind.value and out["boundary"] == cls.boundary
    assert out["pure_ne"] == [label for label, _ in classical_ne]
    assert same(out["pure_ne_payoffs"], [payoffs for _, payoffs in classical_ne])
    phase, records = pure_ne(params)
    assert phase == "classical" and labels(records, "CD") == out["pure_ne"]
    assert same([rec.payoffs for rec in records], out["pure_ne_payoffs"])

    # ne
    code, ne, err = run_json(point, "ne", *pair, at)
    if quantum:
        report = classify_quantum_ne(params, gamma)
        assert code == 0 and ne["phase"] == report.phase
        assert ne["pure_ne"] == labels(report.equilibria, "QD")
        assert same(ne["pure_ne_payoffs"], [rec.payoffs for rec in report.equilibria])
        assert same(pure_ne(params, gamma), report)
    else:
        assert code == 1 and err == "error: quantum PD regime requires d_g > 0 and d_r > 0\n"
        with pytest.raises(QpdError) as error:
            pure_ne(params, gamma)
        assert err == f"error: {error.value}\n"
        code, ne, _ = run_json(point, "ne", *pair)
        assert code == 0 and ne["mode"] == "classical"
        assert ne["pure_ne"] == out["pure_ne"] and same(ne["pure_ne_payoffs"], out["pure_ne_payoffs"])

    # rde: blank sweep cells exactly where the command exits 1
    try:
        outcome = select_rde_quantum(params, gamma)[1] if quantum else classical_rde(params)
    except QpdError as exc:
        # Only the d_g == d_r seam has no RDE.
        assert quantum and d_g == d_r
        assert run_json(point, "rde", *pair, at)[::2] == (1, f"error: {exc}\n")
        with pytest.raises(type(exc)) as error:
            select_rde(params, gamma)
        assert str(error.value) == str(exc)
        assert all(row[cell] is None for cell in RDE_CELLS)
    else:
        code, rde, err = run_json(point, "rde", *pair, at)
        if not quantum:
            assert code == 1 and err == "error: quantum PD regime requires d_g > 0 and d_r > 0\n"
            with pytest.raises(QpdError) as error:
                select_rde(params, gamma)
            assert err == f"error: {error.value}\n"
            code, rde, _ = run_json(point, "rde", *pair)
        assert code == 0
        report = select_rde(params, gamma if quantum else None)
        assert report.phase.name == (rde["phase"] if quantum else "classical")
        band = report.phase.band if quantum else None
        if band == "transitional" and report.phase.name in (band, "boundary"):
            # p* on its closed band, seams included, is the record's weight.
            assert same(transitional_mixing_probability(params, gamma), report.rde.profile.p)
        assert same([report.rde.kind, *report.rde.profile, *report.rde.payoffs, report.rde.label],
                    [rde[key] for key in ("rde_kind", "p", "q", "payoff_a", "payoff_b", "rde_label")])
        actions = "qd" if quantum else "cd"
        assert same({f"delta_{actions[p != 1.0]}{actions[q != 1.0]}": loss.product
                     for (p, q), loss in report.losses},
                    {key: value for key, value in rde.items() if key.startswith("delta_")})
        # The losses at the two NEs, off-diagonal or diagonal: in the quantum game x - d_r and
        # d_g - x at Q(x)D, x - d_g and d_r - x at Q(x)Q and D(x)D, at the shift x of gamma and
        # inside the band; in the classical one each player's payoff drop in exact arithmetic,
        # -d_r and 1 + d_g - 1 at (C,D), 1 - (1 + d_g) and 0 + d_r at (C,C) and (D,D).
        two = report.phase.name in ("transitional", "coexistence") if quantum else cls.kind in (
            DilemmaKind.CH, DilemmaKind.SH)
        off_diagonal = d_g > d_r if quantum else cls.kind is DilemmaKind.CH
        if not two:
            expected = ()
        elif quantum:
            x = (1.0 + d_r + d_g) * math.sin(gamma) ** 2
            low, high = (d_r, d_g) if off_diagonal else (d_g, d_r)
            first, second = x - low, high - x + 0.0
            expected = (((first, second), (second, first)) if off_diagonal
                        else ((first, first), (second, second)))
        elif off_diagonal:
            expected = ((0.0 - d_r, d_g + 0.0), (d_g + 0.0, 0.0 - d_r))
        else:
            expected = ((0.0 - d_g, 0.0 - d_g), (d_r + 0.0, d_r + 0.0))
        assert same([loss for _, loss in report.losses], expected)
        cells = ((1.0, 0.0), (0.0, 1.0)) if off_diagonal else ((1.0, 1.0), (0.0, 0.0))
        assert [tuple(profile) for profile, _ in report.losses] == (list(cells) if two else [])
        if quantum:
            thr = thresholds(params)
            assert rde["phase"] == ne["phase"]
            assert same([rde["gamma1"], rde["gamma2"], rde["gamma_star"]],
                        [thr.gamma1, thr.gamma2, thr.gamma_star])
        if outcome is not None:
            assert same([rde["rde_kind"], rde["rde_label"], rde["p"], rde["q"], rde["payoff_a"],
                         rde["payoff_b"]],
                        [outcome.kind, outcome.label, outcome.profile.p, outcome.profile.q,
                         *outcome.payoffs])
        if rde["rde_label"] is None:
            assert "rde_label: None\n" in run("rde", *pair, *([at] if quantum else []))[1]
        assert row["rde_label"] == (rde["rde_label"] or "")
        assert same([row[cell] for cell in RDE_CELLS if cell != "rde_label"],
                    [rde[key] for key in ("rde_kind", "p", "q", "payoff_a", "payoff_b")])

    # sweep row against the entry points above
    assert row["class"] == out["class"] and row["boundary"] == int(out["boundary"])
    assert row["ne_phase"] == (ne["phase"] if quantum else "classical")
    assert row["ne_list"] == "|".join(ne["pure_ne"]) and row["ne_count"] == len(ne["pure_ne"])
    qmat = pure_quantum_matrix(params, gamma)
    assert same([row["pi_q"], row["pi_d"]], [qmat.pi_q, qmat.pi_d])
    thr = thresholds(params)
    assert same([row["gamma1"], row["gamma2"], row["gamma_star"]],
                [thr.gamma1, thr.gamma2, thr.gamma_star])

    # sensitivity: a blank sweep cell exactly where the command exits 1
    code, sens, err = run_json(point, "sensitivity", *pair, at)
    try:
        report = sensitivity_indices(params, gamma)
    except QpdError as exc:
        assert code == 1 and err == f"error: {exc}\n"
        assert all(row[cell] is None for _, cell in SENSITIVITY)
        return
    assert code == 0
    angles = sensitivity_critical_angles(params)
    assert same([sens["gamma_g"], sens["gamma_r"]], [angles.gamma_g, angles.gamma_r])
    for field, cell in SENSITIVITY:
        assert same(sens[field], getattr(report, field)), field
        assert same(row[cell], sens[field]), cell


# Strengths where 1 + d_g rounds to 1 or to a neighbour of 1, with either sign.
TINY = st.sampled_from([sign * x for x in (5e-324, 1e-300, 1e-17, 2.0 ** -54, 2.0 ** -53, 2.0 ** -52)
                        for sign in (1.0, -1.0)])


@settings(SETTINGS, max_examples=200)
@given(st.one_of(strength, TINY), st.one_of(strength, TINY))
@example(1e-17, 0.5)
@example(1e-17, -0.5)
@example(-1e-17, -0.5)
@example(-1e-17, 0.0)
def test_the_classical_ne_set_is_the_dilemmas_own(d_g, d_r):
    """Off a class boundary PD and TRIVIAL have one NE and CH and SH two; a PD pair whose
    thresholds lie above PHASE_TOL has at gamma = 0 the classical NEs, with Q read as C. ne
    prints pure_ne's list; enumerate_pure_ne on the float bimatrix lists the same NEs, and
    more only where 1 + d_g rounds to 1 for a nonzero d_g."""
    params = DilemmaParams(d_g, d_r)
    pair = (f"--dg={d_g!r}", f"--dr={d_r!r}")
    code, classical, err = run_json((d_g, d_r, None), "ne", *pair)
    assert code == 0, err
    records = pure_ne(params).equilibria
    assert labels(records, "CD") == classical["pure_ne"]
    assert same([rec.payoffs for rec in records], classical["pure_ne_payoffs"])
    generic = labels(enumerate_pure_ne(build_dilemma_matrix(params)), "CD")
    if 1.0 + d_g == 1.0 and d_g != 0.0:
        assert set(classical["pure_ne"]) <= set(generic)
    else:
        assert generic == classical["pure_ne"]
    cls = classify_dilemma(params)
    if not cls.boundary:
        two = cls.kind in (DilemmaKind.CH, DilemmaKind.SH)
        assert len(classical["pure_ne"]) == (2 if two else 1), (cls, classical["pure_ne"])
    thr = thresholds(params)
    if cls.kind is DilemmaKind.PD and min(thr.gamma1, thr.gamma2) > PHASE_TOL:
        code, quantum, err = run_json((d_g, d_r, 0.0), "ne", *pair, "--gamma=0.0")
        assert code == 0, err
        assert [label.replace("Q", "C") for label in quantum["pure_ne"]] == classical["pure_ne"]
        assert same(quantum["pure_ne_payoffs"], classical["pure_ne_payoffs"])


@pytest.mark.parametrize("d_g, d_r, own, generic", [
    (1e-17, 0.5, ["(D,D)"], ["(C,C)", "(D,D)"]),
    (-1e-17, -0.5, ["(C,C)"], ["(C,C)", "(C,D)", "(D,C)"]),
])
def test_pure_ne_is_the_dilemmas_own_where_the_float_bimatrix_ties(d_g, d_r, own, generic):
    """1 + d_g rounds to 1: pure_ne lists the dilemma's NEs, as ne prints them, and
    enumerate_pure_ne keeps the ties its docstring concedes."""
    params = DilemmaParams(d_g, d_r)
    assert labels(pure_ne(params).equilibria, "CD") == own
    assert run_json((d_g, d_r, None), "ne", f"--dg={d_g!r}", f"--dr={d_r!r}")[1]["pure_ne"] == own
    assert labels(enumerate_pure_ne(build_dilemma_matrix(params)), "CD") == generic


ALL = "class,ne,rde,payoffs,sensitivity,thresholds"
PARSER = build_parser()


def sweep_text(quantities, fmt, *argv):
    """Sweep output, parsed by one parser: building one per call dominates."""
    args = PARSER.parse_args(["sweep", *argv, "--quantities", quantities, "--format", fmt])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert args.func(args) == 0
    return out.getvalue()


def sweep_rows(*argv):
    """All-quantity JSON sweep rows."""
    return json.loads(sweep_text(ALL, "json", *argv))


def csv_body(*argv):
    """All-quantity CSV sweep text after its header line."""
    return sweep_text(ALL, "csv", *argv).partition("\n")[2]


def gamma_argv(gamma_range):
    """--gamma-range of (start, stop, steps), with the flags that may follow: --degrees."""
    return ("--gamma-range", *map(repr, gamma_range[:3]), *gamma_range[3:])


def grid_argv(grid):
    dg_range, dr_range, _, gamma_range = grid
    return ("--dg-range", *map(repr, dg_range), "3", "--dr-range", *map(repr, dr_range), "3",
            *gamma_argv(gamma_range))


def toward_middle(bounds, nudge):
    """Range ends moved by ``nudge``, an (offset, ulps) pair, toward the middle of [-1, 1]."""
    offset, ulps = nudge
    return tuple(shifted(x, offset, ulps) if x <= 0.0 else shifted(x, -offset, -ulps)
                 for x in bounds)


@st.composite
def grids(draw):
    """A 3x3 (d_g, d_r) grid, seams, the d_g == d_r diagonal and pairs 1 ulp or about 1e-9
    off it included (their gamma1 and gamma2 lie within 2 PHASE_TOL), one of its pairs,
    and an angle range whose ends may sit on that pair's thresholds."""
    dg_range = (draw(strength), draw(strength))
    dr_range = draw(st.one_of(st.just(dg_range), st.tuples(strength, strength),
                              st.builds(toward_middle, st.just(dg_range),
                                        st.sampled_from(((0.0, 1), (1e-9, 0))))))
    pair = draw(st.sampled_from([(d_g, d_r) for d_g in _linspace(*dg_range, 3)
                                 for d_r in _linspace(*dr_range, 3)]))
    angle = angles(*pair)
    return dg_range, dr_range, pair, (draw(angle), draw(angle), draw(st.integers(1, 5)))


# gamma1 and gamma2 of (0.9, 0.899999999) lie 3.8e-10 apart: at PHASE_TOL below gamma1 the
# sides are (0, -1), at gamma1 (0, 0), both on the lower seam, with different NE sets.
NEAR_SEAMS = ((0.5, 0.9), (0.499999999, 0.899999999), (0.9, 0.899999999),
              (0.6027945514928067, 0.6027945524928067, 2))


@settings(SETTINGS, max_examples=200)
@given(grids())
@example(NEAR_SEAMS)
# Descending across gamma2, gamma_star and gamma1 of (0.9, 0.2), and a range in degrees.
@example(((0.2, 0.9), (0.2, 0.9), (0.9, 0.2), (math.pi / 2, 0.0, 9)))
@example(((0.2, 0.9), (0.9, 0.2), (0.2, 0.9), (0.0, 90.0, 9, "--degrees")))
# d_g 0.0, 0.0 and -0.0: the cache's keys equate 0.0 and -0.0, which print differently.
@example(((-0.0, -0.0), (-0.0, 0.5), (-0.0, 0.5), (0.0, math.pi / 2, 5)))
def test_multi_row_sweeps_equal_their_one_row_sweeps(grid):
    """A 3x3 sweep is the concatenation of its per-pair sweeps, and the multi-angle sweep
    of the drawn pair is, row for row, its one-row sweeps, in JSON and as CSV text. A sweep's
    bytes do not depend on the size of its cache of texts, in JSON and CSV."""
    dg_range, dr_range, (d_g, d_r), gamma_range = grid
    gamma_args = gamma_argv(gamma_range)
    pairs = [(f"--dg={g!r}", f"--dr={r!r}")
             for g in _linspace(*dg_range, 3) for r in _linspace(*dr_range, 3)]
    rows = sweep_rows(*grid_argv(grid))
    assert same(rows, [row for pair in pairs for row in sweep_rows(*pair, *gamma_args)])
    assert csv_body(*grid_argv(grid)) == "".join(csv_body(*pair, *gamma_args) for pair in pairs)
    texts = [sweep_text(ALL, fmt, *grid_argv(grid)) for fmt in ("csv", "json")]
    for size in (0, 1):
        with mock.patch.object(cli, "_TEXTS", size):
            assert [sweep_text(ALL, fmt, *grid_argv(grid)) for fmt in ("csv", "json")] == texts, size
    pair = (f"--dg={d_g!r}", f"--dr={d_r!r}")
    rows = sweep_rows(*pair, *gamma_args)
    for row in rows:
        assert same([row], sweep_rows(*pair, f"--gamma={row['gamma']!r}")), row
    assert csv_body(*pair, *gamma_args) == "".join(
        csv_body(*pair, f"--gamma={row['gamma']!r}") for row in rows)


@st.composite
def pd_axes(draw):
    """A quantum PD pair, the NEAR_SEAMS grid pairs included, its thresholds and a sweep's angle
    axis over it: ascending, descending or constant, in radians or through math.radians, its ends
    anywhere in [0, pi/2] or at a threshold, PHASE_TOL / 2 or 2 PHASE_TOL off it on either side."""
    pd = st.floats(5e-324, 1.0)
    near = [(d_g, d_r) for d_g in _linspace(*NEAR_SEAMS[0], 3) for d_r in _linspace(*NEAR_SEAMS[1], 3)]
    params = DilemmaParams(*draw(st.one_of(st.tuples(pd, pd), st.sampled_from(near))))
    thr = thresholds(params)
    end = st.one_of(st.floats(0.0, math.pi / 2), st.builds(
        float.__add__, st.sampled_from(thr), st.sampled_from((0.0, PHASE_TOL / 2, -PHASE_TOL / 2,
                                                              2 * PHASE_TOL, -2 * PHASE_TOL))))
    start = draw(end)
    stop = draw(st.one_of(end, st.just(start)))
    steps = draw(st.integers(1, 80))
    if draw(st.booleans()):
        return params, thr, [math.radians(g) for g in _linspace(math.degrees(start), math.degrees(stop), steps)]
    return params, thr, _linspace(start, stop, steps)


@settings(SETTINGS, max_examples=300)
@given(pd_axes())
def test_the_sweeps_runs_are_its_per_row_sides(axis):
    """The bisected runs of a pair's angle axis are the spans of equal ewl._side triples of
    gamma1, gamma2 and gamma_star, row by row, each with the phase of every angle in it."""
    params, thr, gammas = axis
    sides = [tuple(_side(gamma, angle) for angle in thr) for gamma in gammas]
    stops = list(itertools.accumulate(len(list(run)) for _, run in itertools.groupby(sides)))
    runs = _runs(params, gammas, thr)
    assert [(start, stop) for start, stop, _ in runs] == list(zip([0, *stops], stops))
    for start, stop, phase in runs:
        assert {resolve_phase(params, gamma) for gamma in gammas[start:stop]} == {phase}


@pytest.mark.parametrize("d_g, d_r", [(0.0, 0.5), (0.5, -0.0), (-1.0, -1.0), (1.0, -0.5), (-0.5, 1.0)])
def test_a_pair_off_the_pd_regime_is_one_run_of_the_classical_game(d_g, d_r):
    params = DilemmaParams(d_g, d_r)
    for gammas in ([0.0], _linspace(0.0, math.pi / 2, 7), _linspace(math.pi / 2, 0.0, 7)):
        assert _runs(params, gammas, thresholds(params)) == [(0, len(gammas), _CLASSICAL)]


@settings(SETTINGS, max_examples=200)
@given(grids(), st.lists(st.sampled_from(list(_COLUMNS)), max_size=3))
# Float cells at -0.0, at the least subnormal and 1 ulp below 1, in the strengths, gamma and the
# chosen float groups.
@example(((-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0), (-0.0, math.pi / 2, 3)), ["rde", "payoffs", "thresholds"])
@example(((5e-324, 1.0), (5e-324, 0.5), (5e-324, 5e-324), (5e-324, 1.0, 3)), ["payoffs", "sensitivity", "thresholds"])
@example(((math.nextafter(1.0, 0.0), -1.0), (0.5, math.nextafter(1.0, 0.0)), (0.5, 0.5),
          (0.0, math.nextafter(1.0, 0.0), 3)), ["rde", "payoffs", "sensitivity"])
def test_sweep_writers_equal_their_stdlib_references(grid, chosen):
    """The JSON text is json.dumps(indent=2) of its own rows, and the CSV text is csv.writer
    over those rows, floats at 12 significant digits and None blank."""
    text = sweep_text(",".join(chosen), "json", *grid_argv(grid))
    rows = json.loads(text)
    assert text == json.dumps(rows, indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([f"{x:.12g}" if isinstance(x, float) else x for x in row.values()]
                     for row in rows)
    assert sweep_text(",".join(chosen), "csv", *grid_argv(grid)) == expected.getvalue()


@settings(SETTINGS, max_examples=100)
@given(grids())
def test_sweep_cells_keep_to_their_scope(grid):
    """On a quantum PD pair each quantity's cells are the same on every row of the scope
    the sweep's layout table gives it: the pair, the sides of gamma1 and gamma2, or the
    band: the sides of gamma1, gamma2 and gamma_star, and the row on the transitional band."""
    for (d_g, d_r), rows in itertools.groupby(sweep_rows(*grid_argv(grid)),
                                              key=lambda row: (row["d_g"], row["d_r"])):
        params = DilemmaParams(d_g, d_r)
        if classify_dilemma(params).kind is not DilemmaKind.PD:
            continue
        thr = thresholds(params)
        rows = list(rows)
        for quantity, (scope, columns) in _COLUMNS.items():
            spans = {}
            for row in rows:
                side = (_side(row["gamma"], thr.gamma1), _side(row["gamma"], thr.gamma2))
                on_band = d_g > d_r and side[0] >= 0 >= side[1]  # gamma1 <= gamma <= gamma2
                key = {"pair": None, "row": row["gamma"], "side": side,
                       "band": row["gamma"] if on_band else (*side, _side(row["gamma"], thr.gamma_star))}
                cells = [row[column] for column in columns]
                assert same(spans.setdefault(key[scope], cells), cells), (quantity, row)


COLUMNS = {
    "class": ("class", "boundary"),
    "ne": ("ne_phase", "ne_count", "ne_list"),
    "rde": RDE_CELLS,
    "payoffs": ("pi_q", "pi_d"),
    "sensitivity": tuple(cell for _, cell in SENSITIVITY),
    "thresholds": ("gamma1", "gamma2", "gamma_star"),
}


@settings(SETTINGS, max_examples=200)
@given(grids(), st.lists(st.sampled_from(list(COLUMNS)), max_size=8))
def test_any_quantity_subset_and_order_gives_the_all_quantity_columns(grid, chosen):
    """--quantities in any order, with repeats, lays out the same columns and cells as the
    all-quantity sweep, in canonical order, in CSV and in JSON."""
    argv = grid_argv(grid)
    keep = ["d_g", "d_r", "gamma"] + [c for q in COLUMNS if q in chosen for c in COLUMNS[q]]
    quantities = ",".join(chosen)

    header, *rows = csv.reader(io.StringIO(sweep_text(ALL, "csv", *argv)))
    index = [header.index(column) for column in keep]
    expected = [keep] + [[row[i] for i in index] for row in rows]
    assert list(csv.reader(io.StringIO(sweep_text(quantities, "csv", *argv)))) == expected

    expected = [{column: row[column] for column in keep}
                for row in json.loads(sweep_text(ALL, "json", *argv))]
    assert same(json.loads(sweep_text(quantities, "json", *argv)), expected)


DOMAIN_ERRORS = tuple(f"error: {name} must lie in " for name in ("d_g", "d_r", "gamma"))


def near_domain(lo, hi):
    """Values in [lo, hi], each bound and 1 ulp either side of it, NaN and +-inf."""
    edges = [math.nextafter(bound, to) for bound in (lo, hi) for to in (-math.inf, math.inf)]
    return st.one_of(st.floats(lo, hi),
                     st.sampled_from((lo, hi, *edges, math.nan, math.inf, -math.inf)))


@settings(SETTINGS, max_examples=300)
@given(near_domain(-1.0, 1.0), near_domain(-1.0, 1.0), st.booleans(), st.data())
def test_a_sweep_rejects_what_rde_rejects_with_the_same_line(d_g, d_r, degrees, data):
    """Where rde rejects d_g, d_r or gamma, a one-row sweep of the values and sweeps with
    each as a range's stop or start print its line and exit 1; otherwise all succeed."""
    gamma = data.draw(near_domain(0.0, 90.0 if degrees else math.pi / 2), label="gamma")
    unit = ["--degrees"] * degrees
    values = (("dg", d_g), ("dr", d_r), ("gamma", gamma))
    single = [f"--{name}={x!r}" for name, x in values]
    stops = [a for name, x in values for a in (f"--{name}-range", "0", repr(x), "2")]
    starts = [a for name, x in values for a in (f"--{name}-range", repr(x), "0", "2")]
    code, _, err = run("rde", *single, *unit)
    sweeps = [run("sweep", *argv, *unit) for argv in (single, stops, starts)]
    if err.startswith(DOMAIN_ERRORS):
        assert code == 1 and err.count("\n") == 1
        assert sweeps == [(1, "", err)] * 3
    else:
        assert [code for code, _, _ in sweeps] == [0] * 3, [err for _, _, err in sweeps]


# inf, infinity and nan in any case, with any sign, as float() reads them.
NON_FINITE = st.sampled_from(("inf", "infinity", "nan")).flatmap(
    lambda word: st.tuples(*(st.sampled_from((c, c.upper())) for c in word)).map("".join))


@st.composite
def underscored(draw):
    """A finite float's repr with single underscores drawn between digits, as float() reads it."""
    text = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    return "".join(c + "_" * (c.isdigit() and after.isdigit() and draw(st.booleans()))
                   for c, after in zip(text, text[1:] + " "))


FLOAT_TEXT = st.one_of(st.floats().map(repr), underscored(),
                       st.builds("{}{}".format, st.sampled_from(("-", "+", "")), NON_FINITE))


def digits_only(x):
    """x in a spelling that argparse reads as a value even where only digits may follow a "-"."""
    if math.isnan(x):
        return "nan"
    return repr(x) if math.isfinite(x) else ("1e999" if x > 0 else "-1e999")


@settings(SETTINGS, max_examples=200)
@given(FLOAT_TEXT)
@example("-inf")
@example("-NaN")
@example("-Infinity")
@example("-1_000")
@example("-0.2_5")
@example("-1_0e-0_1")
def test_every_float_spelling_is_a_value_wherever_it_is_given(text):
    """--dg X and --dg=X print the same and exit the same, for rde and for sweep. A range
    end has no "=" form, so there X is checked against the same value spelled in digits."""
    assert run("rde", "--dg", text, "--dr", "0.5") == run("rde", f"--dg={text}", "--dr", "0.5")
    assert run("sweep", "--dg", text) == run("sweep", f"--dg={text}")
    assert (run("sweep", "--dr", "0.5", "--dg-range", "0", text, "2")
            == run("sweep", "--dr", "0.5", "--dg-range", "0", digits_only(float(text)), "2"))
