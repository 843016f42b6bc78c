import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qpd_rde
from qpd_rde import cli, errors, ewl, game_core, quantum_rde, risk_dominance
from qpd_rde.game_core import (
    TIE_EPS,
    DilemmaKind,
    DilemmaParams,
    PayoffMatrix2x2,
    StrategyProfile,
    build_dilemma_matrix,
    classify_dilemma,
    enumerate_pure_ne,
    expected_payoff_classical,
    verify_mixed_ne,
)


def test_params_validation():
    DilemmaParams(1.0, -1.0)
    with pytest.raises(ValueError):
        DilemmaParams(1.5, 0.0)
    with pytest.raises(ValueError):
        DilemmaParams(0.0, -1.1)


def test_profile_validation():
    with pytest.raises(ValueError):
        StrategyProfile(-0.1, 0.5)
    with pytest.raises(ValueError):
        StrategyProfile(0.5, 1.1)


@pytest.mark.parametrize("dg,dr,expected", [
    (0.5, 0.5, [[(1, 1), (-0.5, 1.5)], [(1.5, -0.5), (0, 0)]]),
    (0.0, 0.0, [[(1, 1), (0, 1)], [(1, 0), (0, 0)]]),
    (0.9, 0.2, [[(1, 1), (-0.2, 1.9)], [(1.9, -0.2), (0, 0)]]),
])
def test_build_dilemma_matrix(dg, dr, expected):
    matrix = build_dilemma_matrix(DilemmaParams(dg, dr))
    for row in range(2):
        for col in range(2):
            assert matrix.payoff(row, col) == pytest.approx(expected[row][col], abs=1e-15)
    assert matrix.labels == ("C", "D")


@pytest.mark.parametrize("dg,dr,kind,boundary", [
    (0.5, 0.5, DilemmaKind.PD, False),
    (0.5, -0.5, DilemmaKind.CH, False),
    (-0.5, 0.5, DilemmaKind.SH, False),
    (-0.5, -0.5, DilemmaKind.TRIVIAL, False),
    (0.0, 0.5, DilemmaKind.SH, True),
    (0.0, -0.5, DilemmaKind.CH, True),
    (0.5, 0.0, DilemmaKind.CH, True),
    (-0.5, 0.0, DilemmaKind.SH, True),
    (0.0, 0.0, DilemmaKind.TRIVIAL, True),
])
def test_classify_dilemma(dg, dr, kind, boundary):
    cls = classify_dilemma(DilemmaParams(dg, dr))
    assert cls.kind is kind
    assert cls.boundary is boundary


SEAM_STRENGTHS = (-1.0, -0.5, -0.0, 0.0, 5e-324, 0.5, 1.0)
# Class by the signs of (d_g, d_r); a zero of either sign is the boundary.
CLASS_BY_SIGNS = {(1, 1): "PD", (1, -1): "CH", (-1, 1): "SH", (-1, -1): "TRIVIAL",
                  (0, 0): "TRIVIAL", (0, 1): "SH", (0, -1): "CH", (1, 0): "CH", (-1, 0): "SH"}


@pytest.mark.parametrize("dr", SEAM_STRENGTHS)
@pytest.mark.parametrize("dg", SEAM_STRENGTHS)
def test_classify_dilemma_on_every_seam(dg, dr):
    cls = classify_dilemma(DilemmaParams(dg, dr))
    signs = (dg > 0) - (dg < 0), (dr > 0) - (dr < 0)
    assert cls.kind.value == CLASS_BY_SIGNS[signs]
    assert cls.boundary is (0 in signs)


def test_classify_dilemma_builds_no_record(monkeypatch, capsys):
    built = []
    new = game_core.DilemmaClass.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(game_core.DilemmaClass, "__new__", staticmethod(spy))
    seams = [classify_dilemma(DilemmaParams(dg, dr)) for dg in SEAM_STRENGTHS for dr in SEAM_STRENGTHS]
    quantum_rde.select_rde(DilemmaParams(0.5, -0.5))
    risk_dominance.rde_chicken(DilemmaParams(0.5, 0.0))
    risk_dominance.rde_staghunt(DilemmaParams(-0.5, 0.25))
    assert cli.main(["classify", "--dg", "0.0", "--dr", "0.5"]) == 0
    assert cli.main(["sweep", "--dg", "0.5", "--dr-range", "-1", "1", "9", "--gamma-range", "0", "1.5", "4",
                     "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds"]) == 0
    out = capsys.readouterr().out
    assert "class: SH" in out and ",CH,1," in out and ",PD,0," in out
    assert built == []
    # One object per class and flag: the seam grid's 49 pairs give its 7 reachable records.
    assert len(set(seams)) == len({id(cls) for cls in seams}) == 7
    assert classify_dilemma(DilemmaParams(0.5, 0.2)) is classify_dilemma(DilemmaParams(0.9, 0.1))
    assert classify_dilemma(DilemmaParams(0.0, 0.5)) is classify_dilemma(DilemmaParams(-0.0, 1.0))
    with pytest.raises(AttributeError):
        classify_dilemma((0.5, 0.2))
    game_core.DilemmaClass(DilemmaKind.PD)  # the spy sees a record built directly
    assert built == [(DilemmaKind.PD,)]


def test_classification_totality():
    rng = np.random.default_rng(7)
    for dg, dr in rng.uniform(-1, 1, size=(500, 2)):
        cls = classify_dilemma(DilemmaParams(dg, dr))
        assert cls.kind in DilemmaKind


def test_expected_payoff_examples():
    assert expected_payoff_classical(DilemmaParams(0.3, -0.8), StrategyProfile(1, 1)) == (1.0, 1.0)
    pay = expected_payoff_classical(DilemmaParams(0.9, 0.2), StrategyProfile(0, 1))
    assert pay == pytest.approx((1.9, -0.2), abs=1e-15)
    pay = expected_payoff_classical(DilemmaParams(0.9, 0.2), StrategyProfile(0.5, 0.5))
    assert pay == pytest.approx((0.675, 0.675), abs=1e-15)


def test_expected_payoff_matches_matrix_corners():
    rng = np.random.default_rng(11)
    for dg, dr in rng.uniform(-1, 1, size=(50, 2)):
        params = DilemmaParams(dg, dr)
        matrix = build_dilemma_matrix(params)
        for (p, q), (row, col) in [((1, 1), (0, 0)), ((1, 0), (0, 1)),
                                   ((0, 1), (1, 0)), ((0, 0), (1, 1))]:
            pay = expected_payoff_classical(params, StrategyProfile(p, q))
            assert pay == pytest.approx(matrix.payoff(row, col), abs=1e-15)


def test_payoff_symmetry_and_bilinearity():
    rng = np.random.default_rng(3)
    grid = np.linspace(0, 1, 9)
    for dg, dr in rng.uniform(-1, 1, size=(20, 2)):
        params = DilemmaParams(dg, dr)
        for p in grid:
            for q in grid:
                pa, pb = expected_payoff_classical(params, StrategyProfile(p, q))
                qa, qb = expected_payoff_classical(params, StrategyProfile(q, p))
                assert pa == pytest.approx(qb, abs=1e-12)
                assert pb == pytest.approx(qa, abs=1e-12)
        # second differences along each own-probability axis vanish
        for q in grid:
            vals = [expected_payoff_classical(params, StrategyProfile(p, q))[0]
                    for p in (0.0, 0.5, 1.0)]
            assert abs(vals[0] - 2 * vals[1] + vals[2]) < 1e-12


@pytest.mark.parametrize("dg,dr,expected", [
    (0.5, 0.5, {(0.0, 0.0)}),
    (0.5, -0.5, {(0.0, 1.0), (1.0, 0.0)}),
    (-0.5, 0.5, {(1.0, 1.0), (0.0, 0.0)}),
])
def test_enumerate_pure_ne(dg, dr, expected):
    matrix = build_dilemma_matrix(DilemmaParams(dg, dr))
    found = {(rec.profile.p, rec.profile.q) for rec in enumerate_pure_ne(matrix)}
    assert found == expected


def test_pd_ne_payoff():
    matrix = build_dilemma_matrix(DilemmaParams(0.5, 0.5))
    (rec,) = enumerate_pure_ne(matrix)
    assert rec.payoffs == (0.0, 0.0)


def test_verify_mixed_ne_examples():
    assert verify_mixed_ne(DilemmaParams(0.5, 0.5), StrategyProfile(0, 0))
    assert not verify_mixed_ne(DilemmaParams(0.5, 0.5), StrategyProfile(1, 1))
    assert verify_mixed_ne(DilemmaParams(0.5, -0.5), StrategyProfile(0.5, 0.5))


def test_verify_mixed_ne_is_closed_at_tie_eps():
    # From (D,D) of (0.5, -1e-9) each player's deviation to C gains exactly TIE_EPS: within it.
    params, profile = DilemmaParams(0.5, -1e-9), StrategyProfile(0.0, 0.0)
    assert expected_payoff_classical(params, profile) == (0.0, 0.0)
    assert expected_payoff_classical(params, StrategyProfile(1.0, 0.0))[0] == TIE_EPS
    assert expected_payoff_classical(params, StrategyProfile(0.0, 1.0))[1] == TIE_EPS
    assert verify_mixed_ne(params, profile)


def test_expected_payoffs_of_negative_zero_entries_are_positive_zero():
    # The sum starts from 0.0, so a matrix of -0.0 entries pays 0.0 at every profile.
    matrix = PayoffMatrix2x2([[(-0.0, -0.0), (-0.0, -0.0)], [(-0.0, -0.0), (-0.0, -0.0)]])
    for p, q in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.25, 1.0)]:
        assert [math.copysign(1.0, x) for x in matrix.expected_payoffs(p, q)] == [1.0, 1.0]


def test_verify_mixed_ne_grid_oracle():
    # independent check of the CH indifference point against all grid deviations
    params = DilemmaParams(0.5, -0.5)
    base = expected_payoff_classical(params, StrategyProfile(0.5, 0.5))
    for t in np.linspace(0, 1, 1001):
        assert expected_payoff_classical(params, StrategyProfile(t, 0.5))[0] <= base[0] + 1e-9
        assert expected_payoff_classical(params, StrategyProfile(0.5, t))[1] <= base[1] + 1e-9


def test_enumerate_agrees_with_verify_on_pure_profiles():
    rng = np.random.default_rng(42)
    for dg, dr in rng.uniform(-1, 1, size=(1000, 2)):
        params = DilemmaParams(dg, dr)
        matrix = build_dilemma_matrix(params)
        for row in (0, 1):
            for col in (0, 1):
                profile = StrategyProfile(1.0 - row, 1.0 - col)
                assert matrix.is_pure_ne(row, col, TIE_EPS) == verify_mixed_ne(params, profile)


# Exact ties, both zeros, subnormals and the ends of the float range come up often.
_EDGES = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308)
_payoffs = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


def _bits(records):
    """Each record's types and exact bits, sign of zero included, in list order."""
    return [(type(rec), type(rec.profile), type(rec.payoffs),
             *(type(x) for x in rec.payoffs), *(x.hex() for x in rec.profile + rec.payoffs))
            for rec in records]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(st.tuples(_payoffs, _payoffs), min_size=4, max_size=4),
       st.tuples(st.text(max_size=3), st.text(max_size=3)))
@example([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], ("C", "D"))  # every cell a tie
@example([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)], ("Q", "D"))
def test_enumerate_pure_ne_is_the_cell_by_cell_check(cells, labels):
    matrix = PayoffMatrix2x2([cells[:2], cells[2:]], labels)
    reference = [game_core.NashEquilibriumRecord(StrategyProfile(1.0 - row, 1.0 - col),
                                                 matrix.payoff(row, col))
                 for row in (0, 1) for col in (0, 1) if matrix.is_pure_ne(row, col)]
    assert _bits(enumerate_pure_ne(matrix)) == _bits(reference)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_payoffs, _payoffs)
@example(0.0, 1.0)
@example(-0.0, 1.0)
@example(5e-324, 1.0 + 2 ** -52)
def test_layout_ne_is_the_ne_set_of_the_dilemma_layout(sucker, temptation):
    # Exact: float subtraction keeps the sign, so 1.0 - temptation >= 0 iff 1.0 >= temptation.
    matrix = game_core._dilemma_matrix(sucker, temptation, ("C", "D"))
    assert _bits(game_core._layout_ne(sucker, 1.0 - temptation, sucker, temptation)) == _bits(
        enumerate_pure_ne(matrix))


def test_matrix_helpers():
    matrix = build_dilemma_matrix(DilemmaParams(0.9, 0.2))
    assert matrix.expected_payoffs(1.0, 0.0) == pytest.approx((-0.2, 1.9), abs=1e-15)


@pytest.mark.parametrize("entries", [
    [[(1, 1), (0, 0)]],                                     # one row
    [[(1, 1), (0, 0)], [(1, 1), (0, 0)], [(1, 1), (0, 0)]],  # three rows
    [[(1, 1), (0, 0), (2, 2)], [(1, 1), (0, 0), (2, 2)]],   # three columns
    [[1.0, 0.0], [1.0, 0.0]],                               # scalar cells
    [[(1, 1), 0.0], [(1, 1), (0, 0)]],                      # one scalar cell
    [[(1, 1, 1), (0, 0, 0)], [(1, 1, 1), (0, 0, 0)]],       # triples
    [[(1, 1), (0,)], [(1, 1), (0, 0)]],                     # one short cell
    3.0,
])
def test_payoff_matrix_rejects_bad_shape(entries):
    with pytest.raises(ValueError):
        PayoffMatrix2x2(entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row,col,player", [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)])
def test_payoff_matrix_rejects_non_finite(bad, row, col, player):
    entries = [[[1.0, 1.0], [0.0, 2.0]], [[2.0, 0.0], [0.5, 0.5]]]
    entries[row][col][player] = bad
    with pytest.raises(ValueError):
        PayoffMatrix2x2(entries)


def test_payoff_matrix_rows_are_row_major_tuples():
    matrix = PayoffMatrix2x2([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
    assert matrix.a == ((1.0, 3.0), (5.0, 7.0))
    assert matrix.b == ((2.0, 4.0), (6.0, 8.0))
    assert matrix.payoff(1, 0) == (5.0, 6.0)
    assert matrix.expected_payoffs(0.25, 0.5) == (
        0.125 * 1 + 0.125 * 3 + 0.375 * 5 + 0.375 * 7,
        0.125 * 2 + 0.125 * 4 + 0.375 * 6 + 0.375 * 8)


@pytest.mark.parametrize("row,col", [(-1, 0), (2, 0), (0, -1), (0, 2), (-1, 2), (0.0, 1), (1.0, 1)])
def test_payoff_matrix_rejects_cells_outside_the_matrix(row, col):
    matrix = build_dilemma_matrix(DilemmaParams(0.9, 0.2))
    with pytest.raises(ValueError, match="row and column"):
        matrix.payoff(row, col)
    with pytest.raises(ValueError, match="row and column"):
        matrix.is_pure_ne(row, col)


@pytest.mark.parametrize("labels", [("C",), ("C", "D", "E")])
def test_payoff_matrix_rejects_anything_but_two_labels(labels):
    with pytest.raises(ValueError, match="^expected two action labels$"):
        PayoffMatrix2x2([[(1, 1), (0, 2)], [(2, 0), (0, 0)]], labels)


@pytest.mark.parametrize("tol", [math.nan, -1e-3, math.inf])
def test_is_pure_ne_rejects_a_negative_or_non_finite_tolerance(tol):
    matrix = build_dilemma_matrix(DilemmaParams(0.9, 0.2))
    with pytest.raises(ValueError, match="^tol must be finite and >= 0, got "):
        matrix.is_pure_ne(1, 1, tol)


@pytest.mark.parametrize("module", [game_core, risk_dominance, quantum_rde, ewl, cli, errors,
                                    qpd_rde])
def test_closed_form_modules_do_not_import_numpy(module):
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported
