"""The EWL game: the state-vector oracle and the closed forms it checks, the thresholds, the quantum
NE set, the one reader of each tolerance, and the phase cache.

ewl._grid_states equals final_state bit for bit on the corner grid, an interior grid and random
points, for both gates, and each pair of ewl._grid_pairs is joint_distribution and final_state at
its point of product(weights, weights, angles). entangling_gate, final_state and _grid_states equal
a reference written here bit for bit: the gate built as cos(g/2) I - i sin(g/2) sigma (x) sigma and
each sum a functools.reduce over all four terms, so the terms the block kernel leaves out are
summed there, also at the 54 corners where a left-out signed zero could flip a zero amplitude's
sign (p and q in {0, 1, 5e-324}, gamma in {0, pi/2, 5e-324}). A gate with one of its eight
off-block entries set to 1e-3 makes final_state and _grid_states raise ValueError and oracle-check
exit 1. No closed form runs inside the oracle, and final_state checks gamma, then p, then q.

A walk of every package module's syntax tree fails if any function but ewl._side reads PHASE_TOL,
or any module but game_core constructs a NashEquilibriumRecord, which keeps a second pure-NE rule
out. Of the phase cache: one point through classify_quantum_ne, select_rde_quantum, select_rde and
sensitivity_indices takes thresholds once; the warm cache gives what its uncached body gives on
seeded points (the cube, each threshold and PHASE_TOL either side of it, d_g == d_r, and gamma as
-0.0, 0, True, a numpy.float64, a 0-d array and out of its domain); 2 * _PHASES angles leave at
most _PHASES entries; a plain tuple still raises AttributeError; and an out-of-domain point raises
on every call.
"""

import ast
import collections
import functools
import itertools
import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpd_rde import cli, ewl, game_core, quantum_rde
from qpd_rde.errors import OutOfRegime
from qpd_rde.ewl import (
    classify_quantum_ne,
    entangling_gate,
    expected_payoff_quantum,
    final_state,
    grid_best_response_gain,
    initial_state,
    joint_distribution,
    pure_quantum_matrix,
    strategy_operator,
    thresholds,
)
from qpd_rde.game_core import DilemmaParams, StrategyProfile, expected_payoff_classical


def ne_set(report):
    return {(rec.profile.p, rec.profile.q) for rec in report.equilibria}


def test_initial_state():
    assert np.allclose(initial_state(0.0), [1, 0, 0, 0])
    s = math.sqrt(0.5)
    assert np.allclose(initial_state(math.pi / 2), [s, 0, 0, 1j * s])
    for gamma in np.linspace(0, math.pi / 2, 13):
        assert np.linalg.norm(initial_state(gamma)) == pytest.approx(1.0, abs=1e-12)


def test_strategy_operator_endpoints():
    assert np.allclose(strategy_operator(1.0), [[1j, 0], [0, -1j]])
    assert np.allclose(strategy_operator(0.0), [[0, 1], [-1, 0]])
    for t in (0.0, 0.25, 0.5, 1.0):
        u = np.array(strategy_operator(t))
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_entangling_gate_properties():
    assert np.allclose(entangling_gate(0.0), np.eye(4))
    for gamma in np.linspace(0, math.pi / 2, 20):
        gate = np.array(entangling_gate(gamma))
        assert np.max(np.abs(gate @ gate.conj().T - np.eye(4))) < 1e-12
        ket_cc = np.array([1, 0, 0, 0], dtype=complex)
        assert np.max(np.abs(gate @ ket_cc - initial_state(gamma))) < 1e-12


def test_final_state_corners():
    for gamma in (0.0, 0.7, math.pi / 2):
        amps = final_state(1.0, 1.0, gamma)
        assert abs(amps[0]) == pytest.approx(1.0, abs=1e-12)
    probs = np.abs(final_state(1.0, 0.0, math.pi / 2)) ** 2
    assert probs == pytest.approx([0, 0, 1, 0], abs=1e-12)


def test_joint_distribution_examples():
    dist = joint_distribution(0.3, 0.8, 0.0)
    assert dist == pytest.approx([0.24, 0.06, 0.56, 0.14], abs=1e-12)
    dist = joint_distribution(0.5, 0.5, math.pi / 2)
    assert dist == pytest.approx([0.25] * 4, abs=1e-12)
    dist = joint_distribution(1.0, 0.0, math.pi / 2)
    assert dist == pytest.approx([0, 0, 1, 0], abs=1e-12)


def test_oracle_equivalence_grid():
    # state-vector amplitudes vs closed-form distribution on the full grid
    max_dev = 0.0
    for p in np.linspace(0, 1, 11):
        for q in np.linspace(0, 1, 11):
            for gamma in np.linspace(0, math.pi / 2, 11):
                probs = np.abs(final_state(p, q, gamma)) ** 2
                closed = joint_distribution(p, q, gamma)
                max_dev = max(max_dev, float(np.max(np.abs(probs - closed))))
                assert abs(probs.sum() - 1.0) < 1e-12
    assert max_dev < 1e-12


def test_tampered_gate_breaks_equivalence():
    devs = []
    for p in np.linspace(0, 1, 5):
        for q in np.linspace(0, 1, 5):
            for gamma in np.linspace(0, math.pi / 2, 5):
                probs = np.abs(final_state(p, q, gamma, tampered=True)) ** 2
                closed = joint_distribution(p, q, gamma)
                devs.append(abs(probs[1] - closed[1]))
    assert max(devs) > 1e-3


def test_expected_payoff_classical_reduction():
    params = DilemmaParams(0.9, 0.2)
    pay_q = expected_payoff_quantum(params, 0.3, 0.6, 0.0)
    pay_c = expected_payoff_classical(params, StrategyProfile(0.3, 0.6))
    assert pay_q == pytest.approx(pay_c, abs=1e-12)


def test_expected_payoff_maximal_entanglement():
    pay = expected_payoff_quantum(DilemmaParams(0.9, 0.2), 1.0, 0.0, math.pi / 2)
    assert pay == pytest.approx((1.9, -0.2), abs=1e-12)


def test_expected_payoff_equal_on_diagonal():
    rng = np.random.default_rng(2)
    for _ in range(100):
        params = DilemmaParams(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t, gamma = rng.uniform(), rng.uniform(0, math.pi / 2)
        pay_a, pay_b = expected_payoff_quantum(params, t, t, gamma)
        assert pay_a == pytest.approx(pay_b, abs=1e-12)


def test_expected_payoff_matches_distribution_weighting():
    rng = np.random.default_rng(4)
    for _ in range(200):
        params = DilemmaParams(rng.uniform(-0.99, 1), rng.uniform(-0.99, 1))
        p, q, gamma = rng.uniform(), rng.uniform(), rng.uniform(0, math.pi / 2)
        eps = joint_distribution(p, q, gamma)
        dg, dr = params.d_g, params.d_r
        pay_a = eps.eps1 - dr * eps.eps2 + (1 + dg) * eps.eps3
        pay_b = eps.eps1 + (1 + dg) * eps.eps2 - dr * eps.eps3
        assert expected_payoff_quantum(params, p, q, gamma) == pytest.approx(
            (pay_a, pay_b), abs=1e-12)


def test_entanglement_term_antisymmetry():
    rng = np.random.default_rng(6)
    for _ in range(100):
        params = DilemmaParams(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p, q, gamma = rng.uniform(), rng.uniform(), rng.uniform(0, math.pi / 2)
        base_a, base_b = expected_payoff_quantum(params, p, q, 0.0)
        pay_a, pay_b = expected_payoff_quantum(params, p, q, gamma)
        assert (pay_a - base_a) == pytest.approx(-(pay_b - base_b), abs=1e-12)


def test_pure_quantum_matrix():
    qmat = pure_quantum_matrix(DilemmaParams(0.9, 0.2), 0.0)
    assert qmat.pi_q == pytest.approx(-0.2, abs=1e-12)
    assert qmat.pi_d == pytest.approx(1.9, abs=1e-12)
    qmat = pure_quantum_matrix(DilemmaParams(0.9, 0.2), math.pi / 2)
    assert qmat.pi_q == pytest.approx(1.9, abs=1e-12)
    assert qmat.pi_d == pytest.approx(-0.2, abs=1e-12)
    assert qmat.matrix.payoff(0, 0) == (1.0, 1.0)
    assert qmat.matrix.payoff(1, 1) == (0.0, 0.0)

    rng = np.random.default_rng(8)
    for _ in range(100):
        params = DilemmaParams(rng.uniform(-0.99, 1), rng.uniform(-0.99, 1))
        gamma = rng.uniform(0, math.pi / 2)
        qmat = pure_quantum_matrix(params, gamma)
        assert qmat.pi_q + qmat.pi_d == pytest.approx(1 + params.d_g - params.d_r, abs=1e-12)


def test_thresholds_values_and_invariants():
    thr = thresholds(DilemmaParams(0.9, 0.2))
    s = 2.1
    assert math.sin(thr.gamma1) ** 2 * s == pytest.approx(0.2, abs=1e-12)
    assert math.sin(thr.gamma2) ** 2 * s == pytest.approx(0.9, abs=1e-12)
    assert thr.gamma1 < thr.gamma2

    thr_swap = thresholds(DilemmaParams(0.2, 0.9))
    assert thr_swap.gamma1 == pytest.approx(thresholds(DilemmaParams(0.9, 0.2)).gamma2, abs=1e-12)
    assert thr_swap.gamma2 < thr_swap.gamma1
    assert math.sin(thr_swap.gamma_star) ** 2 == pytest.approx(1.1 / 4.2, abs=1e-12)

    for d in (0.2, 0.5, 0.9):
        thr_eq = thresholds(DilemmaParams(d, d))
        assert thr_eq.gamma1 == pytest.approx(thr_eq.gamma2, abs=1e-12)


def test_thresholds_undefined_radicand():
    thr = thresholds(DilemmaParams(0.5, -0.2))
    assert thr.gamma1 is None  # negative d_r radicand
    assert thr.gamma2 is not None


def test_classify_quantum_ne_requires_regime():
    with pytest.raises(OutOfRegime):
        classify_quantum_ne(DilemmaParams(-0.5, 0.5), 0.3)


def test_classify_quantum_ne_phases():
    params = DilemmaParams(0.9, 0.2)
    report = classify_quantum_ne(params, 0.5)
    assert report.phase == "transitional"
    assert ne_set(report) == {(1.0, 0.0), (0.0, 1.0)}
    qmat = pure_quantum_matrix(params, 0.5)
    for rec in report.equilibria:
        expected = (qmat.pi_d, qmat.pi_q) if rec.profile.p == 0.0 else (qmat.pi_q, qmat.pi_d)
        assert rec.payoffs == pytest.approx(expected, abs=1e-12)

    report = classify_quantum_ne(DilemmaParams(0.2, 0.9), 0.5)
    assert report.phase == "coexistence"
    assert ne_set(report) == {(0.0, 0.0), (1.0, 1.0)}

    report = classify_quantum_ne(DilemmaParams(0.5, 0.5), math.pi / 2)
    assert report.phase == "fully-quantum"
    assert ne_set(report) == {(1.0, 1.0)}

    assert classify_quantum_ne(params, 0.15).phase == "classical-like"
    assert ne_set(classify_quantum_ne(params, 0.15)) == {(0.0, 0.0)}


def test_classify_quantum_ne_threshold_union():
    params = DilemmaParams(0.9, 0.2)
    thr = thresholds(params)
    report = classify_quantum_ne(params, thr.gamma1)
    assert report.phase == "boundary"
    assert ne_set(report) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    report = classify_quantum_ne(params, thr.gamma2)
    assert ne_set(report) == {(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)}


def test_side_is_closed_at_the_angle_tolerance(capsys):
    """'Within PHASE_TOL' is closed: exactly PHASE_TOL above gamma1 the side is 0 and the phase
    is boundary, in resolve_phase and in a sweep row; one ulp further out the side is +1. Near
    gamma1 of (0.5, 1e-20), about 8.16e-11, a float difference can equal PHASE_TOL; near 0.3-0.7
    differences step by about 1e-16."""
    params = DilemmaParams(0.5, 1e-20)
    gamma1 = thresholds(params).gamma1
    gamma = gamma1 + ewl.PHASE_TOL
    while gamma - gamma1 > ewl.PHASE_TOL:
        gamma = math.nextafter(gamma, 0.0)
    while gamma - gamma1 < ewl.PHASE_TOL:
        gamma = math.nextafter(gamma, 1.0)
    assert gamma - gamma1 == ewl.PHASE_TOL
    assert ewl._side(gamma, gamma1) == 0
    assert ewl.resolve_phase(params, gamma).name == "boundary"
    assert cli.main(["sweep", "--dg", "0.5", "--dr", "1e-20", "--gamma", repr(gamma), "--format", "json",
                     "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["ne_phase"] == "boundary"
    assert ewl._side(math.nextafter(gamma, 1.0), gamma1) == 1


def phase_tol_readers(node, module, scope="<module>"):
    """'module.scope' of every load, attribute or import of PHASE_TOL below node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Name) and child.id == "PHASE_TOL" and isinstance(child.ctx, ast.Load)
                or isinstance(child, ast.Attribute) and child.attr == "PHASE_TOL"
                or isinstance(child, ast.alias) and child.name == "PHASE_TOL"):
            yield f"{module}.{scope}"
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from phase_tol_readers(child, module, child.name if named else scope)


def test_only_side_reads_the_angle_tolerance():
    """One angle-tolerance test: a second form of it elsewhere could round differently."""
    readers = []
    for path in sorted(Path(ewl.__file__).parent.glob("*.py")):
        readers += phase_tol_readers(ast.parse(path.read_text()), path.stem)
    assert readers == ["ewl._side"]


def test_only_game_core_constructs_an_ne_record():
    """One pure-NE rule for both games: a second module building records would be a second rule."""
    constructors = set()
    for path in sorted(Path(ewl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and any(
                    isinstance(n, ast.Name) and n.id == "NashEquilibriumRecord"
                    or isinstance(n, ast.Attribute) and n.attr == "NashEquilibriumRecord"
                    for n in ast.walk(node.func)):
                constructors.add(path.stem)
    assert constructors == {"game_core"}


def test_only_risk_dominance_computes_rde_payoffs_and_losses():
    """One risk-dominance rule for both games: no other module builds a DeviationLossPair or an
    RdeOutcome whose payoffs are not literals, and risk_dominance builds no payoff matrix."""
    builders, names = set(), {}
    for path in sorted(Path(ewl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names[path.stem] = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
                            for n in ast.walk(tree)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            payoffs = node.args[2:3] + [kw.value for kw in node.keywords if kw.arg == "payoffs"]
            literal = all(isinstance(a, ast.Tuple) and all(isinstance(e, ast.Constant) for e in a.elts)
                          for a in payoffs)
            if name == "DeviationLossPair" or name == "RdeOutcome" and not literal:
                builders.add(path.stem)
    assert builders == {"risk_dominance"}
    assert not names["risk_dominance"] & {"build_dilemma_matrix", "_dilemma_matrix"}


def test_only_game_core_pure_table_builds_a_pure_profile():
    """The four pure profiles are one table, game_core._PURE, built from loop variables: no
    StrategyProfile anywhere takes two literals from {0, 1} or a 1.0 - x argument."""
    pure_calls = []
    for path in sorted(Path(ewl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "StrategyProfile"):
                continue
            args = node.args + [kw.value for kw in node.keywords]
            literal = len(args) == 2 and all(isinstance(a, ast.Constant) and a.value in (0.0, 1.0)
                                             for a in args)
            one_minus = any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Sub)
                            and isinstance(a.left, ast.Constant) and a.left.value == 1.0
                            for a in args)
            if literal or one_minus:
                pure_calls.append((path.stem, node.lineno))
    assert pure_calls == []
    assert [[(s.p, s.q) for s in row] for row in game_core._PURE] == [[(1.0, 1.0), (1.0, 0.0)],
                                                                       [(0.0, 1.0), (0.0, 0.0)]]


def test_ne_certification_by_grid():
    cases = [
        (DilemmaParams(0.9, 0.2), 0.15),
        (DilemmaParams(0.9, 0.2), 0.5),
        (DilemmaParams(0.9, 0.2), 1.2),
        (DilemmaParams(0.2, 0.9), 0.45),
    ]
    for params, gamma in cases:
        report = classify_quantum_ne(params, gamma)
        listed = ne_set(report)
        for p in (0.0, 1.0):
            for q in (0.0, 1.0):
                gain = max(grid_best_response_gain(params, p, q, gamma))
                if (p, q) in listed:
                    assert gain <= 1e-9
                else:
                    assert gain > 1e-9


def bits(values):
    """Each float's exact bits, sign of zero included."""
    return [float(x).hex() for x in values]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(1, 300))
@example(0.0, 1e-322, 51)  # the step underflows to zero, but i/div * delta does not
@example(-0.0, 1.0, 1)
def test_linspace_matches_numpy_bit_for_bit(start, stop, num):
    points = ewl._linspace(start, stop, num)
    assert all(type(x) is float for x in points)
    assert bits(points) == bits(np.linspace(start, stop, num))


@pytest.mark.parametrize("start, stop, num", [
    (0.025, 1.0, 40), (-1.0, 1.0, 81), (0.0, math.pi / 2, 50), (0.0, math.pi / 2, 8),
    (0.0, 1.0, 1001)])
def test_linspace_matches_numpy_on_benchmark_axes(start, stop, num):
    assert bits(ewl._linspace(start, stop, num)) == bits(np.linspace(start, stop, num))


def test_oracle_functions_return_tuples():
    assert type(initial_state(0.4)) is tuple
    assert type(final_state(0.3, 0.6, 0.4)) is tuple
    assert all(type(z) is complex for z in final_state(0.3, 0.6, 0.4))
    for matrix, size in ((strategy_operator(0.3), 2), (entangling_gate(0.4), 4)):
        assert type(matrix) is tuple and [len(row) for row in matrix] == [size] * size


def amplitude_bits(state):
    """Each amplitude's real and imaginary bits, signs of zero included."""
    return [(z.real.hex(), z.imag.hex()) for z in state]


def assert_grid_states_equal_final_state(weights, angles, tampered):
    points = list(itertools.product(weights, weights, angles))
    states = list(ewl._grid_states(weights, angles, tampered))
    assert len(states) == len(points)
    for (p, q, gamma), state in zip(points, states):
        expected = final_state(p, q, gamma, tampered=tampered)
        assert amplitude_bits(state) == amplitude_bits(expected), (p, q, gamma)


@pytest.mark.parametrize("tampered", [False, True])
def test_grid_states_equal_final_state_bit_for_bit(tampered):
    # The corners, where sqrt, cos and sin are exact, and an interior grid, where none is.
    assert_grid_states_equal_final_state([0.0, 1.0], [0.0, math.pi / 2], tampered)
    assert_grid_states_equal_final_state(ewl._linspace(0.1, 0.9, 4), ewl._linspace(0.2, 1.4, 4),
                                         tampered)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, math.pi / 2), st.booleans())
def test_grid_states_equal_final_state_bit_for_bit_anywhere(p, q, gamma, tampered):
    assert_grid_states_equal_final_state([p, q], [gamma], tampered)


@pytest.mark.parametrize("tampered", [False, True])
def test_grid_pairs_meet_each_point_with_its_closed_form_and_state(tampered):
    # Uneven axes, so a closed form or a state taken at another point of the grid, or in another
    # order of p, q and gamma, differs from the public functions at the point it is paired with.
    weights, angles = [0.0, 0.3, 1.0], [0.0, 0.7, math.pi / 2]
    points = list(itertools.product(weights, weights, angles))
    pairs = list(ewl._grid_pairs(weights, angles, tampered))
    assert len(pairs) == len(points)
    for (p, q, gamma), (closed, state) in zip(points, pairs):
        assert [e.hex() for e in closed] == [e.hex() for e in joint_distribution(p, q, gamma)], (p, q, gamma)
        assert amplitude_bits(state) == amplitude_bits(final_state(p, q, gamma, tampered=tampered)), (p, q, gamma)


# The parent's pipeline as nested compositions, written here apart from ewl's kernel: the gate
# is cos(g/2) I - i sin(g/2) sigma x sigma, the adjoint a conjugate transpose, and each sum a
# reduce over map(mul), left to right from its first term.
SIGMA_Y, SIGMA_X = ((0.0, -1.0j), (1.0j, 0.0)), ((0.0, 1.0), (1.0, 0.0))


def reference_kron(a, b):
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def reference_matvec(matrix, vector):
    return [functools.reduce(operator.add, map(operator.mul, row, vector)) for row in matrix]


def reference_gate(gamma, tampered):
    pauli = SIGMA_X if tampered else SIGMA_Y
    cos, isin = math.cos(gamma / 2), 1.0j * math.sin(gamma / 2)
    return [[cos * (r == c) - isin * k for c, k in enumerate(row)]
            for r, row in enumerate(reference_kron(pauli, pauli))]


def reference_operator(t):
    rt, ru = math.sqrt(t), math.sqrt(1.0 - t)
    return ((1.0j * rt, complex(ru)), (complex(-ru), -1.0j * rt))


def reference_state(p, q, gamma, tampered, gate=None):
    gate = reference_gate(gamma, tampered) if gate is None else gate
    adjoint = [[z.conjugate() for z in column] for column in zip(*gate)]
    local = reference_kron(reference_operator(p), reference_operator(q))
    ket = reference_matvec(gate, (1.0 + 0.0j, 0j, 0j, 0j))
    return reference_matvec(adjoint, reference_matvec(local, ket))


def assert_oracle_equals_reference(weights, angles, tampered):
    for gamma in angles:
        assert ([amplitude_bits(row) for row in entangling_gate(gamma, tampered)]
                == [amplitude_bits(row) for row in reference_gate(gamma, tampered)]), gamma
    points = list(itertools.product(weights, weights, angles))
    states = list(ewl._grid_states(weights, angles, tampered))
    assert len(states) == len(points)
    for (p, q, gamma), state in zip(points, states):
        expected = amplitude_bits(reference_state(p, q, gamma, tampered))
        assert amplitude_bits(state) == expected, (p, q, gamma)
        assert amplitude_bits(final_state(p, q, gamma, tampered)) == expected, (p, q, gamma)


@pytest.mark.parametrize("tampered", [False, True])
def test_oracle_equals_the_nested_reference_bit_for_bit(tampered):
    # The corners, where sqrt, cos and sin are exact, and an interior grid, where none is.
    assert_oracle_equals_reference([0.0, 1.0], [0.0, math.pi / 2], tampered)
    assert_oracle_equals_reference(ewl._linspace(0.1, 0.9, 4), ewl._linspace(0.2, 1.4, 4), tampered)


def at_signed_zero_corners(test):
    """An @example at each corner where a term the block kernel leaves out, a signed zero, could
    flip the sign of a zero amplitude: p and q in {0, 1, 5e-324}, gamma in {0, pi/2, 5e-324}."""
    weights, angles = (0.0, 1.0, 5e-324), (0.0, math.pi / 2, 5e-324)
    for p, q, gamma, tampered in itertools.product(weights, weights, angles, (False, True)):
        test = example(p, q, gamma, tampered)(test)
    return test


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, math.pi / 2), st.booleans())
@example(0.0, 1.0, math.pi / 2, True)
@example(1.0, 0.0, 5e-324, False)
@at_signed_zero_corners
def test_oracle_equals_the_nested_reference_bit_for_bit_anywhere(p, q, gamma, tampered):
    assert_oracle_equals_reference([p, q], [gamma], tampered)


# The entries of J outside its {CC, DD} and {CD, DC} blocks, written here apart from ewl's list.
OFF_BLOCK = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]


@pytest.mark.parametrize("row, column", OFF_BLOCK)
@pytest.mark.parametrize("tampered", [False, True])
def test_a_gate_off_its_blocks_raises_and_is_never_computed(monkeypatch, capsys, row, column, tampered):
    # One planted off-block entry, small but not zero, changes the nested reference's state, so the
    # block kernel would drop a term that matters: every oracle entry point must raise instead.
    def planted(gamma, tampered=False):
        gate = [list(entries) for entries in reference_gate(gamma, tampered)]
        gate[row][column] = 1e-3 + 0j
        return tuple(tuple(entries) for entries in gate)

    p, q, gamma = 0.3, 0.6, 0.7
    assert (amplitude_bits(reference_state(p, q, gamma, tampered, planted(gamma, tampered)))
            != amplitude_bits(reference_state(p, q, gamma, tampered)))
    monkeypatch.setattr(ewl, "entangling_gate", planted)
    with pytest.raises(ValueError, match=rf"\[{row}\]\[{column}\]"):
        final_state(p, q, gamma, tampered=tampered)
    with pytest.raises(ValueError, match=rf"\[{row}\]\[{column}\]"):
        list(ewl._grid_states([0.0, 1.0], [gamma], tampered))
    argv = ["oracle-check", "--grid", "3"] + ["--tampered-gate"] * tampered
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and f"[{row}][{column}]" in err


def test_grid_states_use_no_closed_form(monkeypatch, capsys):
    # Every closed form fails while the oracle runs: _grid_states and final_state called
    # directly, and in oracle-check, where each grid step and each seeded final_state takes
    # its turn with the closed form it is checked against.
    running, calls = [], collections.Counter()

    def closed_form(original):
        def guarded(*args):
            assert not running, "the state-vector oracle must not use a closed form"
            return original(*args)
        return guarded

    def oracle(original):
        def step(*args, **kwargs):
            calls[original.__name__] += 1
            running.append(original)
            try:
                return original(*args, **kwargs)
            finally:
                running.pop()
        return step

    for name in ("joint_distribution", "_joint", "_shift", "_pure_payoffs"):
        monkeypatch.setattr(ewl, name, closed_form(getattr(ewl, name)))
    running.append("direct")
    assert len(list(ewl._grid_states([0.0, 0.5, 1.0], [0.0, 0.7, math.pi / 2]))) == 27
    assert len(final_state(0.3, 0.6, 0.4)) == len(final_state(0.3, 0.6, 0.4, tampered=True)) == 4
    running.pop()
    grid = ewl._grid_states
    monkeypatch.setattr(ewl, "_grid_states",
                        lambda *args: iter(functools.partial(oracle(next), oracle(grid)(*args), None), None))
    monkeypatch.setattr(ewl, "final_state", oracle(final_state))
    assert cli.main(["oracle-check", "--grid", "5", "--seed", "3"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert calls["_grid_states"] == 1 and calls["next"] >= 5 ** 3 and calls["final_state"] == 100


@pytest.mark.parametrize("p, q, gamma, message", [
    (2.0, 3.0, 4.0, "gamma must lie in [0, pi/2], got 4.0"),
    (2.0, 3.0, 1.0, "must lie in [0, 1], got 2.0"),
    (0.5, 3.0, 1.0, "must lie in [0, 1], got 3.0"),
])
@pytest.mark.parametrize("tampered", [False, True])
def test_final_state_checks_gamma_then_p_then_q(p, q, gamma, message, tampered):
    with pytest.raises(ValueError) as error:
        final_state(p, q, gamma, tampered=tampered)
    assert str(error.value).endswith(message)


@pytest.mark.parametrize("p, q, message", [(2.0, 3.0, "p must lie in [0, 1], got 2.0"),
                                           (0.5, 3.0, "q must lie in [0, 1], got 3.0")])
@pytest.mark.parametrize("tampered", [False, True])
def test_final_state_names_the_weight_it_rejects(p, q, message, tampered):
    # As joint_distribution does, not by strategy_operator's parameter t.
    with pytest.raises(ValueError) as error:
        final_state(p, q, 1.0, tampered=tampered)
    assert str(error.value) == message


def outcome(function, *args):
    """repr of a call's result, or its error's type and text."""
    try:
        return repr(function(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def cache_points():
    """Seeded (params, gamma): uniform over the cube, each threshold and PHASE_TOL either side of it,
    d_g == d_r, out-of-domain angles and the angle types a caller may pass."""
    rng = np.random.default_rng(40)
    points = []
    for dg, dr in [(0.9, 0.2), (0.2, 0.9), (0.5, 0.5), (1e-300, 1e-300), (0.5, 1e-20), (-0.5, 0.5), (0.0, 0.3)]:
        params = DilemmaParams(dg, dr)
        angles = [angle for angle in thresholds(params) if angle is not None]
        for angle in angles:
            for step in (-1.0, -0.5, 0.0, 0.5, 1.0):
                points.append((params, min(max(angle + step * ewl.PHASE_TOL, 0.0), math.pi / 2)))
            points.append((params, math.nextafter(angle + ewl.PHASE_TOL, 2.0)))
        for gamma in (0.0, -0.0, 0, True, np.float64(0.6), np.array(0.6), math.pi / 2, -0.1, 1.6, math.nan):
            points.append((params, gamma))
    for dg, dr, gamma in rng.uniform((-1.0, -1.0, 0.0), (1.0, 1.0, math.pi / 2), (40, 3)):
        points.append((DilemmaParams(float(dg), float(dr)), float(gamma)))
    return points


def test_a_point_through_the_quantum_entry_points_resolves_its_phase_once(monkeypatch):
    """classify_quantum_ne, select_rde_quantum, select_rde and sensitivity_indices at one point share
    one resolve_phase: one thresholds call, on and off the transitional band, on a seam and at
    d_g == d_r, where the RDE and the indices raise."""
    calls = []
    pair_thresholds = ewl.thresholds
    monkeypatch.setattr(ewl, "thresholds", lambda params: calls.append(params) or pair_thresholds(params))
    for dg, dr, gamma in [(0.9, 0.2, 0.5), (0.2, 0.9, 0.5), (0.9, 0.2, 0.1), (0.5, 0.5, math.pi / 6),
                          (0.9, 0.2, pair_thresholds(DilemmaParams(0.9, 0.2)).gamma2)]:
        params = DilemmaParams(dg, dr)
        ewl._resolved.cache_clear()
        calls.clear()
        for entry in (classify_quantum_ne, quantum_rde.select_rde_quantum, quantum_rde.select_rde,
                      quantum_rde.sensitivity_indices):
            outcome(entry, params, gamma)
        assert calls == [params]


def test_the_warm_phase_cache_gives_what_its_uncached_body_gives():
    points = cache_points()
    assert len(points) < ewl._PHASES  # the second pass reads every point that resolved from the cache
    ewl._resolved.cache_clear()
    first = [outcome(ewl.resolve_phase, *point) for point in points]
    hits = ewl._resolved.cache_info().hits
    warm = [outcome(ewl.resolve_phase, *point) for point in points]
    assert ewl._resolved.cache_info().hits > hits
    bare = [outcome(lambda params, gamma: ewl._resolved.__wrapped__(params, ewl._check_gamma(gamma)), *point)
            for point in points]
    assert first == warm == bare
    # -0.0 and 0.0 share one entry and their phases; a 0-d array resolves through the cache as 0.6,
    # and so does numpy.float64(0.6).
    ewl._resolved.cache_clear()
    params = DilemmaParams(0.9, 0.2)
    assert ewl.resolve_phase(params, 0.0) is ewl.resolve_phase(params, -0.0)
    phase = ewl.resolve_phase(params, np.array(0.6))
    assert ewl.resolve_phase(params, 0.6) is phase is ewl.resolve_phase(params, np.float64(0.6))
    assert ewl._resolved.cache_info().currsize == 2


def test_the_phase_cache_is_bounded():
    ewl._resolved.cache_clear()
    params = DilemmaParams(0.9, 0.2)
    for gamma in ewl._linspace(0.0, math.pi / 2, 2 * ewl._PHASES):
        ewl.resolve_phase(params, gamma)
    info = ewl._resolved.cache_info()
    assert info.misses == 2 * ewl._PHASES
    assert info.currsize <= ewl._PHASES == 256


def test_a_plain_tuple_raises_after_its_equal_params_were_cached():
    # The key is typed: (0.9, 0.2) equals DilemmaParams(0.9, 0.2) and hashes alike, but has no d_g.
    params = DilemmaParams(0.9, 0.2)
    assert ewl.resolve_phase(params, 0.5).name == "transitional"
    with pytest.raises(AttributeError):
        ewl.resolve_phase((0.9, 0.2), 0.5)


@pytest.mark.parametrize("params, gamma, error", [
    (DilemmaParams(0.9, 0.2), 1.6, ValueError), (DilemmaParams(0.9, 0.2), -1e-300, ValueError),
    (DilemmaParams(0.9, 0.2), math.nan, ValueError), (DilemmaParams(-0.5, 0.5), 0.5, OutOfRegime),
    (DilemmaParams(0.5, -0.0), 0.5, OutOfRegime),
])
def test_an_out_of_domain_point_raises_on_every_call(params, gamma, error):
    ewl._resolved.cache_clear()
    for _ in range(3):
        with pytest.raises(error):
            ewl.resolve_phase(params, gamma)
    assert ewl._resolved.cache_info().currsize == 0
