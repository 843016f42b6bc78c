"""The record contract: exact reprs, immutability, domain checks on every construction path,
and a cold CLI import that pulls in no dataclasses, inspect or typing."""

import copy
import math
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import qpd_rde
from qpd_rde import ewl, game_core, quantum_rde, risk_dominance
from qpd_rde import (
    DeviationLossPair,
    DilemmaClass,
    DilemmaKind,
    DilemmaParams,
    StrategyProfile,
    build_dilemma_matrix,
    classify_dilemma,
    classify_quantum_ne,
    enumerate_pure_ne,
    joint_distribution,
    pure_quantum_matrix,
    rde_chicken,
    rde_staghunt,
    resolve_phase,
    sensitivity_critical_angles,
    sensitivity_indices,
    sensitivity_partials,
    situ_risk_transitional,
    thresholds,
)

TRANS = DilemmaParams(0.9, 0.2)
G = "0.5235987755982989"  # pi/6, every threshold of d_g == d_r == 0.5
THR = f"PhaseThresholds(gamma1={G}, gamma2={G}, gamma_star={G})"
SENS = ("p_star=0.40383225548350477, partial_dg=-0.2485477263108208, "
        "partial_dr=-0.5233127106436647, partial_gamma=2.52441295442369")

# (record builder, a field, exact repr)
RECORDS = [
    pytest.param(lambda: DilemmaParams(0.9, 0.2), "d_g", "DilemmaParams(d_g=0.9, d_r=0.2)",
                 id="DilemmaParams"),
    pytest.param(lambda: DilemmaParams(1, False), "d_r", "DilemmaParams(d_g=1.0, d_r=0.0)",
                 id="DilemmaParams-int-bool"),
    pytest.param(lambda: StrategyProfile(0.25, 1.0), "p", "StrategyProfile(p=0.25, q=1.0)",
                 id="StrategyProfile"),
    pytest.param(lambda: classify_dilemma(DilemmaParams(0.5, 0.0)), "kind",
                 "DilemmaClass(kind=<DilemmaKind.CH: 'CH'>, boundary=True)", id="DilemmaClass"),
    pytest.param(lambda: DilemmaClass(DilemmaKind.PD), "boundary",
                 "DilemmaClass(kind=<DilemmaKind.PD: 'PD'>, boundary=False)",
                 id="DilemmaClass-default"),
    pytest.param(lambda: enumerate_pure_ne(build_dilemma_matrix(DilemmaParams(0.5, 0.5)))[0],
                 "payoffs",
                 "NashEquilibriumRecord(profile=StrategyProfile(p=0.0, q=0.0), payoffs=(0.0, 0.0))",
                 id="NashEquilibriumRecord"),
    pytest.param(lambda: DeviationLossPair(0.5, 0.25), "loss_a",
                 "DeviationLossPair(loss_a=0.5, loss_b=0.25)", id="DeviationLossPair"),
    pytest.param(lambda: rde_staghunt(DilemmaParams(-0.5, 0.25)), "label",
                 "RdeOutcome(kind='pure', profile=StrategyProfile(p=1.0, q=1.0), "
                 "payoffs=(1.0, 1.0), label='(C,C)')", id="RdeOutcome"),
    pytest.param(lambda: rde_chicken(DilemmaParams(0.5, -0.5)), "kind",
                 "RdeOutcome(kind='mixed', profile=StrategyProfile(p=0.5, q=0.5), "
                 "payoffs=(0.75, 0.75), label=None)", id="RdeOutcome-default"),
    pytest.param(lambda: joint_distribution(0.5, 0.25, 0.0), "eps1",
                 "JointDistribution(eps1=0.125, eps2=0.375, eps3=0.125, eps4=0.375)",
                 id="JointDistribution"),
    pytest.param(lambda: pure_quantum_matrix(DilemmaParams(0.5, 0.5), 0.0), "pi_q",
                 "QuantumPayoffMatrix(matrix=PayoffMatrix2x2(labels=('Q', 'D'), "
                 "a=[[1.0, -0.5], [1.5, 0.0]], b=[[1.0, 1.5], [-0.5, 0.0]]), pi_q=-0.5, pi_d=1.5)",
                 id="QuantumPayoffMatrix"),
    pytest.param(lambda: thresholds(DilemmaParams(-1.0, -1.0)), "gamma1",
                 "PhaseThresholds(gamma1=None, gamma2=None, gamma_star=None)",
                 id="PhaseThresholds-undefined"),
    pytest.param(lambda: thresholds(DilemmaParams(0.5, 0.5)), "gamma_star", THR,
                 id="PhaseThresholds"),
    pytest.param(lambda: resolve_phase(DilemmaParams(0.5, 0.5), 0.5), "name",
                 f"Phase(name='classical-like', band=None, seam=None, thresholds={THR})",
                 id="Phase"),
    pytest.param(lambda: classify_quantum_ne(TRANS, 0.15), "equilibria",
                 "QuantumNeReport(phase='classical-like', equilibria=[NashEquilibriumRecord("
                 "profile=StrategyProfile(p=0.0, q=0.0), payoffs=(0.0, 0.0))])",
                 id="QuantumNeReport"),
    pytest.param(lambda: situ_risk_transitional(TRANS, 0.5)[0], "risk_b",
                 "SituRisk(risk_a=1.4173174211615467, risk_b=0.0)", id="SituRisk"),
    pytest.param(lambda: sensitivity_partials(TRANS, 0.5), "index_dg",
                 f"SensitivityReport({SENS}, index_dg=None, index_dr=None, index_gamma=None, "
                 "semi_elasticity_gamma=None)", id="SensitivityReport-partials"),
    pytest.param(lambda: sensitivity_indices(TRANS, 0.5), "p_star",
                 f"SensitivityReport({SENS}, index_dg=-0.5539254248324299, "
                 "index_dr=-0.2591733094807432, index_gamma=3.1255712243704172, "
                 "semi_elasticity_gamma=6.2511424487408345)", id="SensitivityReport"),
    pytest.param(lambda: sensitivity_critical_angles(DilemmaParams(0.5, 0.5)), "gamma_r",
                 f"CriticalAngles(gamma_g={G}, gamma_r={G})", id="CriticalAngles"),
]


@pytest.mark.parametrize("make, field, expected", RECORDS)
def test_record_repr_is_pinned(make, field, expected):
    assert repr(make()) == expected


def test_payoff_matrix_repr_is_pinned():
    assert repr(build_dilemma_matrix(DilemmaParams(0.5, 0.25))) == (
        "PayoffMatrix2x2(labels=('C', 'D'), a=[[1.0, -0.25], [1.5, 0.0]], "
        "b=[[1.0, 1.5], [-0.25, 0.0]])")


@pytest.mark.parametrize("make, field, expected", RECORDS)
def test_records_reject_assignment(make, field, expected):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0
    assert repr(record) == expected


OUT_OF_DOMAIN = [
    (DilemmaParams, "d_g", (1.5, 0.2)),
    (DilemmaParams, "d_r", (0.9, -1.5)),
    (DilemmaParams, "d_g", (math.nan, 0.2)),
    (StrategyProfile, "p", (-0.1, 0.5)),
    (StrategyProfile, "q", (0.5, 1.1)),
    (StrategyProfile, "q", (0.5, math.nan)),
    (DilemmaParams, "d_g", (Decimal("0.5"), 0.2)),
    (DilemmaParams, "d_r", (0.9, "0.2")),
    (StrategyProfile, "p", (Decimal("0.5"), 0.5)),
    (StrategyProfile, "q", (0.5, "0.5")),
    (DilemmaParams, "d_r", (0.9, -10 ** 400)),  # a Real beyond the floats
]


@pytest.mark.parametrize("cls, field, values", OUT_OF_DOMAIN)
def test_constructor_rejects_out_of_domain_values(cls, field, values):
    with pytest.raises(ValueError, match=f"^{field} must lie in "):
        cls(*values)


@pytest.mark.parametrize("cls, field, values", OUT_OF_DOMAIN)
def test_make_and_replace_reject_out_of_domain_values(cls, field, values):
    valid = cls(0.5, 0.5)
    assert type(cls._make((0.5, 0.5))) is cls and cls._make((0.5, 0.5)) == valid
    assert type(valid._replace()) is cls and valid._replace() == valid
    with pytest.raises(ValueError, match=f"^{field} must lie in "):
        cls._make(values)
    with pytest.raises(ValueError, match=f"^{field} must lie in "):
        valid._replace(**dict(zip(cls._fields, values)))


SHARED_CLASSES = [classify_dilemma(DilemmaParams(dg, dr))
                  for dg, dr in ((0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, 0.0), (0.0, 0.5),
                                 (0.0, 0.0))]


@pytest.mark.parametrize("record", [TRANS, DilemmaParams(-1, 0), StrategyProfile(0.25, 1.0), *SHARED_CLASSES],
                         ids=["DilemmaParams", "DilemmaParams-int", "StrategyProfile",
                              *(f"{cls.kind.value}{'-boundary' * cls.boundary}" for cls in SHARED_CLASSES)])
@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_records_survive_pickle_and_copy(record, clone):
    cloned = clone(record)
    assert type(cloned) is type(record)
    assert cloned == record and repr(cloned) == repr(record)


class Params(DilemmaParams):
    __slots__ = ()


def test_a_subclass_of_the_params_builds_its_own_instances():
    params = Params(0.5, 0.2)
    assert type(params) is Params and params == DilemmaParams(0.5, 0.2)
    for built in (Params._make((0.5, 0.2)), params._replace(d_r=0.2), pickle.loads(pickle.dumps(params)),
                  copy.copy(params), copy.deepcopy(params)):
        assert type(built) is Params and built == params
    with pytest.raises(ValueError, match="^d_g must lie in "):
        Params(1.5, 0.2)


def test_records_are_tuples():
    d_g, d_r = TRANS
    assert (d_g, d_r) == TRANS == (0.9, 0.2)
    assert hash(TRANS) == hash((0.9, 0.2))
    assert sensitivity_partials(TRANS, 0.5)._asdict()["index_dg"] is None
    assert DeviationLossPair(0.5, 0.25).product == 0.125


RECORDS_WITH_BEHAVIOUR = {"DilemmaParams", "StrategyProfile", "DeviationLossPair"}  # a domain check, product


def test_each_record_is_one_type():
    """A field-only record is the namedtuple itself; only a record with behaviour subclasses one."""
    records = {name: cls for module in (game_core, risk_dominance, ewl, quantum_rde) for name in module.__all__
               if isinstance(cls := getattr(module, name), type) and issubclass(cls, tuple)}
    assert len(records) == 15 and RECORDS_WITH_BEHAVIOUR <= records.keys()
    for name, cls in records.items():
        assert all(hasattr(cls, attr) for attr in ("_fields", "_make", "_replace")), name
        if name in RECORDS_WITH_BEHAVIOUR:
            (base,) = cls.__bases__
            assert base.__bases__ == (tuple,) and base._fields == cls._fields, name
        else:
            assert cls.__bases__ == (tuple,) and len(cls.__mro__) == 3, name
        assert cls.__doc__ and not cls.__doc__.startswith(f"{name}("), name  # its own docstring


def test_cold_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may import typing themselves.
    script = ("import sys, qpd_rde.cli\n"
              "print(*sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    src = str(Path(qpd_rde.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
