"""Risk-dominant equilibrium selection for 2x2 dilemmas and the EWL quantum PD."""

from .game_core import (
    DilemmaClass,
    DilemmaKind,
    DilemmaParams,
    NashEquilibriumRecord,
    PayoffMatrix2x2,
    StrategyProfile,
    build_dilemma_matrix,
    classify_dilemma,
    enumerate_pure_ne,
    expected_payoff_classical,
    verify_mixed_ne,
)
from .risk_dominance import (
    DeviationLossPair,
    RdeOutcome,
    deviation_losses_asymmetric,
    deviation_losses_symmetric,
    rde_chicken,
    rde_staghunt,
    select_rde_asymmetric,
    select_rde_symmetric,
)
from .ewl import (
    JointDistribution,
    Phase,
    PhaseThresholds,
    QuantumNeReport,
    QuantumPayoffMatrix,
    classify_quantum_ne,
    entangling_gate,
    expected_payoff_quantum,
    final_state,
    grid_best_response_gain,
    initial_state,
    joint_distribution,
    pure_quantum_matrix,
    resolve_phase,
    strategy_operator,
    thresholds,
)
from .quantum_rde import (
    CriticalAngles,
    SensitivityReport,
    SituRisk,
    deviation_losses_quantum,
    group_benefit_threshold,
    rde_coexistence,
    rde_transitional,
    select_rde_quantum,
    sensitivity_critical_angles,
    sensitivity_indices,
    sensitivity_partials,
    situ_risk_coexistence,
    situ_risk_transitional,
    transitional_mixing_probability,
    unilateral_deviation_payoffs,
)
from . import errors

__version__ = "0.2.0"
