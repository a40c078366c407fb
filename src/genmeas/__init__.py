"""Generalized qubit measurement toolkit.

Synthesizes purity-preserving generalized measurements into executable
protocols (unitaries plus standardized partial projections), simulates the
two physical realizations (thresholded continuous readout; ancilla-qubit
circuits), and scores implementations with a family of generalized-
measurement fidelity measures.
"""

__version__ = "0.1.0"

from .ancilla_circuit import (
    Gate,
    TwoQubitCircuit,
    angles_from_pq,
    build_circuit,
    circuit_from_pq,
    gate_matrix,
    kraus_from_circuit,
    pq_from_angles,
)
from .channels import NoiseSpec, noise_kraus, noisy_branch
from .continuous_readout import (
    ReadoutConfig,
    Thresholds,
    TrajectoryBatch,
    TrajectoryRecord,
    measurement_operator,
    normalization_constants,
    pq_from_thresholds,
    simulate_batch,
    simulate_trajectory,
    thresholds_from_pq,
)
from .decomposition import (
    KrausSet,
    MeasurementProtocol,
    TwoOutcomeStep,
    compose_branch,
    execute_protocol,
    kraus_set,
    random_kraus_set,
    reduce,
    remainder,
    sample_protocol,
    svd_decompose_pair,
    validate_kraus_set,
)
from .fidelity import (
    ProcessMatrix,
    ProcessSet,
    apply_process,
    average_state_fidelity,
    chi_from_kraus,
    classical_fidelity,
    fidelity_report,
    partial_fidelity,
    povm_fidelity,
    povm_from_process,
    process_fidelity,
    process_set_from_kraus,
    state_fidelity,
    total_fidelity,
)
from .partial_projection import (
    PartialProjParams,
    apply_outcome,
    dops,
    outcome_probabilities,
    pure_state,
    strength,
)
