"""Generalized qubit measurement toolkit.

Synthesizes purity-preserving generalized measurements into executable
protocols (unitaries plus standardized partial projections), simulates the
two physical realizations (thresholded continuous readout; ancilla-qubit
circuits), and scores implementations with a family of generalized-
measurement fidelity measures.

The public names below load their submodule on first use (PEP 562), so
``import genmeas`` compiles no submodule and each CLI command loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ancilla_circuit": (
        "Gate", "TwoQubitCircuit", "angles_from_pq", "build_circuit", "circuit_from_pq",
        "gate_matrix", "kraus_from_circuit", "pq_from_angles",
    ),
    "channels": ("NoiseSpec", "noise_kraus", "noisy_branch"),
    "continuous_readout": (
        "ReadoutConfig", "Thresholds", "TrajectoryBatch", "measurement_operator",
        "normalization_constants", "pq_from_thresholds", "simulate_batch",
        "thresholds_from_pq",
    ),
    "decomposition": (
        "KrausSet", "MeasurementProtocol", "TwoOutcomeStep", "compose_branch",
        "execute_protocol", "kraus_set", "random_kraus_set", "reduce", "sample_protocol",
        "validate_kraus_set",
    ),
    "fidelity": (
        "ProcessMatrix", "ProcessSet", "apply_process", "average_state_fidelity",
        "chi_from_kraus", "classical_fidelity", "fidelity_report", "partial_fidelity",
        "povm_fidelity", "process_fidelity", "process_set_from_kraus",
        "state_fidelity", "total_fidelity",
    ),
    "partial_projection": (
        "PartialProjParams", "apply_outcome", "dops", "outcome_probabilities", "pure_state",
        "strength",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
