"""Single-qubit noise channels for synthesizing imperfect measurements.

Each constructor returns a trace-preserving Kraus list; ``noisy_branch``
composes a noise channel onto one ideal measurement branch and returns the
process matrix of the composition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fidelity import ProcessMatrix, chi_from_kraus
from .linalg import PAULI_X, PAULI_Y, PAULI_Z

KINDS = ("depolarizing", "dephasing", "amplitude_damping", "unitary_jitter")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise kind and strength; ``seed`` is used only by unitary_jitter.

    For unitary_jitter the strength is the rotation-angle standard
    deviation in radians; otherwise it is the channel probability in [0, 1].
    """

    kind: str
    strength: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind != "unitary_jitter" and not (0.0 <= self.strength <= 1.0):
            raise ValueError(f"strength must be in [0, 1], got {self.strength}")
        if self.kind == "unitary_jitter" and self.strength < 0.0:
            raise ValueError("jitter strength must be nonnegative")


def depolarizing_kraus(lam: float) -> list[np.ndarray]:
    """rho -> (1 - lam) rho + lam I/2."""
    eye = np.eye(2, dtype=np.complex128)
    return [
        np.sqrt(1.0 - 3.0 * lam / 4.0) * eye,
        np.sqrt(lam / 4.0) * PAULI_X,
        np.sqrt(lam / 4.0) * PAULI_Y,
        np.sqrt(lam / 4.0) * PAULI_Z,
    ]


def dephasing_kraus(lam: float) -> list[np.ndarray]:
    """rho -> (1 - lam/2) rho + (lam/2) Z rho Z: strength 1 kills coherences."""
    eye = np.eye(2, dtype=np.complex128)
    return [np.sqrt(1.0 - lam / 2.0) * eye, np.sqrt(lam / 2.0) * PAULI_Z]


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return [k0, k1]


def unitary_jitter_kraus(std: float, seed: int) -> list[np.ndarray]:
    """Small random rotation exp(-i theta n.sigma / 2), theta ~ N(0, std^2)."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, std)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    gen = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return [c * np.eye(2, dtype=np.complex128) - 1j * s * gen]


def noise_kraus(spec: NoiseSpec) -> list[np.ndarray]:
    if spec.kind == "depolarizing":
        return depolarizing_kraus(spec.strength)
    if spec.kind == "dephasing":
        return dephasing_kraus(spec.strength)
    if spec.kind == "amplitude_damping":
        return amplitude_damping_kraus(spec.strength)
    return unitary_jitter_kraus(spec.strength, spec.seed)


@functools.lru_cache(maxsize=16)
def _noise_stack(spec: NoiseSpec) -> np.ndarray:
    """:func:`noise_kraus` as one read-only (r, 2, 2) stack, cached: the branches
    of a measurement share one spec."""
    ops = np.stack(noise_kraus(spec))
    ops.flags.writeable = False
    return ops


def noisy_branch(
    ideal_kraus: np.ndarray, spec: NoiseSpec, noise_first: bool = False
) -> ProcessMatrix:
    """Process matrix of noise composed with one ideal branch operator.

    Default order is noise AFTER the branch (models readout-adjacent
    decoherence); set ``noise_first`` to compose the other way.
    """
    m = np.asarray(ideal_kraus, dtype=np.complex128)
    noise = _noise_stack(spec)
    return chi_from_kraus(m @ noise if noise_first else noise @ m, d=2)
