"""Standardized two-outcome partial projection of a qubit.

The measurement is diagonal in the computational Z basis and parameterized
by two probabilities (measurement fidelities) ``p`` and ``q``: a qubit in
|0> reports outcome 0 with probability ``p``, a qubit in |1> reports
outcome 1 with probability ``q``. The back-action operators are

    D0 = diag(sqrt(p), sqrt(1 - q)),   D1 = diag(sqrt(1 - p), sqrt(q)),

which satisfy D0^dag D0 + D1^dag D1 = I exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .linalg import adjoint

ZERO_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class PartialProjParams:
    """Parameter pair (p, q) of a standardized partial projection.

    Both must lie in [0, 1]. The natural regime is p + q >= 1 (so that
    outcome 0 correlates with |0>), but this is not enforced.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {self.q}")


def validate_state(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Check that ``rho`` is a valid 2x2 density matrix and return it as complex128.

    Raises ``ValueError`` otherwise, also for a NaN entry.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if not np.linalg.norm(rho - adjoint(rho)) <= tol:
        raise ValueError("state is not Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= tol:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    w = np.linalg.eigvalsh((rho + adjoint(rho)) / 2)
    if w[0] < -tol:
        raise ValueError(f"negative eigenvalue {w[0]:.3e}")
    return rho


def pure_state(psi: np.ndarray) -> np.ndarray:
    """Density matrix of a (normalized) state vector."""
    psi = np.asarray(psi, dtype=np.complex128)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def dops(params: PartialProjParams) -> tuple[np.ndarray, np.ndarray]:
    """Partial projection operator pair (D0, D1)."""
    p, q = params.p, params.q
    d0, d1 = np.zeros((2, 2), dtype=np.complex128), np.zeros((2, 2), dtype=np.complex128)
    d0[0, 0], d0[1, 1] = math.sqrt(p), math.sqrt(1.0 - q)
    d1[0, 0], d1[1, 1] = math.sqrt(1.0 - p), math.sqrt(q)
    return d0, d1


def outcome_probabilities(
    params: PartialProjParams, rho: np.ndarray
) -> tuple[float, float]:
    """Probabilities (P0, P1) of the two outcomes, P_k = Tr(D_k^dag D_k rho)."""
    rho = validate_state(rho)
    p, q = params.p, params.q
    r00 = rho[0, 0].real
    r11 = rho[1, 1].real
    p0 = p * r00 + (1.0 - q) * r11
    p1 = (1.0 - p) * r00 + q * r11
    return p0, p1


def apply_outcome(
    params: PartialProjParams,
    outcome: int,
    rho: np.ndarray,
    tol: float = ZERO_BRANCH_TOL,
) -> np.ndarray:
    """Post-measurement state rho' = D_k rho D_k^dag / Tr(D_k rho D_k^dag).

    Raises
    ------
    Infeasible
        If the renormalization denominator is below ``tol``.
    """
    rho = validate_state(rho)
    d0, d1 = dops(params)
    dk = d0 if outcome == 0 else d1
    out = dk @ rho @ adjoint(dk)
    norm = np.trace(out).real
    if norm < tol:
        raise Infeasible(
            f"outcome {outcome} has probability {norm:.3e} < {tol:.1e}"
        )
    return out / norm


def strength(params: PartialProjParams) -> float:
    """Measurement strength |p + q - 1|: 1 is projective, 0 is no measurement."""
    return abs(params.p + params.q - 1.0)
