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

    Raises ``ValueError`` otherwise, also for a NaN entry. Closed form on Python
    scalars: the Frobenius norm of rho - rho^dag by ``math.hypot``, and the smallest
    eigenvalue of the Hermitian part, tr/2 - hypot((rho00 - rho11)/2, |rho01 + rho10*|/2).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    (a, b), (c, d) = rho.tolist()
    x, y, u, v = a - a.conjugate(), d - d.conjugate(), b - c.conjugate(), c - b.conjugate()
    if not math.hypot(x.real, x.imag, y.real, y.imag, u.real, u.imag, v.real, v.imag) <= tol:
        raise ValueError("state is not Hermitian")
    trace = a.real + d.real
    if not abs(trace - 1.0) <= tol:
        raise ValueError(f"trace is {trace}, expected 1")
    # Each term is halved before it is summed, so no finite entry overflows.
    off = (b.real / 2 + c.real / 2, b.imag / 2 - c.imag / 2)  # (rho01 + rho10*) / 2
    low = trace / 2 - math.hypot(a.real / 2 - d.real / 2, *off)
    if low < -tol:
        raise ValueError(f"negative eigenvalue {low:.3e}")
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

    D_k = diag(sqrt(g0), sqrt(g1)) is diagonal, so D_k rho D_k^dag is rho scaled
    entrywise by [[g0, sqrt(g0 g1)], [sqrt(g0 g1), g1]], with no matrix product.

    Raises
    ------
    Infeasible
        If the renormalization denominator is below ``tol``.
    """
    rho = validate_state(rho)
    p, q = params.p, params.q
    g0, g1 = (p, 1.0 - q) if outcome == 0 else (1.0 - p, q)
    s = math.sqrt(g0 * g1)
    out = rho * np.array([[g0, s], [s, g1]])
    norm = out[0, 0].real + out[1, 1].real
    if norm < tol:
        raise Infeasible(
            f"outcome {outcome} has probability {norm:.3e} < {tol:.1e}"
        )
    return out / norm


def strength(params: PartialProjParams) -> float:
    """Measurement strength |p + q - 1|: 1 is projective, 0 is no measurement."""
    return abs(params.p + params.q - 1.0)
