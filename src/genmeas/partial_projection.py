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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible

ZERO_BRANCH_TOL = 1e-12
# validate_state's default bound on non-Hermiticity, |Tr - 1| and a negative eigenvalue.
STATE_TOL = 1e-10


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


def validate_state(rho: np.ndarray, tol: float = STATE_TOL) -> np.ndarray:
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


def _integer(value) -> int | None:
    """``operator.index(value)``, or None for a boolean or a value that is no integer."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def validate_count(value, name: str) -> None:
    """``ValueError``, naming ``name``, unless ``value`` is a non-negative integer
    (``operator.index``; a boolean is not one): every seed, shot and trajectory count."""
    if (n := _integer(value)) is None or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def pure_state(psi: np.ndarray) -> np.ndarray:
    """Density matrix of a (normalized) state vector."""
    psi = np.asarray(psi, dtype=np.complex128)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def dop_diagonals(params: PartialProjParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Diagonals of (D0, D1) as Python floats: (sqrt(p), sqrt(1 - q)), (sqrt(1 - p), sqrt(q))."""
    p, q = params.p, params.q
    return (math.sqrt(p), math.sqrt(1.0 - q)), (math.sqrt(1.0 - p), math.sqrt(q))


def dops(params: PartialProjParams) -> tuple[np.ndarray, np.ndarray]:
    """Partial projection operator pair (D0, D1)."""
    d0, d1 = (np.diag(np.array(g, dtype=np.complex128)) for g in dop_diagonals(params))
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


def sandwich(m, r):
    """m r m^dag of a Hermitian 2x2 ``r``, both nested pairs of Python numbers, from r's
    upper triangle; the result's lower one is its upper one's conjugate, so it is exactly
    Hermitian with a real diagonal."""
    (a, b), (c, d) = m
    (r00, r01), (_, r11) = r
    r10 = r01.conjugate()
    x00, x01, x10, x11 = a * r00 + b * r10, a * r01 + b * r11, c * r00 + d * r10, c * r01 + d * r11
    a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    s01 = x00 * c + x01 * d
    return ((x00 * a + x01 * b).real, s01), (s01.conjugate(), (x10 * c + x11 * d).real)


def update(k, r, kappa: float = 1.0):
    """(h, K r K^dag / h), h = Tr K r K^dag, with the coherence scaled by ``kappa`` (an
    inefficient readout's dephasing), for a Hermitian r as in :func:`sandwich`. The state
    is None if h is below ``ZERO_BRANCH_TOL``, the one place that floor is compared."""
    (o00, o01), (_, o11) = sandwich(k, r)
    h = o00 + o11
    if h < ZERO_BRANCH_TOL:
        return h, None
    o01 = kappa * o01 / h
    return h, ((o00 / h, o01), (o01.conjugate(), o11 / h))


def apply_outcome(params: PartialProjParams, outcome: int, rho: np.ndarray) -> np.ndarray:
    """Post-measurement state rho' = D_k rho D_k^dag / Tr(D_k rho D_k^dag), by :func:`update`:
    ``ValueError`` unless ``outcome`` is the integer 0 or 1 (numpy's too, not a float or
    a boolean, as in :func:`validate_count`), ``Infeasible`` if Tr < ``ZERO_BRANCH_TOL``."""
    if _integer(outcome) not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    g0, g1 = dop_diagonals(params)[outcome]
    h, state = update(((g0, 0.0), (0.0, g1)), validate_state(rho).tolist())
    if state is None:
        raise Infeasible(f"outcome {outcome} has probability {h:.3e} < {ZERO_BRANCH_TOL:.1e}")
    return np.array(state, dtype=np.complex128)


def strength(params: PartialProjParams) -> float:
    """Measurement strength |p + q - 1|: 1 is projective, 0 is no measurement."""
    return abs(params.p + params.q - 1.0)
