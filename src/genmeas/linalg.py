"""Dense complex linear algebra for small fixed dimensions.

Everything in this package runs on plain ``numpy.ndarray`` matrices with
``complex128`` entries; the helpers here cover the handful of factorizations
the rest of the library needs (Hermitian eigendecomposition, PSD square
root, Pauli-basis expansion) together with tolerance-aware comparisons,
including equality up to a global phase.
"""

from __future__ import annotations

import functools

import numpy as np

EIG_CLAMP_TOL = 1e-10

# Single-qubit Pauli matrices, in the conventional (I, X, Y, Z) order.
PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether ``m``, or every matrix of a stack (..., d, d), is unitary within ``tol``."""
    m = np.asarray(m)
    dev = np.linalg.norm(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]), axis=(-2, -1))
    return bool(np.all(dev <= tol))


def herm_eig(m: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v``
    such that ``m = v @ diag(w) @ v.conj().T``.

    Raises
    ------
    ValueError
        If ``|m - m^dag|_F > tol``.
    """
    m = np.asarray(m, dtype=np.complex128)
    dev = np.linalg.norm(m - adjoint(m))
    if not dev <= tol:
        raise ValueError(f"deviation from Hermiticity {dev:.3e} > tol {tol:.1e}")
    w, v = np.linalg.eigh((m + adjoint(m)) / 2)
    return w, v


def psd_sqrt(m: np.ndarray, tol: float = EIG_CLAMP_TOL) -> np.ndarray:
    """Positive-semidefinite square root.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below
    ``-tol`` raises ``ValueError``.
    """
    w, v = herm_eig(m, tol=max(tol, 1e-9))
    if w[0] < -tol:
        raise ValueError(f"eigenvalue {w[0]:.3e} below -{tol:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ adjoint(v)


@functools.lru_cache(maxsize=8)
def pauli_basis(n_qubits: int = 1) -> np.ndarray:
    """Ordered Pauli operator basis for ``n_qubits``, stacked as (d^2, d, d).

    For one qubit the order is (I, X, Y, Z); for more, all tensor products
    in lexicographic order. Normalization: Tr(E_j^dag E_i) = d * delta_ij.
    The array is cached per ``n_qubits`` and read-only.
    """
    single = [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]
    basis = single
    for _ in range(n_qubits - 1):
        basis = [np.kron(a, b) for a in basis for b in single]
    basis = np.stack(basis)
    basis.flags.writeable = False
    return basis


def pauli_expand(m: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Expansion coefficients of ``m`` in a Pauli basis.

    ``alpha_i = Tr(E_i^dag m) / d`` so that ``sum_i alpha_i E_i = m``. A
    stack of matrices (..., d, d) gives coefficients of shape (..., d^2).
    """
    m = np.asarray(m, dtype=np.complex128)
    basis = np.asarray(basis)
    d = basis.shape[-1]
    if m.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match basis dim {d}")
    return np.einsum("iab,...ab->...i", basis.conj(), m) / d


def phase_align(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``exp(i theta) * b`` with theta chosen to minimize |a - e^{i theta} b|_F.

    Closed form: theta = arg Tr(b^dag a).
    """
    t = np.trace(adjoint(b) @ a)
    if abs(t) < 1e-300:
        return np.asarray(b, dtype=np.complex128)
    return (t / abs(t)) * b


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between ``a`` and ``b`` minimized over a global phase."""
    return float(np.linalg.norm(a - phase_align(a, b)))


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    return phase_distance(a, b) < tol
