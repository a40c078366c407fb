"""Dense complex linear algebra for small fixed dimensions.

Everything in this package runs on plain ``numpy.ndarray`` matrices with
``complex128`` entries; the helpers here cover the handful of factorizations
the rest of the library needs (PSD square root, Pauli-basis expansion)
together with the two checks every input rests on, each written once:
Hermitian positive semidefinite (:func:`require_psd`) and distance from the
identity (:func:`identity_deviation`), plus the distance up to a global phase.
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
    """Conjugate transpose of a matrix, or of every matrix of a stack (..., d, d)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def identity_deviation(m: np.ndarray) -> np.ndarray:
    """Frobenius distance |m - I|_F of a matrix, or of each matrix of a stack (..., d, d)."""
    m = np.asarray(m)
    return np.linalg.norm(m - np.eye(m.shape[-1]), axis=(-2, -1))


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether ``m``, or every matrix of a stack (..., d, d), is unitary within ``tol``."""
    return bool(np.all(identity_deviation(adjoint(m) @ m) <= tol))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of a matrix, or of each matrix of a stack (..., d, d)."""
    return (m + adjoint(m)) / 2


# The PSD rule, shared by require_psd and psd_sqrt: every matrix is Hermitian within
# ``tol`` in the Frobenius norm and has no eigenvalue below -``tol``; NaN fails.
def _checked_hermitian_part(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    dev = np.linalg.norm(m - adjoint(m), axis=(-2, -1)).max()
    if not dev <= tol:
        raise ValueError(f"{what} deviates from Hermitian by {dev:.3e} > {tol:.1e}")
    return hermitian_part(m)


def _check_eigenvalues(w: np.ndarray, tol: float, what: str) -> None:
    low = w[..., 0].min()
    if low < -tol:
        raise ValueError(f"{what} has eigenvalue {low:.3e} below -{tol:.1e}")


def require_psd(m: np.ndarray, tol: float, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``m``, or each matrix of a stack
    (..., d, d), is Hermitian within ``tol`` in the Frobenius norm with no eigenvalue
    below -``tol``. A NaN entry fails."""
    _check_eigenvalues(np.linalg.eigvalsh(_checked_hermitian_part(m, tol, what)), tol, what)


def psd_sqrt(m: np.ndarray, tol: float = EIG_CLAMP_TOL) -> np.ndarray:
    """Positive-semidefinite square root of a matrix, or of each matrix of a stack (..., d, d).

    ``m`` must pass the rule of :func:`require_psd` at ``tol``, else ``ValueError``;
    eigenvalues in ``[-tol, 0)`` are clamped to zero.
    """
    w, v = np.linalg.eigh(_checked_hermitian_part(m, tol, "matrix"))
    _check_eigenvalues(w, tol, "matrix")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ adjoint(v)


@functools.lru_cache(maxsize=8)
def pauli_basis(n_qubits: int = 1) -> np.ndarray:
    """Ordered Pauli operator basis for ``n_qubits`` >= 1, stacked as (d^2, d, d).

    For one qubit the order is (I, X, Y, Z); for more, all tensor products
    in lexicographic order. Normalization: Tr(E_j^dag E_i) = d * delta_ij.
    The array is cached per ``n_qubits`` and read-only.
    """
    if n_qubits < 1:
        raise ValueError(f"a Pauli basis needs n_qubits >= 1, got {n_qubits}")
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
    stack of matrices (..., d, d) gives coefficients of shape (..., d^2),
    from one matmul of the row-major vec m against the conjugated basis.
    """
    m = np.asarray(m, dtype=np.complex128)
    basis = np.asarray(basis)
    d = basis.shape[-1]
    if m.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match basis dim {d}")
    return m.reshape(m.shape[:-2] + (d * d,)) @ (basis.reshape(-1, d * d).conj().T / d)


@functools.lru_cache(maxsize=8)
def pauli_transfer(n_qubits: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Pauli transfer pair (B, G) for ``n_qubits``, cached and read-only.

    With row-major vec: alpha = vec M @ B (d^2 x d^2) expands M in
    :func:`pauli_basis` as :func:`pauli_expand` does, and vec P = vec chi @ G
    (d^4 x d^2) is the POVM element P = sum_ij chi_ij E_j^dag E_i of a process
    matrix chi. Both act on stacks of vecs, one matmul each.
    """
    e = pauli_basis(n_qubits)
    d = e.shape[-1]
    b = pauli_expand(np.eye(d * d).reshape(d * d, d, d), e)
    g = (adjoint(e)[None, :] @ e[:, None]).reshape(d**4, d * d)
    for a in (b, g):
        a.flags.writeable = False
    return b, g


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between ``a`` and ``b`` minimized over a global phase:
    |a - e^{i theta} b|_F at theta = arg Tr(b^dag a)."""
    t = np.trace(adjoint(b) @ a)
    if abs(t) >= 1e-300:
        b = (t / abs(t)) * b
    return float(np.linalg.norm(a - b))
