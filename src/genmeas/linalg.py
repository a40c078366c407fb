"""Dense complex linear algebra for small fixed dimensions.

Everything in this package runs on plain ``numpy.ndarray`` matrices with
``complex128`` entries; the helpers here cover the handful of factorizations
the rest of the library needs (PSD square root, qubit Pauli-basis expansion)
together with the two checks every input rests on, each written once:
Hermitian positive semidefinite (:func:`require_psd`) and distance from the
identity (:func:`identity_deviation`), plus the distance up to a global phase.
"""

from __future__ import annotations

import numpy as np

EIG_CLAMP_TOL = 1e-10
# is_unitary's default bound on |m^dag m - I|_F.
UNITARY_TOL = 1e-10
# phase_distance aligns b's phase only when |Tr(b^dag a)| reaches PHASE_FLOOR.
PHASE_FLOOR = 1e-300

# Single-qubit Pauli matrices, in the conventional (I, X, Y, Z) order.
PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack (..., d, d)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


# The Pauli basis E = (I, X, Y, Z) as one (4, 2, 2) stack, Tr(E_j^dag E_i) = 2 delta_ij,
# and its transfer pair for row-major vec: alpha = vec M @ VEC_TO_PAULI (4 x 4) expands M
# in E, and vec P = vec chi @ CHI_TO_POVM (16 x 4) is the POVM element
# P = sum_ij chi_ij E_j^dag E_i of a process matrix chi. All three are read-only.
PAULI_BASIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
VEC_TO_PAULI = PAULI_BASIS.reshape(4, 4).conj().T / 2
CHI_TO_POVM = (adjoint(PAULI_BASIS)[None, :] @ PAULI_BASIS[:, None]).reshape(16, 4)
for _a in (PAULI_BASIS, VEC_TO_PAULI, CHI_TO_POVM):
    _a.flags.writeable = False
del _a


def read_only(m, dtype=None) -> np.ndarray:
    """``m`` itself if it is a read-only array (of ``dtype``, if given), else a read-only
    copy, which no writeable handle the caller keeps can change. The package's own
    constructors freeze the arrays they make, so that theirs are not copied again."""
    if isinstance(m, np.ndarray) and not m.flags.writeable and (dtype is None or m.dtype == dtype):
        return m
    m = np.array(m, dtype=dtype)
    m.setflags(write=False)
    return m


def mul2(m, n):
    """m n of two 2x2 matrices given as nested pairs of Python numbers."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def identity_deviation(m: np.ndarray) -> np.ndarray:
    """Frobenius distance |m - I|_F of a matrix, or of each matrix of a stack (..., d, d)."""
    m = np.asarray(m)
    return np.linalg.norm(m - np.eye(m.shape[-1]), axis=(-2, -1))


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
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


def pauli_expand(m: np.ndarray) -> np.ndarray:
    """Pauli coefficients alpha_i = Tr(E_i^dag m) / 2 of a 2 x 2 matrix, so that
    sum_i alpha_i E_i = m over :data:`PAULI_BASIS`; a stack (..., 2, 2) gives (..., 4)
    from one matmul of the row-major vec m against :data:`VEC_TO_PAULI`."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"matrix shape {m.shape}, expected 2 x 2 or a stack of them")
    return m.reshape(m.shape[:-2] + (4,)) @ VEC_TO_PAULI


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between ``a`` and ``b`` minimized over a global phase:
    |a - e^{i theta} b|_F at theta = arg Tr(b^dag a)."""
    t = np.trace(adjoint(b) @ a)
    if abs(t) >= PHASE_FLOOR:
        b = (t / abs(t)) * b
    return float(np.linalg.norm(a - b))
