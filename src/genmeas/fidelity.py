"""Fidelity measures for generalized multiple-outcome measurements.

A quantum operation is represented by its d^2 x d^2 process matrix chi in
the Pauli basis, rho -> sum_ij chi_ij E_i rho E_j^dag. For a measurement,
each outcome k carries its own (non-trace-preserving) chi^(k), with
p_k = Tr chi^(k) the outcome probability averaged over pure inputs.

The module implements the full taxonomy: classical fidelities between
probability distributions (Bhattacharyya coefficient, its square, and the
Kolmogorov distance), Uhlmann state fidelities, process fidelities F6-F9,
per-outcome partial fidelities, two total measurement fidelities with their
one-parameter interpolating family, and POVM-only fidelities.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import Mismatch
from .linalg import adjoint, pauli_basis, pauli_transfer, psd_sqrt
from .partial_projection import validate_state
from .serialize import (
    FORMAT_VERSION, check_version, dump, matrix_from_json, matrix_to_json, require_distinct,
    require_key,
)

# Eigenvalues down to -UHLMANN_CLAMP pass the POVM check, and down to -PSD_TOL
# the state and process-matrix checks; the Uhlmann square roots clamp both to 0.
UHLMANN_CLAMP = 1e-10
PSD_TOL = 1e-8


@dataclass(frozen=True)
class ProcessMatrix:
    """d^2 x d^2 process matrix in the Pauli basis; d = 2^k for k >= 1 qubits."""

    dim: int
    chi: np.ndarray

    def __post_init__(self):
        d = self.dim
        if not (isinstance(d, (int, np.integer)) and d >= 2 and not d & (d - 1)):
            raise ValueError(f"process matrix dim {self.dim} is not 2^k with k >= 1")
        d2 = self.dim * self.dim
        if self.chi.shape != (d2, d2):
            raise ValueError(
                f"chi shape {self.chi.shape} does not match dim {self.dim}"
            )

    @functools.cached_property
    def trace(self) -> float:
        return float(np.trace(self.chi).real)


@dataclass(frozen=True)
class ProcessSet:
    """Per-outcome process matrices of a measurement, keyed by label."""

    outcomes: tuple[tuple[str, ProcessMatrix], ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("a process set needs at least one outcome")
        require_distinct(self.labels)
        dims = sorted({chi.dim for _, chi in self.outcomes})
        if len(dims) != 1:
            raise ValueError(f"a process set's outcomes must share one dim, got {dims}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(chi.trace for _, chi in self.outcomes)

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].dim

    def chis(self) -> np.ndarray:
        """The outcomes' chi as one (n, d^2, d^2) stack."""
        return np.stack([chi.chi for _, chi in self.outcomes])


def _expand(ops, d: int) -> np.ndarray:
    """Pauli coefficients (r, d^2) of a stack or list of r d x d operators, one matmul."""
    if d < 2 or d & (d - 1):
        raise ValueError(f"dimension {d} is not 2^k with k >= 1")
    ops = np.asarray(ops, dtype=np.complex128)
    if ops.ndim != 3 or ops.shape[1:] != (d, d):
        raise ValueError(f"operator shape {ops.shape[1:]}, expected ({d}, {d})")
    return ops.reshape(len(ops), d * d) @ pauli_transfer(d.bit_length() - 1)[0]


def chi_from_kraus(ops, d: int) -> ProcessMatrix:
    """Process matrix of the channel rho -> sum_m K_m rho K_m^dag; ``ops`` is a
    list or (r, d, d) stack of Kraus operators."""
    alpha = _expand(ops, d)
    return ProcessMatrix(dim=d, chi=alpha.T @ alpha.conj())


def process_set_from_kraus(ops, labels, d: int = 2) -> ProcessSet:
    """Per-outcome single-Kraus process set (a purity-preserving measurement):
    chi^(k) = alpha_k alpha_k^dag from one expansion of all the operators."""
    alpha = _expand(ops, d)
    chis = alpha[:, :, None] * alpha.conj()[:, None, :]
    return ProcessSet(
        outcomes=tuple((label, ProcessMatrix(dim=d, chi=c)) for label, c in zip(labels, chis))
    )


def apply_process(chi: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Evaluate rho -> sum_ij chi_ij E_i rho E_j^dag."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (chi.dim, chi.dim):
        raise ValueError(f"state shape {rho.shape}, expected dim {chi.dim}")
    e = pauli_basis(chi.dim.bit_length() - 1)
    return np.einsum("ij,iab,bc,jdc->ad", chi.chi, e, rho, e.conj())


def _povms(chis: np.ndarray) -> np.ndarray:
    """POVM elements (..., d, d) of a stack of process matrices (..., d^2, d^2), one
    matmul against the transfer map G."""
    d2 = chis.shape[-1]
    d = math.isqrt(d2)
    g = pauli_transfer(d.bit_length() - 1)[1]
    return (chis.reshape(chis.shape[:-2] + (d2 * d2,)) @ g).reshape(chis.shape[:-2] + (d, d))


def povm_from_process(chi: ProcessMatrix) -> np.ndarray:
    """POVM element P = sum_ij chi_ij E_j^dag E_i; Tr P = d * Tr chi."""
    return _povms(chi.chi)


def classical_fidelity(a, b, variant: str = "bhattacharyya") -> float:
    """Classical fidelity / distance between two probability distributions.

    Variants: "bhattacharyya" (F1 = sum sqrt(a_k b_k)), "squared"
    (F2 = F1^2), "kolmogorov" (a distance, (1/2) sum |a_k - b_k|).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"lengths {a.shape} vs {b.shape}")
    if variant == "kolmogorov":
        return float(0.5 * np.sum(np.abs(a - b)))
    f1 = float(np.sum(np.sqrt(np.clip(a, 0, None) * np.clip(b, 0, None))))
    if variant == "bhattacharyya":
        return f1
    if variant == "squared":
        return f1 * f1
    raise ValueError(f"unknown classical fidelity variant {variant!r}")


def _uhlmann_trace(rho: np.ndarray, sigma: np.ndarray):
    """Tr sqrt(sqrt(sigma) rho sqrt(sigma)), one per pair for stacks (..., d, d): the
    singular values of sqrt(rho) sqrt(sigma) keep full precision at rank-deficient
    states, where eigenvalues of sqrt(sigma) rho sqrt(sigma) would keep half the digits."""
    roots = psd_sqrt(np.stack([rho, sigma]), tol=PSD_TOL)
    return np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum(axis=-1)


def _require_hermitian(m: np.ndarray, tol: float, what: str) -> None:
    dev = np.abs(m - adjoint(m)).max()
    if not dev <= tol:
        raise ValueError(f"{what} deviates from Hermitian by {dev:.3e}")


def _require_psd(m: np.ndarray, tol: float, what: str = "process matrix") -> None:
    """Raise ``ValueError`` unless ``m``, or each matrix of a stack (..., d, d),
    is Hermitian within ``tol`` with no eigenvalue below -``tol``."""
    m = np.asarray(m)
    _require_hermitian(m, tol, what)
    w = np.linalg.eigvalsh(_hermitian_part(m))[..., 0].min()
    if w < -tol:
        raise ValueError(f"{what} has eigenvalue {w:.3e}")


def _is_pure(rho: np.ndarray, tol: float = 1e-12) -> bool:
    return abs(np.trace(rho @ rho).real - 1.0) <= tol


def state_fidelity(rho, sigma, variant: str = "uhlmann") -> float:
    """Uhlmann fidelity F3 = Tr sqrt(sqrt(sigma) rho sqrt(sigma)), or its square F4.

    When either state is pure the fidelity reduces exactly to the overlap,
    F3^2 = Tr(rho sigma), which is evaluated directly (the general Uhlmann
    route loses a couple of digits to the matrix square roots).
    """
    rho = validate_state(rho, tol=PSD_TOL)
    sigma = validate_state(sigma, tol=PSD_TOL)
    if _is_pure(rho) or _is_pure(sigma):
        f3 = math.sqrt(max(np.trace(rho @ sigma).real, 0.0))
    else:
        f3 = _uhlmann_trace(rho, sigma)
    if variant == "uhlmann":
        return min(f3, 1.0 + 1e-9)
    if variant == "uhlmann_squared":
        return min(f3 * f3, 1.0 + 1e-9)
    raise ValueError(f"unknown state fidelity variant {variant!r}")


def _traces(m: np.ndarray) -> np.ndarray:
    """Real traces of a stack of matrices (..., d, d)."""
    return np.trace(m, axis1=-2, axis2=-1).real


def _rank1(w: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Per row of ascending eigenvalues (..., d^2): whether every other eigenvalue is
    within ``tol`` of 0 relative to the largest. F9's trace formula is off by about
    twice their sum over the largest."""
    return np.all(np.abs(w[..., :-1]) <= tol * w[..., -1:], axis=-1)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) / 2


def _f9(chi: np.ndarray, chi_ideal: np.ndarray, t: np.ndarray, ti: np.ndarray):
    """F9 of each pair of stacks (n, d^2, d^2) with positive traces t, ti (n,), and
    whether each ideal is rank-1. A rank-1 ideal takes the trace formula (F8),
    Tr(chi chi~) / (t t~), exact without the Uhlmann route's square-root round-off;
    the other rows take one stacked Uhlmann call."""
    rank1 = _rank1(np.linalg.eigvalsh(_hermitian_part(chi_ideal)))
    overlap = np.sum(chi * chi_ideal.swapaxes(-1, -2), axis=(-2, -1)).real
    F = np.maximum(overlap, 0.0)
    if not rank1.all():
        u = _uhlmann_trace(chi[~rank1], chi_ideal[~rank1])
        F[~rank1] = u * u
    return F / (t * ti), rank1


def process_fidelity(
    chi: ProcessMatrix, chi_ideal: ProcessMatrix, variant: str = "F6"
) -> float:
    """Process fidelities F6-F9.

    F6 = Tr(chi chi_ideal) and F7 (its Uhlmann form) require both traces
    to be 1; F8 and F9 are their selection-normalized counterparts for
    non-trace-preserving processes. F8 requires a rank-1 (purity-preserving)
    ideal; F9 is fully general and reduces to F8 for rank-1 ideals.
    """
    if chi.dim != chi_ideal.dim:
        raise ValueError("process matrices have different dimensions")
    t, ti = chi.trace, chi_ideal.trace
    if variant in ("F6", "F7"):
        if not (abs(t - 1.0) <= 1e-9 and abs(ti - 1.0) <= 1e-9):
            raise ValueError(f"traces ({t}, {ti}) must both be 1 for {variant}")
        if variant == "F6":
            return float(np.trace(chi.chi @ chi_ideal.chi).real)
        return float(_uhlmann_trace(chi.chi, chi_ideal.chi)) ** 2
    if variant not in ("F8", "F9"):
        raise ValueError(f"unknown process fidelity variant {variant!r}")
    if t <= 0.0 or ti <= 0.0:
        raise ValueError("process fidelity undefined for zero-trace chi")
    F, rank1 = _f9(chi.chi[None], chi_ideal.chi[None], np.array([t]), np.array([ti]))
    if variant == "F8" and not rank1[0]:
        raise ValueError("F8 requires a rank-1 (purity-preserving) ideal")
    return float(F[0])


def partial_fidelity(chi_k: ProcessMatrix, chi_k_ideal: ProcessMatrix) -> float:
    """Per-outcome fidelity F^(k), the process fidelity F9; scale-invariant in chi_k.

    Uses the trace formula for a rank-1 ideal and falls back to the full
    Uhlmann form otherwise.
    """
    return process_fidelity(chi_k, chi_k_ideal, "F9")


def _family(w: np.ndarray, F: np.ndarray, alpha: float) -> float:
    """[sum_{w_k > 0} w_k max(F_k, 0)^alpha]^(1/alpha): every total and POVM fidelity."""
    keep = w > 0.0
    return float(np.sum(w[keep] * np.maximum(F[keep], 0.0) ** alpha) ** (1.0 / alpha))


def _partials(actual: ProcessSet, ideal: ProcessSet):
    """Weights sqrt(p_k p~_k), partial fidelities F_k (F9) and both sides' probabilities,
    and both sides' chi stacks; F_k is 0 for a failed outcome (p_k = 0 < p~_k) and NaN
    where p~_k = 0. One stacked F9 pass over the outcomes scored."""
    if actual.labels != ideal.labels:
        raise Mismatch(f"outcome labels differ: {actual.labels} vs {ideal.labels}")
    if actual.dim != ideal.dim:
        raise ValueError("process matrices have different dimensions")
    chi, chi_ideal = actual.chis(), ideal.chis()
    p, p_ideal = _traces(chi), _traces(chi_ideal)
    F = np.where(p_ideal > 0.0, 0.0, np.nan)
    scored = (p > 0.0) & (p_ideal > 0.0)
    if scored.any():
        F[scored] = _f9(chi[scored], chi_ideal[scored], p[scored], p_ideal[scored])[0]
    w = np.sqrt(np.clip(p, 0.0, None) * np.clip(p_ideal, 0.0, None))
    return w, F, p, p_ideal, chi, chi_ideal


_TOTAL_ALPHA = {"sum": 1.0, "sqrt_squared": 0.5}
_POVM_ALPHA = {"Fp": 1.0, "FpTilde": 0.5}


def total_fidelity(
    actual: ProcessSet,
    ideal: ProcessSet,
    variant: str = "sum",
    alpha: float = 1.0,
) -> float:
    """Total fidelity of a multiple-outcome measurement: the family
    [sum_k sqrt(p_k p~_k) F_k^alpha]^(1/alpha) over the partial fidelities F_k (F9)
    and the outcome probabilities p_k, p~_k of the two sides. "sum" is alpha = 1,
    "sqrt_squared" alpha = 1/2 and "parametric" the caller's ``alpha`` > 0. For a
    purity-preserving ideal, "sum" is sum_k Tr(chi~^(k) chi^(k)) / sqrt(p_k p~_k)
    and "sqrt_squared" is [sum_k sqrt(Tr(chi~^(k) chi^(k)))]^2.

    An outcome with zero probability on either side contributes nothing: a
    zero-probability actual outcome against a nonzero ideal one is a failed outcome.
    """
    if variant != "parametric":
        if variant not in _TOTAL_ALPHA:
            raise ValueError(f"unknown total fidelity variant {variant!r}")
        alpha = _TOTAL_ALPHA[variant]
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _family(*_partials(actual, ideal)[:2], alpha)


def _povm_terms(actual: np.ndarray, ideal: np.ndarray):
    """Weights sqrt(Tr P_k Tr Pi_k)/d and terms u_k^2/(Tr P_k Tr Pi_k) of the POVM
    fidelities for stacks (n, d, d) of elements, from one Uhlmann call."""
    tr = _traces(actual) * _traces(ideal)
    u = _uhlmann_trace(actual, ideal)
    F = np.divide(u * u, tr, out=np.zeros_like(u), where=tr > 0.0)
    return np.sqrt(np.clip(tr, 0.0, None)) / actual.shape[-1], F


def povm_fidelity(actual, ideal, variant: str = "Fp") -> float:
    """POVM-only ("probability-only") fidelities of Uhlmann form.

    ``actual`` and ``ideal`` are matching-length lists of PSD d x d elements P_k
    and Pi_k, each set summing to the identity. Both variants are the family
    [sum_k w_k F_k^alpha]^(1/alpha) with w_k = sqrt(Tr P_k Tr Pi_k)/d and
    F_k = u_k^2/(Tr P_k Tr Pi_k), u_k = Tr sqrt(sqrt(Pi_k) P_k sqrt(Pi_k)):
    "Fp" (alpha = 1) is (1/d) sum_k u_k^2 / sqrt(Tr P_k Tr Pi_k) and "FpTilde"
    (alpha = 1/2) is [(1/d) sum_k u_k]^2. ``Mismatch`` if the lengths differ or
    a set does not sum to I; ``ValueError`` naming the set if its elements do not
    share one d x d shape, or if the two sets' shapes differ, or if an element is
    not Hermitian PSD.
    """
    if variant not in _POVM_ALPHA:
        raise ValueError(f"unknown POVM fidelity variant {variant!r}")
    if len(actual) != len(ideal):
        raise Mismatch(f"{len(actual)} vs {len(ideal)} POVM elements")
    if not len(actual):
        raise ValueError("a POVM needs at least one element")
    shapes = [sorted({np.shape(e) for e in elems}) for elems in (actual, ideal)]
    for name, s in zip(("actual", "ideal"), shapes):
        if len(s) != 1 or len(s[0]) != 2 or s[0][0] != s[0][1]:
            raise ValueError(f"{name} POVM elements must share one d x d shape, got {s}")
    if shapes[0] != shapes[1]:
        a, b = (s[0] for s in shapes)
        raise ValueError(f"actual POVM elements are {a}, ideal POVM elements {b}")
    actual, ideal = (np.asarray(e, dtype=np.complex128) for e in (actual, ideal))
    for name, elems in (("actual", actual), ("ideal", ideal)):
        dev = np.linalg.norm(elems.sum(axis=0) - np.eye(actual.shape[-1]))
        if not dev <= 1e-9:
            raise Mismatch(f"{name} POVM sums to I only within {dev:.3e}")
    _require_psd(np.concatenate([actual, ideal]), UHLMANN_CLAMP, "POVM element")
    return _family(*_povm_terms(actual, ideal), _POVM_ALPHA[variant])


def average_state_fidelity(
    chi: ProcessMatrix,
    chi_ideal_unitary: ProcessMatrix,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Haar average of the squared state fidelity against a unitary ideal.

    The squared fidelity of a pure input is quadratic in that input, so its
    Haar average is exact in closed form (Nielsen, quant-ph/0205035):
    Fbar = (d F6 + 1) / (d + 1) with F6 = Tr(chi chi_ideal), equivalently
    1 - F6 = (1 - Fbar)(1 + 1/d). ``samples`` and ``seed`` are accepted for
    compatibility and ignored.

    Raises
    ------
    ValueError
        If the ideal is not unitary (rank-1 and trace-preserving), or if
        ``chi`` is not trace-preserving or not positive semidefinite.
    """
    if chi.dim != chi_ideal_unitary.dim:
        raise ValueError("process matrices have different dimensions")
    d = chi.dim
    both = np.stack([chi_ideal_unitary.chi, chi.chi])
    tp = np.abs(_povms(both) - np.eye(d)).max(axis=(-2, -1)) <= 1e-8
    if not tp[0]:
        raise ValueError("average state fidelity requires a unitary ideal")
    # A chi that is not trace-preserving may hold NaN, which eigvalsh refuses.
    w = np.linalg.eigvalsh(_hermitian_part(both if tp[1] else both[:1]))
    if not _rank1(w[0]):
        raise ValueError("average state fidelity requires a unitary ideal")
    if not tp[1]:
        raise ValueError("process is not trace-preserving")
    _require_hermitian(chi.chi, PSD_TOL, "process matrix")
    if w[1, 0] < -PSD_TOL:
        raise ValueError(f"process matrix has eigenvalue {w[1, 0]:.3e}")
    f6 = float(np.trace(chi.chi @ chi_ideal_unitary.chi).real)
    return (d * f6 + 1.0) / (d + 1.0)


def process_set_to_json(ps: ProcessSet) -> str:
    return dump(
        {
            "format_version": FORMAT_VERSION,
            "dim": ps.dim,
            "outcomes": [
                {"label": label, "p": chi.trace, "chi": matrix_to_json(chi.chi)}
                for label, chi in ps.outcomes
            ],
        }
    )


def process_set_from_json(text: str) -> ProcessSet:
    """Read a process set; each chi must be Hermitian PSD within 1e-8."""
    data = json.loads(text)
    check_version(data, "process set")
    d = require_key(data, "dim", int)
    ps = ProcessSet(
        outcomes=tuple(
            (
                require_key(o, "label", str),
                ProcessMatrix(dim=d, chi=matrix_from_json(require_key(o, "chi"), d * d)),
            )
            for o in require_key(data, "outcomes", list)
        )
    )
    _require_psd(ps.chis(), PSD_TOL)
    return ps


def fidelity_report(actual: ProcessSet, ideal: ProcessSet) -> dict:
    """All fidelity variants between two process sets, keyed by name: the partials
    and the POVM terms are computed once and the family is evaluated on them."""
    w, F, p, p_ideal, chi, chi_ideal = _partials(actual, ideal)
    povm_w, povm_F = _povm_terms(_povms(chi), _povms(chi_ideal))
    return {
        "partial": {
            label: {"F": None if np.isnan(f) else float(f), "failed": bool(t <= 0.0 < ti)}
            for label, f, t, ti in zip(actual.labels, F, p, p_ideal)
        },
        "total_sum": _family(w, F, 1.0),
        "total_sqrt_squared": _family(w, F, 0.5),
        "povm_Fp": _family(povm_w, povm_F, 1.0),
        "povm_FpTilde": _family(povm_w, povm_F, 0.5),
        "p_actual": p.tolist(),
        "p_ideal": p_ideal.tolist(),
        "labels": list(actual.labels),
    }
