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
from .linalg import adjoint, pauli_basis, pauli_expand, psd_sqrt
from .partial_projection import validate_state
from .serialize import (
    FORMAT_VERSION, check_version, matrix_from_json, matrix_to_json, require_distinct,
    require_key,
)

UHLMANN_CLAMP = 1e-10


@dataclass(frozen=True)
class ProcessMatrix:
    """d^2 x d^2 process matrix in the Pauli basis."""

    dim: int
    chi: np.ndarray

    def __post_init__(self):
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

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(chi.trace for _, chi in self.outcomes)

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].dim


def chi_from_kraus(ops, d: int) -> ProcessMatrix:
    """Process matrix of the channel rho -> sum_m K_m rho K_m^dag."""
    n_qubits = round(math.log2(d))
    if 2**n_qubits != d:
        raise ValueError(f"dimension {d} is not a power of 2")
    ops = [np.asarray(m, dtype=np.complex128) for m in ops]
    for m in ops:
        if m.shape != (d, d):
            raise ValueError(f"operator shape {m.shape}, expected ({d}, {d})")
    alpha = pauli_expand(np.stack(ops), pauli_basis(n_qubits))
    return ProcessMatrix(dim=d, chi=alpha.T @ alpha.conj())


def process_set_from_kraus(ops, labels, d: int = 2) -> ProcessSet:
    """Per-outcome single-Kraus process set (a purity-preserving measurement)."""
    return ProcessSet(
        outcomes=tuple(
            (label, chi_from_kraus([m], d)) for label, m in zip(labels, ops)
        )
    )


def apply_process(chi: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Evaluate rho -> sum_ij chi_ij E_i rho E_j^dag."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (chi.dim, chi.dim):
        raise ValueError(f"state shape {rho.shape}, expected dim {chi.dim}")
    e = pauli_basis(round(math.log2(chi.dim)))
    return np.einsum("ij,iab,bc,jdc->ad", chi.chi, e, rho, e.conj())


def povm_from_process(chi: ProcessMatrix) -> np.ndarray:
    """POVM element P = sum_ij chi_ij E_j^dag E_i; Tr P = d * Tr chi."""
    e = pauli_basis(round(math.log2(chi.dim)))
    return np.einsum("ij,jba,ibc->ac", chi.chi, e.conj(), e)


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


def _uhlmann_trace(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sqrt(sqrt(sigma) rho sqrt(sigma)), clamped PSD square roots."""
    s = psd_sqrt(sigma, tol=UHLMANN_CLAMP)
    inner = s @ rho @ s
    inner = (inner + adjoint(inner)) / 2
    w = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def _is_pure(rho: np.ndarray, tol: float = 1e-12) -> bool:
    return abs(np.trace(rho @ rho).real - 1.0) <= tol


def state_fidelity(rho, sigma, variant: str = "uhlmann") -> float:
    """Uhlmann fidelity F3 = Tr sqrt(sqrt(sigma) rho sqrt(sigma)), or its square F4.

    When either state is pure the fidelity reduces exactly to the overlap,
    F3^2 = Tr(rho sigma), which is evaluated directly (the general Uhlmann
    route loses a couple of digits to the matrix square roots).
    """
    rho = validate_state(rho, tol=1e-8)
    sigma = validate_state(sigma, tol=1e-8)
    if _is_pure(rho) or _is_pure(sigma):
        f3 = math.sqrt(max(np.trace(rho @ sigma).real, 0.0))
    else:
        f3 = _uhlmann_trace(rho, sigma)
    if variant == "uhlmann":
        return min(f3, 1.0 + 1e-9)
    if variant == "uhlmann_squared":
        return min(f3 * f3, 1.0 + 1e-9)
    raise ValueError(f"unknown state fidelity variant {variant!r}")


def _is_trace_preserving(chi: ProcessMatrix, tol: float = 1e-8) -> bool:
    dev = povm_from_process(chi) - np.eye(chi.dim)
    return bool(np.abs(dev).max() <= tol)


def _is_rank1(chi: ProcessMatrix, tol: float = 1e-10) -> bool:
    w = np.linalg.eigvalsh((chi.chi + adjoint(chi.chi)) / 2)
    return bool(np.all(w[:-1] < tol * max(1.0, w[-1])))


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
        return _uhlmann_trace(chi.chi, chi_ideal.chi) ** 2
    if t <= 0.0 or ti <= 0.0:
        raise ValueError("process fidelity undefined for zero-trace chi")
    if variant == "F8":
        if not _is_rank1(chi_ideal):
            raise ValueError("F8 requires a rank-1 (purity-preserving) ideal")
        return float(np.trace(chi.chi @ chi_ideal.chi).real) / (t * ti)
    if variant == "F9":
        if _is_rank1(chi_ideal):
            # Exact reduction to the trace formula (F8) for a rank-1
            # ideal; avoids the Uhlmann route's square-root round-off.
            return float(np.trace(chi.chi @ chi_ideal.chi).real) / (t * ti)
        return _uhlmann_trace(chi.chi, chi_ideal.chi) ** 2 / (t * ti)
    raise ValueError(f"unknown process fidelity variant {variant!r}")


def partial_fidelity(chi_k: ProcessMatrix, chi_k_ideal: ProcessMatrix) -> float:
    """Per-outcome fidelity F^(k), the process fidelity F9; scale-invariant in chi_k.

    Uses the trace formula for a rank-1 ideal and falls back to the full
    Uhlmann form otherwise.
    """
    return process_fidelity(chi_k, chi_k_ideal, "F9")


def _paired(actual: ProcessSet, ideal: ProcessSet):
    if actual.labels != ideal.labels:
        raise Mismatch(
            f"outcome labels differ: {actual.labels} vs {ideal.labels}"
        )
    return [
        (a_chi, i_chi)
        for (_, a_chi), (_, i_chi) in zip(actual.outcomes, ideal.outcomes)
    ]


def total_fidelity(
    actual: ProcessSet,
    ideal: ProcessSet,
    variant: str = "sum",
    alpha: float = 1.0,
) -> float:
    """Total fidelity of a multiple-outcome measurement.

    Variants:

    * "sum":  sum_k Tr(chi_ideal^(k) chi^(k)) / sqrt(Tr chi_ideal^(k) Tr chi^(k)),
      the sqrt(p_k p_k_ideal)-weighted sum of partial fidelities.
    * "sqrt_squared":  [sum_k sqrt(Tr(chi_ideal^(k) chi^(k)))]^2.
    * "parametric": [sum_k sqrt(p_k p_k_ideal) F9^alpha]^(1/alpha), which
      reduces to "sum" at alpha = 1 and to "sqrt_squared" at alpha = 1/2
      for purity-preserving ideals.

    Outcomes with zero probability on both sides contribute nothing; a
    zero-probability actual outcome against a nonzero ideal one counts as
    a failed outcome (zero contribution).
    """
    pairs = _paired(actual, ideal)
    if variant == "parametric":
        acc = 0.0
        for a, i in pairs:
            w = math.sqrt(max(a.trace, 0.0) * max(i.trace, 0.0))
            if w <= 0.0:
                continue
            acc += w * process_fidelity(a, i, variant="F9") ** alpha
        return acc ** (1.0 / alpha)
    acc = 0.0
    for a, i in pairs:
        if a.trace <= 0.0 or i.trace <= 0.0:
            continue
        overlap = max(float(np.trace(a.chi @ i.chi).real), 0.0)
        if variant == "sum":
            acc += overlap / math.sqrt(a.trace * i.trace)
        elif variant == "sqrt_squared":
            acc += math.sqrt(overlap)
        else:
            raise ValueError(f"unknown total fidelity variant {variant!r}")
    return acc if variant == "sum" else acc * acc


def povm_fidelity(actual, ideal, variant: str = "Fp") -> float:
    """POVM-only ("probability-only") fidelities of Uhlmann form.

    ``actual`` and ``ideal`` are matching-length lists of PSD d x d
    elements, each set summing to the identity.

    * "Fp"      = (1/d) sum_k [Tr sqrt(sqrt(Pi_k) P_k sqrt(Pi_k))]^2
                  / sqrt(Tr Pi_k Tr P_k)
    * "FpTilde" = [(1/d) sum_k Tr sqrt(sqrt(Pi_k) P_k sqrt(Pi_k))]^2
    """
    if len(actual) != len(ideal):
        raise Mismatch(f"{len(actual)} vs {len(ideal)} POVM elements")
    if not actual:
        raise ValueError("a POVM needs at least one element")
    actual = [np.asarray(m, dtype=np.complex128) for m in actual]
    ideal = [np.asarray(m, dtype=np.complex128) for m in ideal]
    d = actual[0].shape[0]
    for name, elems in (("actual", actual), ("ideal", ideal)):
        dev = np.linalg.norm(sum(elems) - np.eye(d))
        if not dev <= 1e-9:
            raise Mismatch(f"{name} POVM sums to I only within {dev:.3e}")
    if variant == "Fp":
        acc = 0.0
        for pk, pik in zip(actual, ideal):
            tr_a, tr_i = np.trace(pk).real, np.trace(pik).real
            if tr_a <= 0.0 or tr_i <= 0.0:
                continue
            acc += _uhlmann_trace(pk, pik) ** 2 / math.sqrt(tr_i * tr_a)
        return acc / d
    if variant == "FpTilde":
        acc = sum(_uhlmann_trace(pk, pik) for pk, pik in zip(actual, ideal))
        return (acc / d) ** 2
    raise ValueError(f"unknown POVM fidelity variant {variant!r}")


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
    if not (_is_rank1(chi_ideal_unitary) and _is_trace_preserving(chi_ideal_unitary)):
        raise ValueError("average state fidelity requires a unitary ideal")
    if not _is_trace_preserving(chi):
        raise ValueError("process is not trace-preserving")
    w = np.linalg.eigvalsh((chi.chi + adjoint(chi.chi)) / 2)
    if w[0] < -1e-8:
        raise ValueError(f"process matrix has eigenvalue {w[0]:.3e}")
    f6 = float(np.trace(chi.chi @ chi_ideal_unitary.chi).real)
    return (d * f6 + 1.0) / (d + 1.0)


def process_set_to_json(ps: ProcessSet) -> str:
    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "dim": ps.dim,
            "outcomes": [
                {"label": label, "p": chi.trace, "chi": matrix_to_json(chi.chi)}
                for label, chi in ps.outcomes
            ],
        },
        indent=2,
    )


def process_set_from_json(text: str) -> ProcessSet:
    data = json.loads(text)
    check_version(data, "process set")
    d = require_key(data, "dim", int)
    return ProcessSet(
        outcomes=tuple(
            (
                require_key(o, "label", str),
                ProcessMatrix(dim=d, chi=matrix_from_json(require_key(o, "chi"), d * d)),
            )
            for o in require_key(data, "outcomes", list)
        )
    )


def fidelity_report(actual: ProcessSet, ideal: ProcessSet) -> dict:
    """All fidelity variants between two process sets, keyed by name."""
    pairs = _paired(actual, ideal)
    partials = {}
    for (label, a_chi), (_, i_chi) in zip(actual.outcomes, ideal.outcomes):
        if a_chi.trace <= 0.0 and i_chi.trace > 0.0:
            partials[label] = {"F": 0.0, "failed": True}
        elif i_chi.trace <= 0.0:
            partials[label] = {"F": None, "failed": False}
        else:
            partials[label] = {
                "F": partial_fidelity(a_chi, i_chi),
                "failed": False,
            }
    povm_actual = [povm_from_process(chi) for _, chi in actual.outcomes]
    povm_ideal = [povm_from_process(chi) for _, chi in ideal.outcomes]
    return {
        "partial": partials,
        "total_sum": total_fidelity(actual, ideal, variant="sum"),
        "total_sqrt_squared": total_fidelity(actual, ideal, variant="sqrt_squared"),
        "povm_Fp": povm_fidelity(povm_actual, povm_ideal, variant="Fp"),
        "povm_FpTilde": povm_fidelity(povm_actual, povm_ideal, variant="FpTilde"),
        "p_actual": list(actual.probabilities),
        "p_ideal": list(ideal.probabilities),
        "labels": list(actual.labels),
    }
