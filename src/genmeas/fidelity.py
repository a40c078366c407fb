"""Fidelity measures for generalized multiple-outcome measurements.

A qubit operation is represented by its 4 x 4 process matrix chi in the
Pauli basis, rho -> sum_ij chi_ij E_i rho E_j^dag. For a measurement,
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
import math
from dataclasses import dataclass

import numpy as np

from .errors import Mismatch
from .linalg import (
    CHI_TO_POVM, PAULI_BASIS, hermitian_part, identity_deviation, pauli_expand, psd_sqrt,
    read_only, require_psd,
)
from .partial_projection import validate_state
from .serialize import (
    FORMAT_VERSION, check_version, dump, loads, matrices_from_json, matrix_to_json,
    require_distinct, require_key,
)

# Eigenvalues down to -UHLMANN_CLAMP pass the POVM check, and down to -PSD_TOL
# the state and process-matrix checks; the Uhlmann square roots clamp both to 0.
UHLMANN_CLAMP = 1e-10
PSD_TOL = 1e-8
# F6 and F7 need both traces within UNIT_TRACE_TOL of 1; a POVM must sum to I within
# POVM_SUM_TOL, and the average state fidelity's process and ideal be trace-preserving
# within TP_TOL (Frobenius distance of their POVM from I).
UNIT_TRACE_TOL = 1e-9
POVM_SUM_TOL = 1e-9
TP_TOL = 1e-8
# A state is pure when Tr(rho^2) is within PURITY_TOL of 1, and a process matrix rank-1
# when its other eigenvalues are within RANK1_TOL of 0 relative to the largest.
PURITY_TOL = 1e-12
RANK1_TOL = 1e-12
# A classical fidelity's inputs must each sum to 1 within PROB_SUM_TOL.
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProcessMatrix:
    """4 x 4 process matrix of a qubit operation in the Pauli basis, finite and read-only
    (:func:`~genmeas.linalg.read_only`), so that the checks and the cached ``trace`` hold
    for its lifetime."""

    chi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "chi", read_only(self.chi))
        if self.chi.shape != (4, 4):
            raise ValueError(f"chi shape {self.chi.shape} is not (4, 4)")
        if not np.isfinite(self.chi).all():
            raise ValueError("chi entries must be finite")

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

    def chis(self) -> np.ndarray:
        """The outcomes' chi as one (n, 4, 4) stack."""
        return np.array([chi.chi for _, chi in self.outcomes])


def chi_from_kraus(ops, d: int = 2) -> ProcessMatrix:
    """Process matrix of the channel rho -> sum_m K_m rho K_m^dag; ``ops`` is a
    list or (r, 2, 2) stack of Kraus operators. ``d`` must be 2."""
    if d != 2:
        raise ValueError(f"process matrices are of qubit operations, d = 2, got d = {d}")
    alpha = pauli_expand(ops)
    chi = alpha.T @ alpha.conj()
    chi.setflags(write=False)
    return ProcessMatrix(chi=chi)


def process_set_from_kraus(ops, labels) -> ProcessSet:
    """Per-outcome single-Kraus process set (a purity-preserving measurement):
    chi^(k) = alpha_k alpha_k^dag from one expansion of all the operators."""
    alpha = pauli_expand(ops)
    chis = alpha[..., :, None] * alpha.conj()[..., None, :]
    chis.setflags(write=False)
    return ProcessSet(outcomes=tuple((label, ProcessMatrix(chi=c)) for label, c in zip(labels, chis)))


def apply_process(chi: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Evaluate rho -> sum_ij chi_ij E_i rho E_j^dag."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError(f"state shape {rho.shape}, expected (2, 2)")
    return np.einsum("ij,iab,bc,jdc->ad", chi.chi, PAULI_BASIS, rho, PAULI_BASIS.conj())


def _povms(chis: np.ndarray) -> np.ndarray:
    """POVM elements P = sum_ij chi_ij E_j^dag E_i (..., 2, 2) of a stack of process
    matrices (..., 4, 4), one matmul against CHI_TO_POVM; Tr P = 2 Tr chi."""
    return (chis.reshape(chis.shape[:-2] + (16,)) @ CHI_TO_POVM).reshape(chis.shape[:-2] + (2, 2))


def classical_fidelity(a, b, variant: str = "bhattacharyya") -> float:
    """Classical fidelity / distance between two probability distributions.

    Variants: "bhattacharyya" (F1 = sum sqrt(a_k b_k)), "squared"
    (F2 = F1^2), "kolmogorov" (a distance, (1/2) sum |a_k - b_k|). ``ValueError``
    unless both are finite, non-negative and sum to 1 within ``PROB_SUM_TOL``; each
    result is at most 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"lengths {a.shape} vs {b.shape}")
    for x in (a, b):  # NaN and inf fail one of the two comparisons
        if not (np.all(x >= 0.0) and abs(x.sum() - 1.0) <= PROB_SUM_TOL):
            raise ValueError(f"{x.tolist()} is not a probability distribution: finite, "
                             f"non-negative entries summing to 1 within {PROB_SUM_TOL:g}")
    if variant == "kolmogorov":
        return min(float(0.5 * np.sum(np.abs(a - b))), 1.0)
    f1 = min(float(np.sum(np.sqrt(a * b))), 1.0)
    if variant == "bhattacharyya":
        return f1
    if variant == "squared":
        return f1 * f1
    raise ValueError(f"unknown classical fidelity variant {variant!r}")


def _overlap(chi: np.ndarray, chi_ideal: np.ndarray):
    """The overlap Tr(chi chi~), real, of a pair of matrices or of each pair of stacks
    (..., d, d): F6 at unit traces, F8 and F9 times t t~ for a rank-1 ideal, and the
    squared state fidelity Tr(rho sigma) when a state is pure."""
    return (chi * chi_ideal.swapaxes(-1, -2)).sum(axis=(-2, -1)).real


def _uhlmann_trace(rho: np.ndarray, sigma: np.ndarray):
    """Tr sqrt(sqrt(sigma) rho sqrt(sigma)), one per pair for stacks (..., d, d): the
    singular values of sqrt(rho) sqrt(sigma) keep full precision at rank-deficient
    states, where eigenvalues of sqrt(sigma) rho sqrt(sigma) would keep half the digits."""
    roots = psd_sqrt(np.stack([rho, sigma]), tol=PSD_TOL)
    return np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum(axis=-1)


def _is_pure(rho: np.ndarray) -> bool:
    return abs(_overlap(rho, rho) - 1.0) <= PURITY_TOL


def state_fidelity(rho, sigma, variant: str = "uhlmann") -> float:
    """Uhlmann fidelity F3 = Tr sqrt(sqrt(sigma) rho sqrt(sigma)), or its square F4.

    When either state is pure the fidelity reduces exactly to the overlap,
    F3^2 = Tr(rho sigma), which is evaluated directly (the general Uhlmann
    route loses a couple of digits to the matrix square roots).
    """
    rho = validate_state(rho, tol=PSD_TOL)
    sigma = validate_state(sigma, tol=PSD_TOL)
    if _is_pure(rho) or _is_pure(sigma):
        f3 = math.sqrt(max(_overlap(rho, sigma), 0.0))
    else:
        f3 = _uhlmann_trace(rho, sigma)
    f3 = min(f3, 1.0)  # round-off of states the validator accepts can exceed 1
    if variant == "uhlmann":
        return f3
    if variant == "uhlmann_squared":
        return f3 * f3
    raise ValueError(f"unknown state fidelity variant {variant!r}")


def _traces(m: np.ndarray) -> np.ndarray:
    """Real traces of a stack of matrices (..., d, d)."""
    return np.trace(m, axis1=-2, axis2=-1).real


def _rank1(w: np.ndarray) -> np.ndarray:
    """Per row of ascending eigenvalues (..., 4): whether every other eigenvalue is
    within ``RANK1_TOL`` of 0 relative to the largest. F9's trace formula is off by about
    twice their sum over the largest."""
    return np.all(np.abs(w[..., :-1]) <= RANK1_TOL * w[..., -1:], axis=-1)


def _f9(chi: np.ndarray, chi_ideal: np.ndarray, t: np.ndarray, ti: np.ndarray):
    """F9 of each pair of stacks (n, 4, 4) with positive traces t, ti (n,), and
    whether each ideal is rank-1. A rank-1 ideal takes the trace formula (F8),
    Tr(chi chi~) / (t t~), exact without the Uhlmann route's square-root round-off;
    the other rows take one stacked Uhlmann call. Round-off above 1 is clipped."""
    rank1 = _rank1(np.linalg.eigvalsh(hermitian_part(chi_ideal)))
    F = np.maximum(_overlap(chi, chi_ideal), 0.0)
    if not rank1.all():
        u = _uhlmann_trace(chi[~rank1], chi_ideal[~rank1])
        F[~rank1] = u * u
    return np.minimum(F / (t * ti), 1.0), rank1


def process_fidelity(
    chi: ProcessMatrix, chi_ideal: ProcessMatrix, variant: str = "F6"
) -> float:
    """Process fidelities F6-F9.

    F6 = Tr(chi chi_ideal) and F7 (its Uhlmann form) require both traces
    to be 1; F8 and F9 are their selection-normalized counterparts for
    non-trace-preserving processes. F8 requires a rank-1 (purity-preserving)
    ideal; F9 is fully general and reduces to F8 for rank-1 ideals. At unit
    traces F7 is F9 and is computed as F9: the trace formula for a rank-1
    ideal, the Uhlmann route otherwise.
    """
    t, ti = chi.trace, chi_ideal.trace
    unit = abs(t - 1.0) <= UNIT_TRACE_TOL and abs(ti - 1.0) <= UNIT_TRACE_TOL
    if variant in ("F6", "F7") and not unit:
        raise ValueError(f"traces ({t}, {ti}) must both be 1 for {variant}")
    if variant == "F6":  # clipped: round-off within the trace checks
        return min(max(float(_overlap(chi.chi, chi_ideal.chi)), 0.0), 1.0)
    if variant not in ("F7", "F8", "F9"):
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


def _family(w, F, alpha: float) -> float:
    """[sum_{w_k > 0} w_k max(F_k, 0)^alpha]^(1/alpha) up to 1, on Python floats (lists
    ``w`` and ``F``): every total and POVM fidelity."""
    total = sum(wk * max(fk, 0.0) ** alpha for wk, fk in zip(w, F) if wk > 0.0)
    return min(total ** (1.0 / alpha), 1.0)


def _partials(actual: ProcessSet, ideal: ProcessSet):
    """Weights sqrt(p_k p~_k), partial fidelities F_k (F9) and both sides' probabilities
    as lists of Python floats, and both sides' chi stacks; F_k is 0 for a failed outcome
    (p_k = 0 < p~_k) and NaN where p~_k = 0. One stacked F9 pass over the outcomes scored."""
    if actual.labels != ideal.labels:
        raise Mismatch(f"outcome labels differ: {actual.labels} vs {ideal.labels}")
    chi, chi_ideal = actual.chis(), ideal.chis()
    p, p_ideal = _traces(chi), _traces(chi_ideal)
    F = np.where(p_ideal > 0.0, 0.0, np.nan)
    scored = (p > 0.0) & (p_ideal > 0.0)
    if scored.any():
        F[scored] = _f9(chi[scored], chi_ideal[scored], p[scored], p_ideal[scored])[0]
    w = np.sqrt(np.clip(p, 0.0, None) * np.clip(p_ideal, 0.0, None))
    return w.tolist(), F.tolist(), p.tolist(), p_ideal.tolist(), chi, chi_ideal


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
    "sqrt_squared" alpha = 1/2 and "parametric" the caller's finite ``alpha`` > 0. For a
    purity-preserving ideal, "sum" is sum_k Tr(chi~^(k) chi^(k)) / sqrt(p_k p~_k)
    and "sqrt_squared" is [sum_k sqrt(Tr(chi~^(k) chi^(k)))]^2.

    An outcome with zero probability on either side contributes nothing: a
    zero-probability actual outcome against a nonzero ideal one is a failed outcome.
    """
    if variant != "parametric":
        if variant not in _TOTAL_ALPHA:
            raise ValueError(f"unknown total fidelity variant {variant!r}")
        alpha = _TOTAL_ALPHA[variant]
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return _family(*_partials(actual, ideal)[:2], alpha)


def _povm_terms(actual: np.ndarray, ideal: np.ndarray):
    """Weights sqrt(Tr P_k Tr Pi_k)/2 and terms u_k^2/(Tr P_k Tr Pi_k) of the POVM
    fidelities for stacks (n, 2, 2) of elements, from one Uhlmann call, as lists."""
    tr = _traces(actual) * _traces(ideal)
    u = _uhlmann_trace(actual, ideal)
    F = np.divide(u * u, tr, out=np.zeros_like(u), where=tr > 0.0)
    return (np.sqrt(np.clip(tr, 0.0, None)) / 2).tolist(), F.tolist()


def povm_fidelity(actual, ideal, variant: str = "Fp") -> float:
    """POVM-only ("probability-only") fidelities of Uhlmann form.

    ``actual`` and ``ideal`` are matching-length lists of PSD 2 x 2 elements P_k
    and Pi_k, each set summing to the identity. Both variants are the family
    [sum_k w_k F_k^alpha]^(1/alpha) with w_k = sqrt(Tr P_k Tr Pi_k)/2 and
    F_k = u_k^2/(Tr P_k Tr Pi_k), u_k = Tr sqrt(sqrt(Pi_k) P_k sqrt(Pi_k)):
    "Fp" (alpha = 1) is (1/2) sum_k u_k^2 / sqrt(Tr P_k Tr Pi_k) and "FpTilde"
    (alpha = 1/2) is [(1/2) sum_k u_k]^2. ``Mismatch`` if the lengths differ or
    a set does not sum to I; ``ValueError`` naming the set if an element is not
    2 x 2, or not Hermitian PSD.
    """
    if variant not in _POVM_ALPHA:
        raise ValueError(f"unknown POVM fidelity variant {variant!r}")
    if len(actual) != len(ideal):
        raise Mismatch(f"{len(actual)} vs {len(ideal)} POVM elements")
    if not len(actual):
        raise ValueError("a POVM needs at least one element")
    for name, elems in (("actual", actual), ("ideal", ideal)):
        shapes = sorted({np.shape(e) for e in elems} - {(2, 2)})
        if shapes:
            raise ValueError(f"{name} POVM elements must be 2 x 2, got {shapes}")
    actual, ideal = (np.asarray(e, dtype=np.complex128) for e in (actual, ideal))
    for name, elems in (("actual", actual), ("ideal", ideal)):
        dev = identity_deviation(elems.sum(axis=0))
        if not dev <= POVM_SUM_TOL:
            raise Mismatch(f"{name} POVM sums to I only within {dev:.3e}")
    require_psd(np.concatenate([actual, ideal]), UHLMANN_CLAMP, "POVM element")
    return _family(*_povm_terms(actual, ideal), _POVM_ALPHA[variant])


def average_state_fidelity(
    chi: ProcessMatrix,
    chi_ideal_unitary: ProcessMatrix,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Haar average of the squared state fidelity against a unitary ideal.

    The squared fidelity of a pure input is quadratic in that input, so its
    Haar average is exact in closed form (Nielsen, quant-ph/0205035): for a
    qubit, Fbar = (2 F6 + 1) / 3 with F6 = Tr(chi chi_ideal). ``samples`` and
    ``seed`` are accepted for compatibility and ignored.

    Raises
    ------
    ValueError
        If the ideal is not unitary (rank-1 and trace-preserving), or if
        ``chi`` is not trace-preserving or not positive semidefinite.
    """
    tp = identity_deviation(_povms(np.stack([chi_ideal_unitary.chi, chi.chi]))) <= TP_TOL
    # eigvalsh refuses NaN, so each chi is decomposed only once it passed its trace test.
    if not (tp[0] and _rank1(np.linalg.eigvalsh(hermitian_part(chi_ideal_unitary.chi)))):
        raise ValueError("average state fidelity requires a unitary ideal")
    if not tp[1]:
        raise ValueError("process is not trace-preserving")
    require_psd(chi.chi, PSD_TOL, "process matrix")
    f6 = float(_overlap(chi.chi, chi_ideal_unitary.chi))
    return min(max((2.0 * f6 + 1.0) / 3.0, 0.0), 1.0)


def process_set_to_json(ps: ProcessSet) -> str:
    return dump(
        {
            "format_version": FORMAT_VERSION,
            "dim": 2,
            "outcomes": [
                {"label": label, "p": chi.trace, "chi": matrix_to_json(chi.chi)}
                for label, chi in ps.outcomes
            ],
        }
    )


def process_set_from_json(text: str) -> ProcessSet:
    """Read a process set of a qubit measurement: its ``"dim"`` must be 2 and each
    chi Hermitian PSD within 1e-8 (:func:`~genmeas.linalg.require_psd`)."""
    data = loads(text)
    check_version(data, "process set")
    d = require_key(data, "dim", int)
    if d != 2:
        raise ValueError(f"process set dim {d} is not 2: only qubit measurements are scored")
    outcomes = require_key(data, "outcomes", list)
    labels = [require_key(o, "label", str) for o in outcomes]
    chis = matrices_from_json([require_key(o, "chi") for o in outcomes], 4)
    chis.setflags(write=False)
    ps = ProcessSet(outcomes=tuple((label, ProcessMatrix(chi=c)) for label, c in zip(labels, chis)))
    require_psd(chis, PSD_TOL, "process matrix")
    return ps


def fidelity_report(actual: ProcessSet, ideal: ProcessSet) -> dict:
    """All fidelity variants between two process sets, keyed by name: the partials
    and the POVM terms are computed once and the family is evaluated on them."""
    w, F, p, p_ideal, chi, chi_ideal = _partials(actual, ideal)
    povm_w, povm_F = _povm_terms(*_povms(np.stack([chi, chi_ideal])))
    return {
        "partial": {
            label: {"F": None if math.isnan(f) else f, "failed": t <= 0.0 < ti}
            for label, f, t, ti in zip(actual.labels, F, p, p_ideal)
        },
        "total_sum": _family(w, F, 1.0),
        "total_sqrt_squared": _family(w, F, 0.5),
        "povm_Fp": _family(povm_w, povm_F, 1.0),
        "povm_FpTilde": _family(povm_w, povm_F, 0.5),
        "p_actual": p,
        "p_ideal": p_ideal,
        "labels": list(actual.labels),
    }
