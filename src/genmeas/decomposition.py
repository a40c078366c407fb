"""Reduction of arbitrary purity-preserving measurements to partial projections.

Any two-outcome pair {N0, N1} with N0^dag N0 + N1^dag N1 = I shares a
right singular basis, so both factor as N_k = U_k D_k V^dag with the same
V and with diagonal factors that form a standardized partial projection
pair. An n-outcome Kraus set {M_k} then reduces to a chain of at most
n - 1 such two-outcome steps: step k measures

    N0^(k) = M_k [N1^(0)]^{-1} ... [N1^(k-1)]^{-1},
    N1^(k) = sqrt(I - |N0^(k)|^2) = V D1 V^dag,

halting on outcome 0 with net effect M_k and otherwise continuing; a final
unitary aligns the last branch with M_{n-1}.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .continuous_readout import _grid, _readout_instrument
from .errors import InaccurateBranch, Infeasible, NotComplete, SingularRemainder
from .linalg import adjoint, is_unitary, phase_distance, psd_sqrt
from .partial_projection import (
    ZERO_BRANCH_TOL,
    PartialProjParams,
    dops,
    validate_state,
)
from .serialize import (
    FORMAT_VERSION, check_version, dump, matrices_from_json, matrix_to_json, require_distinct,
    require_key,
)

COMPLETENESS_TOL = 1e-9
SINGULAR_CUTOFF = 1e-8
UNIT_SNAP = 1e-12
BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class KrausSet:
    """Ordered measurement operators M_k with outcome labels."""

    ops: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.ops) < 1:
            raise ValueError("a Kraus set needs at least one operator")
        if len(self.labels) != len(self.ops):
            raise ValueError("one label per operator required")
        require_distinct(self.labels)

    @property
    def n(self) -> int:
        return len(self.ops)


def kraus_set(ops, labels=None) -> KrausSet:
    """Convenience constructor with default labels '0', '1', ..."""
    ops = tuple(np.asarray(m, dtype=np.complex128) for m in ops)
    if labels is None:
        labels = tuple(str(i) for i in range(len(ops)))
    return KrausSet(ops=ops, labels=tuple(labels))


@dataclass(frozen=True)
class TwoOutcomeStep:
    """One step of a protocol: V^dag, then (p, q), then U_0 or U_1."""

    pre_unitary: np.ndarray
    params: PartialProjParams
    post_unitary_0: np.ndarray
    post_unitary_1: np.ndarray

    @functools.cached_property
    def post_unitaries(self) -> np.ndarray:
        """(U_0, U_1) as one read-only (2, 2, 2) stack."""
        u = np.stack([self.post_unitary_0, self.post_unitary_1])
        u.flags.writeable = False
        return u

    @functools.cached_property
    def branch_operators(self) -> np.ndarray:
        """(U_0 D_0 V^dag, U_1 D_1 V^dag) as one read-only (2, 2, 2) stack, built once."""
        ops = self.post_unitaries @ np.stack(dops(self.params)) @ adjoint(self.pre_unitary)
        ops.flags.writeable = False
        return ops

    def branch_operator(self, outcome: int) -> np.ndarray:
        return self.branch_operators[0 if outcome == 0 else 1]


@dataclass(frozen=True)
class MeasurementProtocol:
    """Chain of two-outcome steps realizing an n-outcome measurement.

    ``leaf_labels[k]`` for k < len(steps) names the outcome reached by
    halting with result 0 at step k; the last entry names the final branch
    (all results 1), to which ``final_unitary`` is applied.
    """

    steps: tuple[TwoOutcomeStep, ...]
    final_unitary: np.ndarray
    leaf_labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.leaf_labels) != len(self.steps) + 1:
            raise ValueError("need one leaf label per step plus the final branch")
        require_distinct(self.leaf_labels)

    @functools.cached_property
    def branches(self) -> np.ndarray:
        """Ordered operator product along each leaf's branch, in leaf order, as one
        read-only (n, 2, 2) stack: one pass over the steps' branch operators."""
        out = np.empty((len(self.leaf_labels), 2, 2), dtype=np.complex128)
        chain = np.eye(2, dtype=np.complex128)
        for k, step in enumerate(self.steps):
            out[k], chain = step.branch_operators @ chain
        out[-1] = self.final_unitary @ chain
        out.flags.writeable = False
        return out


def completeness_deviation(ops) -> float:
    d = ops[0].shape[0]
    total = sum(adjoint(m) @ m for m in ops)
    return float(np.linalg.norm(total - np.eye(d)))


def validate_kraus_set(s: KrausSet, tol: float = COMPLETENESS_TOL) -> None:
    """Raise ``NotComplete`` if sum_k M_k^dag M_k deviates from I beyond tol (or is NaN)."""
    dev = completeness_deviation(s.ops)
    if not dev <= tol:
        raise NotComplete(dev)


def _factor(n0: np.ndarray) -> tuple[np.ndarray, PartialProjParams, np.ndarray]:
    """One SVD N0 = U0 D0 V^dag of a contraction: (U0, (p, q), V).

    p = s_hi^2 and q = 1 - s_lo^2, so p + q >= 1. Singular values of N0, not
    eigenvalues of N0^dag N0, keep a zero one zero instead of sqrt(round-off).
    An s^2 within UNIT_SNAP of 1 is 1: D1 = sqrt(1 - s^2) would turn the
    round-off of a rank-deficient remainder into an amplitude of about 1e-8.
    """
    u0, sv, vh = np.linalg.svd(n0)
    w = sv**2
    if not w[0] <= 1.0 + 1e-9:
        raise ValueError(f"|N0|^2 has eigenvalue {w[0]} > 1")
    w[w > 1.0 - UNIT_SNAP] = 1.0
    return u0, PartialProjParams(p=float(w[0]), q=float(1.0 - w[1])), adjoint(vh)


def svd_decompose_pair(n0: np.ndarray, n1: np.ndarray) -> TwoOutcomeStep:
    """Factor a complete two-outcome pair as N_k = U_k D_k V^dag.

    One SVD of N0 gives U0, V and (p, q) with p + q >= 1 (:func:`_factor`),
    which keeps the continuous-readout thresholds on the right sides of
    zero; the shared V also diagonalizes |N1|, so U1 follows from N1 V.
    """
    n0 = np.asarray(n0, dtype=np.complex128)
    n1 = np.asarray(n1, dtype=np.complex128)
    dev = completeness_deviation([n0, n1])
    if not dev <= COMPLETENESS_TOL:
        raise NotComplete(dev)
    u0, params, v = _factor(n0)
    u1 = _left_unitary(n1, v, np.sqrt([1.0 - params.p, params.q]))
    return TwoOutcomeStep(v, params, u0, u1)


def _left_unitary(n: np.ndarray, v: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Unitary U with N = U diag V^dag, completing columns at zero singular values.

    Column i of the larger singular value is N v_i normalized; the other is
    its orthogonal complement, phased like N v_j when d_j is nonzero. Taking
    N v_j / d_j instead leaves U far from unitary when d_j is round-off.
    """
    i = 0 if diag[0] >= diag[1] else 1
    if diag[i] <= 1e-9:
        return np.eye(2, dtype=np.complex128)
    nv = n @ v
    a = nv[:, i] / np.sqrt(np.vdot(nv[:, i], nv[:, i]).real)
    # Orthogonal complement of (a0, a1) in C^2.
    b = np.array([-a[1].conj(), a[0].conj()])
    t = complex(np.vdot(b, nv[:, 1 - i]))
    if diag[1 - i] > 1e-9 and t:
        b *= t / abs(t)
    u = np.empty((2, 2), dtype=np.complex128)
    u[:, i], u[:, 1 - i] = a, b
    return u


def remainder(n0: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """PSD completion sqrt(I - N0^dag N0) of a contraction N0."""
    n0 = np.asarray(n0, dtype=np.complex128)
    g = adjoint(n0) @ n0
    w = np.linalg.eigvalsh((g + adjoint(g)) / 2)
    if not w[-1] <= 1.0 + tol:
        raise ValueError(f"|N0|^2 has eigenvalue {w[-1]} > 1")
    eye = np.eye(n0.shape[0], dtype=np.complex128)
    return psd_sqrt(eye - g, tol=tol)


def _aligning_unitary(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unitary W with W c = g, given |c| = |g|: W = U_g U_c^dag from one SVD c = U_c S V^dag."""
    uc, sv, vh = np.linalg.svd(c)
    return _left_unitary(g, adjoint(vh), sv) @ adjoint(uc)


def reduce(
    s: KrausSet,
    order: tuple[int, ...] | None = None,
    cancel_u1: bool = False,
) -> MeasurementProtocol:
    """Build a measurement protocol realizing the Kraus set.

    ``order`` permutes the outcomes before the reduction; different orders
    give different (equally valid) protocols, and a near-projective
    intermediate can make one order fail with ``SingularRemainder`` while
    another succeeds. With ``cancel_u1`` each step's unitary freedom is
    used to absorb U_1 into the remainder, leaving post_unitary_1 = I.

    Each step is one SVD, N0 = U0 D0 V^dag (:func:`_factor`); its remainder
    sqrt(I - |N0|^2) is V D1 V^dag, so U1 = V, and the chain and its inverse
    take U1 D1 V^dag and V D1^-1 U1^dag. The set is checked once, on entry;
    n outcomes cost n SVDs, the last one aligning the final branch.

    ``UNIT_SNAP`` drops a real leak amplitude below 1e-6. Worst branch deviation
    over 200 rotated pairs per column, q = 1 - (1 - p) U(0.1, 1):

        1 - p        1e-4     1e-6     1e-8     1e-10    1e-12
        deviation    7.8e-14  7.2e-13  8.3e-12  6.7e-11  1.0e-6
    """
    validate_kraus_set(s)
    n = s.n
    if order is None:
        order = tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    ops = [s.ops[i] for i in order]
    labels = [s.labels[i] for i in order]

    eye = np.eye(2, dtype=np.complex128)
    steps: list[TwoOutcomeStep] = []
    chain_inv = eye  # [N1^(0)]^{-1} ... [N1^(k-1)]^{-1}
    chain = eye  # N1^(k-1) ... N1^(0)
    for k in range(n - 1):
        u0, params, v = _factor(ops[k] @ chain_inv)
        u1 = eye if cancel_u1 else v
        steps.append(TwoOutcomeStep(v, params, u0, u1))
        d1 = np.sqrt([1.0 - params.p, params.q])
        chain = (u1 * d1) @ adjoint(v) @ chain
        if k < n - 2:
            # The last remainder's inverse is never needed; it may be
            # singular when M_{n-1} is rank-deficient (e.g. projective).
            if d1.min() < SINGULAR_CUTOFF:
                raise SingularRemainder(k, d1.min())
            chain_inv = chain_inv @ (v / d1) @ adjoint(u1)
    final_unitary = _aligning_unitary(ops[-1], chain) if n > 1 else ops[0]
    return MeasurementProtocol(
        steps=tuple(steps),
        final_unitary=final_unitary,
        leaf_labels=tuple(labels),
    )


def compose_branch(p: MeasurementProtocol, leaf: str) -> np.ndarray:
    """Ordered operator product along the branch ending at ``leaf``, read-only
    (a row of :attr:`MeasurementProtocol.branches`)."""
    try:
        k = p.leaf_labels.index(leaf)
    except ValueError:
        raise ValueError(f"no leaf labeled {leaf!r}") from None
    return p.branches[k]


def branch_deviation(p: MeasurementProtocol, leaf: str, target: np.ndarray) -> float:
    """Frobenius deviation of a branch composition from its target, phase-aligned."""
    return phase_distance(target, compose_branch(p, leaf))


def branch_deviations(p: MeasurementProtocol, s: KrausSet) -> dict[str, float]:
    """:func:`branch_deviation` of each leaf of ``s`` from its Kraus operator, in order.

    ``InaccurateBranch`` (exit 3) for the first one above ``BRANCH_TOL`` (1e-9), which
    ``UNIT_SNAP`` can leave near projective steps (1.0e-6, see :func:`reduce`).
    """
    devs = {label: branch_deviation(p, label, m) for label, m in zip(s.labels, s.ops)}
    for label, dev in devs.items():
        if not dev <= BRANCH_TOL:
            raise InaccurateBranch(label, dev, BRANCH_TOL)
    return devs


@functools.lru_cache(maxsize=64)
def _ancilla_kraus(variant: str, p: float, q: float) -> np.ndarray:
    """Circuit Kraus pair of one step as a read-only (2, 2, 2) stack, cached:
    sampling loops revisit a few (p, q)."""
    from .ancilla_circuit import circuit_from_pq, kraus_from_circuit

    pair = np.stack(kraus_from_circuit(circuit_from_pq(variant, PartialProjParams(p, q))))
    pair.flags.writeable = False
    return pair


def _leaf_table(
    p: MeasurementProtocol, rho: np.ndarray, backend: str, readout_config=None
) -> tuple[list[float], list[np.ndarray | None]]:
    """Halting probability of each step on the surviving branch, and the leaf states.

    A step is its backend's Kraus pair K_b, outcome b's coherence scaled by kappa_b
    (below 1 only on the continuous backend at efficiency < 1), both outcomes as one
    (2, 2, 2) stack: A = K V^dag, A rho A^dag, then U_b out_b U_b^dag. A shot halts at
    the first step k whose uniform draw is below ``halt[k]``, else it reaches leaf
    ``len(halt)``. A leaf of probability below ``ZERO_BRANCH_TOL`` has state None,
    and a surviving branch below it ends the walk.
    """
    if backend == "continuous" and readout_config is None:
        raise ValueError("continuous backend requires a ReadoutConfig")
    if backend not in ("exact", "continuous") and not backend.startswith("ancilla"):
        raise ValueError(f"unknown backend {backend!r}")
    variant = backend.split("-", 1)[1] if "-" in backend else "direct"
    halt, states = [], []
    for step in p.steps:
        pq = step.params
        if backend == "exact":
            k = np.stack(dops(pq))
        elif backend == "continuous":
            cfg = readout_config
            pair, kappa = _readout_instrument(pq, cfg.alpha, cfg.efficiency, *_grid(cfg))
            k = np.stack(pair)
        else:
            k = _ancilla_kraus(variant, pq.p, pq.q)
        a = k @ adjoint(step.pre_unitary)
        out = a @ rho @ adjoint(a)
        if backend == "continuous":
            out[:, 0, 1] *= kappa
            out[:, 1, 0] *= kappa
        h, survive = np.trace(out, axis1=1, axis2=2).real.tolist()
        u = step.post_unitaries
        out = u @ out @ adjoint(u)
        halt.append(h)
        states.append(out[0] / h if h >= ZERO_BRANCH_TOL else None)
        if survive < ZERO_BRANCH_TOL:
            return halt, states + [None]
        rho = out[1] / survive
    return halt, states + [p.final_unitary @ rho @ adjoint(p.final_unitary)]


def _leaf_state(p: MeasurementProtocol, states: list, k: int) -> np.ndarray:
    if states[k] is None:
        label = p.leaf_labels[k]
        raise Infeasible(f"leaf {label!r} has probability < {ZERO_BRANCH_TOL}")
    return states[k]


def execute_protocol(
    p: MeasurementProtocol,
    initial: np.ndarray,
    rng: np.random.Generator | int,
    backend: str = "exact",
    readout_config=None,
) -> tuple[str, np.ndarray]:
    """Run the protocol once and return (leaf label, collapsed state).

    ``backend`` selects how each two-outcome step is realized: "exact"
    (direct partial projection), "ancilla-direct" / "ancilla-cphase" /
    "ancilla-fixed_cz" (circuit Kraus pairs), or "continuous" (run-averaged
    thresholded readout; needs ``readout_config`` and finite thresholds). The
    shot reads the leaf table of ``sample_protocol`` with uniforms from ``rng``,
    one per step until it halts.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    halt, states = _leaf_table(p, validate_state(initial), backend, readout_config)
    k = 0
    while k < len(halt) and rng.random() >= halt[k]:
        k += 1
    return p.leaf_labels[k], _leaf_state(p, states, k)


def sample_protocol(
    p: MeasurementProtocol,
    initial: np.ndarray,
    shots: int,
    seed: int,
    backend: str = "exact",
    readout_config=None,
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """Histogram and per-leaf mean final states over ``shots`` runs.

    Seeding contract: the leaf table is built once per call, also at shots=0,
    and shot i is only its draws, one uniform per step: from a generator seeded
    from (seed, i) on the exact and ancilla backends, row i of
    ``default_rng(seed).random((shots, steps))`` on the continuous one. Shot i
    of n is shot i of m, and a leaf's mean is its state. A shot that reaches a
    leaf of probability below ``ZERO_BRANCH_TOL`` raises ``Infeasible``.
    """
    if shots < 0:
        raise ValueError(f"shot count must be >= 0, got {shots}")
    halt, states = _leaf_table(p, validate_state(initial), backend, readout_config)
    if backend == "continuous":
        draws = np.random.default_rng(seed).random((shots, len(halt)))
    else:
        draws = np.empty((shots, len(halt)))
        for i in range(shots):
            np.random.default_rng([seed, i]).random(out=draws[i])
    leaf = np.logical_and.accumulate(draws >= halt, axis=1).sum(axis=1)
    counts = np.bincount(leaf, minlength=len(p.leaf_labels)).tolist()
    means = {p.leaf_labels[k]: _leaf_state(p, states, k) for k in np.flatnonzero(counts)}
    return dict(zip(p.leaf_labels, counts)), means


def random_kraus_set(
    n: int, rng: np.random.Generator, labels=None
) -> KrausSet:
    """Random n-outcome purity-preserving qubit Kraus set.

    Draws n - 1 random contractions scaled to keep their squared sum below
    the identity, completes the set with the PSD square root of the identity minus
    their squared sum (:func:`~genmeas.linalg.psd_sqrt`), and rotates each
    operator by an independent random unitary.
    """
    raw = [
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(n - 1)
    ]
    if n > 1:
        total = sum(adjoint(a) @ a for a in raw)
        lam_max = np.linalg.eigvalsh(total)[-1]
        scale = np.sqrt(rng.uniform(0.2, 0.9) / lam_max)
        ops = [scale * a for a in raw]
        g = np.eye(2, dtype=np.complex128) - sum(adjoint(a) @ a for a in ops)
        ops.append(psd_sqrt(g))
    else:
        ops = [np.eye(2, dtype=np.complex128)]
    ops = [random_unitary(rng) @ m for m in ops]
    return kraus_set(ops, labels)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random unitary via QR with phase-fixed diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def protocol_to_json(p: MeasurementProtocol) -> str:
    """Serialize per the protocol schema; matrices row-major [[re, im], ...]."""
    return dump(
        {
            "format_version": FORMAT_VERSION,
            "steps": [
                {
                    "pre_unitary": matrix_to_json(s.pre_unitary),
                    "p": s.params.p,
                    "q": s.params.q,
                    "post_unitary_0": matrix_to_json(s.post_unitary_0),
                    "post_unitary_1": matrix_to_json(s.post_unitary_1),
                }
                for s in p.steps
            ],
            "final_unitary": matrix_to_json(p.final_unitary),
            "leaf_labels": list(p.leaf_labels),
        }
    )


def protocol_from_json(text: str) -> MeasurementProtocol:
    """Read a protocol document; ``ValueError`` if a unitary in it is not unitary
    within ``COMPLETENESS_TOL`` (a one-operator complete set)."""
    data = json.loads(text)
    check_version(data, "protocol")
    rows, params = [], []  # each step's three unitaries in turn, then the final one
    for s in require_key(data, "steps", list):
        rows.append(require_key(s, "pre_unitary"))
        params.append(PartialProjParams(require_key(s, "p", float), require_key(s, "q", float)))
        rows += [require_key(s, "post_unitary_0"), require_key(s, "post_unitary_1")]
    rows.append(require_key(data, "final_unitary"))
    unitaries = matrices_from_json(rows, 2)
    if not is_unitary(unitaries, tol=COMPLETENESS_TOL):
        raise ValueError("a protocol unitary is not unitary")
    labels = require_key(data, "leaf_labels", list)
    if not all(isinstance(label, str) for label in labels):
        raise ValueError("expected 'leaf_labels' to be a list of strings")
    steps = tuple(
        TwoOutcomeStep(unitaries[3 * k], pq, unitaries[3 * k + 1], unitaries[3 * k + 2])
        for k, pq in enumerate(params)
    )
    return MeasurementProtocol(
        steps=steps, final_unitary=unitaries[-1], leaf_labels=tuple(labels)
    )
