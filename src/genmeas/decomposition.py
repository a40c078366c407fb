"""Reduction of arbitrary purity-preserving measurements to partial projections.

Any two-outcome pair {N0, N1} with N0^dag N0 + N1^dag N1 = I shares a
right singular basis, so both factor as N_k = U_k D_k V^dag with the same
V and with diagonal factors that form a standardized partial projection
pair. An n-outcome Kraus set {M_k} then reduces to a chain of at most
n - 1 such two-outcome steps: step k measures

    N0^(k) = M_k [N1^(0)]^{-1} ... [N1^(k-1)]^{-1},
    N1^(k) = sqrt(I - |N0^(k)|^2),

halting on outcome 0 with net effect M_k and otherwise continuing; a final
unitary aligns the last branch with M_{n-1}.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NormExceeded, NotComplete, SingularRemainder, UnknownLeaf
from .linalg import adjoint, herm_eig, phase_distance, psd_sqrt
from .partial_projection import (
    PartialProjParams,
    apply_outcome,
    dops,
    outcome_probabilities,
    validate_state,
)

COMPLETENESS_TOL = 1e-9
SINGULAR_CUTOFF = 1e-8


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

    def branch_operator(self, outcome: int) -> np.ndarray:
        d0, d1 = dops(self.params)
        if outcome == 0:
            return self.post_unitary_0 @ d0 @ adjoint(self.pre_unitary)
        return self.post_unitary_1 @ d1 @ adjoint(self.pre_unitary)


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


def completeness_deviation(ops) -> float:
    d = ops[0].shape[0]
    total = sum(adjoint(m) @ m for m in ops)
    return float(np.linalg.norm(total - np.eye(d)))


def validate_kraus_set(s: KrausSet, tol: float = COMPLETENESS_TOL) -> None:
    """Raise ``NotComplete`` if sum_k M_k^dag M_k deviates from I beyond tol."""
    dev = completeness_deviation(s.ops)
    if dev > tol:
        raise NotComplete(dev)


def svd_decompose_pair(n0: np.ndarray, n1: np.ndarray) -> TwoOutcomeStep:
    """Factor a complete two-outcome pair as N_k = U_k D_k V^dag.

    The shared V diagonalizes |N0| (and hence |N1|). Singular values are
    assigned so that the resulting (p, q) satisfy p + q >= 1, which keeps
    the continuous-readout thresholds on the right sides of zero.
    """
    n0 = np.asarray(n0, dtype=np.complex128)
    n1 = np.asarray(n1, dtype=np.complex128)
    dev = completeness_deviation([n0, n1])
    if dev > COMPLETENESS_TOL:
        raise NotComplete(dev)
    w, v = herm_eig(adjoint(n0) @ n0, tol=1e-8)
    # Larger |N0| eigenvalue on the |0> slot: p = w_hi, q = 1 - w_lo, so
    # p + q = 1 + (w_hi - w_lo) >= 1.
    v = v[:, ::-1]
    w = np.clip(w[::-1], 0.0, 1.0)
    params = PartialProjParams(p=float(w[0]), q=float(1.0 - w[1]))
    d0, d1 = dops(params)
    u0 = _left_unitary(n0, v, np.diag(d0).real)
    u1 = _left_unitary(n1, v, np.diag(d1).real)
    return TwoOutcomeStep(
        pre_unitary=v, params=params, post_unitary_0=u0, post_unitary_1=u1
    )


def _left_unitary(n: np.ndarray, v: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Unitary U with N = U diag V^dag, completing columns at zero singular values."""
    u = np.zeros((2, 2), dtype=np.complex128)
    have = []
    for i in range(2):
        if diag[i] > 1e-9:
            u[:, i] = (n @ v[:, i]) / diag[i]
            have.append(i)
    if len(have) == 0:
        return np.eye(2, dtype=np.complex128)
    if len(have) == 1:
        a = u[:, have[0]]
        # Orthogonal complement of (a0, a1) in C^2.
        u[:, 1 - have[0]] = np.array([-a[1].conj(), a[0].conj()])
    return u


def remainder(n0: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """PSD completion sqrt(I - N0^dag N0) of a contraction N0."""
    n0 = np.asarray(n0, dtype=np.complex128)
    g = adjoint(n0) @ n0
    w = np.linalg.eigvalsh((g + adjoint(g)) / 2)
    if w[-1] > 1.0 + tol:
        raise NormExceeded(f"|N0|^2 has eigenvalue {w[-1]} > 1")
    eye = np.eye(n0.shape[0], dtype=np.complex128)
    return psd_sqrt(eye - g, tol=tol)


def _aligning_unitary(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unitary W with W c = g, given |c| = |g| (shared right singular basis)."""
    w, v = herm_eig(adjoint(c) @ c, tol=1e-7)
    d = np.sqrt(np.clip(w, 0.0, None))
    uc = _left_unitary(c, v, d)
    ug = _left_unitary(g, v, d)
    return ug @ adjoint(uc)


def _svd_inverse(m: np.ndarray, step: int) -> np.ndarray:
    u, s, vdag = np.linalg.svd(m)
    if s[-1] < SINGULAR_CUTOFF:
        raise SingularRemainder(step, s[-1])
    return adjoint(vdag) @ np.diag(1.0 / s) @ adjoint(u)


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
        n0k = ops[k] @ chain_inv
        n1k = remainder(n0k)
        step = svd_decompose_pair(n0k, n1k)
        if cancel_u1:
            n1k = adjoint(step.post_unitary_1) @ n1k
            step = TwoOutcomeStep(
                pre_unitary=step.pre_unitary,
                params=step.params,
                post_unitary_0=step.post_unitary_0,
                post_unitary_1=eye,
            )
        steps.append(step)
        chain = n1k @ chain
        if k < n - 2:
            # The last remainder's inverse is never needed; it may be
            # singular when M_{n-1} is rank-deficient (e.g. projective).
            chain_inv = chain_inv @ _svd_inverse(n1k, step=k)
    final_unitary = _aligning_unitary(ops[-1], chain) if n > 1 else ops[0]
    return MeasurementProtocol(
        steps=tuple(steps),
        final_unitary=final_unitary,
        leaf_labels=tuple(labels),
    )


def compose_branch(p: MeasurementProtocol, leaf: str) -> np.ndarray:
    """Ordered operator product along the branch ending at ``leaf``."""
    try:
        k = p.leaf_labels.index(leaf)
    except ValueError:
        raise UnknownLeaf(f"no leaf labeled {leaf!r}") from None
    op = np.eye(2, dtype=np.complex128)
    for j in range(min(k, len(p.steps))):
        op = p.steps[j].branch_operator(1) @ op
    if k < len(p.steps):
        op = p.steps[k].branch_operator(0) @ op
    else:
        op = p.final_unitary @ op
    return op


def branch_deviation(p: MeasurementProtocol, leaf: str, target: np.ndarray) -> float:
    """Frobenius deviation of a branch composition from its target, phase-aligned."""
    return phase_distance(target, compose_branch(p, leaf))


@functools.lru_cache(maxsize=64)
def _ancilla_kraus(variant: str, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Circuit Kraus pair of one step, cached: sampling loops revisit a few (p, q)."""
    from .ancilla_circuit import circuit_from_pq, kraus_from_circuit

    pair = kraus_from_circuit(circuit_from_pq(variant, PartialProjParams(p, q)))
    for k in pair:
        k.flags.writeable = False
    return pair


def _sample_step_outcome(
    step: TwoOutcomeStep,
    rho: np.ndarray,
    rng: np.random.Generator,
    backend: str,
) -> tuple[int, np.ndarray]:
    if backend == "exact":
        p0, _ = outcome_probabilities(step.params, rho)
        outcome = 0 if rng.random() < p0 else 1
        return outcome, apply_outcome(step.params, outcome, rho)
    if backend.startswith("ancilla"):
        variant = backend.split("-", 1)[1] if "-" in backend else "direct"
        k0, k1 = _ancilla_kraus(variant, step.params.p, step.params.q)
        p0 = float(np.trace(k0 @ rho @ adjoint(k0)).real)
        outcome = 0 if rng.random() < p0 else 1
        k = k0 if outcome == 0 else k1
        out = k @ rho @ adjoint(k)
        return outcome, out / np.trace(out).real
    raise ValueError(f"unknown backend {backend!r}")


def _walk_steps(
    p: MeasurementProtocol,
    rho: np.ndarray,
    rng: np.random.Generator,
    backend: str,
) -> tuple[str, np.ndarray]:
    """One shot through the steps on the exact or an ancilla backend; ``rho`` is valid."""
    for k, step in enumerate(p.steps):
        vdag = adjoint(step.pre_unitary)
        rho = vdag @ rho @ step.pre_unitary
        outcome, rho = _sample_step_outcome(step, rho, rng, backend)
        u = step.post_unitary_0 if outcome == 0 else step.post_unitary_1
        rho = u @ rho @ adjoint(u)
        if outcome == 0:
            return p.leaf_labels[k], rho
    rho = p.final_unitary @ rho @ adjoint(p.final_unitary)
    return p.leaf_labels[-1], rho


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
    "ancilla-fixed_cz" (circuit Kraus pairs), or "continuous" (thresholded
    readout; needs ``readout_config`` with finite thresholds at each step).
    The continuous backend is the batched traversal of ``sample_protocol``
    run on one shot with ``rng``.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rho = validate_state(initial)
    if backend == "continuous":
        _, means = _sample_continuous(p, rho, 1, rng, readout_config)
        ((label, rho),) = means.items()
        return label, rho
    return _walk_steps(p, rho, rng, backend)


def sample_protocol(
    p: MeasurementProtocol,
    initial: np.ndarray,
    shots: int,
    seed: int,
    backend: str = "exact",
    readout_config=None,
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """Histogram and per-leaf mean final states over ``shots`` runs.

    Seeding contract: on the exact and ancilla backends shot i uses its own
    generator seeded from (seed, i), so shots are order-independent. The
    continuous backend runs all shots as one batch per protocol step from
    a single generator seeded from ``seed``: the same call gives the same
    result, but shot i of a run of n shots is in general not shot i of a
    run of m.
    """
    if shots < 0:
        raise ValueError(f"shot count must be >= 0, got {shots}")
    rho = validate_state(initial)
    if backend == "continuous":
        return _sample_continuous(
            p, rho, shots, np.random.default_rng(seed), readout_config
        )
    counts: dict[str, int] = {label: 0 for label in p.leaf_labels}
    sums: dict[str, np.ndarray] = {
        label: np.zeros((2, 2), dtype=np.complex128) for label in p.leaf_labels
    }
    for i in range(shots):
        label, out = _walk_steps(p, rho, np.random.default_rng([seed, i]), backend)
        counts[label] += 1
        sums[label] += out
    means = {
        label: sums[label] / counts[label]
        for label in p.leaf_labels
        if counts[label] > 0
    }
    return counts, means


def _sample_continuous(
    p: MeasurementProtocol,
    rho: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    readout_config,
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """Continuous backend: each step is one batched readout of the active shots."""
    from .continuous_readout import readout_walk, thresholds_from_pq

    if readout_config is None:
        raise ValueError("continuous backend requires a ReadoutConfig")
    counts: dict[str, int] = {label: 0 for label in p.leaf_labels}
    means: dict[str, np.ndarray] = {}
    active = np.broadcast_to(rho, (shots, 2, 2))
    for k, step in enumerate(p.steps):
        if not len(active):
            break
        v = step.pre_unitary
        batch = readout_walk(
            readout_config, thresholds_from_pq(step.params),
            adjoint(v) @ active @ v, rng,
        )
        halt = batch.outcome == 0
        u0, u1 = step.post_unitary_0, step.post_unitary_1
        halted = u0 @ batch.final_state[halt] @ adjoint(u0)
        if len(halted):
            counts[p.leaf_labels[k]] = len(halted)
            means[p.leaf_labels[k]] = halted.mean(axis=0)
        active = u1 @ batch.final_state[~halt] @ adjoint(u1)
    if len(active):
        f = p.final_unitary
        counts[p.leaf_labels[-1]] = len(active)
        means[p.leaf_labels[-1]] = (f @ active @ adjoint(f)).mean(axis=0)
    return counts, means


def random_kraus_set(
    n: int, rng: np.random.Generator, labels=None
) -> KrausSet:
    """Random n-outcome purity-preserving qubit Kraus set.

    Draws n - 1 random contractions scaled to keep their squared sum below
    the identity, completes the set via :func:`remainder`, and rotates each
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

    def mat(m):
        return [[[c.real, c.imag] for c in row] for row in m]

    return json.dumps(
        {
            "format_version": "1.0",
            "steps": [
                {
                    "pre_unitary": mat(s.pre_unitary),
                    "p": s.params.p,
                    "q": s.params.q,
                    "post_unitary_0": mat(s.post_unitary_0),
                    "post_unitary_1": mat(s.post_unitary_1),
                }
                for s in p.steps
            ],
            "final_unitary": mat(p.final_unitary),
            "leaf_labels": list(p.leaf_labels),
        },
        indent=2,
    )


def protocol_from_json(text: str) -> MeasurementProtocol:
    data = json.loads(text)
    major = str(data.get("format_version", "1.0")).split(".")[0]
    if major != "1":
        raise ValueError(f"unsupported protocol format_version {data['format_version']}")

    def mat(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    steps = tuple(
        TwoOutcomeStep(
            pre_unitary=mat(s["pre_unitary"]),
            params=PartialProjParams(s["p"], s["q"]),
            post_unitary_0=mat(s["post_unitary_0"]),
            post_unitary_1=mat(s["post_unitary_1"]),
        )
        for s in data["steps"]
    )
    return MeasurementProtocol(
        steps=steps,
        final_unitary=mat(data["final_unitary"]),
        leaf_labels=tuple(data["leaf_labels"]),
    )
