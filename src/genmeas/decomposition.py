"""Reduction of arbitrary purity-preserving measurements to partial projections.

Any two-outcome pair {N0, N1} with N0^dag N0 + N1^dag N1 = I shares a
right singular basis, so both factor as N_k = U_k D_k V^dag with the same
V and with diagonal factors that form a standardized partial projection
pair. An n-outcome Kraus set {M_k} then reduces to a chain of n - 1 such
two-outcome steps: step k halts on outcome 0 with net effect

    M_k = N0^(k) N1^(k-1) ... N1^(0)

and otherwise continues; a final unitary aligns the last branch with
M_{n-1}. The pairs come from the stacked isometry [M_0; ...; M_{n-1}] by QR
and CS steps, with no inverse of the chain (:func:`reduce`), so a singular
remainder, as after a projective outcome, reduces like any other.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import partial_projection
from .errors import InaccurateBranch, Infeasible, NotComplete
from .linalg import (
    adjoint, identity_deviation, is_unitary, mul2, phase_distance, psd_sqrt, read_only,
)
from .partial_projection import (
    PartialProjParams, dop_diagonals, sandwich, update, validate_count, validate_state,
)
from .serialize import (
    FORMAT_VERSION, check_version, dump, loads, matrices_from_json, matrix_to_json,
    require_distinct, require_key,
)

COMPLETENESS_TOL = 1e-9
BRANCH_TOL = 1e-9
# Leaf tables a protocol keeps (:func:`_leaf_table`); a new one drops the oldest.
LEAF_TABLES_KEPT = 32


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
        if any(np.shape(m) != (2, 2) for m in self.ops):
            raise ValueError("every operator must be a 2x2 matrix")
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
    """One step of a protocol: V^dag, then (p, q), then U_0 or U_1, each unitary a
    read-only complex128 array (:func:`~genmeas.linalg.read_only`)."""

    pre_unitary: np.ndarray
    params: PartialProjParams
    post_unitary_0: np.ndarray
    post_unitary_1: np.ndarray

    def __post_init__(self):
        for name in ("pre_unitary", "post_unitary_0", "post_unitary_1"):
            object.__setattr__(self, name, read_only(getattr(self, name), np.complex128))


@dataclass(frozen=True)
class MeasurementProtocol:
    """Chain of two-outcome steps realizing an n-outcome measurement.

    ``leaf_labels[k]`` for k < len(steps) names the outcome reached by
    halting with result 0 at step k; the last entry names the final branch
    (all results 1), to which ``final_unitary`` is applied. Its matrices are read-only,
    so what is derived from them once (``branches``, the leaf tables) cannot go stale.
    """

    steps: tuple[TwoOutcomeStep, ...]
    final_unitary: np.ndarray
    leaf_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "final_unitary", read_only(self.final_unitary, np.complex128))
        if len(self.leaf_labels) != len(self.steps) + 1:
            raise ValueError("need one leaf label per step plus the final branch")
        require_distinct(self.leaf_labels)

    @functools.cached_property
    def branches(self) -> np.ndarray:
        """Ordered operator product along each leaf's branch, in leaf order, as one
        read-only (n, 2, 2) stack from one pass on Python complex scalars: step k's leaf
        is U_0 D_0 V^dag C of the running chain C, which goes on as U_1 D_1 V^dag C."""
        out, chain = [], ((1.0, 0.0), (0.0, 1.0))
        for step in self.steps:
            (x0, x1), (y0, y1) = mul2(adjoint(step.pre_unitary).tolist(), chain)
            (a, b), (c, d) = dop_diagonals(step.params)
            out.append(mul2(step.post_unitary_0.tolist(), ((a * x0, a * x1), (b * y0, b * y1))))
            chain = mul2(step.post_unitary_1.tolist(), ((c * x0, c * x1), (d * y0, d * y1)))
        out.append(mul2(self.final_unitary.tolist(), chain))
        out = np.array(out, dtype=np.complex128)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _leaf_tables(self) -> dict:
        """The leaf tables built so far, oldest first (:func:`_leaf_table`)."""
        return {}


def completeness_deviation(ops) -> float:
    """|sum_k M_k^dag M_k - I|_F of a list or stack of operators."""
    return float(identity_deviation(sum(adjoint(m) @ m for m in ops)))


def validate_kraus_set(s: KrausSet, tol: float = COMPLETENESS_TOL) -> None:
    """Raise ``NotComplete`` if sum_k M_k^dag M_k deviates from I beyond tol (or is NaN)."""
    dev = completeness_deviation(s.ops)
    if not dev <= tol:
        raise NotComplete(dev)


def _qr(rows: list) -> tuple[list, tuple]:
    """Thin QR of an m x 2 matrix, rows of Python complex numbers, by Givens rotations
    (1/r) [[x*, y*], [-y, x]], which take (x, y) to (r, 0), r = |(x, y)|: Q as m rows,
    and R = ((r00, r01), (0, r11)) with r00, r11 >= 0. Q is an isometry at any rank.
    No rotation reaches r11 of a 2-row input, so its phase goes into Q's column 1."""
    rows = [list(row) for row in rows]
    rotations = []
    for j in (0, 1):
        for i in range(len(rows) - 1, j, -1):
            x, y = rows[i - 1][j], rows[i][j]
            r = math.hypot(x.real, x.imag, y.real, y.imag)
            if r == 0.0:
                continue
            a, b = x / r, y / r
            ca, cb = a.conjugate(), b.conjugate()
            u, v = rows[i - 1], rows[i]
            for c in range(j, 2):
                u[c], v[c] = ca * u[c] + cb * v[c], a * v[c] - b * u[c]
            rotations.append((i, a, b, ca, cb))
    r11 = rows[1][1]
    t = r11 / abs(r11) if r11 else 1.0
    q = [[1.0, 0.0], [0.0, t]] + [[0.0, 0.0] for _ in rows[2:]]
    for i, a, b, ca, cb in reversed(rotations):
        u, v = q[i - 1], q[i]
        for c in (0, 1):
            u[c], v[c] = a * u[c] - cb * v[c], b * u[c] + ca * v[c]
    return q, ((rows[0][0], rows[0][1]), (0.0, abs(r11)))


def _left_unitary_dag(nv, i: int):
    """U^dag, as nested pairs, of the unitary U = nv diag^-1 of a 2x2 nv with orthogonal
    columns, completed at zero singular values: U's column i, of the larger singular
    value, is nv_i normalized; the other is its orthogonal complement, phased like
    nv_j. Taking nv_j / d_j instead leaves U far from unitary when d_j is round-off."""
    (x0, y0), (x1, y1) = nv
    a0, a1 = (x0, x1) if i == 0 else (y0, y1)
    norm = math.hypot(a0.real, a0.imag, a1.real, a1.imag)
    if norm == 0.0:
        return (1.0, 0.0), (0.0, 1.0)
    a0, a1 = a0 / norm, a1 / norm
    c0, c1 = (y0, y1) if i == 0 else (x0, x1)
    t = a0 * c1 - a1 * c0  # nv_j's component along the complement (-a1*, a0*)
    t = t.conjugate() / abs(t) if t else 1.0
    rows = (a0.conjugate(), a1.conjugate()), (-a1 * t, a0 * t)
    return rows if i == 0 else rows[::-1]


def reduce(
    s: KrausSet,
    order: tuple[int, ...] | None = None,
    cancel_u1: bool = False,
) -> MeasurementProtocol:
    """Build a measurement protocol realizing the Kraus set.

    ``order`` permutes the outcomes first: every order of a complete set reduces,
    to a different, equally valid protocol. ``cancel_u1`` absorbs each step's U_1
    into the remainder, leaving post_unitary_1 = I.

    Nothing is inverted. Thin QRs from the bottom of the isometry
    [M_0; ...; M_{n-1}], [M_k; R_{k+1}] = Q_k R_k, give R_k^dag R_k =
    sum_{j>=k} M_j^dag M_j, so R_0 = I. Before step k the chain is W_k R_k with
    W_0 = I, and the step is the CS split Q_k W_k^dag = [U0 C; U1cs S] V^dag,
    V = W_k V0_k, every V0_k from one stacked SVD of the top blocks of the Q_k.
    Each pair of squares c^2 + s^2 = 1 takes its smaller one from its own block,
    so 1 - c^2 does not round a leak amplitude away. U1 = V, the chain goes on
    with W_{k+1} = U1 U1cs^dag, and the final unitary is Q_{n-1} W_{n-1}^dag.

    Worst branch deviation of 200 rotated pairs per column, q = 1 - (1 - p) U(0.1, 1):

        1 - p        1e-4     1e-8     1e-12    1e-14    1e-16    0
        deviation    1.6e-15  1.3e-15  1.9e-15  1.3e-15  1.4e-15  1.3e-15

    The floor is the stored p, which fixes a leak amplitude a = sqrt(1 - p) only
    to about 3e-17 / a, and to 0 below about 7e-9 (:func:`branch_deviations`).
    """
    validate_kraus_set(s)
    n = s.n
    if order is None:
        order = tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    ops = [s.ops[i].tolist() for i in order]
    labels = [s.labels[i] for i in order]

    last, r = _qr(ops[-1])
    qs = []
    for m in reversed(ops[:-1]):
        q, r = _qr(m + list(r))
        qs.insert(0, q)
    u0, c, v0h = np.linalg.svd(np.array([q[:2] for q in qs], dtype=np.complex128).reshape(-1, 2, 2))
    u0.setflags(write=False)
    eye = ((1.0, 0.0), (0.0, 1.0))
    w, steps = eye, []
    # t: C^2 from the SVD of the top block; b: S^2, the squared column norms of B V.
    for qk, u0k, (t0, t1), v0 in zip(qs, u0, (c * c).tolist(), adjoint(v0h).tolist()):
        (x0, y0), (x1, y1) = bv = mul2(qk[2:], v0)  # U1cs S
        b0, b1 = abs(x0) ** 2 + abs(x1) ** 2, abs(y0) ** 2 + abs(y1) ** 2
        p = 1.0 - b0 if b0 < t0 else t0
        q = 1.0 - t1 if t1 < b1 else b1
        v = mul2(w, v0)
        pre = read_only(v, np.complex128)
        post_1 = read_only(eye, np.complex128) if cancel_u1 else pre
        steps.append(TwoOutcomeStep(pre, PartialProjParams(max(p, 1.0 - q), q), u0k, post_1))
        w = mul2(eye if cancel_u1 else v, _left_unitary_dag(bv, 0 if b0 >= b1 else 1))
    final = np.array(last, dtype=np.complex128) @ adjoint(np.array(w))
    final.setflags(write=False)
    return MeasurementProtocol(steps=tuple(steps), final_unitary=final, leaf_labels=tuple(labels))


def compose_branch(p: MeasurementProtocol, leaf: str) -> np.ndarray:
    """Ordered operator product along the branch ending at ``leaf``, read-only
    (a row of :attr:`MeasurementProtocol.branches`)."""
    try:
        k = p.leaf_labels.index(leaf)
    except ValueError:
        raise ValueError(f"no leaf labeled {leaf!r}") from None
    return p.branches[k]


def branch_deviations(p: MeasurementProtocol, s: KrausSet) -> dict[str, float]:
    """Phase-aligned Frobenius deviation of each leaf's branch from its Kraus operator.

    ``InaccurateBranch`` (exit 3) for the first one above ``BRANCH_TOL`` (1e-9): the
    stored p fixes a leak amplitude a = sqrt(1 - p) only to about 3e-17 / a, and
    to 0 below about 7e-9."""
    devs = {lab: phase_distance(m, compose_branch(p, lab)) for lab, m in zip(s.labels, s.ops)}
    for label, dev in devs.items():
        if not dev <= BRANCH_TOL:
            raise InaccurateBranch(label, dev, BRANCH_TOL)
    return devs


def _leaf_table(
    p: MeasurementProtocol, rho: np.ndarray, backend: str, readout_config=None
) -> tuple[tuple[float, ...], tuple[np.ndarray | None, ...]]:
    """Leaf table of :func:`_build_leaf_table`, built on first use per (state, backend,
    readout) and kept on the protocol, at most ``LEAF_TABLES_KEPT`` of them, the oldest
    dropped first. The key is what the build reads: the validated state's bytes, the
    backend and, on ``continuous``, ``ReadoutConfig._coherence_key``, never the seed.
    A build that raises keeps nothing, so it raises again on the next call.
    """
    if backend != "continuous":
        key = rho.tobytes(), backend
    elif readout_config is None:
        raise ValueError("continuous backend requires a ReadoutConfig")
    else:
        key = rho.tobytes(), backend, *readout_config._coherence_key
    tables = p._leaf_tables
    table = tables.get(key)
    if table is None:
        table = _build_leaf_table(p, rho, backend, readout_config)
        if len(tables) >= LEAF_TABLES_KEPT:
            del tables[next(iter(tables))]
        tables[key] = table
    return table


def _build_leaf_table(
    p: MeasurementProtocol, rho: np.ndarray, backend: str, readout_config=None
) -> tuple[tuple[float, ...], tuple[np.ndarray | None, ...]]:
    """Halting probability of each step on the surviving branch, and the read-only leaf
    states.

    A step is its backend's Kraus pair K_b, outcome b's coherence scaled by kappa_b: the
    ``ancilla-*`` circuit's pair, or D_b on ``exact`` and ``continuous`` (the readout's known
    alpha phase undone; kappa_b from :meth:`ReadoutConfig.coherence`): sigma = V^dag rho V,
    (h_b, state_b) = ``update(K_b, sigma, kappa_b)``, then U_b state_b U_b^dag, all by
    :mod:`~genmeas.partial_projection`'s two scalar rules on Python complex numbers (``tolist``
    of each matrix); a leaf state becomes a complex128 array only when returned.
    A shot halts at step k with probability ``halt[k]``, else it reaches leaf
    ``len(halt)``. A leaf of probability below ``ZERO_BRANCH_TOL`` has state None, and a
    surviving branch below it ends the walk.
    """
    if backend not in ("exact", "continuous"):
        from .ancilla_circuit import VARIANTS, circuit_from_pq, kraus_from_circuit

        prefix, _, variant = backend.partition("-")
        if prefix != "ancilla" or variant not in VARIANTS:
            raise ValueError(f"unknown backend {backend!r}: expected exact, continuous or "
                             f"ancilla-<variant> with a variant in {VARIANTS}")
    rho, kappa = rho.tolist(), (1.0, 1.0)
    halt, states = [], []
    for step in p.steps:
        pq = step.params
        if backend == "continuous":
            kappa = readout_config.coherence(pq)
        if backend in ("exact", "continuous"):
            (a, b), (c, d) = dop_diagonals(pq)
            kraus = ((a, 0.0), (0.0, b)), ((c, 0.0), (0.0, d))
        else:
            kraus = [k.tolist() for k in kraus_from_circuit(circuit_from_pq(variant, pq))]
        sigma = sandwich(adjoint(step.pre_unitary).tolist(), rho)
        h, leaf = update(kraus[0], sigma, kappa[0])
        _, rho = update(kraus[1], sigma, kappa[1])
        halt.append(h)
        states.append(None if leaf is None else sandwich(step.post_unitary_0.tolist(), leaf))
        if rho is None:
            break
        rho = sandwich(step.post_unitary_1.tolist(), rho)
    states.append(None if rho is None else sandwich(p.final_unitary.tolist(), rho))
    states = tuple(None if s is None else read_only(s, np.complex128) for s in states)
    return tuple(halt), states


def _leaf_state(p: MeasurementProtocol, states: tuple, k: int) -> np.ndarray:
    if states[k] is None:
        label = p.leaf_labels[k]
        raise Infeasible(f"leaf {label!r} has probability < {partial_projection.ZERO_BRANCH_TOL}")
    return states[k]


def _shot_entropy(seed: int, start: int, stop: int):
    """Entropy of shots ``start`` to ``stop - 1`` for ``PCG64``: the uint32 words that
    ``SeedSequence`` makes of ``[seed, i]``, that is, the seed's little-endian words (at
    least one) and then i, in one array whose last word is set per shot (each is consumed
    before the next); an i of 2**32 or more, which one word cannot hold, gets ``[seed, i]``.
    """
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array(words + [0], np.uint32)
    for i in range(start, min(stop, 2**32)):
        entropy[-1] = i
        yield entropy
    yield from ([seed, i] for i in range(max(start, 2**32), stop))


def sample_protocol(
    p: MeasurementProtocol,
    initial: np.ndarray,
    shots: int,
    seed: int,
    backend: str = "exact",
    readout_config=None,
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """Histogram and per-leaf mean final states over ``shots`` runs.

    ``backend`` realizes each step: "exact", "ancilla-<variant>" (the circuit's Kraus
    pair) or "continuous" (needs ``readout_config`` and finite thresholds).

    The leaf table (:func:`_leaf_table`, on Python scalars) is built on first use per
    (state, backend, readout), also at shots=0, and kept on the protocol, at most
    ``LEAF_TABLES_KEPT`` of them; the histogram is drawn from it, and the mean states are
    its read-only arrays. Seeding contract: ``seed`` and ``shots`` are non-negative
    integers, ``shots`` below 2**63, else ``ValueError`` at any shot count. On ``exact``
    and ``continuous`` the histogram is one ``default_rng(seed).multinomial(shots,
    probs)`` over the table's leaf probabilities, P(leaf k) = halt[k] * prod_{j<k}(1 -
    halt[j]) with each halt clamped into [0, 1], so its cost does not grow with
    ``shots``, and at efficiency 1 the two backends sample alike bit for bit. On
    ``ancilla-*`` shot i is only its draws, one uniform per step of the table from
    ``Generator(PCG64([seed, i]))``, the stream of ``default_rng([seed, i])`` (one
    generator per shot; the README says why it stays), so there shot i of n is shot i of
    m. Shot i's entropy is passed as the same uint32 words that ``SeedSequence`` makes of
    ``[seed, i]`` (:func:`_shot_entropy`), so the stream is unchanged. A leaf's mean is
    its state, and a shot that reaches a leaf of probability below ``ZERO_BRANCH_TOL``
    raises ``Infeasible``. A one-shot call is a single run: its one count names the leaf,
    and its mean is that leaf's state.
    """
    validate_count(shots, "shot count")
    validate_count(seed, "seed")
    if shots >= 2**63:
        raise ValueError(f"shot count must be below 2**63, got {shots}")
    halt, states = _leaf_table(p, validate_state(initial), backend, readout_config)
    # numpy.random is looked up here, not imported at the top: it loads on first use, so a
    # command that never samples does not pay for importing it.
    if backend in ("exact", "continuous"):
        # Round-off can put a projective step's halt just past 1, so each is clamped.
        probs, survive = [], 1.0
        for h in halt:
            h = min(max(h, 0.0), 1.0)
            probs.append(survive * h)
            survive *= 1.0 - h
        counts = np.random.default_rng(seed).multinomial(shots, probs + [survive]).tolist()
        counts += [0] * (len(p.leaf_labels) - len(counts))
    else:
        draws = np.empty((shots, len(halt)))
        generator, pcg64 = np.random.Generator, np.random.PCG64
        for row, entropy in zip(draws, _shot_entropy(operator.index(seed), 0, shots)):
            generator(pcg64(entropy)).random(out=row)
        leaf = np.logical_and.accumulate(draws >= halt, axis=1).sum(axis=1)
        counts = np.bincount(leaf, minlength=len(p.leaf_labels)).tolist()
    means = {p.leaf_labels[k]: _leaf_state(p, states, k) for k, c in enumerate(counts) if c}
    return dict(zip(p.leaf_labels, counts)), means


def random_kraus_set(
    n: int, rng: np.random.Generator, labels=None
) -> KrausSet:
    """Random n-outcome purity-preserving qubit Kraus set.

    Draws n - 1 random contractions scaled to keep their squared sum below
    the identity, completes the set with the PSD square root of the identity minus
    their squared sum (:func:`~genmeas.linalg.psd_sqrt`), and rotates each
    operator by an independent random unitary. ``ValueError`` for n < 1.
    """
    if n < 1:
        raise ValueError(f"a Kraus set needs n >= 1 outcomes, got {n}")
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


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2 x 2 unitary via QR with phase-fixed diagonal."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def protocol_to_json(p: MeasurementProtocol) -> str:
    """Serialize per the protocol schema; matrices row-major [[re, im], ...], all of
    them from one :func:`~genmeas.serialize.matrix_to_json` of their stack."""
    mats = matrix_to_json(np.array([m for s in p.steps for m in (
        s.pre_unitary, s.post_unitary_0, s.post_unitary_1)] + [p.final_unitary]))
    return dump(
        {
            "format_version": FORMAT_VERSION,
            "steps": [
                {
                    "pre_unitary": mats[3 * k],
                    "p": s.params.p,
                    "q": s.params.q,
                    "post_unitary_0": mats[3 * k + 1],
                    "post_unitary_1": mats[3 * k + 2],
                }
                for k, s in enumerate(p.steps)
            ],
            "final_unitary": mats[-1],
            "leaf_labels": list(p.leaf_labels),
        }
    )


def protocol_from_json(text: str) -> MeasurementProtocol:
    """Read a protocol document; ``ValueError`` if a unitary in it is not unitary
    within ``COMPLETENESS_TOL`` (a one-operator complete set)."""
    data = loads(text)
    check_version(data, "protocol")
    rows, params = [], []  # each step's three unitaries in turn, then the final one
    for s in require_key(data, "steps", list):
        rows.append(require_key(s, "pre_unitary"))
        params.append(PartialProjParams(require_key(s, "p", float), require_key(s, "q", float)))
        rows += [require_key(s, "post_unitary_0"), require_key(s, "post_unitary_1")]
    rows.append(require_key(data, "final_unitary"))
    unitaries = matrices_from_json(rows, 2)
    unitaries.setflags(write=False)
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
