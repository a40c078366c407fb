"""Thresholded continuous readout realization of a partial projection.

A dispersive qubit readout accumulates a dimensionless integrated signal R
whose value alone fixes the (purity-preserving) back-action operator

    M_R = e^{R/2} e^{-i(R/2)tan(alpha)} |0><0| + e^{-R/2} e^{+i(R/2)tan(alpha)} |1><1|

up to an overall constant that cancels on renormalization. Setting an upper
threshold R0 >= 0 and a lower threshold R1 <= 0 and stopping the measurement
at the first crossing realizes the partial projection pair D0, D1 with

    R0 = (1/2) ln(p / (1 - q)),    R1 = -(1/2) ln(q / (1 - p)).

The simulator uses the quantum Bayesian picture: the readout increments of
a run follow the mixture rho00 * N(+dt/tau, dt/tau) + rho11 * N(-dt/tau,
dt/tau), whose per-step posterior weights reproduce the likelihood ratio
e^{2R} implied by M_R. That path law is the same as drawing a hidden label
once per run (0 with probability rho00) and then walking with drift
+dt/tau (label 0) or -dt/tau (label 1), so all runs of a batch advance
together as arrays. Because increments compose exactly through the
diagonal exponentials, the final state follows in closed form from
(final_R, duration).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import Infeasible
from .partial_projection import PartialProjParams, validate_state

LOCALIZATION_TOL = 1e-6
_CAP = "no threshold reached within duration cap {:.3e}"
_NOT_FINITE = "thresholds ({}, {}) are not finite; the projective limit can only be approximated"


@dataclass(frozen=True)
class ReadoutConfig:
    """Parameters of the continuous-readout simulator.

    ``tau_min`` is the measurement time at quadrature angle alpha = 0; the
    effective timescale is tau_min / cos^2(alpha). ``dt`` defaults to
    tau_min / 100. ``efficiency`` is the quantum efficiency eta in (0, 1];
    eta < 1 adds dephasing. ``max_duration`` defaults to 1e6 * dt.
    """

    tau_min: float
    seed: int
    alpha: float = 0.0
    dt: float | None = None
    efficiency: float = 1.0
    max_duration: float | None = None

    def __post_init__(self):
        if self.tau_min <= 0:
            raise ValueError("tau_min must be positive")
        if not abs(self.alpha) < math.pi / 2:
            raise ValueError("|alpha| must be strictly below pi/2")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("efficiency must be in (0, 1]")
        if self.dt is None:
            object.__setattr__(self, "dt", self.tau_min / 100.0)
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def tau(self) -> float:
        """Effective measurement time tau_min / cos^2(alpha)."""
        return self.tau_min / math.cos(self.alpha) ** 2

    @property
    def duration_cap(self) -> float:
        return self.max_duration if self.max_duration is not None else 1e6 * self.dt


@dataclass(frozen=True)
class Thresholds:
    """Integrated-readout stopping thresholds, R0 >= 0 >= R1.

    Infinite values are represented explicitly (projective limits) and are
    rejected by the trajectory simulator.
    """

    R0: float
    R1: float

    def __post_init__(self):
        if not self.R0 >= 0.0:
            raise ValueError(f"R0 must be >= 0, got {self.R0}")
        if not self.R1 <= 0.0:
            raise ValueError(f"R1 must be <= 0, got {self.R1}")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.R0) and math.isfinite(self.R1)


@dataclass
class TrajectoryRecord:
    """One stochastic readout run terminated at a threshold."""

    outcome: int
    duration: float
    final_R: float
    final_state: np.ndarray
    purity: float
    r_path: list[float] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Struct-of-arrays result of ``n`` readout runs.

    ``outcome``, ``duration``, ``final_R`` and ``purity`` have shape (n,),
    ``final_state`` has shape (n, 2, 2). The batch has a length; an integer
    index gives a :class:`TrajectoryRecord`, a slice or index array gives a
    sub-batch, and iteration yields records.
    """

    outcome: np.ndarray
    duration: np.ndarray
    final_R: np.ndarray
    final_state: np.ndarray
    purity: np.ndarray

    def __len__(self) -> int:
        return len(self.outcome)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return TrajectoryRecord(
                outcome=int(self.outcome[i]),
                duration=float(self.duration[i]),
                final_R=float(self.final_R[i]),
                final_state=self.final_state[i].copy(),
                purity=float(self.purity[i]),
            )
        return TrajectoryBatch(
            self.outcome[i], self.duration[i], self.final_R[i],
            self.final_state[i], self.purity[i],
        )

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        return (self[i] for i in range(len(self)))


def thresholds_from_pq(params: PartialProjParams) -> Thresholds:
    """Thresholds realizing the partial projection with fidelities (p, q).

    Projective limits are flagged by explicit infinities (q = 1 gives
    R0 = +inf, p = 1 gives R1 = -inf). Requires p + q >= 1 so that the
    thresholds have the right signs (``ValueError`` otherwise). p = 0 or
    q = 0 then forces the other to 1, a threshold at infinity as in the
    projective limit, and raises ``Infeasible``.
    """
    p, q = params.p, params.q
    if p + q < 1.0:
        raise ValueError(
            f"p + q = {p + q} < 1: the outcome roles are swapped; "
            "relabel outcomes so that p + q >= 1"
        )
    if p <= 0.0 or q <= 0.0:
        raise Infeasible(f"thresholds require p, q in (0, 1], got ({p}, {q})")
    r0 = math.inf if q == 1.0 else 0.5 * math.log(p / (1.0 - q))
    r1 = -math.inf if p == 1.0 else -0.5 * math.log(q / (1.0 - p))
    # p + q >= 1 guarantees the signs; snap log round-off (p + q = 1 cases)
    # onto the boundary so the Thresholds invariant holds exactly.
    if math.isfinite(r0):
        r0 = max(r0, 0.0)
    if math.isfinite(r1):
        r1 = min(r1, 0.0)
    return Thresholds(R0=r0, R1=r1)


def pq_from_thresholds(t: Thresholds) -> PartialProjParams:
    """Invert :func:`thresholds_from_pq` for finite thresholds.

    The degenerate no-measurement case R0 = R1 = 0 maps to the convention
    p = q = 1/2.
    """
    if not t.finite:
        raise Infeasible("cannot invert infinite thresholds")
    if t.R0 == 0.0 and t.R1 == 0.0:
        return PartialProjParams(0.5, 0.5)
    e0 = math.exp(2.0 * t.R0)
    e1 = math.exp(2.0 * t.R1)
    q = (e0 - 1.0) / (e0 - e1)
    p = e0 * (1.0 - q)
    return PartialProjParams(min(p, 1.0), min(q, 1.0))


def measurement_operator(R: float, alpha: float = 0.0) -> np.ndarray:
    """Back-action operator for an integrated readout R at quadrature angle alpha.

    Unnormalized: the constant proportionality factor cancels on state
    renormalization.
    """
    if not abs(alpha) < math.pi / 2:
        raise ValueError("|alpha| must be strictly below pi/2")
    phase = (R / 2.0) * math.tan(alpha)
    return np.diag(
        [
            math.exp(R / 2.0) * np.exp(-1j * phase),
            math.exp(-R / 2.0) * np.exp(1j * phase),
        ]
    ).astype(np.complex128)


def normalization_constants(params: PartialProjParams) -> tuple[float, float]:
    """Constants (C0, C1) with sqrt(C_k) e^{+-R_k/2} matching the D_k diagonals."""
    p, q = params.p, params.q
    return math.sqrt(p * (1.0 - q)), math.sqrt(q * (1.0 - p))


def _readout_instrument(params: PartialProjParams, config: ReadoutConfig):
    """Run-averaged thresholded readout: Kraus pair and coherence factors.

    Outcome b gives K_b rho K_b^dag, K_b = sqrt(C_b) M_{R_b}(alpha) = D_b with the
    alpha phase, its off-diagonal scaled by kappa_b = E[z^J | side b]: z = exp(-(1 -
    eta) dt / (2 eta tau)), J the run's step count, whose law given the side is one
    under both hidden labels, so the averaged map is linear. S_b(s) = sum_n c[b, n]
    e^{-lam_n s} is P(side b, T > s) at drift +1 and e^{-2 R_b} S_b(s) at drift -1
    (Cox & Miller 1965). ``Infeasible`` if a run outlasts the cap w.p. > 1e-12.
    """
    t = thresholds_from_pq(params)
    if not t.finite:
        raise Infeasible(_NOT_FINITE.format(t.R0, t.R1))
    c0, c1 = normalization_constants(params)
    pair = (math.sqrt(c0) * measurement_operator(t.R0, config.alpha),
            math.sqrt(c1) * measurement_operator(t.R1, config.alpha))
    if t.R0 == 0.0 or t.R1 == 0.0:
        return pair, np.ones(2)  # the walk stops before its first step
    m, big_l, x = config.dt / config.tau, t.R0 - t.R1, -t.R1  # units of tau
    # Terms up to lambda_n m = 46: the rest are below e^-46 at any s >= m.
    n = np.arange(1, int(big_l / math.pi * math.sqrt(92.0 / m)) + 3)
    k = n * math.pi / big_l
    lam = 0.5 * (1.0 + k * k)
    a = math.pi / big_l**2 * np.where(n % 2, n, -n) / lam
    c = np.stack([math.exp(big_l - x) * np.sin(k * x), math.exp(-x) * np.sin(k * (big_l - x))]) * a
    survive = c @ np.exp(-lam * (_cap_steps(config) * m))  # S_b after the cap
    if max(survive.sum(), survive @ np.exp(-2.0 * np.array([t.R0, t.R1]))) > 1e-12:
        raise Infeasible(_CAP.format(config.duration_cap))
    # kappa_b h_b = z h_b - (1 - z) sum_{j >= 1} z^j S_b(j m), h_b = P(side b) at drift +1.
    log_z = -(1.0 - config.efficiency) * m / (2.0 * config.efficiency)
    h, w = np.array([params.p, 1.0 - params.p]), log_z - lam * m
    kappa = math.exp(log_z) * h + math.expm1(log_z) * (c @ (np.exp(w) / -np.expm1(w)))
    return pair, np.divide(kappa, h, out=np.ones(2), where=h > 0)


def _cap_steps(config: ReadoutConfig) -> int:
    """The first step after which a run still active exceeds the duration cap."""
    cap, dt = config.duration_cap, config.dt
    j_cap = int(cap / dt) + 2
    while j_cap > 1 and (j_cap - 1) * dt > cap:
        j_cap -= 1
    return j_cap


# A batch with k active runs advances min(_BLOCK_STEPS, _BLOCK_DRAWS // k)
# steps (at least one) per pass, so a single run or a batch's last few runs
# pay the fixed numpy cost of a pass once per block rather than once per step.
_BLOCK_DRAWS = 2048
_BLOCK_STEPS = 256


def _first_passage(
    rng: np.random.Generator,
    t: Thresholds,
    config: ReadoutConfig,
    rho00: np.ndarray,
    path: list[float] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes and step counts of ``len(rho00)`` first-passage walks.

    Each run draws its hidden label once (0 with probability rho00), then
    all active runs advance together on a fixed grid of size dt, a block of
    steps per pass. A step whose endpoint lands beyond a threshold is
    absorbed there; a step that stays inside is absorbed with the
    Brownian-bridge excursion probability exp(-2 g g' tau / dt), where g and
    g' are the distances to the threshold at the step ends. The bridge law
    is drift-free, so the correction is exact, and a stopped run sits at R0
    or R1 exactly. A run stops at the first absorbing step of its block (the
    rest of its block is discarded) and leaves the active set by compaction.

    Every buffer is allocated once per call: draws use ``out=`` and
    compaction writes into a second buffer that is swapped in, which keeps
    the allocator from fragmenting over thousands of steps. ``path``
    (single-run batches only) receives R after each step.
    """
    n = len(rho00)
    dt = config.dt
    r0, r1 = t.R0, t.R1
    m = dt / config.tau
    s = math.sqrt(m)
    c = 2.0 * config.tau / dt
    j_cap = _cap_steps(config)
    size = max(n, _BLOCK_DRAWS)
    outcome = np.ones(n, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    R, R_next = np.zeros(n), np.empty(n)
    drift, drift_next = np.empty(n), np.empty(n)
    idx, idx_next = np.arange(n), np.empty(n, dtype=np.intp)
    rows, first, hits = np.arange(n), np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    stop, at0 = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    z, u = np.empty(size), np.empty(size)
    bridge, gap = np.empty(2 * size), np.empty(2 * size)
    thr = np.array([r0, r1])[:, None, None]
    hit0, done = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    walk = np.empty(size + n)  # per run: R, then the endpoints of a block

    rng.random(out=u[:n])
    np.less(u[:n], rho00, out=hit0[:n])
    drift.fill(-m)
    np.copyto(drift, m, where=hit0[:n])

    k = n
    j = 0
    # Endpoints far beyond a threshold overflow the bridge exponent to inf,
    # which still reads as certain absorption.
    with np.errstate(over="ignore"):
        while k:
            b = min(_BLOCK_STEPS, max(1, _BLOCK_DRAWS // k), j_cap - j)
            kb = k * b
            Z, U = z[:kb].reshape(k, b), u[:kb].reshape(k, b)
            Q, G = bridge[: 2 * kb].reshape(2, k, b), gap[: 2 * kb].reshape(2, k, b)
            H0, D = hit0[:kb].reshape(k, b), done[:kb].reshape(k, b)
            W = walk[: kb + k].reshape(k, b + 1)
            start, end = W[:, :-1], W[:, 1:]
            Rk, sk, fk = R[:k], stop[:k], first[:k]
            rng.standard_normal(out=Z)
            rng.random(out=U)
            Z *= s
            Z += drift[:k, None]
            W[:, 0] = Rk
            Z.cumsum(axis=1, out=end)
            end += Rk[:, None]
            # Bridge probabilities exp(-c (R0 - R)(R0 - R')) and
            # exp(-c (R - R1)(R' - R1)) of each step R -> R', as
            # exp(c (R - Rt)(Rt - R')) for Rt = R0, R1; >= 1 once R' is at
            # or beyond.
            np.subtract(start, thr, out=Q)
            np.subtract(thr, end, out=G)
            Q *= G
            Q *= c
            np.exp(Q, out=Q)
            # An endpoint beyond R1 stops at R1 even if the bridge touched R0.
            np.less(U, Q[0], out=H0)
            np.greater(end, r1, out=D)
            H0 &= D
            Q[0] += Q[1]
            np.less(U, Q[0], out=D)
            D.any(axis=1, out=sk)
            D.argmax(axis=1, out=fk)  # first absorbing step, 0 if none
            if path is not None:
                path.extend(end[0, : fk[0] if sk[0] else b].tolist())
            nd = int(np.count_nonzero(sk))
            if nd:
                # A run stops at R0 if H0 holds at its first absorbing step
                # (H0 implies D, so runs that go on read False).
                np.multiply(rows[:k], b, out=hits[:k])
                hits[:k] += fk
                hit0[:kb].take(hits[:k], out=at0[:k], mode="clip")
                n0 = int(np.count_nonzero(at0[:k]))
                if n0:
                    idx[:k].compress(at0[:k], out=hits[:n0])
                    outcome[hits[:n0]] = 0
                idx[:k].compress(sk, out=hits[:nd])
                fk.compress(sk, out=idx_next[:nd])
                idx_next[:nd] += j + 1
                steps[hits[:nd]] = idx_next[:nd]
                live = at0[:k]
                np.logical_not(sk, out=live)
                end[:, -1].compress(live, axis=0, out=R_next[: k - nd])
                drift[:k].compress(live, out=drift_next[: k - nd])
                idx[:k].compress(live, out=idx_next[: k - nd])
                k -= nd
                R, R_next = R_next, R
                drift, drift_next = drift_next, drift
                idx, idx_next = idx_next, idx
            else:
                np.copyto(Rk, end[:, -1])
            j += b
            if k and j >= j_cap:
                raise Infeasible(_CAP.format(config.duration_cap))
    if path is not None:
        path.append(r0 if outcome[0] == 0 else r1)
    return outcome, steps


def _final_batch(
    states: np.ndarray,
    final_R: np.ndarray,
    duration: np.ndarray,
    outcome: np.ndarray,
    config: ReadoutConfig,
) -> TrajectoryBatch:
    """Closed-form M_R rho M_R^dag / Tr per run, dephased by exp(-(1-eta)/(2 eta) T/tau)."""
    e = np.exp(final_R)
    r00 = e * states[:, 0, 0].real
    r11 = states[:, 1, 1].real / e
    norm = r00 + r11
    r01 = states[:, 0, 1] * np.exp(-1j * math.tan(config.alpha) * final_R) / norm
    eta = config.efficiency
    if eta < 1.0:
        r01 *= np.exp(-(1.0 - eta) / (2.0 * eta) * duration / config.tau)
    r00 /= norm
    r11 /= norm
    out = np.empty((len(outcome), 2, 2), dtype=np.complex128)
    out[:, 0, 0] = r00
    out[:, 1, 1] = r11
    out[:, 0, 1] = r01
    out[:, 1, 0] = r01.conj()
    purity = r00**2 + r11**2 + 2.0 * np.abs(r01) ** 2
    return TrajectoryBatch(outcome, duration, final_R, out, purity)


def readout_walk(
    config: ReadoutConfig,
    t: Thresholds,
    states: np.ndarray,
    rng: np.random.Generator,
    path: list[float] | None = None,
) -> TrajectoryBatch:
    """Thresholded readout of each density matrix in ``states`` (shape (n, 2, 2)).

    The one walk behind :func:`simulate_batch` and :func:`simulate_trajectory`;
    ``sample_protocol`` averages its law in closed form (``_readout_instrument``).
    The states are taken as valid density matrices; callers validate at their boundary.
    ``path`` records the readout of a single run and needs ``n == 1``.
    """
    if path is not None and len(states) != 1:
        raise ValueError(f"a readout path needs a single run, got {len(states)}")
    if not t.finite:
        raise Infeasible(_NOT_FINITE.format(t.R0, t.R1))
    n = len(states)
    steps = np.zeros(n, dtype=np.int64)
    if t.R0 == 0.0 and t.R1 == 0.0:
        # No measurement: terminate at once, outcome split per the
        # p = q = 1/2 convention.
        outcome = np.where(rng.random(n) < pq_from_thresholds(t).p, 0, 1)
    elif t.R0 == 0.0:
        outcome = np.zeros(n, dtype=np.int64)
    elif t.R1 == 0.0:
        outcome = np.ones(n, dtype=np.int64)
    else:
        outcome, steps = _first_passage(rng, t, config, states[:, 0, 0].real, path)
    final_R = np.where(outcome == 0, t.R0, t.R1)
    return _final_batch(states, final_R, steps * config.dt, outcome, config)


def simulate_trajectory(
    config: ReadoutConfig,
    t: Thresholds,
    initial: np.ndarray,
    rng: np.random.Generator | None = None,
    record_path: bool = True,
) -> TrajectoryRecord:
    """Simulate one thresholded-readout run from ``initial``.

    A batch of one: with ``rng`` omitted it equals
    ``simulate_batch(config, t, initial, 1)[0]``, plus the readout path
    ``r_path`` (R after each step, from 0 to the threshold reached).
    """
    rho = validate_state(initial)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    path = [0.0] if record_path else None
    rec = readout_walk(config, t, rho[None], rng, path)[0]
    if path is not None:
        rec.r_path = path
    return rec


def simulate_batch(
    config: ReadoutConfig,
    t: Thresholds,
    initial: np.ndarray,
    n: int,
) -> TrajectoryBatch:
    """Simulate ``n`` independent trajectories from ``initial``.

    Seeding contract: one generator, ``np.random.default_rng(config.seed)``,
    drives the whole batch. The same (config, thresholds, initial, n) gives
    identical arrays, but trajectory i of a batch of n is in general not
    trajectory i of a batch of m: the walk advances in blocks of steps
    whose length depends on how many runs are active and on the duration
    cap.
    """
    if n < 0:
        raise ValueError(f"trajectory count must be >= 0, got {n}")
    rho = validate_state(initial)
    return readout_walk(
        config, t, np.broadcast_to(rho, (n, 2, 2)), np.random.default_rng(config.seed)
    )


def trajectories_to_jsonl(batch: TrajectoryBatch) -> str:
    """Serialize a batch as JSON lines, one record per trajectory."""
    states = np.stack([batch.final_state.real, batch.final_state.imag], axis=-1)
    lines = [
        json.dumps(
            {
                "outcome": o,
                "duration": d,
                "final_R": r,
                "final_state": s,
                "purity": pu,
            }
        )
        for o, d, r, s, pu in zip(
            batch.outcome.tolist(),
            batch.duration.tolist(),
            batch.final_R.tolist(),
            states.tolist(),
            batch.purity.tolist(),
        )
    ]
    return "\n".join(lines) + "\n"
