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
+dt/tau (label 0) or -dt/tau (label 1). The walk's exit side and exit time
have a closed-form law, the eigenfunction series of Brownian motion with
drift leaving an interval (Cox & Miller 1965; Borodin & Salminen 2002).
Given its side, a run's exit time has the same law under both labels, so
``simulate_batch`` draws each run's side by the Born rule and its step
count from that series, with no walk, and the ``continuous`` backend
averages over it in closed form. ``simulate_trajectory`` walks the grid
step by step to record a readout path. Because increments compose exactly
through the diagonal exponentials, the final state follows in closed form
from (final_R, duration): a batch from one state has one final state per
threshold, whose coherence each run scales by its duration at eta < 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import Infeasible
from .partial_projection import PartialProjParams, validate_state

_CAP = "no threshold reached within the duration cap of {} steps"
_NOT_FINITE = "thresholds ({}, {}) are not finite in double precision: the readout is projective"


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
    projective limit, and raises ``Infeasible``. Zero strength, p + q = 1,
    gives exactly (0, 0): no readout, which cannot carry p and which
    :func:`pq_from_thresholds` reads as p = q = 1/2.
    """
    p, q = params.p, params.q
    if p + q < 1.0:
        raise ValueError(
            f"p + q = {p + q} < 1: the outcome roles are swapped; "
            "relabel outcomes so that p + q >= 1"
        )
    if p <= 0.0 or q <= 0.0:
        raise Infeasible(f"thresholds require p, q in (0, 1], got ({p}, {q})")
    if p + q == 1.0:  # s below can still be round-off rather than 0
        return Thresholds(R0=0.0, R1=0.0)
    # log1p of p / (1 - q) - 1 = s / (1 - q): no log of a ratio within ulps of 1.
    s = p - (1.0 - q)
    r0 = math.inf if q == 1.0 else 0.5 * math.log1p(s / (1.0 - q))
    r1 = -math.inf if p == 1.0 else -0.5 * math.log1p(s / (1.0 - p))
    # p + q > 1 guarantees the signs; snap log round-off onto the boundary
    # so the Thresholds invariant holds exactly.
    return Thresholds(R0=max(r0, 0.0), R1=min(r1, 0.0))


def pq_from_thresholds(t: Thresholds) -> PartialProjParams:
    """Invert :func:`thresholds_from_pq` for finite thresholds.

    p = expm1(2 R1) / d and q = expm1(-2 R0) / d, d = expm1(2 (R1 - R0)): no exponent
    is positive, so nothing overflows or cancels; 1 - p = q e^{2 R1}, 1 - q = p e^{-2 R0}.
    R0 = R1 = 0 (no measurement) maps to the convention p = q = 1/2.
    """
    if not t.finite:
        raise Infeasible("cannot invert infinite thresholds")
    if t.R0 == 0.0 and t.R1 == 0.0:
        return PartialProjParams(0.5, 0.5)
    d = math.expm1(2.0 * (t.R1 - t.R0))
    p, q = math.expm1(2.0 * t.R1) / d, math.expm1(-2.0 * t.R0) / d
    return PartialProjParams(min(p, 1.0), min(q, 1.0))


def _realizable(t: Thresholds) -> PartialProjParams:
    """(p, q) of runnable thresholds; ``Infeasible`` for an infinite one, or for nonzero
    ones projective in double precision: p or q reads back as 1 (|R| above about 18.7)."""
    if t.finite:
        pq = pq_from_thresholds(t)
        if t.R0 == 0.0 or t.R1 == 0.0 or max(pq.p, pq.q) < 1.0:
            return pq
    raise Infeasible(_NOT_FINITE.format(t.R0, t.R1))


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


def _grid(config: ReadoutConfig) -> tuple[float, int]:
    """(m, j_cap): the grid step m = dt / tau and the first step after which a run
    still active exceeds the duration cap. With the thresholds they fix the exit law."""
    cap, dt = config.duration_cap, config.dt
    j_cap = int(cap / dt) + 2
    while j_cap > 1 and (j_cap - 1) * dt > cap:
        j_cap -= 1
    return dt / config.tau, j_cap


def _exit_series(t: Thresholds, m: float, j_cap: int):
    """Exit-time series of the readout between finite, nonzero thresholds.

    Returns (lam, c): S_b(s) = sum_n c[b, n] e^{-lam_n s} is P(side b, T > s) at drift
    +1 and e^{-2 R_b} S_b(s) at drift -1, s in units of tau (Cox & Miller 1965).
    ``Infeasible`` if a run is still going after step j_cap w.p. > 1e-12 under either
    drift.
    """
    big_l, x = t.R0 - t.R1, -t.R1
    # Terms up to lambda_n m = 46: the rest are below e^-46 at any s >= m.
    n = np.arange(1, int(big_l / math.pi * math.sqrt(92.0 / m)) + 3)
    k = n * math.pi / big_l
    lam = 0.5 * (1.0 + k * k)
    a = math.pi / big_l**2 * np.where(n % 2, n, -n) / lam
    c = np.stack([math.exp(big_l - x) * np.sin(k * x), math.exp(-x) * np.sin(k * (big_l - x))]) * a
    survive = c @ np.exp(-lam * (j_cap * m))
    if max(survive.sum(), survive @ np.exp(-2.0 * np.array([t.R0, t.R1]))) > 1e-12:
        raise Infeasible(_CAP.format(j_cap))
    return lam, c


@functools.lru_cache(maxsize=64)
def _readout_instrument(params: PartialProjParams, alpha: float, eta: float, m: float, j_cap: int):
    """Run-averaged thresholded readout: Kraus pair and coherence factors, read-only.

    Outcome b gives K_b rho K_b^dag, K_b = sqrt(C_b) M_{R_b}(alpha) = D_b with the
    alpha phase, its off-diagonal scaled by kappa_b = E[z^J | side b]: z = exp(-(1 -
    eta) m / (2 eta)), J the run's step count, whose law given the side is one
    under both hidden labels, so the averaged map is linear (:func:`_exit_series`).
    Cached on what it reads, (p, q), alpha, eta and the grid (:func:`_grid`), never
    on the seed, so calls that share a readout share one build.
    """
    t = thresholds_from_pq(params)
    _realizable(t)
    c0, c1 = normalization_constants(params)
    pair = (math.sqrt(c0) * measurement_operator(t.R0, alpha),
            math.sqrt(c1) * measurement_operator(t.R1, alpha))
    if t.R0 == 0.0 or t.R1 == 0.0:
        kappa = np.ones(2)  # the readout stops before its first step
    else:
        lam, c = _exit_series(t, m, j_cap)
        # kappa_b h_b = z h_b - (1 - z) sum_{j >= 1} z^j S_b(j m), h_b = P(side b) at drift +1.
        log_z = -(1.0 - eta) * m / (2.0 * eta)
        h, w = np.array([params.p, 1.0 - params.p]), log_z - lam * m
        kappa = math.exp(log_z) * h + math.expm1(log_z) * (c @ (np.exp(w) / -np.expm1(w)))
        kappa = np.divide(kappa, h, out=np.ones(2), where=h > 0)
    for a in (*pair, kappa):
        a.flags.writeable = False
    return pair, kappa


def _exit_table(t: Thresholds, m: float, j_cap: int) -> np.ndarray:
    """Survival table S[b, j] = P(side b, J > j) at drift +1 for j = 0 .. K.

    J = ceil(T / dt) is a run's step count on the grid and S[:, 0] = h = (p, 1 - p).
    K is j_cap or the first j where both sides' tails are below 1e-17 of h. Each
    chunk of bins is as long as the table built before it (64 bins at least), so
    K bins take about log2(K / 64) + 1 numpy passes; a chunk starting at s keeps only
    the terms lam_n s <= 60.
    """
    lam, c = _exit_series(t, m, j_cap)
    pq = pq_from_thresholds(t)
    h = np.array([pq.p, pq.q * math.exp(2.0 * t.R1)])  # (p, 1 - p) without cancellation
    chunks, j = [h[:, None]], 1
    while j <= j_cap:
        s = np.arange(j, min(j + max(j, 64), j_cap + 1)) * m
        terms = np.searchsorted(lam, 60.0 / s[0], side="right")
        chunk = c[:, :terms] @ np.exp(-np.outer(lam[:terms], s))
        done = np.all(chunk < 1e-17 * h[:, None], axis=0)
        if done.any():
            chunks.append(chunk[:, : done.argmax() + 1])
            break
        chunks.append(chunk)
        j += len(s)
    return np.concatenate(chunks, axis=1)


@functools.lru_cache(maxsize=8)
def _search_table(t: Thresholds, m: float, j_cap: int) -> np.ndarray:
    """-S_b(j) / h_b for j = 1 .. K (:func:`_exit_table`), read-only, last bin 0.

    J - 1 counts the j >= 1 with S_b(j m) / h_b >= 1 - u: a right search of u - 1.
    Cached on (t, m, j_cap), never on the seed. A table holds at most 2 j_cap
    floats, which the slowest readouts reach (alpha near pi/2, strong thresholds):
    16 MB at the default cap of 1e6 dt, so the 8 entries hold at most 128 MB; a
    longer ``max_duration`` raises both in proportion.
    """
    surv = _exit_table(t, m, j_cap)
    tail = surv[:, 1:]
    tail /= -surv[:, :1]
    tail[:, -1] = 0.0  # a capped table's last bin takes the tail past the cap
    tail.flags.writeable = False
    return tail


def _final_batch(
    rho: np.ndarray,
    outcome: np.ndarray,
    steps: np.ndarray,
    t: Thresholds,
    config: ReadoutConfig,
) -> TrajectoryBatch:
    """Runs from ``rho`` ending on side ``outcome`` after ``steps`` steps of dt.

    The two final states M_R rho M_R^dag / Tr, R = R0 or R1, and their purities are
    built once and gathered by outcome; at eta < 1 each run's off-diagonals are then
    scaled by exp(-(1 - eta)/(2 eta) T/tau), T its duration.
    """
    r = np.array([t.R0, t.R1])
    e = np.exp(r)
    r00 = e * rho[0, 0].real
    r11 = rho[1, 1].real / e
    norm = r00 + r11
    r01 = rho[0, 1] * np.exp(-1j * math.tan(config.alpha) * r) / norm
    r00 /= norm
    r11 /= norm
    states = np.stack([r00, r01, r01.conj(), r11], axis=1).reshape(2, 2, 2)
    diag = r00**2 + r11**2
    out = states.take(outcome, axis=0)
    duration = steps * config.dt
    eta = config.efficiency
    if eta < 1.0:
        out[:, 0, 1] *= np.exp(-(1.0 - eta) / (2.0 * eta) * duration / config.tau)
        out[:, 1, 0] = out[:, 0, 1].conj()
        purity = diag[outcome] + 2.0 * np.abs(out[:, 0, 1]) ** 2
    else:
        purity = (diag + 2.0 * np.abs(r01) ** 2)[outcome]
    return TrajectoryBatch(outcome, duration, r[outcome], out, purity)


def _sample_exit(config: ReadoutConfig, t: Thresholds, rho: np.ndarray, u: np.ndarray) -> TrajectoryBatch:
    """Runs from ``rho`` drawn from the exact exit law, run i from the uniform pair ``u[i]``.

    The first uniform picks the side by the Born rule, one weight for the batch:
    P(side 0) = p rho00 + (1 - q) rho11, (p, q) = ``_realizable(t)`` and 1 - q = p e^{-2 R0}.
    The second picks the step count J from that side's conditional table
    (:func:`_search_table`), whose law is the same under both hidden labels: each
    run's second uniform is searched in its own side's table only. A zero threshold
    stops the readout at J = 0.
    """
    p = _realizable(t).p
    born0 = p * (rho[0, 0].real + math.exp(-2.0 * t.R0) * rho[1, 1].real)
    outcome = (u[:, 0] >= born0).astype(np.int64)
    steps = np.zeros(len(u), dtype=np.int64)
    if t.R0 != 0.0 and t.R1 != 0.0:
        tail = _search_table(t, *_grid(config))
        key = u[:, 1] - 1.0
        for b in (0, 1):
            side = outcome == b
            steps[side] = 1 + np.searchsorted(tail[b], key[side], side="right")
    return _final_batch(rho, outcome, steps, t, config)


def readout_walk(
    config: ReadoutConfig,
    t: Thresholds,
    rho: np.ndarray,
    n: int,
    rng: np.random.Generator,
    path: list[float] | None = None,
) -> TrajectoryBatch:
    """Grid walk of ``n`` readout runs that all start from the density matrix ``rho``.

    Each run draws its hidden label (0 w.p. rho00), then the active runs advance
    together one step of dt at a time. A step that ends beyond a threshold stops
    there; one that stays inside stops with the Brownian-bridge excursion probability
    exp(-2 g g' tau / dt), g and g' its ends' distances to the threshold. The rule
    takes one threshold per step, biased when they are close: ``ValueError`` if both
    are nonzero and R0 - R1 < 2 sqrt(dt / tau). ``Infeasible`` if a run outlasts the cap. It
    records :func:`simulate_trajectory`'s path (R after each step into ``path``,
    one run only) and is the reference for the law :func:`simulate_batch` samples.
    ``rho`` is taken as valid; the runs end in its two final states, one per side
    (:func:`_final_batch`).
    """
    if path is not None and n != 1:
        raise ValueError(f"a readout path needs a single run, got {n}")
    _realizable(t)
    if t.R0 == 0.0 or t.R1 == 0.0:
        return _sample_exit(config, t, rho, rng.random((n, 2)))
    m, j_cap = _grid(config)
    if t.R0 - t.R1 < 2.0 * math.sqrt(m):
        raise ValueError(f"thresholds {t.R0 - t.R1:.4g} apart bias the grid walk at dt = "
                         f"{config.dt:g}; it needs dt <= tau (R0 - R1)^2 / 4")
    r0, r1, c = t.R0, t.R1, 2.0 / m
    outcome, steps = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    idx, R = np.arange(n), np.zeros(n)
    drift = np.where(rng.random(n) < rho[0, 0].real, m, -m)
    j = 0
    # Endpoints far beyond a threshold overflow the bridge exponent to inf,
    # which still reads as certain absorption.
    with np.errstate(over="ignore"):
        while len(idx):
            if j == j_cap:
                raise Infeasible(_CAP.format(j_cap))
            j += 1
            end = R + drift + math.sqrt(m) * rng.standard_normal(len(idx))
            u = rng.random(len(idx))
            q0 = np.exp(c * (R - r0) * (r0 - end))
            stop = u < q0 + np.exp(c * (R - r1) * (r1 - end))
            if path is not None:
                path.append(float(end[0]))
            R = end
            if stop.any():
                # An endpoint beyond R1 stops at R1 even if the bridge touched R0.
                outcome[idx[(u < q0) & (end > r1)]] = 0
                steps[idx[stop]] = j
                idx, R, drift = idx[~stop], end[~stop], drift[~stop]
    batch = _final_batch(rho, outcome, steps, t, config)
    if path is not None:
        path[-1] = float(batch.final_R[0])
    return batch


def simulate_trajectory(config: ReadoutConfig, t: Thresholds, initial: np.ndarray) -> TrajectoryRecord:
    """One :func:`readout_walk` run from ``initial``, driven by ``default_rng(config.seed)``.

    The record carries the readout path ``r_path``: R after each step, from 0 to
    the threshold reached. It equals ``simulate_batch(config, t, initial, 1)[0]``
    in law, not bit for bit.
    """
    path = [0.0]
    rho = validate_state(initial)
    rec = readout_walk(config, t, rho, 1, np.random.default_rng(config.seed), path)[0]
    rec.r_path = path
    return rec


def simulate_batch(
    config: ReadoutConfig,
    t: Thresholds,
    initial: np.ndarray,
    n: int,
) -> TrajectoryBatch:
    """Simulate ``n`` independent trajectories from ``initial``.

    Each run's side and step count are drawn from the exact exit law of the walk
    (:func:`_sample_exit`), with no walk. Seeding contract: run i uses row i of
    ``np.random.default_rng(config.seed).random((n, 2))``, so the same call repeats
    exactly and trajectory i of a batch of n is trajectory i of a batch of m.
    ``Infeasible`` if a run outlasts the duration cap with probability above 1e-12
    under either hidden label, whatever the seed.
    """
    if n < 0:
        raise ValueError(f"trajectory count must be >= 0, got {n}")
    rho = validate_state(initial)
    u = np.random.default_rng(config.seed).random((n, 2))
    return _sample_exit(config, t, rho, u)


_JSONL = ('{"outcome": %r, "duration": %r, "final_R": %r, "final_state": '
          '[[[%r, %r], [%r, %r]], [[%r, %r], [%r, %r]]], "purity": %r}')


def trajectories_to_jsonl(batch: TrajectoryBatch) -> str:
    """Serialize a batch as JSON lines, one record per trajectory.

    Each line is what ``json.dumps`` writes for the record's dict, filled into one
    template: ``repr`` of a finite float is its JSON text.
    """
    states = np.stack([batch.final_state.real, batch.final_state.imag], axis=-1)
    columns = (batch.outcome.tolist(), batch.duration.tolist(), batch.final_R.tolist(),
               *states.reshape(-1, 8).T.tolist(), batch.purity.tolist())
    return "\n".join(map(_JSONL.__mod__, zip(*columns))) + "\n"
