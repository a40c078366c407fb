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
count from that series, with no walk. Because increments compose exactly
through the diagonal exponentials, the final state follows in closed form
from (final_R, duration): a batch from one state has one final state per
threshold, whose coherence each run scales by its duration at eta < 1.

A run stopping on R_b applies D_b times the Z rotation e^{-i R_b tan(alpha) sigma_z / 2}
that its outcome fixes (Korotkov, arXiv:1111.4016). The ``continuous`` backend undoes
it: its step is D_b, outcome b's coherence scaled by the run average kappa_b of the
dephasing (:func:`_readout_coherence`). ``simulate_batch`` keeps the raw phase.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Infeasible
from .partial_projection import PartialProjParams, update, validate_count, validate_state

_CAP = "no threshold reached within the duration cap of {} steps"
_NOT_FINITE = "thresholds ({}, {}) are not finite in double precision: the readout is projective"
# An exit table's first chunk holds 64 bins of up to this many series terms (32 MB).
_MAX_TERMS = 1 << 16
# The series keeps the terms with lambda_n m <= 46: the rest are below e^-46 at any s >= m.
_SERIES_CUT = 46.0
# A chunk of the exit table starting at step j keeps only the terms with lambda_n m j <= 60.
_CHUNK_CUT = 60.0
# A readout whose runs outlast the duration cap with a larger probability is Infeasible.
_CAP_PROB = 1e-12
# The exit table ends at the first step where both sides' tails are below this share of h.
_TAIL_FLOOR = 1e-17


@dataclass(frozen=True)
class ReadoutConfig:
    """Parameters of the continuous-readout simulator.

    ``tau_min`` is the measurement time at quadrature angle alpha = 0; the
    effective timescale is tau_min / cos^2(alpha). ``dt`` defaults to
    tau_min / 100. ``efficiency`` is the quantum efficiency eta in (0, 1];
    eta < 1 adds dephasing. ``max_duration`` must be positive and defaults to 1e6 * dt.
    ``seed`` must be a non-negative integer. Only :func:`simulate_batch`, and so the CLI's
    ``trajectory`` command, reads it: the ``continuous`` backend draws from
    ``sample_protocol``'s ``seed``.
    """

    tau_min: float
    seed: int
    alpha: float = 0.0
    dt: float | None = None
    efficiency: float = 1.0
    max_duration: float | None = None

    def __post_init__(self):
        validate_count(self.seed, "seed")
        if not 0.0 < self.tau_min < math.inf:
            raise ValueError(f"tau_min must be positive and finite, got {self.tau_min}")
        if not abs(self.alpha) < math.pi / 2:
            raise ValueError("|alpha| must be strictly below pi/2")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("efficiency must be in (0, 1]")
        if self.dt is None:
            object.__setattr__(self, "dt", self.tau_min / 100.0)
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.max_duration is not None and not self.max_duration > 0.0:
            raise ValueError(f"max_duration must be positive, got {self.max_duration}")
        if not (math.isfinite(self.duration_cap / self.dt) and self.dt / self.tau > 0.0):
            raise ValueError(f"dt = {self.dt:g} must be a finite fraction of the duration cap "
                             f"{self.duration_cap:g} and a nonzero one of tau = {self.tau:g}")

    @property
    def tau(self) -> float:
        """Effective measurement time tau_min / cos^2(alpha)."""
        return self.tau_min / math.cos(self.alpha) ** 2

    @property
    def duration_cap(self) -> float:
        return self.max_duration if self.max_duration is not None else 1e6 * self.dt

    @functools.cached_property
    def _coherence_key(self) -> tuple[float, float, int]:
        """(eta, m, j_cap): all of this configuration that :meth:`coherence` reads."""
        return (self.efficiency, *_grid(self))

    def coherence(self, params: PartialProjParams) -> tuple[float, float]:
        """Coherence factors (kappa_0, kappa_1) of a (p, q) step read out with this
        configuration; see :func:`_readout_coherence`."""
        return _readout_coherence(params, *self._coherence_key)


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


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Struct-of-arrays result of ``n`` readout runs.

    ``outcome``, ``duration``, ``final_R`` and ``purity`` have shape (n,),
    ``final_state`` has shape (n, 2, 2). An index applies to every field, as
    in numpy: a slice, index array or mask gives a sub-batch, and an integer
    gives one run's fields as numpy scalars and a 2 x 2 view of its state.
    Iteration goes through the integers until numpy raises ``IndexError``.
    """

    outcome: np.ndarray
    duration: np.ndarray
    final_R: np.ndarray
    final_state: np.ndarray
    purity: np.ndarray

    def __len__(self) -> int:
        return len(self.outcome)

    def __getitem__(self, i):
        return TrajectoryBatch(
            self.outcome[i], self.duration[i], self.final_R[i],
            self.final_state[i], self.purity[i],
        )


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


def _back_action(R: float, alpha: float) -> tuple[complex, complex]:
    """The diagonal (w, 1/w) of M_R at quadrature angle alpha, w = e^{(R - i R tan(alpha))/2}:
    the one place the alpha phase is written."""
    w = cmath.exp(complex(R, -R * math.tan(alpha)) / 2.0)
    return w, 1.0 / w


def measurement_operator(R: float, alpha: float = 0.0) -> np.ndarray:
    """Back-action operator for an integrated readout R at quadrature angle alpha.

    Unnormalized: the constant proportionality factor cancels on state
    renormalization. ``Infeasible`` for an R whose diagonal is not finite and nonzero
    in double precision (|R| above about 1419.5 at alpha = 0), as for an infinite R (a
    projective threshold, as :func:`_realizable` reports it); ``ValueError`` for NaN.
    """
    if not abs(alpha) < math.pi / 2:
        raise ValueError("|alpha| must be strictly below pi/2")
    if math.isnan(R):
        raise ValueError("R is NaN")
    try:
        diag = _back_action(R, alpha)
    except (OverflowError, ZeroDivisionError):  # e^{R/2} overflows, or underflows to 0
        diag = (0.0,)
    if not (all(diag) and all(map(cmath.isfinite, diag))):
        raise Infeasible(f"R = {R} is projective in double precision: no finite back-action")
    return np.diag(diag)


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

    Returns (lm, c): S_b(j) = sum_n c[b, n] e^{-lm_n j} is P(side b, T > j dt) at drift
    +1 and e^{-2 R_b} S_b(j) at drift -1 (Cox & Miller 1965), with lm_n = lambda_n m the
    decay rate per grid step: lambda_n itself overflows on a gap near sqrt(m).
    ``Infeasible`` if a run is still going after step j_cap w.p. > 1e-12 under either
    drift, or if the series needs more than ``_MAX_TERMS`` terms (dt too fine for the gap).
    """
    big_l, x = t.R0 - t.R1, -t.R1
    # Terms up to lambda_n m = _SERIES_CUT, lambda_n m ~ (n pi / big_l)^2 m / 2. A gap too
    # small for the first stops every run at its first step.
    terms = big_l / (math.pi * math.sqrt(m / (2.0 * _SERIES_CUT)))
    if terms < 1.0:
        return np.empty(0), np.empty((2, 0))
    if not terms <= _MAX_TERMS:
        raise Infeasible(f"dt / tau = {m:.3g} is too fine a grid for thresholds {big_l:.3g} apart: "
                         f"the exit-time series needs {terms:.3g} terms, above {_MAX_TERMS}")
    n = np.arange(1, int(terms) + 3)
    k = n * math.pi / big_l
    lm = 0.5 * (m + (k * math.sqrt(m)) ** 2)
    a = math.pi / big_l * (m / big_l) * np.where(n % 2, n, -n) / lm
    c = np.stack([math.exp(big_l - x) * np.sin(k * x), math.exp(-x) * np.sin(k * (big_l - x))]) * a
    survive = c @ np.exp(-lm * j_cap)
    if max(survive.sum(), survive @ np.exp(-2.0 * np.array([t.R0, t.R1]))) > _CAP_PROB:
        raise Infeasible(_CAP.format(j_cap))
    return lm, c


def _log_dephasing(eta: float, m: float) -> float:
    """log z = -(1 - eta) m / (2 eta): a grid step m = dt / tau scales a coherence by z."""
    return -(1.0 - eta) * m / (2.0 * eta)


def _readout_coherence(params: PartialProjParams, eta: float, m: float, j_cap: int):
    """Coherence factors (kappa_0, kappa_1) of the thresholded readout, run-averaged:
    outcome b scales D_b rho D_b^dag's off-diagonal by kappa_b = E[z^J | side b], z the
    per-step dephasing (:func:`_log_dephasing`), J the run's step count, whose law given
    the side is one under both hidden labels, so the averaged map is linear
    (:func:`_exit_series`). It reads (p, q), eta and the grid (:func:`_grid`; alpha enters
    through tau in m = dt / tau), never the seed: a leaf table calls it once per step.
    """
    t = thresholds_from_pq(params)
    _realizable(t)
    if t.R0 == 0.0 or t.R1 == 0.0:
        return 1.0, 1.0  # the readout stops before its first step
    lm, c = _exit_series(t, m, j_cap)
    # kappa_b h_b = z h_b - (1 - z) sum_{j >= 1} z^j S_b(j), h_b = P(side b) at drift +1.
    log_z = _log_dephasing(eta, m)
    h, w = np.array([params.p, 1.0 - params.p]), log_z - lm
    kappa = math.exp(log_z) * h + math.expm1(log_z) * (c @ (np.exp(w) / -np.expm1(w)))
    return tuple(np.divide(kappa, h, out=np.ones(2), where=h > 0).tolist())


def _exit_table(t: Thresholds, m: float, j_cap: int) -> np.ndarray:
    """Survival table S[b, j] = P(side b, J > j) at drift +1 for j = 0 .. K.

    J = ceil(T / dt) is a run's step count on the grid and S[:, 0] = h = (p, 1 - p).
    K is j_cap or the first j where both sides' tails are below 1e-17 of h. Each
    chunk of bins is as long as the table built before it (64 bins at least), so
    K bins take about log2(K / 64) + 1 numpy passes; a chunk starting at step i keeps
    only the terms lm_n i <= 60.
    """
    lm, c = _exit_series(t, m, j_cap)
    pq = pq_from_thresholds(t)
    h = np.array([pq.p, pq.q * math.exp(2.0 * t.R1)])  # (p, 1 - p) without cancellation
    chunks, j = [h[:, None]], 1
    while j <= j_cap:
        steps = np.arange(j, min(j + max(j, 64), j_cap + 1))
        terms = np.searchsorted(lm, _CHUNK_CUT / j, side="right")
        chunk = c[:, :terms] @ np.exp(-np.outer(lm[:terms], steps))
        done = np.all(chunk < _TAIL_FLOOR * h[:, None], axis=0)
        if done.any():
            chunks.append(chunk[:, : done.argmax() + 1])
            break
        chunks.append(chunk)
        j += len(steps)
    return np.concatenate(chunks, axis=1)


class _Plan(NamedTuple):
    """What a batch of one readout reads that depends on the readout alone (:func:`_search_table`).

    ``born`` is (p, e^{-2 R0}): P(side 0) = p (rho00 + e^{-2 R0} rho11). For 2^s cells a side,
    flat cell b 2^s + g holds the uniforms u in [g, g + 1) / 2^s of side b: ``steps`` (int32)
    is the step count J of a run there if ``wide`` (int8) is 0, and ``wide`` is -1 (side 0)
    or +1 (side 1) where the run must search ``tail``, both sides in one ascending array.
    """

    born: tuple[float, float]
    shift: int
    steps: np.ndarray
    wide: np.ndarray
    tail: np.ndarray


@functools.lru_cache(maxsize=8)
def _search_table(t: Thresholds, m: float, j_cap: int) -> _Plan:
    """The readout's sampling plan, read-only; cached on (t, m, j_cap), never on the seed.

    tail_b = -S_b(j) / h_b for j = 1 .. K (:func:`_exit_table`), last bin 0, is clipped to
    [-1, 0] and made non-decreasing: the first bins sum the series to h_b only up to
    round-off. A run with uniform u on side b takes J = 1 + #{j : tail_b[j] <= u - 1}. With
    guide[b, g] = #{tail_b <= g / cells - 1}, cells = 2^min(ceil(log2 K), 16), J - 1 lies in
    [guide[b, g], guide[b, g + 1]] for u in [g, g + 1) / cells, exact dyadic edges (indexed
    search; Chen & Asau 1974): ``steps`` is 1 + guide[b, g], and only the cells where the two
    differ are ``wide``. ``tail`` is tail_0, then nextup(-tail_1) reversed: a right search of
    u - 1 counts side 0's bins, one of 1 - u = -(u - 1) (exact in floating point) counts K plus
    side 1's bins above u - 1. A zero threshold stops the readout at J = 0: one cell a side.

    ``Infeasible`` as :func:`_realizable` and :func:`_exit_series`, on every call: exceptions
    are not cached. A tail holds 2 K <= 2 j_cap floats, which the slowest readouts reach (alpha
    near pi/2, strong thresholds): 16 MB at the default cap of 1e6 dt, plus 2 cells int32 steps
    and int8 flags, at most 0.625 MB, so the 8 entries hold at most 133 MB; a longer
    ``max_duration`` raises the tails in proportion.
    """
    pq = _realizable(t)
    born = (pq.p, math.exp(-2.0 * t.R0))
    if t.R0 == 0.0 or t.R1 == 0.0:
        plan = _Plan(born, 0, np.zeros(2, np.int32), np.zeros(2, np.int8), np.empty(0))
    else:
        surv = _exit_table(t, m, j_cap)
        tail = surv[:, 1:]
        tail /= -surv[:, :1]
        tail[:, -1] = 0.0  # a capped table's last bin takes the tail past the cap
        np.maximum.accumulate(np.clip(tail, -1.0, 0.0, out=tail), axis=1, out=tail)
        shift = min((tail.shape[1] - 1).bit_length(), 16)
        edges = np.arange((1 << shift) + 1) / (1 << shift) - 1.0
        guide = np.array([np.searchsorted(side, edges, side="right") for side in tail], np.int32)
        wide = (guide[:, 1:] != guide[:, :-1]).astype(np.int8)
        wide[0] *= -1
        tail = np.concatenate([tail[0], np.nextafter(-tail[1, ::-1], np.inf)])
        plan = _Plan(born, shift, (1 + guide[:, :-1]).ravel(), wide.ravel(), tail)
    for a in (plan.steps, plan.wide, plan.tail):
        a.flags.writeable = False
    return plan


def _final_batch(
    rho: np.ndarray,
    outcome: np.ndarray,
    steps: np.ndarray,
    t: Thresholds,
    config: ReadoutConfig,
) -> TrajectoryBatch:
    """Runs from ``rho`` ending on side ``outcome`` after ``steps`` steps of dt.

    The two final states, ``update`` of M_R = diag(w, 1/w) (:func:`_back_action`) for R = R0
    and R1 (weight at least e^{-|R|}, above its floor), are built once and gathered by
    outcome, with their purities d_b + c_b, d_b = r00^2 + r11^2 and c_b = 2 |r01|^2. At
    eta < 1 a run's off-diagonals are scaled in place by f = z^J (:func:`_log_dephasing`),
    J its step count, one exp over the steps, and its purity is d_b + c_b f^2.
    """
    rho, states, diag, coh = rho.tolist(), [], [], []
    for r in (t.R0, t.R1):
        w0, w1 = _back_action(r, config.alpha)
        states.append(update(((w0, 0.0), (0.0, w1)), rho)[1])
        (r00, r01), (_, r11) = states[-1]
        diag.append(r00 * r00 + r11 * r11)
        coh.append(2.0 * abs(r01) ** 2)
    out = np.array(states).take(outcome, axis=0)
    final_r, diag, coh = np.array([(t.R0, t.R1), diag, coh])
    steps = steps.astype(np.float64)
    eta = config.efficiency
    if eta < 1.0:
        f = np.exp(steps * _log_dephasing(eta, config.dt / config.tau))
        out[:, 0, 1] *= f
        np.conjugate(out[:, 0, 1], out=out[:, 1, 0])
        f *= f
        f *= coh.take(outcome)
        purity = np.add(f, diag.take(outcome), out=f)
    else:
        purity = (diag + coh).take(outcome)
    return TrajectoryBatch(outcome, steps * config.dt, final_r.take(outcome), out, purity)


def _sample_exit(config: ReadoutConfig, t: Thresholds, rho: np.ndarray, u: np.ndarray) -> TrajectoryBatch:
    """Runs from ``rho`` drawn from the exact exit law, run i from the uniform pair ``u[i]``.

    The first uniform picks the side by the Born rule, one weight for the batch:
    P(side 0) = p (rho00 + e^{-2 R0} rho11) = p rho00 + (1 - q) rho11, (p, q) = ``_realizable(t)``.
    The second, u, picks the step count J from that side's conditional law, the same under
    both hidden labels, through the readout's plan (:func:`_search_table`): one cell index,
    one take of the steps and one of the flags. The runs in wide cells, 8-9% on the strong
    readouts, are searched together: x = s (1 - u), s their flag, and a right search r of
    x in the plan's tail gives J = K + 1 - |r - K|, K bins a side.
    """
    plan = _search_table(t, *_grid(config))
    born0 = plan.born[0] * (rho[0, 0].real + plan.born[1] * rho[1, 1].real)
    side_u, key = u.T.copy()  # contiguous columns
    outcome = (side_u >= born0).astype(np.int64)
    cell = outcome << plan.shift
    cell += (key * (1 << plan.shift)).astype(np.intp)
    steps = plan.steps.take(cell)
    flag = plan.wide.take(cell)
    wide = flag.nonzero()[0]
    r = plan.tail.searchsorted(np.copysign(1.0 - key.take(wide), flag.take(wide)), side="right")
    half = len(plan.tail) // 2
    steps[wide] = half + 1 - np.abs(r - half)
    return _final_batch(rho, outcome, steps, t, config)


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
    exactly and trajectory i of a batch of n is trajectory i of a batch of m. ``ValueError``
    unless ``n`` is a non-negative integer; ``Infeasible`` if a run outlasts the duration
    cap with probability above 1e-12 under either hidden label, whatever the seed.
    """
    validate_count(n, "trajectory count")
    rho = validate_state(initial)
    u = np.random.default_rng(config.seed).random((n, 2))
    return _sample_exit(config, t, rho, u)


_JSONL = ('{"outcome": %r, "duration": %r, "final_R": %r, "final_state": '
          '[[[%r, %r], [%r, %r]], [[%r, %r], [%r, %r]]], "purity": %r}\n')


def trajectories_to_jsonl(batch: TrajectoryBatch) -> str:
    """Serialize a batch as JSON lines, one newline-terminated record per
    trajectory; an empty batch gives "".

    Each line is what ``json.dumps`` writes for the record's dict, filled into one
    template: ``repr`` of a finite float is its JSON text. A batch repeats few
    distinct records, so each distinct row of bytes is formatted once and the
    lines are indexed from those.
    """
    states = np.stack([batch.final_state.real, batch.final_state.imag], axis=-1).reshape(-1, 8)
    rows = np.column_stack([batch.outcome, batch.duration, batch.final_R, states, batch.purity])
    _, first, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
        return_index=True, return_inverse=True,
    )
    columns = (batch.outcome[first].tolist(), *rows[first, 1:].T.tolist())
    lines = list(map(_JSONL.__mod__, zip(*columns)))
    return "".join(map(lines.__getitem__, inverse.tolist()))
