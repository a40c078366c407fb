import itertools
import math
import pickle
from decimal import Decimal, localcontext

import numpy as np
import pytest

from genmeas import continuous_readout
from genmeas.continuous_readout import (
    ReadoutConfig,
    Thresholds,
    TrajectoryBatch,
    measurement_operator,
    pq_from_thresholds,
    simulate_batch,
    thresholds_from_pq,
    trajectories_to_jsonl,
)
from genmeas.decomposition import kraus_set, reduce, sample_protocol
from genmeas.errors import Infeasible
from genmeas.linalg import phase_distance
from genmeas.partial_projection import (
    PartialProjParams,
    apply_outcome,
    dops,
    pure_state,
)

KET0 = pure_state(np.array([1.0, 0.0]))
KET1 = pure_state(np.array([0.0, 1.0]))
PLUS = pure_state(np.array([1.0, 1.0]) / math.sqrt(2))


def test_thresholds_example():
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    assert abs(t.R0 - 0.34657) < 5e-6
    assert abs(t.R1 + 0.54931) < 5e-6


def test_thresholds_no_measurement():
    t = thresholds_from_pq(PartialProjParams(0.7, 0.3))
    assert t.R0 == 0.0 and t.R1 == 0.0


def test_thresholds_projective_flagged():
    t = thresholds_from_pq(PartialProjParams(1.0, 1.0))
    assert t.R0 == math.inf and t.R1 == -math.inf
    assert not t.finite
    with pytest.raises(Infeasible, match="cannot invert infinite thresholds"):
        pq_from_thresholds(t)


def test_thresholds_reject_swapped_roles():
    with pytest.raises(ValueError, match="outcome roles are swapped"):
        thresholds_from_pq(PartialProjParams(0.3, 0.3))


def test_thresholds_sign_constraints():
    with pytest.raises(ValueError):
        Thresholds(R0=-0.1, R1=-1.0)
    with pytest.raises(ValueError):
        Thresholds(R0=0.1, R1=0.2)


def test_pq_round_trip():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        p = rng.uniform(0.05, 0.999)
        q = rng.uniform(max(0.05, 1.0 - p + 1e-3), 0.999)
        params = PartialProjParams(p, q)
        back = pq_from_thresholds(thresholds_from_pq(params))
        assert abs(back.p - p) < 1e-12
        assert abs(back.q - q) < 1e-12


def test_thresholds_zero_strength_is_exactly_no_measurement():
    # Every (p, 1 - p) on a 1e-4 grid gives exactly (0, 0), never log
    # round-off such as (1.1e-16, 0), which read back as p = 0.
    for k in range(1, 10_000):
        t = thresholds_from_pq(PartialProjParams(k / 10_000, 1.0 - k / 10_000))
        assert (t.R0, t.R1) == (0.0, 0.0), k
    t = thresholds_from_pq(PartialProjParams(0.0101, 0.9899))
    assert (t.R0, t.R1) == (0.0, 0.0)
    # A mixed state then splits by the documented 1/2 convention.
    n = 4000
    batch = simulate_batch(ReadoutConfig(tau_min=1.0, seed=24), t, np.eye(2) / 2, n)
    assert abs(np.count_nonzero(batch.outcome == 0) / n - 0.5) < 4 * math.sqrt(0.25 / n)


def test_thresholds_round_trip_a_few_ulps_from_zero_strength():
    # With q the next float above 1 - p, the map either sees p + q == 1 and
    # gives exactly (0, 0), or its thresholds read back as (p, q).
    for k in range(1, 10_000):
        p = k / 10_000
        q = float(np.nextafter(1.0 - p, 2.0))
        t = thresholds_from_pq(PartialProjParams(p, q))
        if (t.R0, t.R1) != (0.0, 0.0):
            back = pq_from_thresholds(t)
            assert abs(back.p - p) <= 1e-12 and abs(back.q - q) <= 1e-12, k


def test_pq_from_large_thresholds_is_the_closed_form():
    # p = (1 - e^{2 R1}) / (1 - e^{2 (R1 - R0)}), q = (1 - e^{-2 R0}) / (same),
    # in 50-digit decimal arithmetic; 1 - q is far below p's precision here.
    with localcontext() as ctx:
        ctx.prec = 50
        for r0 in range(1, 19):
            back = pq_from_thresholds(Thresholds(float(r0), -1.0))
            d = 1 - Decimal(-2 - 2 * r0).exp()
            for got, expect in ((back.p, (1 - Decimal(-2).exp()) / d),
                                (back.q, (1 - Decimal(-2 * r0).exp()) / d)):
                assert abs(Decimal(got) / expect - 1) < Decimal("1e-12"), r0


@pytest.mark.parametrize("r0", [10.0, 15.0, 18.0])
def test_batch_at_large_thresholds_samples_p(r0):
    t = Thresholds(r0, -1.0)
    p = -math.expm1(-2.0) / -math.expm1(-2.0 - 2.0 * r0)
    n = 4000
    batch = simulate_batch(ReadoutConfig(tau_min=1.0, seed=25), t, KET0, n)
    assert abs(np.count_nonzero(batch.outcome == 0) / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_thresholds_projective_in_double_are_refused():
    # q reads back as exactly 1, so the thresholds are those of a projection.
    cfg = ReadoutConfig(tau_min=1.0, seed=26)
    for t in (Thresholds(20.0, -1.0), Thresholds(1.0, -40.0), Thresholds(400.0, -1.0)):
        with pytest.raises(Infeasible, match="not finite"):
            simulate_batch(cfg, t, KET0, 10)
    # A zero threshold still stops the readout at once.
    for t, side in ((Thresholds(0.0, -40.0), 0), (Thresholds(400.0, 0.0), 1)):
        batch = simulate_batch(cfg, t, PLUS, 10)
        assert np.all(batch.outcome == side) and np.all(batch.duration == 0.0)


def test_pq_degenerate_convention():
    back = pq_from_thresholds(Thresholds(0.0, 0.0))
    assert back.p == 0.5 and back.q == 0.5


def test_pq_symmetric_thresholds():
    r0 = 0.8
    back = pq_from_thresholds(Thresholds(r0, -r0))
    expect = math.exp(2 * r0) / (math.exp(2 * r0) + 1.0)
    assert abs(back.p - expect) < 1e-12
    assert abs(back.q - expect) < 1e-12


def test_measurement_operator_identity():
    assert np.allclose(measurement_operator(0.0, 0.3), np.eye(2))


def test_measurement_operator_matches_d0():
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    m = measurement_operator(t.R0, 0.0)
    assert np.allclose(np.diag(m).real, [1.18921, 0.84090], atol=5e-6)
    d0, _ = dops(PartialProjParams(0.8, 0.6))
    assert phase_distance(m / np.linalg.norm(m), d0 / np.linalg.norm(d0)) < 1e-10


def test_measurement_operator_quadrature_phase():
    m = measurement_operator(1.0, math.pi / 4)
    expect = np.diag(
        [math.e**0.5 * np.exp(-0.5j), math.e**-0.5 * np.exp(0.5j)]
    )
    assert np.allclose(m, expect, atol=1e-12)
    for alpha in (math.pi / 2, -math.pi / 2, 2.0, math.nan):
        with pytest.raises(ValueError, match="strictly below pi/2"):
            measurement_operator(1.0, alpha)


def test_measurement_operator_composes():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        r1, r2 = rng.normal(0, 1, 2)
        alpha = rng.uniform(-1.2, 1.2)
        a = measurement_operator(r1 + r2, alpha)
        b = measurement_operator(r1, alpha) @ measurement_operator(r2, alpha)
        assert np.linalg.norm(a - b) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_measurement_operator_refuses_a_non_finite_r(alpha):
    # An infinite R is the projective limit of a threshold and NaN no readout at all:
    # neither has a finite back-action, whose formula would give a NaN matrix.
    for r in (math.inf, -math.inf):
        with pytest.raises(Infeasible, match="projective"):
            measurement_operator(r, alpha)
    with pytest.raises(ValueError, match="R is NaN"):
        measurement_operator(math.nan, alpha)


def test_measurement_operator_refuses_an_r_past_double_range():
    # e^{|R|/2} leaves double range past |R| = 1419.56...: there the formula overflows
    # (R = 1419.57), gives an inf entry (R = -1419.57, -1450) or divides by an
    # underflowed zero (R = -1500).
    for r in (1419.56, -1419.56):
        assert np.all(np.isfinite(measurement_operator(r)))
    for r in (1419.57, -1419.57, -1450.0, 1500.0, -1500.0):
        with pytest.raises(Infeasible, match="projective"):
            measurement_operator(r)
    # Off alpha = 0 the bounds move by a few hundredths: near them, every matrix
    # returned has a finite, nonzero diagonal, and every other R is refused.
    for alpha in (0.5, 1.2):
        for r in np.linspace(1419.0, 1420.5, 151):
            for sign in (1.0, -1.0):
                try:
                    d = measurement_operator(sign * r, alpha).diagonal()
                except Infeasible:
                    continue
                assert np.all(np.isfinite(d) & (d != 0))
        for r in (1500.0, -1500.0):
            with pytest.raises(Infeasible, match="projective"):
                measurement_operator(r, alpha)


def test_normalization_reproduces_dops():
    # sqrt(C_b) M_{R_b}(alpha) e^{+i R_b tan(alpha) sigma_z / 2} = D_b, with
    # C_0 = sqrt(p (1 - q)) and C_1 = sqrt(q (1 - p)): a run that stops on R_b
    # applies D_b up to the Z rotation its outcome fixes, which the continuous
    # backend undoes.
    rng = np.random.default_rng(23)
    for alpha in (0.0, 0.3, -1.2):
        for _ in range(200):
            p = rng.uniform(0.05, 0.999)
            q = rng.uniform(max(0.05, 1.0 - p + 1e-3), 0.999)
            params = PartialProjParams(p, q)
            t = thresholds_from_pq(params)
            consts = math.sqrt(p * (1.0 - q)), math.sqrt(q * (1.0 - p))
            for r, c, d in zip((t.R0, t.R1), consts, dops(params)):
                undo = np.diag(np.exp(0.5j * r * math.tan(alpha) * np.array([1.0, -1.0])))
                m = math.sqrt(c) * measurement_operator(r, alpha) @ undo
                assert np.linalg.norm(m - d) < 1e-12


def test_simulate_immediate_termination():
    cfg = ReadoutConfig(tau_min=1.0, seed=2)
    t = Thresholds(0.0, 0.0)
    recs = simulate_batch(cfg, t, PLUS, 4000)
    f0 = sum(1 for r in recs if r.outcome == 0) / len(recs)
    assert abs(f0 - 0.5) < 4 * math.sqrt(0.25 / 4000)
    for r in recs[:50]:
        assert r.duration == 0.0
        assert np.allclose(r.final_state, PLUS)


def test_trajectory_outcome_localization():
    cfg = ReadoutConfig(tau_min=1.0, seed=3)
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    recs = simulate_batch(cfg, t, PLUS, 200)
    for r in recs:
        ref = t.R0 if r.outcome == 0 else t.R1
        assert abs(r.final_R - ref) <= 1e-6


def test_trajectory_conditional_state():
    params = PartialProjParams(0.8, 0.6)
    cfg = ReadoutConfig(tau_min=1.0, seed=4)
    t = thresholds_from_pq(params)
    recs = simulate_batch(cfg, t, PLUS, 300)
    for r in recs:
        ideal = apply_outcome(params, r.outcome, PLUS)
        assert np.linalg.norm(r.final_state - ideal) < 1e-6
        assert abs(r.purity - 1.0) < 1e-8


def test_trajectory_frequency_grid():
    rng = np.random.default_rng(31)
    n = 4000
    for _ in range(4):
        p = rng.uniform(0.55, 0.95)
        q = rng.uniform(max(0.55, 1.0 - p + 0.05), 0.95)
        params = PartialProjParams(p, q)
        t = thresholds_from_pq(params)
        cfg = ReadoutConfig(tau_min=1.0, seed=int(rng.integers(1 << 30)))
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = pure_state(psi / np.linalg.norm(psi))
        expect = float((params.p * rho[0, 0] + (1 - params.q) * rho[1, 1]).real)
        recs = simulate_batch(cfg, t, rho, n)
        f0 = sum(1 for r in recs if r.outcome == 0) / n
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(f0 - expect) < 4 * sigma + 1e-3


def test_quadrature_state_consistency():
    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    alpha = math.pi / 4
    cfg = ReadoutConfig(tau_min=1.0, seed=5, alpha=alpha)
    recs = simulate_batch(cfg, t, PLUS, 200)
    for r in recs:
        base = apply_outcome(params, r.outcome, PLUS)
        phase = r.final_R * math.tan(alpha)
        z = np.diag([np.exp(-0.5j * phase), np.exp(0.5j * phase)])
        assert np.linalg.norm(r.final_state - z @ base @ z.conj().T) < 1e-6


def test_inefficiency_dephasing():
    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=6, efficiency=0.6)
    recs = simulate_batch(cfg, t, PLUS, 200)
    degraded = [r for r in recs if r.duration > 0]
    assert degraded
    for r in degraded:
        assert r.purity < 1.0 - 1e-12
        ideal = apply_outcome(params, r.outcome, PLUS)
        assert abs(r.final_state[0, 1]) < abs(ideal[0, 1])


def test_batch_order_independence():
    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=8)
    full = simulate_batch(cfg, t, PLUS, 20)
    again = simulate_batch(cfg, t, PLUS, 20)
    for a, b in zip(full, again):
        assert a.outcome == b.outcome and a.final_R == b.final_R


def test_jsonl_export():
    import json

    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=9)
    recs = simulate_batch(cfg, t, PLUS, 5)
    lines = trajectories_to_jsonl(recs).strip().split("\n")
    assert len(lines) == 5
    row = json.loads(lines[0])
    assert set(row) == {"outcome", "duration", "final_R", "final_state", "purity"}
    assert len(row["final_state"]) == 2 and len(row["final_state"][0][0]) == 2


def test_jsonl_is_json_dumps():
    # The template writer against json.dumps of each record, with complex
    # off-diagonals (alpha != 0) damped by eta < 1.
    import json

    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    for seed in range(3):
        cfg = ReadoutConfig(tau_min=1.0, seed=seed, alpha=0.6, efficiency=0.7)
        batch = simulate_batch(cfg, t, PLUS, 300)
        assert np.all(batch.final_state[:, 0, 1].imag != 0)
        expect = "".join(
            json.dumps({
                "outcome": int(r.outcome),
                "duration": r.duration,
                "final_R": r.final_R,
                "final_state": np.stack([r.final_state.real, r.final_state.imag], axis=-1).tolist(),
                "purity": r.purity,
            }) + "\n"
            for r in batch
        )
        assert trajectories_to_jsonl(batch) == expect
    assert trajectories_to_jsonl(batch[:0]) == ""


def test_jsonl_formats_repeated_rows_that_are_not_adjacent():
    # A hand-built batch: rows repeat out of order, and two rows differ only in
    # the sign of a zero, so they are distinct records with distinct lines.
    import json

    a = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    c = np.array([[1.0, -0.0], [-0.0, 0.0]], dtype=complex)
    order = [0, 1, 0, 2, 1, 0, 3, 2]
    rows = [(0, 0.25, 1.5, a, 0.9), (1, 1e-300, -2.0, b, 1.0), (1, 1e-300, -2.0, c, 1.0),
            (0, 0.25, 1.5, a, 0.75)]
    picked = [rows[i] for i in order]
    batch = TrajectoryBatch(
        np.array([r[0] for r in picked]), np.array([r[1] for r in picked]),
        np.array([r[2] for r in picked]), np.stack([r[3] for r in picked]),
        np.array([r[4] for r in picked]),
    )
    expect = "".join(
        json.dumps({
            "outcome": int(r.outcome), "duration": r.duration, "final_R": r.final_R,
            "final_state": np.stack([r.final_state.real, r.final_state.imag], axis=-1).tolist(),
            "purity": r.purity,
        }) + "\n"
        for r in batch
    )
    text = trajectories_to_jsonl(batch)
    assert text == expect
    lines = text.splitlines()
    assert len(set(lines)) == 4 and lines[1] == lines[4] and lines[3] == lines[7] != lines[1]


def test_batch_is_struct_of_arrays():
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    batch = simulate_batch(ReadoutConfig(tau_min=1.0, seed=10), t, PLUS, 50)
    assert isinstance(batch, TrajectoryBatch) and len(batch) == 50
    assert batch.outcome.shape == batch.duration.shape == (50,)
    assert batch.final_R.shape == batch.purity.shape == (50,)
    assert batch.final_state.shape == (50, 2, 2)
    # An integer index applies to every field, as a slice does: run 49's fields.
    row = batch[49]
    assert isinstance(row, TrajectoryBatch)
    for name in ("outcome", "duration", "final_R", "final_state", "purity"):
        assert np.array_equal(getattr(row, name), getattr(batch, name)[49])
    assert np.shares_memory(batch[-1].final_state, batch.final_state)
    part = batch[10:20]
    assert isinstance(part, TrajectoryBatch) and len(part) == 10
    assert np.array_equal(part.final_R, batch.final_R[10:20])
    assert [r.outcome for r in batch] == batch.outcome.tolist()


def test_seeding_contract():
    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=12, efficiency=0.7)
    a = simulate_batch(cfg, t, PLUS, 500)
    b = simulate_batch(cfg, t, PLUS, 500)
    assert np.array_equal(a.outcome, b.outcome)
    assert np.array_equal(a.duration, b.duration)
    assert np.array_equal(a.final_state, b.final_state)
    # Run i of a batch is row i of default_rng(seed).random((n, 2)): the
    # first uniform picks the side by the Born rule, the second the step
    # count from that side's exit table.
    u = np.random.default_rng(cfg.seed).random((500, 2))
    born0 = float((params.p * PLUS[0, 0] + (1 - params.q) * PLUS[1, 1]).real)
    assert np.array_equal(a.outcome, (u[:, 0] >= born0).astype(int))
    surv = continuous_readout._exit_table(t, *continuous_readout._grid(cfg))
    for k in range(500):
        side = surv[a.outcome[k]]
        j = round(a.duration[k] / cfg.dt)
        assert side[j] / side[0] < 1.0 - u[k, 1] <= side[j - 1] / side[0]


def test_batches_are_prefix_consistent():
    t = thresholds_from_pq(PartialProjParams(0.99, 0.98))
    cfg = ReadoutConfig(tau_min=1.0, seed=18, efficiency=0.6)
    big = simulate_batch(cfg, t, PLUS, 300)
    for n in (0, 1, 37, 300):
        small = simulate_batch(cfg, t, PLUS, n)
        for name in ("outcome", "duration", "final_R", "final_state", "purity"):
            assert np.array_equal(getattr(small, name), getattr(big, name)[:n])


def test_batch_rejects_negative_count():
    # Checked as seeds are: 1.5 and True are no counts either, and numpy would raise TypeError.
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    for n in (-3, 1.5, True, "3", None):
        with pytest.raises(ValueError, match="trajectory count must be a non-negative integer"):
            simulate_batch(ReadoutConfig(tau_min=1.0, seed=1), t, PLUS, n)


def test_batch_refuses_infinite_thresholds():
    t = thresholds_from_pq(PartialProjParams(0.9, 1.0))
    with pytest.raises(Infeasible, match="not finite"):
        simulate_batch(ReadoutConfig(tau_min=1.0, seed=1), t, PLUS, 10)


def test_batch_duration_cap():
    t = thresholds_from_pq(PartialProjParams(0.99, 0.98))
    cfg = ReadoutConfig(tau_min=1.0, seed=1, max_duration=1e-6)
    with pytest.raises(Infeasible, match="duration cap"):
        simulate_batch(cfg, t, PLUS, 100)
    # A cap that is not positive is refused as tau_min and dt are: -1 used to give
    # j_cap = -98 and an IndexError from simulate_batch.
    for cap in (-1.0, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="max_duration must be positive"):
            ReadoutConfig(tau_min=1.0, seed=1, max_duration=cap)


def test_walk_law_closed_forms():
    # From |0> (|1>) the readout is a Brownian motion with drift +1/tau
    # (-1/tau) and variance 1/tau per unit time, absorbed at R0 and R1: it
    # hits R0 with probability p (1 - q), and by Wald's identity its mean
    # exit time is (R0 P0 + R1 P1) / drift. Stopping on the dt grid adds
    # up to one step to each duration; a fine grid keeps that allowance
    # below the statistical error.
    p, q = 0.8, 0.6
    t = thresholds_from_pq(PartialProjParams(p, q))
    cfg = ReadoutConfig(tau_min=1.0, seed=14, dt=1e-3)
    n = 40_000
    for rho, p0, drift in ((KET0, p, 1.0 / cfg.tau), (KET1, 1.0 - q, -1.0 / cfg.tau)):
        batch = simulate_batch(cfg, t, rho, n)
        f0 = np.count_nonzero(batch.outcome == 0) / n
        assert abs(f0 - p0) < 4 * math.sqrt(p0 * (1 - p0) / n)
        mean_t = (t.R0 * p0 + t.R1 * (1.0 - p0)) / drift
        sigma = batch.duration.std() / math.sqrt(n)
        assert mean_t - 4 * sigma <= batch.duration.mean() <= mean_t + cfg.dt + 4 * sigma


def test_inefficiency_coherence_closed_form():
    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    eta = 0.7
    cfg = ReadoutConfig(tau_min=1.0, seed=15, efficiency=eta)
    batch = simulate_batch(cfg, t, PLUS, 2000)
    ideal = np.array([apply_outcome(params, k, PLUS) for k in (0, 1)])[batch.outcome]
    decay = np.exp(-(1.0 - eta) / (2.0 * eta) * batch.duration / cfg.tau)
    assert np.allclose(np.abs(batch.final_state[:, 0, 1]),
                       np.abs(ideal[:, 0, 1]) * decay, rtol=0, atol=1e-12)
    assert np.allclose(batch.final_state[:, 0, 0], ideal[:, 0, 0], rtol=0, atol=1e-12)


def test_batch_cap_is_deterministic():
    # At (0.99, 0.98) a run outlasts 5 tau with probability about 0.04, so a
    # 30-run walk would raise on some seeds only. The batch raises whenever
    # a run outlasts the cap with probability above 1e-12: on every seed or
    # on none.
    t = thresholds_from_pq(PartialProjParams(0.99, 0.98))
    for cap, raises in ((5.0, True), (60.0, False)):
        seen = set()
        for seed in range(10):
            cfg = ReadoutConfig(tau_min=1.0, seed=seed, max_duration=cap)
            try:
                simulate_batch(cfg, t, PLUS, 30)
                seen.add(False)
            except Infeasible as e:
                assert "duration cap" in str(e)
                seen.add(True)
        assert seen == {raises}


def test_batch_is_unbiased_for_close_thresholds():
    # R0 - R1 = 0.10 is one step's spread at dt = tau/100, where a grid
    # walk's bridge rule is biased (0.600 against p = 0.55); the exit law
    # gives p.
    p = 0.55
    t = thresholds_from_pq(PartialProjParams(p, 0.5))
    n = 200_000
    batch = simulate_batch(ReadoutConfig(tau_min=1.0, seed=19), t, KET0, n)
    f0 = np.count_nonzero(batch.outcome == 0) / n
    assert abs(f0 - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_thresholds_too_close_for_the_series_stop_at_the_first_step():
    # Below R0 - R1 = pi sqrt(dt / (92 tau)) no series term survives one step: every
    # run stops after it, down to gaps whose square underflows, with no warning.
    cfg = ReadoutConfig(tau_min=1.0, seed=27, efficiency=0.7)
    for gap in (1e-5, 1e-160, 1e-300):
        batch = simulate_batch(cfg, Thresholds(gap, -gap), PLUS, 100)
        assert np.all(batch.duration == cfg.dt) and np.all(np.isfinite(batch.final_state)), gap


@pytest.mark.parametrize("factor", [1.01, 2.0, 3.0])
def test_exit_series_at_a_tiny_grid_step_does_not_overflow(factor):
    # At dt / tau = 6e-307 a gap of a few pi sqrt(dt / 92) keeps series terms whose
    # lambda_n = (1 + k_n^2) / 2 overflows, k_n near 1e154; their decay per grid step
    # lambda_n dt / tau does not. The law depends on the gap in units of sqrt(dt / tau)
    # up to the drift's share, so it matches the same readout at dt / tau = 1e-20.
    tables = []
    for dt in (6e-307, 1e-20):
        gap = factor * math.pi * math.sqrt(dt / 92)
        cfg = ReadoutConfig(tau_min=1.0, seed=1, dt=dt, max_duration=dt * 1e6 / 0.6)
        t = Thresholds(gap / 2, -gap / 2)
        batch = simulate_batch(cfg, t, np.eye(2) / 2, 5)
        assert np.all(batch.duration >= dt) and np.all(np.isfinite(batch.final_state))
        surv = continuous_readout._exit_table(t, *continuous_readout._grid(cfg))
        tables.append(surv / surv[:, :1])
    assert tables[0].shape == tables[1].shape
    assert np.abs(tables[0] - tables[1]).max() < 1e-9


def _chi2_z(counts, expect, min_expect: float = 20.0) -> float:
    """(chi^2 - dof) / sqrt(2 dof) over consecutive bins merged up to ``min_expect``."""
    c_out, e_out, c_acc, e_acc = [], [], 0.0, 0.0
    for c, e in zip(counts, expect):
        c_acc, e_acc = c_acc + c, e_acc + e
        if e_acc >= min_expect:
            c_out.append(c_acc)
            e_out.append(e_acc)
            c_acc = e_acc = 0.0
    c_out[-1] += c_acc
    e_out[-1] += e_acc
    c, e = np.array(c_out), np.array(e_out)
    dof = len(e) - 1
    return float((((c - e) ** 2 / e).sum() - dof) / math.sqrt(2 * dof))


def reference_walk(config: ReadoutConfig, t: Thresholds, rho: np.ndarray, n: int,
                   rng: np.random.Generator) -> TrajectoryBatch:
    """Grid walk of ``n`` readout runs from ``rho``, the reference for the exit law that
    simulate_batch samples; both thresholds nonzero, at least 2 sqrt(dt / tau) apart.

    Each run draws its hidden label (0 w.p. rho00), then the active runs advance
    together one step of dt at a time. A step that ends beyond a threshold stops
    there; one that stays inside stops with the Brownian-bridge excursion probability
    exp(-2 g g' tau / dt), g and g' its ends' distances to the threshold.
    """
    m = continuous_readout._grid(config)[0]
    r0, r1, c = t.R0, t.R1, 2.0 / m
    outcome, steps = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    idx, R = np.arange(n), np.zeros(n)
    drift = np.where(rng.random(n) < rho[0, 0].real, m, -m)
    j = 0
    # Endpoints far beyond a threshold overflow the bridge exponent to inf,
    # which still reads as certain absorption.
    with np.errstate(over="ignore"):
        while len(idx):
            j += 1
            end = R + drift + math.sqrt(m) * rng.standard_normal(len(idx))
            u = rng.random(len(idx))
            q0 = np.exp(c * (R - r0) * (r0 - end))
            stop = u < q0 + np.exp(c * (R - r1) * (r1 - end))
            # An endpoint beyond R1 stops at R1 even if the bridge touched R0.
            outcome[idx[(u < q0) & (end > r1)]] = 0
            steps[idx[stop]] = j
            idx, R, drift = idx[~stop], end[~stop], drift[~stop]
    return continuous_readout._final_batch(rho, outcome, steps, t, config)


@pytest.mark.parametrize(
    "p, q, n, seed", [(0.6, 0.5, 200_000, 21), (0.8, 0.6, 200_000, 22), (0.99, 0.98, 50_000, 23)]
)
def test_exit_table_matches_the_walk(p, q, n, seed):
    # The grid walk from |+> (both hidden labels) against the exact exit law
    # that simulate_batch samples: P(side b, J = j) = w_b (S_b(j - 1) -
    # S_b(j)), w_b = rho00 + rho11 e^{-2 R_b}, by chi^2 over (side, J) bins.
    t = thresholds_from_pq(PartialProjParams(p, q))
    cfg = ReadoutConfig(tau_min=1.0, seed=seed)
    walk = reference_walk(cfg, t, PLUS, n, np.random.default_rng(seed))
    surv = continuous_readout._exit_table(t, *continuous_readout._grid(cfg))
    pmf = -np.diff(surv, axis=1)
    steps = np.rint(walk.duration / cfg.dt).astype(int)
    assert steps.min() >= 1 and steps.max() <= pmf.shape[1]
    for b, r in enumerate((t.R0, t.R1)):
        w = 0.5 + 0.5 * math.exp(-2.0 * r)
        counts = np.bincount(steps[walk.outcome == b] - 1, minlength=pmf.shape[1])
        assert abs(_chi2_z(counts, n * w * pmf[b])) < 4, b


def reference_exit_table(t: Thresholds, cfg: ReadoutConfig) -> np.ndarray:
    """The exit table built 64 bins at a time, each chunk from step j with the terms
    lm_n j <= 60, lm_n = lambda_n dt / tau."""
    m, j_cap = continuous_readout._grid(cfg)
    lm, c = continuous_readout._exit_series(t, m, j_cap)
    e0, e1 = math.expm1(-2.0 * t.R0), math.expm1(-2.0 * t.R1)
    h = np.array([e1, -e0]) / (e1 - e0)
    chunks = [h[:, None]]
    for j in range(1, j_cap + 1, 64):
        steps = np.arange(j, min(j + 64, j_cap + 1))
        terms = np.searchsorted(lm, 60.0 / j, side="right")
        chunk = c[:, :terms] @ np.exp(-np.outer(lm[:terms], steps))
        done = np.all(chunk < 1e-17 * h[:, None], axis=0)
        if done.any():
            chunks.append(chunk[:, : done.argmax() + 1])
            break
        chunks.append(chunk)
    return np.concatenate(chunks, axis=1)


def plan_tables(plan):
    """A sampling plan's tables side by side: (tail, guide, wide) with tail[b] side b's
    tail, guide[b, g] its right search of g / cells - 1 (cells + 1 edges) and wide[b] the
    flags of its cells, read back from the plan's flat layout."""
    half, cells = len(plan.tail) // 2, 1 << plan.shift
    tail = np.stack([plan.tail[:half], -np.nextafter(plan.tail[half:][::-1], -np.inf)])
    guide = np.column_stack([plan.steps.reshape(2, cells) - 1, [half, half]])
    return tail, guide, plan.wide.reshape(2, cells)


@pytest.mark.parametrize("pq", [(0.8, 0.6), (0.99, 0.98)])
@pytest.mark.parametrize("alpha, eta", [(0.0, 1.0), (math.pi / 4, 0.7)])
def test_batch_draws_from_the_reference_table(pq, alpha, eta):
    # Run i: its first uniform picks the side by the Born rule, its second
    # the step count from that side's reference table.
    t = thresholds_from_pq(PartialProjParams(*pq))
    back = pq_from_thresholds(t)
    surv = reference_exit_table(t, ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha, efficiency=eta))
    tail = -surv[:, 1:] / surv[:, :1]
    tail[:, -1] = 0.0
    for seed in range(10):
        cfg = ReadoutConfig(tau_min=1.0, seed=seed, alpha=alpha, efficiency=eta)
        rho = (KET0, KET1, PLUS)[seed % 3]
        batch = simulate_batch(cfg, t, rho, 1000)
        u = np.random.default_rng(seed).random((1000, 2))
        outcome = (u[:, 0] >= back.p * rho[0, 0].real + (1 - back.q) * rho[1, 1].real).astype(int)
        j0, j1 = (np.searchsorted(tail[b], u[:, 1] - 1.0, side="right") for b in (0, 1))
        assert np.array_equal(batch.outcome, outcome)
        assert np.array_equal(batch.duration, (1 + np.where(outcome == 0, j0, j1)) * cfg.dt)


def reference_final(states, final_R, duration, config):
    """M_R rho M_R^dag / Tr for each run of an (n, 2, 2) stack, dephased by
    exp(-(1 - eta)/(2 eta) T/tau): (final_state, purity), built run by run."""
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
    out = np.empty((len(final_R), 2, 2), dtype=np.complex128)
    out[:, 0, 0], out[:, 1, 1], out[:, 0, 1], out[:, 1, 0] = r00, r11, r01, r01.conj()
    return out, r00**2 + r11**2 + 2.0 * np.abs(r01) ** 2


def reference_batch(config, t, rho, n):
    """simulate_batch over the broadcast stack of n copies of rho: a Born weight and
    a final state per run. Returns (outcome, duration, final_R, final_state, purity)."""
    states = np.broadcast_to(rho, (n, 2, 2))
    u = np.random.default_rng(config.seed).random((n, 2))
    p = pq_from_thresholds(t).p
    born0 = p * (states[:, 0, 0].real + math.exp(-2.0 * t.R0) * states[:, 1, 1].real)
    outcome = (u[:, 0] >= born0).astype(np.int64)
    steps = np.zeros(n, dtype=np.int64)
    if t.R0 != 0.0 and t.R1 != 0.0:
        tail = plan_tables(continuous_readout._search_table(t, *continuous_readout._grid(config)))[0]
        for b in (0, 1):
            side = outcome == b
            steps[side] = 1 + np.searchsorted(tail[b], u[side, 1] - 1.0, side="right")
    final_R = np.where(outcome == 0, t.R0, t.R1)
    duration = steps * config.dt
    return (outcome, duration, final_R, *reference_final(states, final_R, duration, config))


@pytest.mark.parametrize("thresholds", [
    thresholds_from_pq(PartialProjParams(0.8, 0.6)), thresholds_from_pq(PartialProjParams(0.99, 0.98)),
    Thresholds(0.0, -0.3), Thresholds(0.4, 0.0), Thresholds(0.0, 0.0),
])
@pytest.mark.parametrize("alpha, eta", [(0.0, 1.0), (math.pi / 4, 0.7), (-1.2, 0.5)])
def test_batch_matches_the_per_run_reference(thresholds, alpha, eta):
    # One state per side, gathered by outcome, against a final state built per
    # run: the same draws bit for bit, states and purities within 1e-15, for
    # zero thresholds and batches of 0, 1 and 1000 runs.
    mixed = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    for seed, rho in enumerate((KET0, KET1, PLUS, mixed)):
        cfg = ReadoutConfig(tau_min=1.0, seed=seed, alpha=alpha, efficiency=eta)
        for n in (0, 1, 1000):
            batch = simulate_batch(cfg, thresholds, rho, n)
            outcome, duration, final_R, final_state, purity = reference_batch(cfg, thresholds, rho, n)
            assert np.array_equal(batch.outcome, outcome)
            assert np.array_equal(batch.duration, duration)
            assert np.array_equal(batch.final_R, final_R)
            assert batch.final_state.shape == (n, 2, 2) and batch.purity.shape == (n,)
            assert np.all(np.abs(batch.final_state - final_state) <= 1e-15)
            assert np.all(np.abs(batch.purity - purity) <= 1e-15)


@pytest.mark.parametrize("alpha, eta", [(0.0, 1.0), (math.pi / 4, 0.7)])
def test_walk_final_states_match_the_per_run_reference(alpha, eta):
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    cfg = ReadoutConfig(tau_min=1.0, seed=3, alpha=alpha, efficiency=eta)
    walk = reference_walk(cfg, t, PLUS, 500, np.random.default_rng(3))
    assert np.array_equal(walk.final_R, np.where(walk.outcome == 0, t.R0, t.R1))
    stack = np.broadcast_to(PLUS, (500, 2, 2))
    final_state, purity = reference_final(stack, walk.final_R, walk.duration, cfg)
    assert np.all(np.abs(walk.final_state - final_state) <= 1e-15)
    assert np.all(np.abs(walk.purity - purity) <= 1e-15)


@pytest.mark.parametrize("pq", [(0.8, 0.6), (0.99, 0.98)])
@pytest.mark.parametrize("alpha, eta", [(0.0, 1.0), (math.pi / 4, 0.7)])
def test_cached_exit_law_is_bit_identical(pq, alpha, eta):
    # A cold call builds the readout's sampling plan, a warm one reads it: the same
    # batch and samples bit for bit, and the cached plan equal to a fresh build, its
    # tables from _exit_table's survival table.
    params = PartialProjParams(*pq)
    t = thresholds_from_pq(params)
    proto = reduce(kraus_set(dops(params)))
    cfg = ReadoutConfig(tau_min=1.0, seed=5, alpha=alpha, efficiency=eta)
    grid = continuous_readout._grid(cfg)
    calls = (lambda: simulate_batch(cfg, t, PLUS, 1000),
             lambda: sample_protocol(proto, PLUS, 200, 9, "continuous", cfg))
    for call in calls:
        continuous_readout._search_table.cache_clear()
        cold, warm = call(), call()
        assert pickle.dumps(cold) == pickle.dumps(warm)
    surv = continuous_readout._exit_table(t, *grid)
    fresh = surv[:, 1:] / -surv[:, :1]
    fresh[:, -1] = 0.0
    # The first bins wobble about -1 by round-off, out of order: the table clips
    # them to [-1, 0] and takes the running maximum, so its searches are counts.
    fresh = np.maximum.accumulate(np.clip(fresh, -1.0, 0.0), axis=1)
    cells = 2 ** min(math.ceil(math.log2(fresh.shape[1])), 16)
    edges = np.arange(cells + 1) / cells - 1.0
    plan = continuous_readout._search_table(t, *grid)
    tail, guide, wide = plan_tables(plan)
    assert np.array_equal(tail, fresh)
    assert np.all(np.diff(tail) >= 0.0) and tail.min() >= -1.0 and tail.max() <= 0.0
    # One ascending array: side 0's tail, then side 1's negated, reversed and one ulp up.
    assert np.array_equal(plan.tail, np.concatenate([fresh[0], np.nextafter(-fresh[1, ::-1], np.inf)]))
    assert np.all(np.diff(plan.tail) >= 0.0)
    fresh_guide = [[(side <= edge).sum() for edge in edges] for side in tail]
    assert plan.steps.dtype == np.int32 and np.array_equal(guide, fresh_guide)
    # A cell is wide where the guide differs at its two edges, flagged -1 on side 0, +1 on side 1.
    assert wide.dtype == np.int8
    assert np.array_equal(wide, (np.diff(fresh_guide, axis=1) != 0) * np.array([[-1], [1]]))
    assert plan.born == (pq_from_thresholds(t).p, math.exp(-2.0 * t.R0))


def test_exit_law_cache_ignores_seed_state_and_efficiency():
    # The law depends on (thresholds, m, j_cap) alone: eight calls that differ in
    # seed, state and efficiency build one table.
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    cache = continuous_readout._search_table
    cache.cache_clear()
    for seed, rho, eta in itertools.product((3, 4), (KET0, PLUS), (1.0, 0.6)):
        simulate_batch(ReadoutConfig(tau_min=1.0, seed=seed, efficiency=eta), t, rho, 100)
    info = cache.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 7, 8)


def test_cached_exit_law_is_read_only():
    # The plan's arrays are read-only; the coherence factors are a tuple of floats.
    cfg = ReadoutConfig(tau_min=1.0, seed=0, efficiency=0.7)
    grid = continuous_readout._grid(cfg)
    arrays = []
    for pq in ((0.8, 0.6), (0.7, 0.3)):  # the second stops before its first step
        params = PartialProjParams(*pq)
        plan = continuous_readout._search_table(thresholds_from_pq(params), *grid)
        kappa = cfg.coherence(params)
        assert type(kappa) is tuple and all(type(k) is float for k in kappa)
        arrays += [plan.steps, plan.wide, plan.tail]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_guide_table_has_at_most_2_16_cells_a_side():
    # The (0.99, 0.98) readout takes 5,163 bins at alpha = 0 and 178,696 at 1.4:
    # the plan has the least power of two of cells at or above the bin count, up
    # to 2^16, so an entry grows by at most 2^17 int32 steps and int8 flags (640 KB).
    t = thresholds_from_pq(PartialProjParams(0.99, 0.98))
    for alpha, cells in ((0.0, 2**13), (1.4, 2**16)):
        grid = continuous_readout._grid(ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha))
        plan = continuous_readout._search_table(t, *grid)
        tail, guide, wide = plan_tables(plan)
        assert plan.steps.dtype == np.int32 and guide.shape == (2, cells + 1)
        assert plan.wide.dtype == np.int8 and wide.shape == (2, cells)
        assert cells // 2 < tail.shape[1] <= cells or tail.shape[1] > cells == 2**16
        assert plan.steps.nbytes + plan.wide.nbytes <= 2 * 2**16 * (4 + 1)


def owned_bytes(a: np.ndarray) -> int:
    """Bytes of the array that owns ``a``'s memory: a view keeps all of it alive."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("pq, alpha", [
    ((0.8, 0.6), 0.0), ((0.8, 0.6), math.pi / 4), ((0.99, 0.98), 0.0), ((0.99, 0.98), math.pi / 4),
    ((0.99, 0.98), 1.4),
])
def test_plan_entry_bytes_are_pinned(pq, alpha):
    # The four readouts the benchmark's walk draws from and a slow one (alpha near
    # pi/2): a cached plan holds at most 16 K + 8 (cells + 1) + 2 cells bytes, K bins
    # a side, the two float64 tails and int32 guide it replaces plus a byte of flags
    # a cell, so the plan cache cannot quietly grow a run's peak memory.
    t = thresholds_from_pq(PartialProjParams(*pq))
    plan = continuous_readout._search_table(t, *continuous_readout._grid(
        ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha)))
    k, cells = len(plan.tail) // 2, 1 << plan.shift
    cached = sum(owned_bytes(a) for a in (plan.steps, plan.wide, plan.tail))
    assert cached <= 16 * k + 8 * (cells + 1) + 2 * cells


def test_generator_doubles_are_multiples_of_2_to_the_minus_53():
    # The plan's searches key a run at u - 1 (side 0) or 1 - u (side 1). numpy's
    # uniforms are multiples of 2^-53 in [0, 1), so both are exact: a run's step
    # count is the table's count at its own uniform. 1 - u = -(u - 1) holds for
    # any double, since rounding to nearest is symmetric in sign.
    u = np.random.default_rng(123).random((100_000, 2))
    scaled = u * 2.0**53
    assert np.all(scaled == np.floor(scaled)) and u.min() >= 0.0 and u.max() < 1.0
    assert np.all((u - 1.0) + 1.0 == u) and np.all(1.0 - u == -(u - 1.0))


def test_duration_cap_is_exact_on_the_grid():
    # A cap of 255.5 dt makes step 256 the first past it, at either side of
    # a half step. A batch whose runs outlast the cap raises naming that
    # step; one that clears its cap draws exactly what the uncapped batch
    # draws.
    t = thresholds_from_pq(PartialProjParams(0.99, 0.98))
    for cap, j_cap in ((255.5e-2, 256), (255.49e-2, 256), (255.51e-2, 256),
                       (6000.5e-2, 6001)):
        assert continuous_readout._grid(ReadoutConfig(tau_min=1.0, seed=0, max_duration=cap))[1] == j_cap
    with pytest.raises(Infeasible, match="duration cap of 256 steps"):
        simulate_batch(ReadoutConfig(tau_min=1.0, seed=3, max_duration=255.5e-2), t, PLUS, 200)
    free = simulate_batch(ReadoutConfig(tau_min=1.0, seed=3), t, PLUS, 200)
    capped = simulate_batch(ReadoutConfig(tau_min=1.0, seed=3, max_duration=6000.5e-2), t, PLUS, 200)
    assert np.array_equal(capped.outcome, free.outcome)
    assert np.array_equal(capped.duration, free.duration)
    assert np.array_equal(capped.final_state, free.final_state)


def test_duration_cap_raises_on_every_call():
    # Exceptions are not cached: a cap the readout outlasts raises each time.
    params = PartialProjParams(0.99, 0.98)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=1, max_duration=0.05)
    grid = continuous_readout._grid(cfg)
    for _ in range(3):
        with pytest.raises(Infeasible, match="duration cap of 6 steps"):
            simulate_batch(cfg, t, PLUS, 10)
        with pytest.raises(Infeasible, match="duration cap of 6 steps"):
            continuous_readout._readout_coherence(params, 1.0, *grid)
