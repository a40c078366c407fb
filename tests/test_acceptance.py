"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line. Run with ``pytest -v tests/test_acceptance.py -s``
to see the lines as they complete.
"""

import math
import time

import numpy as np

from genmeas.ancilla_circuit import VARIANTS, angles_from_pq, circuit_from_pq, kraus_from_circuit
from genmeas.channels import NoiseSpec, noisy_branch
from genmeas.continuous_readout import (
    ReadoutConfig,
    simulate_batch,
    thresholds_from_pq,
)
from genmeas.decomposition import (
    compose_branch,
    kraus_set,
    random_kraus_set,
    random_unitary,
    reduce,
    sample_protocol,
)
from genmeas.fidelity import (
    ProcessMatrix,
    ProcessSet,
    _povms,
    average_state_fidelity,
    chi_from_kraus,
    classical_fidelity,
    partial_fidelity,
    process_fidelity,
    process_set_from_kraus,
    state_fidelity,
    total_fidelity,
)
from genmeas.linalg import adjoint, phase_distance
from genmeas.partial_projection import (
    PartialProjParams,
    apply_outcome,
    dops,
    pure_state,
)


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def trine_set():
    ops = []
    for k in range(3):
        theta = 2 * math.pi * k / 3
        psi = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        ops.append(math.sqrt(2.0 / 3.0) * np.outer(psi, psi.conj()))
    return kraus_set(ops, ("a", "b", "c"))


def test_criterion_1_limiting_cases():
    start = time.perf_counter()
    ok = True
    tol = 1e-12

    t = thresholds_from_pq(PartialProjParams(1.0, 1.0))
    ok &= t.R0 == math.inf and t.R1 == -math.inf and not t.finite
    phi, eps = angles_from_pq(PartialProjParams(1.0, 1.0))
    ok &= abs(phi - math.pi / 2) <= tol and abs(eps) <= tol

    t = thresholds_from_pq(PartialProjParams(0.7, 0.3))
    ok &= t.R0 == 0.0 and t.R1 == 0.0
    phi, _ = angles_from_pq(PartialProjParams(0.7, 0.3))
    ok &= abs(phi) <= tol

    t = thresholds_from_pq(PartialProjParams(1.0, 0.4))
    ok &= t.R1 == -math.inf
    phi, eps = angles_from_pq(PartialProjParams(1.0, 0.4))
    ok &= abs(phi + eps - math.pi / 2) <= tol

    for p in (0.6, 0.75, 0.9):
        _, eps = angles_from_pq(PartialProjParams(p, p))
        ok &= abs(eps) <= tol
        t = thresholds_from_pq(PartialProjParams(p, p))
        ok &= abs(t.R1 + t.R0) <= tol

    ok &= time.perf_counter() - start < 1.0
    report(1, "limiting cases", ok)


def test_criterion_2_circuit_variant_equivalence():
    start = time.perf_counter()
    ok = True
    grid = list(np.linspace(0.05, 0.95, 10))
    cases = [(p, q) for p in grid for q in grid]
    cases += [(1.0, 1.0), (1.0, 0.4), (0.4, 1.0), (0.7, 0.3)]
    for p, q in cases:
        params = PartialProjParams(p, q)
        d0, d1 = dops(params)
        stacks = {}
        for v in VARIANTS:
            k0, k1 = kraus_from_circuit(circuit_from_pq(v, params))
            stacks[v] = np.vstack([k0, k1])
            ok &= phase_distance(d0, k0) < 1e-12
            ok &= phase_distance(d1, k1) < 1e-12
        for v in ("cphase", "fixed_cz"):
            ok &= phase_distance(stacks["direct"], stacks[v]) < 1e-12
    ok &= time.perf_counter() - start < 5.0
    report(2, "circuit variant equivalence", ok)


def test_criterion_3_decomposition_round_trip():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        s = random_kraus_set(n, rng)
        proto = reduce(s)
        total = np.zeros((2, 2), dtype=complex)
        for lab, m in zip(s.labels, s.ops):
            b = compose_branch(proto, lab)
            ok &= phase_distance(m, b) <= 1e-9
            total += adjoint(b) @ b
        ok &= np.linalg.norm(total - np.eye(2)) <= 1e-9
    ok &= time.perf_counter() - start < 30.0
    report(3, "decomposition round trip", ok)


def test_criterion_4_continuous_readout_statistics():
    start = time.perf_counter()
    ok = True
    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=88)
    n = 100_000
    cases = [
        (pure_state(np.array([1.0, 0.0])), 0, 0.8),
        (pure_state(np.array([0.0, 1.0])), 1, 0.6),
    ]
    for initial, outcome, expect in cases:
        recs = simulate_batch(cfg, t, initial, n)
        freq = sum(1 for r in recs if r.outcome == outcome) / n
        ok &= abs(freq - expect) < 4 * math.sqrt(expect * (1 - expect) / n)
        for r in recs:
            ideal = apply_outcome(params, r.outcome, initial)
            # Both states are pure, so the squared fidelity is the overlap.
            fid = float(np.trace(r.final_state @ ideal).real)
            ok &= fid >= 1.0 - 1e-6
    ok &= time.perf_counter() - start < 60.0
    report(4, "continuous readout statistics", ok)


def test_criterion_5_quadrature_scaling():
    ok = True
    params = PartialProjParams(0.8, 0.6)
    t = thresholds_from_pq(params)
    plus = pure_state(np.array([1.0, 1.0]) / math.sqrt(2))
    n = 10_000
    means = {}
    finals = {}
    for alpha in (0.0, math.pi / 4):
        cfg = ReadoutConfig(tau_min=1.0, seed=99, alpha=alpha)
        recs = simulate_batch(cfg, t, plus, n)
        means[alpha] = sum(r.duration for r in recs) / n
        finals[alpha] = recs
    ok &= abs(means[math.pi / 4] / means[0.0] - 2.0) < 0.1
    # The alpha = 0 result conjugated by the quadrature z-phase must match
    # the alpha = pi/4 final state at the same stopping readout.
    for r in finals[math.pi / 4][:2000]:
        base = apply_outcome(params, r.outcome, plus)
        phase = r.final_R * math.tan(math.pi / 4)
        z = np.diag([np.exp(-0.5j * phase), np.exp(0.5j * phase)])
        expect = z @ base @ adjoint(z)
        fid = float(np.trace(r.final_state @ expect).real)
        ok &= fid >= 1.0 - 1e-6
    report(5, "quadrature scaling", ok)


def test_criterion_6_fidelity_identities():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(321)

    def rho_random():
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = a @ adjoint(a)
        return m / np.trace(m).real

    for _ in range(100):
        rho, sigma = rho_random(), rho_random()
        f3 = state_fidelity(rho, sigma)
        ok &= abs(state_fidelity(rho, sigma, "uhlmann_squared") - f3 * f3) <= 1e-10

        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ref = pure_state(psi / np.linalg.norm(psi))
        f4 = state_fidelity(rho, ref, "uhlmann_squared")
        ok &= abs(f4 - np.trace(rho @ ref).real) <= 1e-10

        a, b = rng.dirichlet([1, 1]), rng.dirichlet([1, 1])
        ok &= (
            abs(
                state_fidelity(np.diag(a).astype(complex), np.diag(b).astype(complex))
                - classical_fidelity(a, b)
            )
            <= 1e-10
        )

        u, w = random_unitary(rng), random_unitary(rng)
        f6 = process_fidelity(chi_from_kraus([u], 2), chi_from_kraus([w], 2), "F6")
        ok &= abs(f6 - abs(np.trace(adjoint(w) @ u)) ** 2 / 4) <= 1e-10

    # F8 scale invariance.
    d0, _ = dops(PartialProjParams(0.8, 0.6))
    chi = chi_from_kraus([d0], 2)
    noisy = noisy_branch(d0, NoiseSpec("depolarizing", 0.1))
    scaled = ProcessMatrix(chi=2.5 * noisy.chi)
    ok &= abs(
        process_fidelity(noisy, chi, "F8") - process_fidelity(scaled, chi, "F8")
    ) <= 1e-10

    # Dual-path consistency, parametric reductions, exchange symmetry,
    # POVM trace relations, unity characterization.
    s = random_kraus_set(3, rng)
    ideal = process_set_from_kraus(s.ops, s.labels)
    actual = ProcessSet(
        outcomes=tuple(
            (lab, noisy_branch(m, NoiseSpec("depolarizing", 0.1)))
            for lab, m in zip(s.labels, s.ops)
        )
    )
    f_sum = total_fidelity(actual, ideal, "sum")
    f_sq = total_fidelity(actual, ideal, "sqrt_squared")
    acc_sum, acc_sq = 0.0, 0.0
    for (_, a), (_, i) in zip(actual.outcomes, ideal.outcomes):
        wgt = math.sqrt(a.trace * i.trace)
        fk = partial_fidelity(a, i)
        acc_sum += wgt * fk
        acc_sq += math.sqrt(wgt * wgt * fk)
    ok &= abs(f_sum - acc_sum) <= 1e-10
    ok &= abs(f_sq - acc_sq * acc_sq) <= 1e-10
    ok &= abs(total_fidelity(actual, ideal, "parametric", alpha=1.0) - f_sum) <= 1e-10
    ok &= abs(total_fidelity(actual, ideal, "parametric", alpha=0.5) - f_sq) <= 1e-10

    other = process_set_from_kraus(random_kraus_set(3, rng, labels=s.labels).ops, s.labels)
    for variant in ("sum", "sqrt_squared"):
        ok &= (
            abs(
                total_fidelity(ideal, other, variant)
                - total_fidelity(other, ideal, variant)
            )
            <= 1e-10
        )

    total_p = np.zeros((2, 2), dtype=complex)
    for _, chi_k in ideal.outcomes:
        pk = _povms(chi_k.chi)
        ok &= abs(np.trace(pk).real - 2 * chi_k.trace) <= 1e-9
        total_p += pk
    ok &= np.linalg.norm(total_p - np.eye(2)) <= 1e-9

    for variant in ("sum", "sqrt_squared"):
        ok &= abs(total_fidelity(ideal, ideal, variant) - 1.0) <= 1e-10
    # Perturb one entry, rescaled back to the original trace so both sides
    # remain normalized measurements.
    old = ideal.outcomes[0][1]
    chi0 = old.chi.copy()
    chi0[2, 2] += 1e-3
    chi0 *= old.trace / np.trace(chi0).real
    perturbed = ProcessSet(
        outcomes=((ideal.outcomes[0][0], ProcessMatrix(chi0)),)
        + ideal.outcomes[1:]
    )
    for variant in ("sum", "sqrt_squared"):
        ok &= total_fidelity(perturbed, ideal, variant) < 1.0 - 1e-10

    ok &= time.perf_counter() - start < 10.0
    report(6, "fidelity identities", ok)


def test_criterion_7_linear_relation():
    start = time.perf_counter()
    ok = True
    chi_ideal = chi_from_kraus([np.eye(2)], 2)
    samples = 10_000
    for lam in (0.1, 0.3, 0.5):
        ops = [
            math.sqrt(1 - 3 * lam / 4) * np.eye(2, dtype=complex),
            math.sqrt(lam / 4) * np.array([[0, 1], [1, 0]], dtype=complex),
            math.sqrt(lam / 4) * np.array([[0, -1j], [1j, 0]], dtype=complex),
            math.sqrt(lam / 4) * np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        chi = chi_from_kraus(ops, 2)
        fbar = average_state_fidelity(chi, chi_ideal, samples=samples, seed=7)
        expect = 1 - lam / 2
        # For depolarizing noise the per-sample fidelity is constant, so
        # the binomial bound collapses; keep the 4 sigma form anyway.
        sigma = math.sqrt(expect * (1 - expect) / samples)
        ok &= abs(fbar - expect) <= 4 * sigma
        f6 = process_fidelity(chi, chi_ideal, "F6")
        ok &= abs((1 - f6) - (1 - fbar) * 1.5) <= 4 * sigma * 1.5
    ok &= time.perf_counter() - start < 10.0
    report(7, "linear relation", ok)


def test_criterion_8_trine_end_to_end():
    start = time.perf_counter()
    ok = True
    s = trine_set()
    proto = reduce(s)
    mixed = np.eye(2, dtype=complex) / 2
    shots = 100_000
    sigma = math.sqrt((1 / 3) * (2 / 3) / shots)
    for backend in ("exact", "ancilla-direct"):
        counts, _ = sample_protocol(proto, mixed, shots, seed=13, backend=backend)
        for lab in s.labels:
            ok &= abs(counts[lab] / shots - 1 / 3) < 4 * sigma

    realized = [compose_branch(proto, lab) for lab in s.labels]
    actual = process_set_from_kraus(realized, s.labels)
    ideal = process_set_from_kraus(s.ops, s.labels)
    for variant in ("sum", "sqrt_squared"):
        ok &= abs(total_fidelity(actual, ideal, variant) - 1.0) <= 1e-9

    totals = {}
    for lam in (0.05, 0.1):
        noisy = ProcessSet(
            outcomes=tuple(
                (lab, noisy_branch(m, NoiseSpec("depolarizing", lam)))
                for lab, m in zip(s.labels, s.ops)
            )
        )
        totals[lam] = tuple(
            total_fidelity(noisy, ideal, v) for v in ("sum", "sqrt_squared")
        )
    ok &= totals[0.1][0] < totals[0.05][0]
    ok &= totals[0.1][1] < totals[0.05][1]

    ok &= time.perf_counter() - start < 60.0
    report(8, "trine end to end", ok)
