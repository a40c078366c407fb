import collections
import math
import re

import numpy as np
import pytest

from genmeas import fidelity
from genmeas.channels import (
    NoiseSpec,
    amplitude_damping_kraus,
    depolarizing_kraus,
    noise_kraus,
    noisy_branch,
    unitary_jitter_kraus,
)
from genmeas.decomposition import random_kraus_set, random_unitary
from genmeas.errors import Mismatch
from genmeas.fidelity import (
    ProcessMatrix,
    ProcessSet,
    _povms,
    apply_process,
    average_state_fidelity,
    chi_from_kraus,
    classical_fidelity,
    fidelity_report,
    partial_fidelity,
    povm_fidelity,
    process_fidelity,
    process_set_from_json,
    process_set_from_kraus,
    process_set_to_json,
    state_fidelity,
    total_fidelity,
)
from genmeas.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, adjoint, require_psd
from genmeas.partial_projection import PartialProjParams, dops, pure_state


def depolarizing_chi(lam):
    ops = [
        math.sqrt(1 - 3 * lam / 4) * np.eye(2, dtype=complex),
        math.sqrt(lam / 4) * np.array([[0, 1], [1, 0]], dtype=complex),
        math.sqrt(lam / 4) * np.array([[0, -1j], [1j, 0]], dtype=complex),
        math.sqrt(lam / 4) * np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    return chi_from_kraus(ops, d=2)


# The reference code builds its own basis rather than read linalg.PAULI_BASIS.
BASIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def random_density(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = a @ adjoint(a)
    return m / np.trace(m).real


def test_chi_identity():
    chi = chi_from_kraus([np.eye(2)], d=2)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert np.allclose(chi.chi, expect)


def test_chi_sigma_x():
    chi = chi_from_kraus([PAULI_X], d=2)
    assert abs(chi.chi[1, 1] - 1.0) < 1e-12
    assert abs(np.sum(np.abs(chi.chi)) - 1.0) < 1e-12


def test_chi_depolarizing():
    chi = depolarizing_chi(0.2)
    assert np.allclose(chi.chi, np.diag([0.85, 0.05, 0.05, 0.05]), atol=1e-12)


def test_chi_consistent_with_kraus_action():
    rng = np.random.default_rng(61)
    for _ in range(200):
        s = random_kraus_set(3, rng)
        rho = random_density(rng)
        for m in s.ops:
            chi = chi_from_kraus([m], d=2)
            assert np.linalg.norm(apply_process(chi, rho) - m @ rho @ adjoint(m)) < 1e-12


def test_apply_process_cases():
    rho = random_density(np.random.default_rng(62))
    assert np.allclose(apply_process(chi_from_kraus([np.eye(2)], 2), rho), rho)
    ket0 = pure_state(np.array([1.0, 0.0]))
    ket1 = pure_state(np.array([0.0, 1.0]))
    assert np.allclose(apply_process(chi_from_kraus([PAULI_X], 2), ket0), ket1)
    lam = 0.3
    out = apply_process(depolarizing_chi(lam), ket0)
    assert np.allclose(out, np.diag([1 - lam / 2, lam / 2]), atol=1e-12)
    for shape in ((4, 4), (2,), (1, 1)):
        with pytest.raises(ValueError, match=re.escape(f"state shape {shape}, expected (2, 2)")):
            apply_process(depolarizing_chi(lam), np.zeros(shape))


def loop_apply_process(chi, rho):
    """Reference: the explicit double sum over Pauli pairs."""
    out = np.zeros((2, 2), dtype=complex)
    for i, ei in enumerate(BASIS):
        for j, ej in enumerate(BASIS):
            out += chi.chi[i, j] * (ei @ rho @ adjoint(ej))
    return out


def loop_povm_from_process(chi):
    out = np.zeros((2, 2), dtype=complex)
    for i, ei in enumerate(BASIS):
        for j, ej in enumerate(BASIS):
            out += chi.chi[i, j] * (adjoint(ej) @ ei)
    return out


def test_process_algebra_matches_double_loop():
    rng = np.random.default_rng(65)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        chi = a @ adjoint(a)
        chi = ProcessMatrix(chi / np.trace(chi).real)
        rho = random_density(rng)
        assert np.abs(apply_process(chi, rho) - loop_apply_process(chi, rho)).max() < 1e-12
        assert np.abs(_povms(chi.chi) - loop_povm_from_process(chi)).max() < 1e-12


def test_povm_from_process():
    assert np.allclose(_povms(chi_from_kraus([np.eye(2)], 2).chi), np.eye(2))
    d0, d1 = dops(PartialProjParams(0.8, 0.6))
    p0 = _povms(chi_from_kraus([d0], 2).chi)
    assert np.allclose(p0, np.diag([0.8, 0.4]), atol=1e-12)
    total = p0 + _povms(chi_from_kraus([d1], 2).chi)
    assert np.linalg.norm(total - np.eye(2)) < 1e-9


def test_povm_trace_relation():
    rng = np.random.default_rng(63)
    for _ in range(200):
        s = random_kraus_set(3, rng)
        for m in s.ops:
            chi = chi_from_kraus([m], d=2)
            p = _povms(chi.chi)
            assert abs(np.trace(p).real - 2 * chi.trace) < 1e-10


def test_classical_fidelity_cases():
    assert classical_fidelity([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)
    assert classical_fidelity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert classical_fidelity([1, 0], [0, 1], "kolmogorov") == pytest.approx(1.0)
    with pytest.raises(ValueError, match="unknown classical fidelity variant 'hellinger'"):
        classical_fidelity([1, 0], [0, 1], "hellinger")
    a, b = [0.8, 0.2], [0.6, 0.4]
    f1 = classical_fidelity(a, b)
    assert abs(f1 - 0.97566) < 5e-6
    assert abs(classical_fidelity(a, b, "squared") - 0.95192) < 5e-6
    assert abs(classical_fidelity(a, b, "squared") - f1 * f1) < 1e-15
    assert classical_fidelity(a, b, "kolmogorov") == pytest.approx(0.2)
    with pytest.raises(ValueError, match="lengths"):
        classical_fidelity([1.0], [0.5, 0.5])
    # Inputs that are no distributions: F1 would be 1.2 for the first, the distance
    # 2.0 for the second.
    for x, y, variant in (([0.6, 0.6], [0.6, 0.6], "bhattacharyya"), ([2.0, -1.0], [0.0, 1.0], "kolmogorov"),
                          ([math.nan, 1.0], [0.5, 0.5], "squared"), ([math.inf, 0.0], [1.0, 0.0], "squared"),
                          ([], [], "bhattacharyya")):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="not a probability distribution"):
                classical_fidelity(a, b, variant)


def test_state_fidelity_cases():
    rho = random_density(np.random.default_rng(64))
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    ket0 = pure_state(np.array([1.0, 0.0]))
    ket1 = pure_state(np.array([0.0, 1.0]))
    assert state_fidelity(ket0, ket1) == pytest.approx(0.0, abs=1e-10)
    a = np.diag([0.8, 0.2]).astype(complex)
    b = np.diag([0.6, 0.4]).astype(complex)
    assert abs(state_fidelity(a, b) - classical_fidelity([0.8, 0.2], [0.6, 0.4])) < 1e-10
    with pytest.raises(ValueError, match="unknown state fidelity variant 'trace'"):
        state_fidelity(a, b, "trace")


def test_state_fidelity_pure_reference_reduction():
    rng = np.random.default_rng(65)
    for _ in range(500):
        rho = random_density(rng)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sigma = pure_state(psi / np.linalg.norm(psi))
        f4 = state_fidelity(rho, sigma, variant="uhlmann_squared")
        assert abs(f4 - np.trace(rho @ sigma).real) < 1e-10
        f3 = state_fidelity(rho, sigma)
        assert abs(f4 - f3 * f3) < 1e-12


def test_state_fidelity_commuting_is_bhattacharyya():
    rng = np.random.default_rng(66)
    for _ in range(500):
        a = rng.dirichlet([1, 1])
        b = rng.dirichlet([1, 1])
        fq = state_fidelity(np.diag(a).astype(complex), np.diag(b).astype(complex))
        assert abs(fq - classical_fidelity(a, b)) < 1e-10


def test_process_fidelity_f6():
    chi_i = chi_from_kraus([np.eye(2)], 2)
    chi_x = chi_from_kraus([PAULI_X], 2)
    assert process_fidelity(chi_i, chi_i, "F6") == pytest.approx(1.0)
    assert process_fidelity(chi_i, chi_x, "F6") == pytest.approx(0.0, abs=1e-12)
    assert process_fidelity(depolarizing_chi(0.2), chi_i, "F6") == pytest.approx(0.85)


def test_process_fidelity_f6_unitary_duality():
    rng = np.random.default_rng(67)
    for _ in range(500):
        u, w = random_unitary(rng), random_unitary(rng)
        f6 = process_fidelity(chi_from_kraus([u], 2), chi_from_kraus([w], 2), "F6")
        expect = abs(np.trace(adjoint(w) @ u)) ** 2 / 4
        assert abs(f6 - expect) < 1e-12


def test_process_fidelity_trace_checks():
    d0, _ = dops(PartialProjParams(0.8, 0.6))
    chi = chi_from_kraus([d0], 2)
    with pytest.raises(ValueError, match="must both be 1 for F6"):
        process_fidelity(chi, chi, "F6")
    with pytest.raises(ValueError, match="F8 requires a rank-1"):
        process_fidelity(chi, depolarizing_chi(0.5), "F8")
    with pytest.raises(ValueError, match="unknown process fidelity variant 'F5'"):
        process_fidelity(chi, chi, "F5")


def test_process_fidelity_f9_matches_f8_for_rank1():
    rng = np.random.default_rng(68)
    for _ in range(200):
        s = random_kraus_set(2, rng)
        chi_a = noisy_branch(s.ops[0], NoiseSpec("depolarizing", 0.1))
        chi_i = chi_from_kraus([s.ops[0]], 2)
        f8 = process_fidelity(chi_a, chi_i, "F8")
        f9 = process_fidelity(chi_a, chi_i, "F9")
        assert abs(f8 - f9) < 1e-10
        assert 0.0 <= f9 <= 1.0 + 1e-12


def test_process_fidelity_f7_is_f9_at_unit_traces(monkeypatch):
    # F7 is F9 on every unit-trace pair: the trace formula against a rank-1 (unitary)
    # ideal, with no Uhlmann call, and one Uhlmann call against a noisy ideal. Against
    # a unitary it is |Tr(W^dag U)|^2 / 4, as F6 is.
    rng = np.random.default_rng(69)
    calls = collections.Counter()
    real = fidelity._uhlmann_trace
    monkeypatch.setattr(fidelity, "_uhlmann_trace", lambda *a: calls.update(["u"]) or real(*a))
    for k in range(200):
        u, w = random_unitary(rng), random_unitary(rng)
        spec = NoiseSpec(("depolarizing", "dephasing", "amplitude_damping")[k % 3], 0.2)
        noisy, unitary = noisy_branch(u, spec), chi_from_kraus([w])
        f7 = process_fidelity(noisy, unitary, "F7")
        assert f7 == process_fidelity(noisy, unitary, "F9")
        assert calls["u"] == 0
        assert process_fidelity(chi_from_kraus([u]), unitary, "F7") == pytest.approx(
            abs(np.trace(adjoint(w) @ u)) ** 2 / 4, abs=1e-14)
        assert process_fidelity(unitary, noisy, "F7") == process_fidelity(unitary, noisy, "F9")
        assert calls["u"] == 2
        calls.clear()


def test_partial_fidelity_scale_invariance():
    d0, _ = dops(PartialProjParams(0.8, 0.6))
    chi = chi_from_kraus([d0], 2)
    assert partial_fidelity(chi, chi) == pytest.approx(1.0)
    scaled = ProcessMatrix(chi=3.0 * chi.chi)
    assert partial_fidelity(scaled, chi) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero-trace chi"):
        partial_fidelity(ProcessMatrix(chi=np.zeros((4, 4))), chi)


def test_partial_fidelity_noisy_branch_reproducible():
    d0, _ = dops(PartialProjParams(0.8, 0.6))
    chi_i = chi_from_kraus([d0], 2)
    chi_a = noisy_branch(d0, NoiseSpec("depolarizing", 0.1))
    f = partial_fidelity(chi_a, chi_i)
    # Independent dense evaluation of the trace formula.
    expect = np.trace(chi_a.chi @ chi_i.chi).real / (chi_a.trace * chi_i.trace)
    assert abs(f - expect) < 1e-12
    assert f < 1.0


def test_total_fidelity_equals_one_iff_equal():
    rng = np.random.default_rng(69)
    s = random_kraus_set(3, rng)
    ps = process_set_from_kraus(s.ops, s.labels)
    for variant in ("sum", "sqrt_squared"):
        assert total_fidelity(ps, ps, variant) == pytest.approx(1.0, abs=1e-10)
    # Any 1e-3 perturbation must push both totals strictly below 1. The
    # perturbed chi is rescaled to its original trace so both sides remain
    # normalized measurements (outcome probabilities summing to 1).
    old = ps.outcomes[0][1]
    chi0 = old.chi.copy()
    chi0[1, 1] += 1e-3
    chi0 *= old.trace / np.trace(chi0).real
    perturbed = ProcessSet(
        outcomes=((ps.outcomes[0][0], ProcessMatrix(chi0)),) + ps.outcomes[1:]
    )
    for variant in ("sum", "sqrt_squared"):
        assert total_fidelity(perturbed, ps, variant) < 1.0 - 1e-9


def test_total_fidelity_reduces_to_classical():
    # Same normalized branch processes, different outcome weights.
    eye = np.eye(2, dtype=complex)
    actual = ProcessSet(
        outcomes=(
            ("0", chi_from_kraus([math.sqrt(0.8) * eye], 2)),
            ("1", chi_from_kraus([math.sqrt(0.2) * PAULI_X], 2)),
        )
    )
    ideal = ProcessSet(
        outcomes=(
            ("0", chi_from_kraus([math.sqrt(0.6) * eye], 2)),
            ("1", chi_from_kraus([math.sqrt(0.4) * PAULI_X], 2)),
        )
    )
    f1 = classical_fidelity([0.8, 0.2], [0.6, 0.4])
    assert total_fidelity(actual, ideal, "sum") == pytest.approx(f1, abs=1e-12)
    assert total_fidelity(actual, ideal, "sqrt_squared") == pytest.approx(
        f1 * f1, abs=1e-12
    )


def test_total_fidelity_exchange_symmetry():
    rng = np.random.default_rng(70)
    for _ in range(100):
        a = random_kraus_set(3, rng)
        b = random_kraus_set(3, rng, labels=a.labels)
        pa = process_set_from_kraus(a.ops, a.labels)
        pb = process_set_from_kraus(b.ops, b.labels)
        for variant in ("sum", "sqrt_squared"):
            assert abs(
                total_fidelity(pa, pb, variant) - total_fidelity(pb, pa, variant)
            ) < 1e-12


def test_total_fidelity_dual_paths():
    rng = np.random.default_rng(71)
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
        w = math.sqrt(a.trace * i.trace)
        fk = partial_fidelity(a, i)
        acc_sum += w * fk
        acc_sq += math.sqrt(w * w * fk)
    assert abs(f_sum - acc_sum) < 1e-12
    assert abs(f_sq - acc_sq * acc_sq) < 1e-12


def test_parametric_family_reductions():
    rng = np.random.default_rng(72)
    for _ in range(50):
        s = random_kraus_set(3, rng)
        ideal = process_set_from_kraus(s.ops, s.labels)
        actual = ProcessSet(
            outcomes=tuple(
                (lab, noisy_branch(m, NoiseSpec("depolarizing", 0.15)))
                for lab, m in zip(s.labels, s.ops)
            )
        )
        f_sum = total_fidelity(actual, ideal, "sum")
        f_sq = total_fidelity(actual, ideal, "sqrt_squared")
        assert abs(total_fidelity(actual, ideal, "parametric", alpha=1.0) - f_sum) < 1e-10
        assert abs(total_fidelity(actual, ideal, "parametric", alpha=0.5) - f_sq) < 1e-10


def test_total_fidelity_label_mismatch():
    rng = np.random.default_rng(73)
    s = random_kraus_set(2, rng)
    a = process_set_from_kraus(s.ops, ("x", "y"))
    b = process_set_from_kraus(s.ops, ("x", "z"))
    with pytest.raises(Mismatch, match="outcome labels differ"):
        total_fidelity(a, b)
    with pytest.raises(ValueError, match="unknown total fidelity variant 'product'"):
        total_fidelity(a, a, "product")


def test_monotone_degradation():
    rng = np.random.default_rng(74)
    s = random_kraus_set(3, rng)
    ideal = process_set_from_kraus(s.ops, s.labels)
    prev = {"sum": 1.1, "sqrt_squared": 1.1}
    for lam in np.arange(0.0, 0.95, 0.1):
        actual = ProcessSet(
            outcomes=tuple(
                (lab, noisy_branch(m, NoiseSpec("depolarizing", float(lam))))
                for lab, m in zip(s.labels, s.ops)
            )
        )
        for variant in ("sum", "sqrt_squared"):
            f = total_fidelity(actual, ideal, variant)
            assert f < prev[variant]
            prev[variant] = f


def test_povm_fidelity_cases():
    proj = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert povm_fidelity(proj, proj, "Fp") == pytest.approx(1.0)
    assert povm_fidelity(proj, proj, "FpTilde") == pytest.approx(1.0)
    swapped = [proj[1], proj[0]]
    assert povm_fidelity(swapped, proj, "Fp") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(Mismatch, match="actual POVM sums to I only"):
        povm_fidelity([0.9 * proj[0], proj[1]], proj)
    with pytest.raises(Mismatch, match="POVM elements"):
        povm_fidelity(proj, proj[:1])
    with pytest.raises(ValueError, match="unknown POVM fidelity variant 'Fq'"):
        povm_fidelity(proj, proj, "Fq")


def test_povm_fidelity_matches_qubit_closed_form():
    # For 2x2 PSD A, B: [Tr sqrt(sqrt(B) A sqrt(B))]^2 = Tr(AB) + 2 sqrt(det A det B)
    # (Hubner 1992). A per-element loop over it is the reference for both variants.
    rng = np.random.default_rng(79)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pa, pi = ([adjoint(m) @ m for m in random_kraus_set(n, rng).ops] for _ in range(2))
        dets = [max(np.linalg.det(a).real * np.linalg.det(b).real, 0.0) for a, b in zip(pa, pi)]
        u = [math.sqrt(np.trace(a @ b).real + 2 * math.sqrt(dt)) for a, b, dt in zip(pa, pi, dets)]
        fp = sum(uk**2 / math.sqrt(np.trace(a).real * np.trace(b).real) for uk, a, b in zip(u, pa, pi)) / 2
        assert povm_fidelity(pa, pi, "Fp") == pytest.approx(fp, abs=1e-12)
        assert povm_fidelity(pa, pi, "FpTilde") == pytest.approx((sum(u) / 2) ** 2, abs=1e-12)


def test_povm_fidelity_rejects_non_psd_elements():
    # Traces and sums are those of a POVM; only positivity is wrong, and the
    # actual side used to score Fp 1.107 and FpTilde 1.098.
    proj = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    bad = [np.diag([1.2, 0.0]).astype(complex), np.diag([-0.2, 1.0]).astype(complex)]
    for args in ((bad, proj), (proj, bad)):
        for variant in ("Fp", "FpTilde"):
            with pytest.raises(ValueError, match="POVM element has eigenvalue"):
                povm_fidelity(*args, variant)


def test_povm_fidelity_rejects_mixed_shapes():
    # Elements are 2 x 2: a 3 x 3 POVM, or a set mixing both sizes, names the
    # set at fault instead of failing inside numpy.
    q2 = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    q3 = [np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 1.0]).astype(complex)]
    with pytest.raises(ValueError, match=r"ideal POVM elements must be 2 x 2, got \[\(3, 3\)\]"):
        povm_fidelity(q2, q3)
    with pytest.raises(ValueError, match=r"actual POVM elements must be 2 x 2, got \[\(3, 3\)\]"):
        povm_fidelity(q3, q2)
    with pytest.raises(ValueError, match=r"actual POVM elements must be 2 x 2, got \[\(3, 3\)\]"):
        povm_fidelity([q2[0], q3[1]], q2)
    with pytest.raises(ValueError, match=r"ideal POVM elements must be 2 x 2"):
        povm_fidelity(q2, [q2[0], q3[1]])


def test_povm_fidelity_partial_vs_projective():
    p, q = 0.8, 0.6
    actual = [np.diag([p, 1 - q]).astype(complex), np.diag([1 - p, q]).astype(complex)]
    proj = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    # Diagonal closed form: Tr sqrt(sqrt(Pi) P sqrt(Pi)) picks the matched entry.
    fp_expect = (p / math.sqrt(p + 1 - q) + q / math.sqrt(q + 1 - p)) / 2
    fpt_expect = ((math.sqrt(p) + math.sqrt(q)) / 2) ** 2
    assert povm_fidelity(actual, proj, "Fp") == pytest.approx(fp_expect, abs=1e-12)
    assert povm_fidelity(actual, proj, "FpTilde") == pytest.approx(fpt_expect, abs=1e-12)


def test_fidelity_ranges_random():
    rng = np.random.default_rng(75)
    for _ in range(1000):
        a = random_kraus_set(2, rng)
        b = random_kraus_set(2, rng, labels=a.labels)
        pa = process_set_from_kraus(a.ops, a.labels)
        pb = process_set_from_kraus(b.ops, b.labels)
        for variant in ("sum", "sqrt_squared"):
            f = total_fidelity(pa, pb, variant)
            assert -1e-10 <= f <= 1.0 + 1e-9


def test_average_state_fidelity_linear_relation():
    chi_ideal = chi_from_kraus([np.eye(2)], 2)
    for lam in (0.1, 0.3, 0.5):
        fbar = average_state_fidelity(
            depolarizing_chi(lam), chi_ideal, samples=4000, seed=42
        )
        expect = 1 - lam / 2
        f6 = process_fidelity(depolarizing_chi(lam), chi_ideal, "F6")
        assert abs(fbar - expect) < 0.01
        assert abs((1 - f6) - (1 - expect) * 1.5) < 1e-9


PAULI_EIGENSTATES = [
    np.array(v, dtype=complex) / np.linalg.norm(v)
    for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])
]


def noisy_unitary_kraus(kind, u):
    noise = {
        "depolarizing": depolarizing_kraus(0.3),
        "amplitude_damping": amplitude_damping_kraus(0.25),
        "unitary_jitter": unitary_jitter_kraus(0.4, seed=5),
    }[kind]
    return [k @ u for k in noise]


def squared_fidelities(ops, u, psis):
    """<psi|U^dag E(psi) U|psi> for each row of ``psis``, from the Kraus operators."""
    ideal = psis @ u.T
    amps = np.stack([psis @ k.T for k in ops])  # K|psi>, shape (m, samples, d)
    overlaps = np.einsum("sa,msa->ms", ideal.conj(), amps)
    return np.sum(np.abs(overlaps) ** 2, axis=0)


@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping", "unitary_jitter"])
def test_average_state_fidelity_matches_pauli_eigenstate_average(kind):
    # The six Pauli eigenstates form a state 2-design, so their average of a
    # quadratic function of the input equals the Haar average exactly.
    rng = np.random.default_rng(80)
    u = random_unitary(rng)
    ops = noisy_unitary_kraus(kind, u)
    expect = squared_fidelities(ops, u, np.stack(PAULI_EIGENSTATES)).mean()
    fbar = average_state_fidelity(chi_from_kraus(ops, 2), chi_from_kraus([u], 2))
    assert abs(fbar - expect) < 1e-12


def haar_kets(rng, d, samples):
    z = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping", "unitary_jitter"])
def test_average_state_fidelity_matches_haar_monte_carlo(kind):
    rng = np.random.default_rng(81)
    u = random_unitary(rng)
    ops = noisy_unitary_kraus(kind, u)
    f = squared_fidelities(ops, u, haar_kets(rng, 2, 20_000))
    sigma = f.std(ddof=1) / math.sqrt(len(f))
    fbar = average_state_fidelity(chi_from_kraus(ops, 2), chi_from_kraus([u], 2))
    assert abs(fbar - f.mean()) <= 4 * sigma + 1e-12


def test_average_state_fidelity_ignores_samples_and_seed():
    chi = depolarizing_chi(0.2)
    ideal = chi_from_kraus([np.eye(2)], 2)
    ref = average_state_fidelity(chi, ideal)
    for samples, seed in ((1, 0), (100, 7), (10_000, 123)):
        assert average_state_fidelity(chi, ideal, samples=samples, seed=seed) == ref


def test_average_state_fidelity_rejects_bad_inputs():
    chi = depolarizing_chi(0.2)
    d0, _ = dops(PartialProjParams(0.8, 0.6))
    for ideal in (depolarizing_chi(0.1), chi_from_kraus([d0], 2)):
        with pytest.raises(ValueError, match="requires a unitary ideal"):
            average_state_fidelity(chi, ideal)
    ideal = chi_from_kraus([np.eye(2)], 2)
    with pytest.raises(ValueError, match="not trace-preserving"):
        average_state_fidelity(chi_from_kraus([0.9 * np.eye(2)], 2), ideal)
    # Trace-preserving (diagonal sums to 1) but not completely positive.
    with pytest.raises(ValueError, match="process matrix has eigenvalue"):
        average_state_fidelity(ProcessMatrix(np.diag([1.0, 1e-3, -1e-3, 0.0])), ideal)


def test_process_set_json_round_trip():
    rng = np.random.default_rng(76)
    s = random_kraus_set(3, rng)
    ps = process_set_from_kraus(s.ops, s.labels)
    back = process_set_from_json(process_set_to_json(ps))
    assert back.labels == ps.labels
    for (_, a), (_, b) in zip(back.outcomes, ps.outcomes):
        assert np.linalg.norm(a.chi - b.chi) < 1e-12


def test_fidelity_report_keys():
    rng = np.random.default_rng(77)
    s = random_kraus_set(2, rng)
    ps = process_set_from_kraus(s.ops, s.labels)
    report = fidelity_report(ps, ps)
    assert report["total_sum"] == pytest.approx(1.0, abs=1e-10)
    assert report["total_sqrt_squared"] == pytest.approx(1.0, abs=1e-10)
    assert report["povm_Fp"] == pytest.approx(1.0, abs=1e-10)
    assert report["povm_FpTilde"] == pytest.approx(1.0, abs=1e-10)
    assert set(report["partial"]) == set(s.labels)
    for entry in report["partial"].values():
        assert entry["F"] == pytest.approx(1.0, abs=1e-10)
        assert entry["failed"] is False


def test_fidelity_report_makes_one_uhlmann_call(monkeypatch):
    # One 4-outcome report: the POVM traces are one stacked Uhlmann call (one
    # eigh, one SVD), the rank-1 test of all four ideals one stacked eigvalsh,
    # and the chi -> POVM maps matmuls, with no einsum.
    s = random_kraus_set(4, np.random.default_rng(78))
    actual = ProcessSet(outcomes=tuple(
        (label, noisy_branch(m, NoiseSpec("depolarizing", 0.1))) for label, m in zip(s.labels, s.ops)
    ))
    ideal = process_set_from_kraus(s.ops, s.labels)
    calls = collections.Counter()
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd"),
                         (np, "einsum"), (fidelity, "_uhlmann_trace")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name, **k: calls.update([_name]) or _real(*a, **k))
    fidelity_report(actual, ideal)
    assert calls == {"_uhlmann_trace": 1, "eigh": 1, "svd": 1, "eigvalsh": 1}


def test_mixed_measurement_scores_one_against_itself():
    # Every total is the family over the partials, so a noisy (mixed) set
    # against itself totals 1, as its partials and parametric(alpha) do.
    ps = ProcessSet(outcomes=tuple(
        (label, noisy_branch(m, NoiseSpec("depolarizing", 0.3)))
        for label, m in zip(("0", "1"), dops(PartialProjParams(0.8, 0.6)))
    ))
    report = fidelity_report(ps, ps)
    for key in ("total_sum", "total_sqrt_squared", "povm_Fp", "povm_FpTilde"):
        assert report[key] == pytest.approx(1.0, abs=1e-12), key
    for alpha in (0.2, 0.5, 1.0):
        assert total_fidelity(ps, ps, "parametric", alpha=alpha) == pytest.approx(1.0, abs=1e-12)
    # At alpha = inf the family's exponent 1/alpha is 0, which would score any measurement 1.
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            total_fidelity(ps, ps, "parametric", alpha=alpha)


def test_state_fidelity_accepts_what_validation_accepts():
    # An eigenvalue of -5e-9 passes validate_state at 1e-8, so the Uhlmann route
    # clamps it in either argument order rather than raising in one of them.
    rho = np.diag([1 + 5e-9, -5e-9]).astype(complex)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    assert state_fidelity(rho, sigma) == pytest.approx(math.sqrt(0.7), abs=1e-8)
    assert state_fidelity(sigma, rho) == pytest.approx(math.sqrt(0.7), abs=1e-8)


def test_state_fidelity_rejects_nan_and_non_states():
    mixed = np.eye(2) / 2
    with pytest.raises(ValueError, match="not Hermitian"):
        state_fidelity(np.full((2, 2), np.nan), mixed)
    with pytest.raises(ValueError, match="trace is"):
        state_fidelity(mixed, 2 * mixed)
    # The tolerance is 1e-8: a trace off by 1e-9 is accepted.
    assert state_fidelity(mixed * (1 + 2e-9), mixed) == pytest.approx(1.0)


def test_empty_measurements_rejected():
    with pytest.raises(ValueError, match="at least one outcome"):
        ProcessSet(outcomes=())
    with pytest.raises(ValueError, match="at least one element"):
        povm_fidelity([], [])


def test_process_set_rejects_repeated_labels():
    ps = process_set_from_kraus(list(dops(PartialProjParams(0.8, 0.6))), ("0", "1"))
    with pytest.raises(ValueError, match="labels must be distinct"):
        ProcessSet(outcomes=(ps.outcomes[0], ("0", ps.outcomes[1][1])))
    doc = process_set_to_json(ps).replace('"label": "1"', '"label": "0"')
    with pytest.raises(ValueError, match="labels must be distinct"):
        process_set_from_json(doc)


def test_process_matrix_chi_must_be_4x4():
    for shape in ((1, 1), (9, 9), (16, 16), (4,), (4, 4, 1)):
        with pytest.raises(ValueError, match=re.escape(f"chi shape {shape} is not (4, 4)")):
            ProcessMatrix(np.zeros(shape))
    # and finite: a NaN chi of {I/sqrt2, I/sqrt2} used to drop its outcome from a
    # total as if its probability were 0, on either side, and F8 and F9 to fail in numpy.
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        chi = chi_from_kraus([np.eye(2) / math.sqrt(2)]).chi.copy()
        chi[0, 0] = bad
        with pytest.raises(ValueError, match="chi entries must be finite"):
            ProcessMatrix(chi)
    for d in (1, 3, 4):
        with pytest.raises(ValueError, match=f"d = 2, got d = {d}"):
            chi_from_kraus([np.eye(d)], d)
    with pytest.raises(ValueError, match="expected 2 x 2"):
        chi_from_kraus([np.eye(4)])


def test_process_matrix_chi_is_read_only():
    # Its cached trace used to go stale after a write to chi (0.4999999999999999 here).
    pm = chi_from_kraus([np.eye(2) / math.sqrt(2)])
    assert abs(pm.trace - 0.5) < 1e-15
    with pytest.raises(ValueError, match="read-only"):
        pm.chi[0, 0] = 0.0
    # A chi the caller passed in is copied, so the caller's handle cannot change it.
    chi = np.diag([0.5, 0.0, 0.0, 0.0])
    pm = ProcessMatrix(chi)
    chi[0, 0] = 0.0
    assert pm.trace == 0.5 and pm.chi[0, 0] == 0.5


# Per-outcome reference: the einsum and loop code the stacked passes replaced.

def reference_expand(ops):
    """alpha_i = Tr(E_i^dag M) / 2 by einsum over the Pauli basis."""
    return np.einsum("iab,...ab->...i", BASIS.conj(), np.asarray(ops, dtype=complex)) / 2


def reference_chi_from_kraus(ops):
    alpha = reference_expand(np.stack([np.asarray(m, dtype=complex) for m in ops]))
    return ProcessMatrix(chi=alpha.T @ alpha.conj())


def reference_process_set_from_kraus(ops, labels):
    return ProcessSet(tuple((label, reference_chi_from_kraus([m])) for label, m in zip(labels, ops)))


def reference_povm_from_process(chi):
    return np.einsum("ij,jba,ibc->ac", chi.chi, BASIS.conj(), BASIS)


def reference_noisy_branch(m, spec):
    return reference_chi_from_kraus([k @ m for k in noise_kraus(spec)])


def reference_is_rank1(chi, tol=1e-12):
    w = np.linalg.eigvalsh((chi.chi + adjoint(chi.chi)) / 2)
    return bool(np.all(np.abs(w[:-1]) <= tol * w[-1]))


def reference_process_fidelity(chi, chi_ideal, variant):
    """F6-F9 of one pair: the trace formula where the ideal is rank-1, else Uhlmann.
    F7 is F9 at the unit traces it requires."""
    t, ti = chi.trace, chi_ideal.trace
    if variant == "F6":
        return float(np.trace(chi.chi @ chi_ideal.chi).real)
    rank1 = reference_is_rank1(chi_ideal)
    if variant == "F8" and not rank1:
        raise ValueError("F8 requires a rank-1 (purity-preserving) ideal")
    if rank1:
        return max(float(np.trace(chi.chi @ chi_ideal.chi).real), 0.0) / (t * ti)
    return float(fidelity._uhlmann_trace(chi.chi, chi_ideal.chi)) ** 2 / (t * ti)


def reference_partials(actual, ideal):
    """One F9 per outcome in a Python loop: 0 for a failed outcome, NaN where p~_k = 0."""
    p, p_ideal = np.array(actual.probabilities), np.array(ideal.probabilities)
    F = np.array([
        np.nan if ti <= 0.0 else 0.0 if t <= 0.0 else reference_process_fidelity(a, i, "F9")
        for (_, a), (_, i), t, ti in zip(actual.outcomes, ideal.outcomes, p, p_ideal)
    ])
    return np.sqrt(np.clip(p, 0.0, None) * np.clip(p_ideal, 0.0, None)), F, p, p_ideal


def reference_povm_terms(actual, ideal):
    tr = np.einsum("kii->k", actual).real * np.einsum("kii->k", ideal).real
    u = fidelity._uhlmann_trace(actual, ideal)
    F = np.divide(u * u, tr, out=np.zeros_like(u), where=tr > 0.0)
    return np.sqrt(np.clip(tr, 0.0, None)) / actual.shape[-1], F


def reference_fidelity_report(actual, ideal):
    w, F, p, p_ideal = reference_partials(actual, ideal)
    povm_w, povm_F = reference_povm_terms(
        np.stack([reference_povm_from_process(chi) for _, chi in actual.outcomes]),
        np.stack([reference_povm_from_process(chi) for _, chi in ideal.outcomes]),
    )
    family = fidelity._family
    return {
        "partial": {
            label: {"F": None if np.isnan(f) else float(f), "failed": bool(t <= 0.0 < ti)}
            for label, f, t, ti in zip(actual.labels, F, p, p_ideal)
        },
        "total_sum": family(w, F, 1.0),
        "total_sqrt_squared": family(w, F, 0.5),
        "povm_Fp": family(povm_w, povm_F, 1.0),
        "povm_FpTilde": family(povm_w, povm_F, 0.5),
        "p_actual": p.tolist(),
        "p_ideal": p_ideal.tolist(),
        "labels": list(actual.labels),
    }


def reference_average_state_fidelity(chi, chi_ideal):
    tp = [np.linalg.norm(reference_povm_from_process(c) - np.eye(2)) <= 1e-8 for c in (chi, chi_ideal)]
    if not (reference_is_rank1(chi_ideal) and tp[1]):
        raise ValueError("average state fidelity requires a unitary ideal")
    if not tp[0]:
        raise ValueError("process is not trace-preserving")
    require_psd(chi.chi, fidelity.PSD_TOL, "process matrix")
    return (2 * float(np.trace(chi.chi @ chi_ideal.chi).real) + 1.0) / 3


def assert_reports_agree(got, expect, tol=1e-12):
    assert got.keys() == expect.keys()
    assert got["labels"] == expect["labels"]
    for label in got["labels"]:
        a, b = got["partial"][label], expect["partial"][label]
        assert a["failed"] == b["failed"] and (a["F"] is None) == (b["F"] is None), label
        if a["F"] is not None:
            assert abs(a["F"] - b["F"]) <= tol, (label, a["F"], b["F"])
    for key in ("p_actual", "p_ideal"):
        assert np.max(np.abs(np.subtract(got[key], expect[key]))) <= tol, key
    for key in ("total_sum", "total_sqrt_squared", "povm_Fp", "povm_FpTilde"):
        assert abs(got[key] - expect[key]) <= tol, (key, got[key], expect[key])


def test_transfer_maps_match_einsum_reference():
    rng = np.random.default_rng(82)
    for _ in range(50):
        ops = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        chi = chi_from_kraus(ops)
        assert np.abs(chi.chi - reference_chi_from_kraus(list(ops)).chi).max() <= 1e-12
        assert np.abs(_povms(chi.chi) - reference_povm_from_process(chi)).max() <= 1e-12
        got = process_set_from_kraus(ops, "abc")
        for (_, a), (_, b) in zip(got.outcomes, reference_process_set_from_kraus(ops, "abc").outcomes):
            assert np.abs(a.chi - b.chi).max() <= 1e-12


def test_average_state_fidelity_checks_in_reference_order():
    # Each bad input raises what the per-check reference raises; a NaN chi is
    # refused before either sees it.
    u = random_unitary(np.random.default_rng(81))
    ideal = chi_from_kraus([u], 2)
    with pytest.raises(ValueError, match="chi entries must be finite"):
        ProcessMatrix(np.full((4, 4), np.nan))
    cases = [
        (depolarizing_chi(0.2), depolarizing_chi(0.1)),
        (chi_from_kraus([0.9 * np.eye(2)], 2), depolarizing_chi(0.1)),
        (chi_from_kraus([0.9 * np.eye(2)], 2), ideal),
        (ProcessMatrix(np.diag([1.0, 1e-3, -1e-3, 0.0])), ideal),
        (ProcessMatrix(np.diag([1.0, 0, 0, 0]) + np.triu(np.full((4, 4), 1e-6), 1)), ideal),
    ]
    for chi, chi_ideal in cases:
        with pytest.raises(ValueError) as expect:
            reference_average_state_fidelity(chi, chi_ideal)
        with pytest.raises(ValueError) as got:
            average_state_fidelity(chi, chi_ideal)
        assert str(got.value) == str(expect.value)
