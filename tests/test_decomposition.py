import itertools
import json
import math
import warnings

import numpy as np
import pytest

from genmeas import decomposition, partial_projection
from genmeas.ancilla_circuit import circuit_from_pq, kraus_from_circuit
from genmeas.continuous_readout import ReadoutConfig, simulate_batch, thresholds_from_pq
from genmeas.decomposition import (
    MeasurementProtocol,
    compose_branch,
    completeness_deviation,
    kraus_set,
    protocol_from_json,
    protocol_to_json,
    random_kraus_set,
    random_unitary,
    reduce,
    sample_protocol,
    validate_kraus_set,
)
from genmeas.errors import Infeasible, NotComplete
from genmeas.linalg import adjoint, is_unitary, phase_distance, psd_sqrt
from genmeas.partial_projection import (
    ZERO_BRANCH_TOL,
    PartialProjParams,
    apply_outcome,
    dops,
    outcome_probabilities,
    pure_state,
    strength,
)

BACKENDS = ("exact", "ancilla-direct", "ancilla-cphase", "ancilla-fixed_cz")

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def trine_set():
    ops = []
    for k in range(3):
        theta = 2 * math.pi * k / 3
        # Bloch vector in the X-Z plane at angle theta from +Z.
        psi = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        ops.append(math.sqrt(2.0 / 3.0) * np.outer(psi, psi.conj()))
    return kraus_set(ops, labels=("a", "b", "c"))


def test_validate_accepts_identity():
    validate_kraus_set(kraus_set([np.eye(2)]))


def test_validate_accepts_projective():
    validate_kraus_set(kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))


def test_validate_rejects_incomplete():
    with pytest.raises(NotComplete) as exc:
        validate_kraus_set(kraus_set([0.9 * np.eye(2)]))
    assert exc.value.deviation > 0.1


def test_trine_is_complete():
    assert completeness_deviation(trine_set().ops) < 1e-15


# A two-outcome pair reduces to one step, N_k = U_k D_k V^dag, and a final unitary.

def test_svd_decompose_standard_form():
    params = PartialProjParams(0.8, 0.6)
    proto = reduce(kraus_set(list(dops(params))))
    (step,) = proto.steps
    assert np.allclose(proto.final_unitary, np.eye(2), atol=1e-12)
    assert np.allclose(step.pre_unitary, np.eye(2), atol=1e-12)
    assert np.allclose(step.post_unitary_0, np.eye(2), atol=1e-12)
    assert np.allclose(step.post_unitary_1, np.eye(2), atol=1e-12)
    assert abs(step.params.p - 0.8) < 1e-12
    assert abs(step.params.q - 0.6) < 1e-12


def test_svd_decompose_rotated_pair():
    d0, d1 = dops(PartialProjParams(0.8, 0.6))
    proto = reduce(kraus_set([HADAMARD @ d0, HADAMARD @ d1]))
    assert np.linalg.norm(compose_branch(proto, "0") - HADAMARD @ d0) < 1e-10
    assert np.linalg.norm(compose_branch(proto, "1") - HADAMARD @ d1) < 1e-10


def test_svd_decompose_random_pairs():
    rng = np.random.default_rng(51)
    for _ in range(1000):
        n0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = np.linalg.eigvalsh(adjoint(n0) @ n0)
        n0 = n0 / math.sqrt(w[-1] / rng.uniform(0.3, 0.999))
        n1 = random_unitary(rng) @ psd_sqrt(np.eye(2) - adjoint(n0) @ n0)
        proto = reduce(kraus_set([n0, n1]))
        (step,) = proto.steps
        assert step.params.p + step.params.q >= 1.0 - 1e-12
        assert np.linalg.norm(compose_branch(proto, "0") - n0) < 1e-10
        assert np.linalg.norm(compose_branch(proto, "1") - n1) < 1e-10
        for u in (step.pre_unitary, step.post_unitary_0, step.post_unitary_1, proto.final_unitary):
            assert is_unitary(u)


def test_reduce_projective():
    proto = reduce(kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    assert len(proto.steps) == 1
    assert abs(proto.steps[0].params.p - 1.0) < 1e-9
    assert abs(proto.steps[0].params.q - 1.0) < 1e-9


def test_reduce_one_operator_is_its_final_unitary():
    # No step: the QR of a lone unitary M leaves R = I, so the final unitary is M,
    # relative phases and reflections included.
    rng = np.random.default_rng(51)
    ops = [np.diag([1.0, 1j]), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]),
           np.array([[0.0, 1j], [1.0, 0.0]]), *(random_unitary(rng) for _ in range(50))]
    for m in ops:
        proto = reduce(kraus_set([m]))
        assert proto.steps == ()
        assert np.linalg.norm(proto.final_unitary - m) <= 1e-14


def test_reduce_two_outcomes_matches_pair_decomposition():
    rng = np.random.default_rng(52)
    for _ in range(200):
        s = random_kraus_set(2, rng)
        proto = reduce(s)
        assert len(proto.steps) == 1
        assert phase_distance(s.ops[0], compose_branch(proto, s.labels[0])) < 1e-9
        assert phase_distance(s.ops[1], compose_branch(proto, s.labels[1])) < 1e-9


def test_reduce_trine():
    proto = reduce(trine_set())
    assert len(proto.steps) == 2
    for label, m in zip(("a", "b", "c"), trine_set().ops):
        assert phase_distance(m, compose_branch(proto, label)) < 1e-9


def test_compose_branch_unknown_leaf():
    with pytest.raises(ValueError, match="no leaf labeled"):
        compose_branch(reduce(trine_set()), "nope")


def test_protocol_completeness():
    rng = np.random.default_rng(53)
    for _ in range(100):
        s = random_kraus_set(int(rng.integers(2, 7)), rng)
        proto = reduce(s)
        total = sum(
            adjoint(compose_branch(proto, lab)) @ compose_branch(proto, lab)
            for lab in proto.leaf_labels
        )
        assert np.linalg.norm(total - np.eye(2)) < 1e-9


def test_cancel_u1_preserves_branches():
    rng = np.random.default_rng(54)
    for _ in range(100):
        s = random_kraus_set(int(rng.integers(2, 6)), rng)
        plain = reduce(s)
        canceled = reduce(s, cancel_u1=True)
        for step in canceled.steps:
            assert np.allclose(step.post_unitary_1, np.eye(2), atol=1e-12)
        for lab, m in zip(s.labels, s.ops):
            assert phase_distance(m, compose_branch(canceled, lab)) < 1e-9
            assert (
                phase_distance(compose_branch(plain, lab), compose_branch(canceled, lab))
                < 1e-9
            )


def test_permutation_sensitivity():
    s = trine_set()
    a = reduce(s, order=(0, 1, 2))
    b = reduce(s, order=(2, 0, 1))
    # Different protocols, identical leaf operators up to phase.
    assert phase_distance(a.steps[0].pre_unitary, b.steps[0].pre_unitary) > 1e-6
    for lab, m in zip(s.labels, s.ops):
        assert phase_distance(m, compose_branch(b, lab)) < 1e-9


def test_reduce_unitaries_at_rank_deficient_outcomes():
    # Rank-1 outcomes leave remainders that are singular up to round-off;
    # every protocol matrix must still be unitary, and every branch exact. Zero
    # outcomes leave a step with no singular value, whose unitary is completed.
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    zero = np.zeros((2, 2))
    every3 = list(itertools.permutations(range(3)))
    cases = [(trine_set(), every3),
             (kraus_set([np.outer(plus, plus), np.outer(minus, minus)]), [(0, 1), (1, 0)]),
             (kraus_set([HADAMARD, zero, zero]), every3),
             (kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), zero]), every3)]
    for s, orders in cases:
        for order in orders:
            for cancel_u1 in (False, True):
                proto = reduce(s, order=order, cancel_u1=cancel_u1)
                for step in proto.steps:
                    for u in (step.pre_unitary, step.post_unitary_0, step.post_unitary_1):
                        assert is_unitary(u, tol=1e-12)
                assert is_unitary(proto.final_unitary, tol=1e-12)
                for lab, m in zip(s.labels, s.ops):
                    assert phase_distance(m, compose_branch(proto, lab)) < 1e-12


def test_validate_rejects_nan():
    with pytest.raises(NotComplete):
        validate_kraus_set(kraus_set([np.full((2, 2), np.nan)]))


def test_kraus_set_rejects_operators_that_are_not_2x2():
    for ops in ([np.eye(3)], [np.eye(2), np.zeros((2, 3))], [np.ones(2)]):
        with pytest.raises(ValueError, match="2x2"):
            kraus_set(ops)
    for labels in (("a", "b"), ()):
        with pytest.raises(ValueError, match="one label per operator"):
            kraus_set([np.eye(2)], labels)


def test_kraus_set_rejects_repeated_labels():
    with pytest.raises(ValueError, match="labels must be distinct"):
        kraus_set(trine_set().ops, labels=("a", "a", "c"))


def test_protocol_rejects_repeated_leaf_labels():
    proto = reduce(trine_set())
    with pytest.raises(ValueError, match="labels must be distinct"):
        MeasurementProtocol(proto.steps, proto.final_unitary, ("a", "b", "a"))
    doc = json.loads(protocol_to_json(proto))
    doc["leaf_labels"] = ["a", "c", "c"]
    with pytest.raises(ValueError, match="labels must be distinct"):
        protocol_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("steps",), 5, "'steps' to be a list"),
        (("steps", 0, "p"), "x", "'p' to be a number"),
        (("steps", 0, "q"), None, "'q' to be a number"),
        (("leaf_labels", 0), 3, "list of strings"),
        (("steps", 1, "pre_unitary", 0, 0), [5.0, 0.0], "not unitary"),
        (("steps", 1, "post_unitary_0", 0, 0), [5.0, 0.0], "not unitary"),
        (("steps", 1, "post_unitary_1", 0, 0), [5.0, 0.0], "not unitary"),
        (("final_unitary", 1, 1), [-1.5, 0.0], "not unitary"),
    ],
)
def test_protocol_json_rejects_bad_documents(path, value, message):
    doc = json.loads(protocol_to_json(reduce(trine_set())))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        protocol_from_json(json.dumps(doc))


def test_execute_projective_deterministic():
    proto = reduce(kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    ket0 = pure_state(np.array([1.0, 0.0]))
    for seed in range(20):
        counts, means = sample_protocol(proto, ket0, 50, seed)
        assert counts == {"0": 50, "1": 0} and means.keys() == {"0"}
        assert np.max(np.abs(means["0"] - ket0)) < 1e-12


def test_trine_uniform_histogram():
    proto = reduce(trine_set())
    mixed = np.eye(2, dtype=complex) / 2
    counts, _ = sample_protocol(proto, mixed, 6000, seed=99)
    sigma = math.sqrt((1 / 3) * (2 / 3) / 6000)
    for label in ("a", "b", "c"):
        assert abs(counts[label] / 6000 - 1 / 3) < 4 * sigma


def test_leaf_probabilities_match_born_rule():
    rng = np.random.default_rng(55)
    s = random_kraus_set(3, rng)
    proto = reduce(s)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    rho = pure_state(psi)
    shots = 20_000
    counts, _ = sample_protocol(proto, rho, shots, seed=7)
    for lab, m in zip(s.labels, s.ops):
        expect = float(np.real(psi.conj() @ adjoint(m) @ m @ psi))
        sigma = math.sqrt(max(expect * (1 - expect), 1e-9) / shots)
        assert abs(counts[lab] / shots - expect) < 4 * sigma + 1e-3


def test_backend_agreement():
    proto = reduce(trine_set())
    mixed = np.eye(2, dtype=complex) / 2
    shots = 4000
    base, _ = sample_protocol(proto, mixed, shots, seed=3, backend="exact")
    for backend in ("ancilla-direct", "ancilla-cphase", "ancilla-fixed_cz"):
        counts, _ = sample_protocol(proto, mixed, shots, seed=3, backend=backend)
        for lab in proto.leaf_labels:
            pa, pb = base[lab] / shots, counts[lab] / shots
            sigma = math.sqrt(max(pa * (1 - pa), 1e-9) / shots)
            assert abs(pa - pb) < 6 * sigma + 1e-2


@pytest.mark.parametrize(
    "backend", ["ancilla", "ancillary", "ancilla_fixed_cz", "ancilla-", "ancilla-bogus",
                "ancilla-direct-x", "Exact", "exact-direct", ""],
)
def test_unknown_backend_names_are_refused(backend):
    # Only exact, continuous and ancilla-<variant> name a backend; a near miss used to
    # run the direct circuit.
    d0, d1 = dops(PartialProjParams(0.8, 0.6))
    proto = reduce(kraus_set([d0, d1]))
    mixed = np.eye(2, dtype=complex) / 2
    cfg = ReadoutConfig(tau_min=1.0, seed=0)
    with pytest.raises(ValueError, match="unknown backend"):
        sample_protocol(proto, mixed, 10, seed=3, backend=backend, readout_config=cfg)
    assert proto._leaf_tables == {}  # a refused build keeps nothing


def test_continuous_backend_runs():
    # The continuous backend needs finite thresholds, so every step must
    # have p, q < 1; a weak two-outcome measurement qualifies.
    d0, d1 = dops(PartialProjParams(0.8, 0.6))
    proto = reduce(kraus_set([HADAMARD @ d0, HADAMARD @ d1]))
    cfg = ReadoutConfig(tau_min=1.0, seed=17)
    mixed = np.eye(2, dtype=complex) / 2
    counts, _ = sample_protocol(
        proto, mixed, 400, seed=17, backend="continuous", readout_config=cfg
    )
    assert sum(counts.values()) == 400
    f0 = counts["0"] / 400
    assert abs(f0 - 0.6) < 4 * math.sqrt(0.6 * 0.4 / 400)


def test_continuous_backend_rejects_projective_step():
    # On every call, also at shots=0: an Infeasible build is not kept on the protocol.
    proto = reduce(trine_set())
    cfg = ReadoutConfig(tau_min=1.0, seed=18)
    mixed = np.eye(2, dtype=complex) / 2
    for shots in (10, 0, 10, 0):
        with pytest.raises(Infeasible, match="not finite"):
            sample_protocol(
                proto, mixed, shots, seed=18, backend="continuous", readout_config=cfg
            )
    assert proto._leaf_tables == {}
    with pytest.raises(ValueError, match="continuous backend requires a ReadoutConfig"):
        sample_protocol(proto, mixed, 10, seed=18, backend="continuous")


def weak_trine_set():
    # Full rank, so every step of the reduction has finite thresholds.
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    ops = []
    for k in range(3):
        theta = 2 * math.pi * k / 3
        t = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        t_perp = np.array([-math.sin(theta / 2), math.cos(theta / 2)], dtype=complex)
        ops.append(math.sqrt(2.0 / 3.0) * (c * np.outer(t, t.conj())
                                           + s * np.outer(t_perp, t_perp.conj())))
    return kraus_set(ops, labels=("a", "b", "c"))


def test_continuous_backend_weak_trine():
    s = weak_trine_set()
    proto = reduce(s)
    assert len(proto.steps) == 2
    cfg = ReadoutConfig(tau_min=1.0, seed=19)
    psi = np.array([0.6, 0.8j])
    rho = pure_state(psi)
    shots = 4000
    counts, means = sample_protocol(
        proto, rho, shots, seed=19, backend="continuous", readout_config=cfg
    )
    assert sum(counts.values()) == shots
    for lab, m in zip(s.labels, s.ops):
        out = m @ rho @ adjoint(m)
        expect = float(np.trace(out).real)
        sigma = math.sqrt(expect * (1 - expect) / shots)
        assert abs(counts[lab] / shots - expect) < 4 * sigma
        assert np.max(np.abs(means[lab] - out / expect)) < 1e-6
    again = sample_protocol(
        proto, rho, shots, seed=19, backend="continuous", readout_config=cfg
    )
    assert again[0] == counts
    assert all(np.array_equal(again[1][lab], means[lab]) for lab in means)


def test_continuous_backend_duration_cap():
    proto = reduce(weak_trine_set())
    cfg = ReadoutConfig(tau_min=1.0, seed=20, max_duration=1e-6)
    with pytest.raises(Infeasible, match="duration cap"):
        sample_protocol(
            proto, np.eye(2) / 2, 100, seed=20, backend="continuous", readout_config=cfg
        )


def test_continuous_backend_zero_strength_step():
    # sqrt(0.7) I and sqrt(0.3) X reduce to one step with p + q = 1, whose
    # thresholds collapse to (0, 0): outcome 0 still has probability 0.7.
    s = kraus_set([math.sqrt(0.7) * np.eye(2), math.sqrt(0.3) * np.array([[0, 1], [1, 0]])])
    proto = reduce(s)
    assert strength(proto.steps[0].params) < 1e-12
    cfg = ReadoutConfig(tau_min=1.0, seed=64)
    mixed = np.eye(2, dtype=complex) / 2
    shots = 20_000
    sigma = math.sqrt(0.7 * 0.3 / shots)
    for backend in ("exact", "ancilla-direct", "continuous"):
        counts, means = sample_protocol(proto, mixed, shots, 64, backend, cfg)
        assert abs(counts["0"] / shots - 0.7) < 4 * sigma
        assert all(np.max(np.abs(m - mixed)) < 1e-12 for m in means.values())


def test_continuous_backend_averages_the_walk_below_unit_efficiency():
    # At eta < 1 the leaf states are the run averages of the readout walk,
    # with each side's coherence scaled by kappa_b = E[z^J | side b], once the
    # Z rotation e^{-i R_b tan(alpha) sigma_z / 2} that side b's runs carry is undone.
    d0, d1 = dops(PartialProjParams(0.8, 0.6))
    proto = reduce(kraus_set([HADAMARD @ d0, HADAMARD @ d1]))
    (step,) = proto.steps
    cfg = ReadoutConfig(tau_min=1.0, seed=65, alpha=math.pi / 4, efficiency=0.7)
    t = thresholds_from_pq(step.params)
    rho = pure_state(np.array([0.6, 0.8j]))
    _, means = sample_protocol(proto, rho, 100, 65, "continuous", cfg)
    n = 20_000
    batch = simulate_batch(cfg, t, adjoint(step.pre_unitary) @ rho @ step.pre_unitary, n)
    rotate = (step.post_unitary_0, proto.final_unitary @ step.post_unitary_1)
    for b, label in enumerate(proto.leaf_labels):
        r = (t.R0, t.R1)[b]
        undo = np.diag(np.exp(0.5j * r * math.tan(cfg.alpha) * np.array([1.0, -1.0])))
        side = undo @ batch.final_state[batch.outcome == b] @ adjoint(undo)
        mean = adjoint(rotate[b]) @ means[label] @ rotate[b]
        for part in (np.real, np.imag):
            # Diagonals are fixed by the side, so their spread is zero.
            err = part(side).std(axis=0) / math.sqrt(len(side))
            assert np.all(np.abs(part(mean) - part(side).mean(axis=0)) <= 4 * err + 1e-12)
        u = (step.post_unitary_0, step.post_unitary_1)[b]
        op = u @ dops(step.params)[b] @ adjoint(step.pre_unitary)
        expect = np.trace(op @ rho @ adjoint(op)).real
        assert abs(len(side) / n - expect) < 4 * math.sqrt(expect * (1 - expect) / n)
    # The coherence factors do not depend on the hidden label: walks from
    # |0> and from |1> estimate the same kappa_b.
    kappa = cfg.coherence(step.params)
    z = math.exp(-(1 - cfg.efficiency) * cfg.dt / (2 * cfg.efficiency * cfg.tau))
    for ket in ([1, 0], [0, 1]):
        batch = simulate_batch(cfg, t, pure_state(np.array(ket)), n)
        zj = z ** np.rint(batch.duration / cfg.dt)
        for b in (0, 1):
            v = zj[batch.outcome == b]
            assert abs(v.mean() - kappa[b]) < 4 * v.std() / math.sqrt(len(v))
    assert kappa[0] < 1 and kappa[1] < 1


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.2])
def test_continuous_backend_is_exact_at_unit_efficiency(alpha):
    # At eta = 1 every kappa_b is 1 and the readout's known alpha phase is undone,
    # so the continuous leaf table is the exact one bit for bit, halting
    # probabilities and leaf states, on random sets from rotated diag(0.9, 0.1).
    rng = np.random.default_rng(71)
    cfg = ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            proto = reduce(random_kraus_set(n, rng))
            u = random_unitary(rng)
            rho = u @ np.diag([0.9, 0.1]).astype(complex) @ adjoint(u)
            halt, states = decomposition._leaf_table(proto, rho, "exact")
            got_halt, got_states = decomposition._leaf_table(proto, rho, "continuous", cfg)
            assert got_halt == halt and len(got_states) == len(states)
            for got, ref in zip(got_states, states):
                assert (got is None and ref is None) or np.array_equal(got, ref)


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_continuous_backend_samples_as_exact_at_unit_efficiency(alpha):
    # One leaf table at eta = 1 and one seeding rule on both backends: each shot
    # reaches the same leaf, so counts and mean states match bit for bit.
    rng = np.random.default_rng(73)
    cfg = ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha)
    for n in range(2, 7):
        for _ in range(2):
            proto = reduce(random_kraus_set(n, rng))
            assert all(thresholds_from_pq(step.params).finite for step in proto.steps)
            for rho in (np.eye(2, dtype=complex) / 2, pure_state(rng.standard_normal(2)),
                        random_density(rng)):
                for seed in rng.integers(2**31, size=2).tolist():
                    counts, means = sample_protocol(proto, rho, 500, seed, "exact")
                    got_counts, got_means = sample_protocol(proto, rho, 500, seed,
                                                            "continuous", cfg)
                    assert got_counts == counts and got_means.keys() == means.keys()
                    for lab, mean in means.items():
                        assert np.array_equal(got_means[lab], mean)


def test_continuous_backend_cap_is_deterministic():
    # A cap that runs outlast with probability above 1e-12 raises on every
    # seed, also at shots=0, though a 200-run walk rarely reaches it;
    # simulate_batch applies the same rule.
    proto = reduce(weak_trine_set())
    mixed = np.eye(2) / 2
    tight = ReadoutConfig(tau_min=1.0, seed=66, max_duration=5.0)
    for seed in range(10):
        for shots in (0, 100):
            with pytest.raises(Infeasible, match="duration cap"):
                sample_protocol(proto, mixed, shots, seed, "continuous", tight)
    with pytest.raises(Infeasible, match="duration cap"):
        simulate_batch(tight, thresholds_from_pq(proto.steps[0].params), mixed, 200)
    default = ReadoutConfig(tau_min=1.0, seed=66)
    for seed in range(10):
        counts, _ = sample_protocol(proto, mixed, 100, seed, "continuous", default)
        assert sum(counts.values()) == 100


@pytest.mark.parametrize("backend", ["exact", "continuous"])
def test_sample_rejects_negative_shots(backend):
    # Checked as seeds are: 1.5 and True are no counts either, and numpy would raise TypeError.
    proto = reduce(weak_trine_set())
    cfg = ReadoutConfig(tau_min=1.0, seed=21)
    for shots in (-3, 1.5, True, "3", None):
        with pytest.raises(ValueError, match="shot count must be a non-negative integer"):
            sample_protocol(
                proto, np.eye(2) / 2, shots, seed=21, backend=backend, readout_config=cfg
            )


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
def test_sample_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # At any shot count and on every backend, before any generator is made.
    proto, cfg = reduce(weak_trine_set()), ReadoutConfig(tau_min=1.0, seed=21)
    for backend in ("exact", "ancilla-direct", "continuous"):
        for shots in (0, 5):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                sample_protocol(proto, np.eye(2) / 2, shots, seed, backend, cfg)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ReadoutConfig(tau_min=1.0, seed=seed)


@pytest.mark.parametrize("n", [0, -2])
def test_random_kraus_set_needs_an_outcome(n):
    # The n - 1 drawn operators would be none, and the set would get one outcome.
    with pytest.raises(ValueError, match="n >= 1"):
        random_kraus_set(n, np.random.default_rng(0))


# Two readouts that differ in efficiency, and in alpha, hence in the grid step m.
MEMO_READOUTS = (ReadoutConfig(tau_min=1.0, seed=0, efficiency=0.7),
                 ReadoutConfig(tau_min=1.0, seed=0, alpha=0.6))


@pytest.mark.parametrize("backend", BACKENDS + ("continuous",))
def test_kept_leaf_tables_are_bit_identical_to_fresh_builds(backend):
    # Alternating calls over two states and two readouts against a protocol with
    # no kept tables, the JSON round trip of the same protocol, made anew per call.
    proto = reduce(weak_trine_set())
    doc = protocol_to_json(proto)
    states = (pure_state(np.array([0.6, 0.8j])), np.eye(2, dtype=complex) / 2)
    for round_ in range(3):
        for k, (rho, cfg) in enumerate(itertools.product(states, MEMO_READOUTS)):
            seed = 10 * round_ + k
            counts, means = sample_protocol(proto, rho, 50, seed, backend, cfg)
            ref_counts, ref_means = sample_protocol(protocol_from_json(doc), rho, 50, seed,
                                                    backend, cfg)
            assert counts == ref_counts and means.keys() == ref_means.keys()
            assert all(np.array_equal(means[lab], ref_means[lab]) for lab in means)
    # One table per state, and per readout only where the readout is read.
    assert len(proto._leaf_tables) == (4 if backend == "continuous" else 2)


def test_kept_leaf_tables_ignore_the_readout_seed():
    proto = reduce(weak_trine_set())
    rho = pure_state(np.array([0.6, 0.8j]))
    tables = {id(decomposition._leaf_table(proto, rho, "continuous", ReadoutConfig(
        tau_min=1.0, seed=seed, efficiency=0.7))) for seed in range(5)}
    assert len(tables) == 1 and len(proto._leaf_tables) == 1


@pytest.mark.parametrize("backend", BACKENDS + ("continuous",))
def test_leaf_states_are_read_only(backend):
    proto = reduce(weak_trine_set())
    rho = pure_state(np.array([0.6, 0.8j]))
    cfg = ReadoutConfig(tau_min=1.0, seed=0)
    _, means = sample_protocol(proto, rho, 50, 5, backend, cfg)
    for state in means.values():
        with pytest.raises(ValueError, match="read-only"):
            state[0, 0] = 0.0
    halt, _ = decomposition._leaf_table(proto, rho, backend, cfg)
    assert type(halt) is tuple


def test_kept_leaf_tables_are_bounded():
    # One protocol over more states than it keeps: the oldest table goes first,
    # and a state whose table was dropped is rebuilt to the same values.
    proto = reduce(weak_trine_set())
    kept = decomposition.LEAF_TABLES_KEPT
    states = [pure_state(np.array([math.cos(t), math.sin(t)])) for t in np.linspace(0, 3, kept + 5)]
    first = decomposition._leaf_table(proto, states[0], "exact")
    for i, rho in enumerate(states):
        sample_protocol(proto, rho, 5, i, "exact")
        assert len(proto._leaf_tables) == min(i + 1, kept)
    assert (states[0].tobytes(), "exact") not in proto._leaf_tables
    assert (states[-1].tobytes(), "exact") in proto._leaf_tables
    again = decomposition._leaf_table(proto, states[0], "exact")
    assert again is not first and again[0] == first[0]
    assert all(np.array_equal(a, b) for a, b in zip(again[1], first[1]))
    assert len(proto._leaf_tables) == kept


def test_protocol_matrices_are_read_only():
    # A write used to leave the cached branches (and would leave the kept leaf
    # tables) stale; a protocol's matrices are now read-only.
    proto = reduce(random_kraus_set(3, np.random.default_rng(5)))
    proto.branches
    for p in (proto, protocol_from_json(protocol_to_json(proto))):
        mats = [m for s in p.steps for m in (s.pre_unitary, s.post_unitary_0, s.post_unitary_1)]
        for m in mats + [p.final_unitary]:
            assert m.dtype == np.complex128
            with pytest.raises(ValueError, match="read-only"):
                m[...] = np.eye(2)
    # An array the caller passed in is copied, so the caller's handle cannot change it.
    final = np.eye(2, dtype=complex)
    step = proto.steps[0]
    pre = step.pre_unitary.copy()
    copy = MeasurementProtocol(
        (decomposition.TwoOutcomeStep(pre, step.params, step.post_unitary_0, step.post_unitary_1),),
        final, ("a", "b"))
    final[0, 0] = pre[0, 0] = 2.0
    assert copy.final_unitary[0, 0] == 1.0 and copy.steps[0].pre_unitary[0, 0] != 2.0


@pytest.mark.parametrize("backend", ["exact", "ancilla-cphase"])
def test_sample_protocol_validates_initial_once(backend, monkeypatch):
    proto = reduce(trine_set())
    rho = pure_state(np.array([0.6, 0.8j]))
    shots, seed = 200, 58
    counts, ref_means = reference_sample(proto, rho, shots, seed, backend)
    calls = []
    real = decomposition.validate_state
    monkeypatch.setattr(decomposition, "validate_state", lambda r: calls.append(1) or real(r))
    got_counts, got_means = sample_protocol(proto, rho, shots, seed, backend)
    assert len(calls) == 1
    assert got_counts == counts
    assert got_means.keys() == ref_means.keys()
    halt, states = decomposition._leaf_table(proto, rho, backend)
    if backend == "exact":
        assert_walk_probabilities(proto, rho, halt)
    for lab, mean in got_means.items():
        # A leaf's mean is its state; the summed reference differs by rounding.
        assert np.array_equal(mean, states[proto.leaf_labels.index(lab)])
        assert np.max(np.abs(mean - ref_means[lab])) < 1e-13


@pytest.mark.parametrize("backend", ["exact", "continuous"])
def test_certain_leaf_takes_every_shot(backend):
    # A step that halts with certainty can read a halting probability just past 1
    # (1 + 9e-16 on a projective pair sampled from |v>); clamped, the multinomial draw
    # raises nothing and every shot lands on |v>'s leaf. The continuous backend refuses
    # projective steps (infinite thresholds), so there p is one ulp below 1.
    rng = np.random.default_rng(64)
    cfg, eye = ReadoutConfig(tau_min=1.0, seed=0), np.eye(2)
    past_one = 0
    for seed in range(200):
        v = random_unitary(rng)
        if backend == "exact":
            proto = reduce(kraus_set([np.outer(u, u.conj()) for u in v.T]))
        else:
            step = decomposition.TwoOutcomeStep(v, PartialProjParams(1.0 - 2**-53, 0.5), eye, eye)
            proto = MeasurementProtocol((step,), eye, ("0", "1"))
        rho = pure_state(v[:, 0])
        past_one += decomposition._leaf_table(proto, rho, backend, cfg)[0][0] > 1.0
        counts, means = sample_protocol(proto, rho, 1000, seed, backend, cfg)
        assert counts == {"0": 1000, "1": 0} and list(means) == ["0"]
    assert past_one > 0


def reference_leaf_table(p, rho, backend, readout_config=None):
    """The leaf table on numpy stacks, both outcomes of a step as one (2, 2, 2) array:
    A = K V^dag, A rho A^dag, coherences scaled by kappa, then U_b out_b U_b^dag / h_b;
    K is (D_0, D_1) on exact and continuous, whose readout gives kappa.

    The stacked build that the scalar one replaced, kept as its reference.
    """
    halt, states = [], []
    for step in p.steps:
        pq = step.params
        kappa = np.array(readout_config.coherence(pq) if backend == "continuous" else (1.0, 1.0))
        if backend in ("exact", "continuous"):
            k = np.stack(dops(pq))
        else:
            k = np.stack(kraus_from_circuit(circuit_from_pq(backend.split("-", 1)[1], pq)))
        a = k @ adjoint(step.pre_unitary)
        out = a @ rho @ adjoint(a)
        out[:, 0, 1] *= kappa
        out[:, 1, 0] *= kappa
        h, survive = np.trace(out, axis1=1, axis2=2).real.tolist()
        u = np.stack([step.post_unitary_0, step.post_unitary_1])
        out = u @ out @ adjoint(u)
        halt.append(h)
        states.append(out[0] / h if h >= ZERO_BRANCH_TOL else None)
        if survive < ZERO_BRANCH_TOL:
            return halt, states + [None]
        rho = out[1] / survive
    return halt, states + [p.final_unitary @ rho @ adjoint(p.final_unitary)]


def reference_walk(p, rho, rng, backend):
    """One ``ancilla-*`` shot stepped through the protocol, drawing and updating at each
    step.

    The per-shot walk that the leaf table replaced, kept as its reference.
    """
    for k, step in enumerate(p.steps):
        rho = adjoint(step.pre_unitary) @ rho @ step.pre_unitary
        pair = kraus_from_circuit(circuit_from_pq(backend.split("-", 1)[1], step.params))
        p0 = float(np.trace(pair[0] @ rho @ adjoint(pair[0])).real)
        outcome = 0 if rng.random() < p0 else 1
        out = pair[outcome] @ rho @ adjoint(pair[outcome])
        rho = out / np.trace(out).real
        u = step.post_unitary_0 if outcome == 0 else step.post_unitary_1
        rho = u @ rho @ adjoint(u)
        if outcome == 0:
            return p.leaf_labels[k], rho
    return p.leaf_labels[-1], p.final_unitary @ rho @ adjoint(p.final_unitary)


def reference_leaves(p, rho):
    """Each leaf's probability and state on ``exact`` by the step walk: leaf k is outcome
    0 at step k after outcome 1 at every step before it, its probability the product of
    the walk's Born probabilities (:func:`outcome_probabilities`)."""
    probs, states, survive = [], [], 1.0
    for step in p.steps:
        rho = adjoint(step.pre_unitary) @ rho @ step.pre_unitary
        p0, p1 = outcome_probabilities(step.params, rho)
        leaf = apply_outcome(step.params, 0, rho)
        probs.append(survive * p0)
        states.append(step.post_unitary_0 @ leaf @ adjoint(step.post_unitary_0))
        survive *= p1
        rho = apply_outcome(step.params, 1, rho)
        rho = step.post_unitary_1 @ rho @ adjoint(step.post_unitary_1)
    return probs + [survive], states + [p.final_unitary @ rho @ adjoint(p.final_unitary)]


def reference_sample(p, rho, shots, seed, backend):
    """Counts and mean states by the seeding contract of ``sample_protocol``: on ``exact``
    one ``default_rng(seed).multinomial`` over the step walk's leaf probabilities; on
    ``ancilla-*`` the step walk once per shot, shot i on ``default_rng([seed, i])``."""
    if backend == "exact":
        probs, states = reference_leaves(p, rho)
        counts = np.random.default_rng(seed).multinomial(shots, probs).tolist()
        return (dict(zip(p.leaf_labels, counts)),
                {lab: s for lab, s, c in zip(p.leaf_labels, states, counts) if c})
    counts = dict.fromkeys(p.leaf_labels, 0)
    sums = {lab: np.zeros((2, 2), dtype=complex) for lab in p.leaf_labels}
    for i in range(shots):
        label, out = reference_walk(p, rho, np.random.default_rng([seed, i]), backend)
        counts[label] += 1
        sums[label] += out
    return counts, {lab: sums[lab] / c for lab, c in counts.items() if c}


def table_probabilities(p, halt):
    """Each leaf's probability from a leaf table's halting probabilities: halt[k] times
    the chance to survive the steps before it, 0 past a table that stopped early."""
    probs, survive = [], 1.0
    for h in halt:
        probs.append(survive * h)
        survive *= 1.0 - h
    return probs + [survive] + [0.0] * (len(p.leaf_labels) - len(halt) - 1)


def assert_walk_probabilities(p, rho, halt):
    """The ``exact`` table's leaf probabilities are the step walk's products."""
    ref, _ = reference_leaves(p, rho)
    assert np.max(np.abs(np.subtract(table_probabilities(p, halt), ref))) < 1e-14


def random_density(rng):
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = rng.uniform(0.5, 1.0)
    return w * pure_state(psi) + (1 - w) * np.eye(2) / 2


# Seeds of one to three uint32 words, and a numpy integer: on ``ancilla-*`` each must
# seed shot i as ``default_rng([seed, i])`` does.
WIDE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, np.uint64(2**64 - 1))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("backend", BACKENDS)
def test_leaf_table_matches_step_walk(backend, n):
    rng = np.random.default_rng(60 + n)
    wide = WIDE_SEEDS if backend.startswith("ancilla") else ()
    for fixed in (None, None, None, *wide):
        s = random_kraus_set(n, rng)
        proto = reduce(s)
        rho = random_density(rng)
        seed = int(rng.integers(2**31)) if fixed is None else fixed
        counts, means = sample_protocol(proto, rho, 300, seed, backend)
        ref_counts, ref_means = reference_sample(proto, rho, 300, seed, backend)
        assert counts == ref_counts
        assert means.keys() == ref_means.keys()
        for lab, mean in means.items():
            assert np.max(np.abs(mean - ref_means[lab])) < 1e-13
        halt, _ = decomposition._leaf_table(proto, rho, backend)
        if backend == "exact":
            assert_walk_probabilities(proto, rho, halt)
        for lab, leaf_p in zip(proto.leaf_labels, table_probabilities(proto, halt)):
            m = s.ops[s.labels.index(lab)]
            assert abs(leaf_p - np.trace(m @ rho @ adjoint(m)).real) < 1e-12


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_shot_entropy_is_what_seed_sequence_makes_of_seed_and_shot(seed):
    # Across i = 2**32, where the shot index no longer fits one uint32 word.
    # Each yielded array is read before the next, as the sampling loop reads it.
    start, stop = 2**32 - 2, 2**32 + 2
    got = [np.random.SeedSequence(entropy).generate_state(4)
           for entropy in decomposition._shot_entropy(seed, start, stop)]
    want = [np.random.SeedSequence([seed, i]).generate_state(4) for i in range(start, stop)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_probability_branches(backend):
    pair = kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    kets = [pure_state(np.array([1.0, 0.0])), pure_state(np.array([0.0, 1.0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (pair, trine_set()):
            proto = reduce(s)
            for rho in kets:
                counts, means = sample_protocol(proto, rho, 300, seed=62, backend=backend)
                assert sum(counts.values()) == 300
                for lab, m in zip(s.labels, s.ops):
                    if np.trace(m @ rho @ adjoint(m)).real < 1e-12:
                        assert counts[lab] == 0 and lab not in means
                    else:
                        assert counts[lab] > 0 and np.all(np.isfinite(means[lab]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_shot_in_zero_probability_leaf_raises(backend, monkeypatch):
    # No draw lands in a branch below 1e-12, so raise the tolerance until
    # leaf "a" of the trine from the mixed state (probability 1/3) is below it.
    # 0.4 stays clear of 1/2, leaves b and c's conditional probability, so the
    # leaf table's round-off cannot decide which leaf raises.
    monkeypatch.setattr(partial_projection, "ZERO_BRANCH_TOL", 0.4)
    proto = reduce(trine_set())
    mixed = np.eye(2) / 2
    with pytest.raises(Infeasible, match="leaf 'a' has probability"):
        sample_protocol(proto, mixed, 100, seed=63, backend=backend)


def test_round_trip_random_sets():
    rng = np.random.default_rng(56)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        s = random_kraus_set(n, rng)
        proto = reduce(s)
        for lab, m in zip(s.labels, s.ops):
            assert phase_distance(m, compose_branch(proto, lab)) < 1e-9


def test_protocol_json_round_trip():
    proto = reduce(trine_set())
    back = protocol_from_json(protocol_to_json(proto))
    assert back.leaf_labels == proto.leaf_labels
    for lab in proto.leaf_labels:
        assert (
            np.linalg.norm(compose_branch(back, lab) - compose_branch(proto, lab))
            < 1e-12
        )
