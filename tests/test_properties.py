"""Generated-input properties: every backend's leaf table is the Born rule.

For Kraus sets of 2 to 4 outcomes, some of them scaled unitaries sqrt(w) U
(whose reduction steps have p + q = 1, no measurement at all), the leaf
table of each backend must give leaf k the probability Tr(M_k rho M_k^dag)
and the state M_k rho M_k^dag / Tr, and agree with the stacked numpy build
within round-off. The protocols ``reduce`` builds from random sets of 2 to
6 outcomes keep their invariants at every order. Every fidelity lies in
[0, 1] and a report agrees with itself; JSON and angle
round trips are exact or within 1e-12; circuit Kraus pairs agree with the
Kronecker-product build within 1e-14; updates keep trace 1 and purity.
Examples are derandomized, so a run is reproducible.
"""

import collections
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from genmeas import continuous_readout, decomposition, linalg  # noqa: E402
from genmeas.ancilla_circuit import (  # noqa: E402
    VARIANTS, angles_from_pq, circuit_from_pq, kraus_from_circuit, pq_from_angles,
)
from genmeas.channels import KINDS, NoiseSpec, noisy_branch  # noqa: E402
from genmeas.continuous_readout import (  # noqa: E402
    ReadoutConfig, pq_from_thresholds, simulate_batch, thresholds_from_pq,
)
from genmeas.decomposition import (  # noqa: E402
    compose_branch, kraus_set, protocol_from_json, protocol_to_json, random_kraus_set, reduce,
)
from genmeas.errors import Infeasible  # noqa: E402
from genmeas import fidelity  # noqa: E402
from genmeas.fidelity import (  # noqa: E402
    ProcessMatrix, ProcessSet, average_state_fidelity, chi_from_kraus, fidelity_report,
    povm_fidelity, process_fidelity, process_set_from_json,
    process_set_from_kraus, process_set_to_json, state_fidelity, total_fidelity,
)
from genmeas.linalg import adjoint, hermitian_part, is_unitary, phase_distance  # noqa: E402
from genmeas.partial_projection import (  # noqa: E402
    ZERO_BRANCH_TOL, PartialProjParams, apply_outcome, dops, validate_state,
)
from genmeas.serialize import kraus_set_from_json, kraus_set_to_json  # noqa: E402
from test_ancilla_circuit import kron_kraus_from_circuit  # noqa: E402
from test_continuous_readout import plan_tables, reference_exit_table  # noqa: E402
from test_decomposition import reference_leaf_table  # noqa: E402
from test_serialize import (  # noqa: E402
    MALFORMED, assert_same_kraus_sets, assert_same_protocols, read_both,
    reference_kraus_set_from_json, reference_protocol_from_json,
)
from test_fidelity import (  # noqa: E402
    assert_reports_agree, reference_average_state_fidelity, reference_chi_from_kraus,
    reference_fidelity_report, reference_noisy_branch, reference_partials, reference_povm_terms,
    reference_process_fidelity, reference_process_set_from_kraus,
)

BACKENDS = ("exact", "ancilla-direct", "ancilla-cphase", "ancilla-fixed_cz", "continuous")
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

unit = st.floats(-1.0, 1.0, allow_nan=False)
quaternions = st.tuples(unit, unit, unit, unit)


def su2(v) -> np.ndarray:
    """Unitary [[a, -b*], [b, a*]] of a normalized quaternion; identity near zero."""
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        return np.eye(2, dtype=complex)
    a, b = complex(v[0], v[1]) / norm, complex(v[2], v[3]) / norm
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


@st.composite
def kraus_sets(draw):
    """A complete set: scaled unitaries sqrt(w_k) U_k, and full-rank outcomes
    A_k G^{-1/2} sqrt(W) that fill the weight W left over, G = sum A_k^dag A_k."""
    n = draw(st.integers(2, 4))
    scaled = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    w /= w.sum()
    ops = []
    for k in range(n):
        u = su2(draw(quaternions))
        if scaled[k]:
            ops.append(np.sqrt(w[k]) * u)
        else:
            singular = np.diag(draw(st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0))))
            ops.append(u @ singular @ su2(draw(quaternions)))
    generic = [k for k in range(n) if not scaled[k]]
    if generic:
        g = sum(adjoint(ops[k]) @ ops[k] for k in generic)
        vals, vecs = np.linalg.eigh(hermitian_part(g))
        g_inv_sqrt = vecs @ np.diag(vals**-0.5) @ adjoint(vecs)
        for k in generic:
            ops[k] = ops[k] @ g_inv_sqrt * np.sqrt(w[generic].sum())
    return kraus_set(ops)


@st.composite
def states(draw):
    """A density matrix with Bloch vector of length at most 0.9."""
    r = np.array(draw(st.tuples(unit, unit, unit)))
    r *= 0.9 / max(1.0, float(np.linalg.norm(r)))
    return (np.eye(2) + sum(c * s for c, s in zip(r, PAULIS))) / 2


@st.composite
def density_matrices(draw):
    """A density matrix with Bloch vector of any length in [0, 1], pure states included."""
    r = np.array(draw(st.tuples(unit, unit, unit)))
    norm = float(np.linalg.norm(r))
    assume(norm > 1e-3)
    r *= draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))) / norm
    return (np.eye(2) + sum(c * s for c, s in zip(r, PAULIS))) / 2


@st.composite
def scored_sets(draw):
    """A noisy n-outcome process set (n = 2..6), each outcome with its own noise
    kind and strength, and an ideal for it: the purity-preserving set of the same
    Kraus operators or another noisy version of them."""
    n = draw(st.integers(2, 6))
    s = random_kraus_set(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))

    def noisy():
        specs = [NoiseSpec(draw(st.sampled_from(KINDS)), draw(st.floats(0.0, 1.0)), k) for k in range(n)]
        return ProcessSet(tuple(
            (label, noisy_branch(m, spec)) for label, m, spec in zip(s.labels, s.ops, specs)
        ))

    actual = noisy()
    return actual, noisy() if draw(st.booleans()) else process_set_from_kraus(s.ops, s.labels)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kraus_sets(), states())
def test_leaf_tables_follow_the_born_rule(s, rho):
    proto = reduce(s)
    cfg = ReadoutConfig(tau_min=1.0, seed=0)
    for backend in BACKENDS:
        halt, leaf_states = decomposition._leaf_table(proto, rho, backend, cfg)
        survive = 1.0
        for k, label in enumerate(proto.leaf_labels):
            leaf_p = survive * (halt[k] if k < len(halt) else 1.0)
            survive *= 1.0 - halt[k] if k < len(halt) else 0.0
            m = s.ops[s.labels.index(label)]
            out = m @ rho @ adjoint(m)
            expect = np.trace(out).real
            assert abs(leaf_p - expect) < 1e-10, (backend, label)
            assert np.max(np.abs(leaf_states[k] - out / expect)) < 1e-8, (backend, label)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kraus_sets(), states(), st.floats(0.3, 1.0))
def test_scalar_leaf_table_is_the_stacked_one(s, rho, eta):
    # The scalar build against the stacked numpy one on every backend: halting
    # probabilities within 1e-15, leaf states within 1e-14 max(1, 1 / P(leaf)),
    # and the same leaves None. eta < 1 scales the continuous coherences.
    proto = reduce(s)
    cfg = ReadoutConfig(tau_min=1.0, seed=0, alpha=0.3, efficiency=eta)
    for backend in BACKENDS:
        halt, leaf_states = decomposition._leaf_table(proto, rho, backend, cfg)
        ref_halt, ref_states = reference_leaf_table(proto, np.asarray(rho, complex), backend, cfg)
        assert len(halt) == len(ref_halt) and len(leaf_states) == len(ref_states)
        assert all(isinstance(h, float) for h in halt)
        assert np.all(np.abs(np.subtract(halt, ref_halt)) <= 1e-15), backend
        survive = 1.0
        for k, (got, ref) in enumerate(zip(leaf_states, ref_states)):
            leaf_p = survive * (ref_halt[k] if k < len(ref_halt) else 1.0)
            survive *= 1.0 - ref_halt[k] if k < len(ref_halt) else 0.0
            assert (got is None) == (ref is None), (backend, k)
            if ref is not None:
                assert got.dtype == np.complex128 and got.shape == (2, 2)
                assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, 1.0 / leaf_p), (backend, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.995), st.floats(0.0, 1.0), st.sampled_from([1e-2, 1e-3]), st.floats(0.3, 1.0))
def test_exit_table_is_the_exit_law(p, frac, m, eta):
    # The table that simulate_batch samples against closed forms of the exit
    # law at drift +1 (hidden label 0), times in units of tau.
    q = 1.0 - p + 1e-3 + frac * (p - 1e-3 - 0.005)
    params = PartialProjParams(p, q)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=0, dt=m, efficiency=eta)
    surv = continuous_readout._exit_table(t, *continuous_readout._grid(cfg))
    pmf = -np.diff(surv, axis=1)
    h = np.array([p, 1.0 - p])
    assert pmf.min() > -1e-14  # survival is nonincreasing up to round-off
    # Each side's mass is its hit probability; the rest outlasts the cap.
    assert np.all(np.abs(pmf.sum(axis=1) - h) < 1e-12)
    assert abs(pmf.sum() - (1.0 - surv[:, -1].sum())) < 1e-12
    # Wald's identity: E[T] = E[R_T] / drift, and J = ceil(T / m).
    mean_t = t.R0 * p + t.R1 * (1.0 - p)
    mean_j = pmf.sum(axis=0) @ np.arange(1, pmf.shape[1] + 1)
    assert mean_t - 1e-9 <= m * mean_j <= mean_t + m + 1e-9
    # The coherence factors of the continuous backend.
    z = np.exp(-(1.0 - eta) * m / (2.0 * eta)) ** np.arange(1, pmf.shape[1] + 1)
    kappa = cfg.coherence(params)
    assert np.all(np.abs(pmf @ z / h - kappa) < 1e-10)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.995), st.floats(0.0, 1.0), st.sampled_from([1e-2, 1e-3, 1e-4]),
       st.floats(-1.2, 1.2), st.floats(0.3, 1.0), st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_exit_table_is_the_reference_table(p, frac, m, alpha, eta, cap):
    # The doubling-chunk table against the 64-bin reference, uncapped or with a
    # cap between the shortest one the cap check allows and the uncapped length,
    # where the table ends at the cap.
    q = 1.0 - p + 1e-3 + frac * (p - 1e-3 - 0.005)
    t = thresholds_from_pq(PartialProjParams(p, q))
    cfg = ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha, dt=m, efficiency=eta)
    try:
        free = reference_exit_table(t, cfg)
    except Infeasible:  # the cap, 10^6 + 1 steps, is too short
        with pytest.raises(Infeasible, match="duration cap"):
            continuous_readout._exit_table(t, *continuous_readout._grid(cfg))
        return
    j_cap = continuous_readout._J_CAP
    if cap is not None:
        outlast = np.maximum(free.sum(axis=0), np.exp(-2.0 * np.array([t.R0, t.R1])) @ free)
        j_lo = int(np.argmax(outlast < 5e-13))
        j_cap = j_lo + int(cap * max(free.shape[1] - 2 - j_lo, 0))
    m_tau = continuous_readout._grid(cfg)[0]
    with mock.patch.object(continuous_readout, "_J_CAP", j_cap):
        ref = reference_exit_table(t, cfg)
    surv = continuous_readout._exit_table(t, m_tau, j_cap)
    assert surv.shape == ref.shape
    if cap is not None:
        assert surv.shape[1] == j_cap + 1
    # Both sum one alternating series in different orders and with different term
    # cuts: allow 1e-15 h plus 16 ulps of its absolute sum A_b(s) = sum_n |c_bn|
    # e^{-lam_n s}, which is nonincreasing in s, so A at the power of two at or
    # below j bounds bin j.
    lam, c = continuous_readout._exit_series(t, m_tau, j_cap)
    k = np.frexp(np.maximum(np.arange(ref.shape[1]), 1))[1] - 1
    absum = np.abs(c) @ np.exp(-np.outer(lam, 2.0 ** np.arange(k.max() + 1) * m_tau))
    assert np.all(np.abs(surv - ref) <= 1e-15 * ref[:, :1] + 16 * np.finfo(float).eps * absum[:, k])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(0.5, 0.998), st.floats(0.0, 1.0), st.floats(-1.2, 1.2), st.floats(0.3, 1.0),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(0.5, 1.0, 0.0, 1.0, None)  # (0.55, 0.5), near-symmetric
@example(0.998, 0.0, 0.0, 1.0, None)  # (0.999, 0.998), strong
@example(0.998, 0.0, 1.2, 0.5, 0.5)
def test_guided_exit_steps_are_the_binary_search(q, frac, alpha, eta, cap):
    # The guide table's step counts against a right binary search of u - 1 in the
    # side's tail, bit for bit, for keys at each cell edge g / cells, one ulp below
    # it, 0 and one ulp below 1, on both sides, uncapped or with a cap between the
    # shortest one the cap check allows and the uncapped length.
    t = thresholds_from_pq(PartialProjParams(min(q + 0.001 + 0.049 * frac, 0.999), q))
    cfg = ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha, efficiency=eta)
    j_cap = continuous_readout._J_CAP
    if cap is not None:
        free = continuous_readout._exit_table(t, *continuous_readout._grid(cfg))
        outlast = np.maximum(free.sum(axis=0), np.exp(-2.0 * np.array([t.R0, t.R1])) @ free)
        j_lo = int(np.argmax(outlast < 5e-13))
        j_cap = j_lo + int(cap * max(free.shape[1] - 2 - j_lo, 0))
    m_tau = continuous_readout._grid(cfg)[0]
    tail, guide, _ = plan_tables(continuous_readout._search_table(t, m_tau, j_cap))
    # Every cached tail is non-decreasing within [-1, 0], so a search is a count.
    assert np.all(np.diff(tail) >= 0.0) and tail.min() >= -1.0 and tail.max() <= 0.0
    cells = 2 ** min(math.ceil(math.log2(tail.shape[1])), 16)
    assert guide.shape == (2, cells + 1)
    edges = np.arange(cells + 1) / cells
    keys = np.concatenate([edges[:-1], np.nextafter(edges[1:], 0.0)])  # 0 and 1 - ulp among them
    plus = np.full((2, 2), 0.5)
    born0 = pq_from_thresholds(t).p * (0.5 + 0.5 * math.exp(-2.0 * t.R0))
    for b, u0 in enumerate((0.0, np.nextafter(1.0, 0.0))):
        assert (u0 >= born0) == b
        u = np.column_stack([np.full(len(keys), u0), keys])
        with mock.patch.object(continuous_readout, "_J_CAP", j_cap):
            batch = continuous_readout._sample_exit(cfg, t, plus, u)
        steps = 1 + np.searchsorted(tail[b], keys - 1.0, side="right")
        assert np.array_equal(batch.duration, steps * cfg.dt)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_reduce_keeps_its_invariants(n, seed):
    # n = 1 is a lone unitary, composed by the final unitary alone.
    # Every order for n <= 4, both cancel_u1 values: unitary protocol matrices,
    # p + q >= 1, a complete set of branches, each its target up to phase, and
    # without cancel_u1 a PSD remainder branch V D1 V^dag.
    s = random_kraus_set(n, np.random.default_rng(seed))
    orders = itertools.permutations(range(n)) if n <= 4 else [tuple(range(n))]
    for order, cancel_u1 in itertools.product(orders, (False, True)):
        proto = reduce(s, order=order, cancel_u1=cancel_u1)
        for step in proto.steps:
            assert is_unitary(np.stack([step.pre_unitary, step.post_unitary_0,
                                        step.post_unitary_1]), tol=1e-12)
            assert step.params.p + step.params.q >= 1.0
            if not cancel_u1:
                b1 = step.post_unitary_1 @ dops(step.params)[1] @ adjoint(step.pre_unitary)
                assert np.linalg.norm(b1 - adjoint(b1)) <= 1e-12
                assert np.linalg.eigvalsh((b1 + adjoint(b1)) / 2)[0] >= -1e-12
                assert np.array_equal(step.post_unitary_1, step.pre_unitary)
        assert is_unitary(proto.final_unitary, tol=1e-12)
        branches = [compose_branch(proto, label) for label in s.labels]
        assert np.linalg.norm(sum(adjoint(b) @ b for b in branches) - np.eye(2)) <= 1e-12
        for b, m in zip(branches, s.ops):
            assert phase_distance(m, b) <= 1e-12, (order, cancel_u1)


def chain_product_branches(proto):
    """Every leaf's branch as numpy products: each step's stack (U_0 D_0 V^dag,
    U_1 D_1 V^dag) times the running chain, then the final unitary. The stacked
    build that the scalar pass of ``MeasurementProtocol.branches`` replaced."""
    out, chain = [], np.eye(2, dtype=complex)
    for step in proto.steps:
        u = np.stack([step.post_unitary_0, step.post_unitary_1])
        leaf, chain = u @ np.stack(dops(step.params)) @ adjoint(step.pre_unitary) @ chain
        out.append(leaf)
    return np.array(out + [proto.final_unitary @ chain])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_branches_match_chain_product(n, seed, cancel_u1):
    # The scalar pass and the numpy chain agree to round-off on a reduced
    # protocol and on the same protocol read back from its JSON.
    proto = reduce(random_kraus_set(n, np.random.default_rng(seed)), cancel_u1=cancel_u1)
    for p in (proto, protocol_from_json(protocol_to_json(proto))):
        got = p.branches
        assert got.shape == (n, 2, 2) and got.dtype == np.complex128 and not got.flags.writeable
        assert np.max(np.linalg.norm(got - chain_product_branches(p), axis=(1, 2))) <= 1e-14


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.just(0.0), st.floats(-16.0, -2.0).map(lambda e: 10.0**e)),
       st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
def test_near_projective_pairs_keep_their_leak_amplitude(eps, frac, seed):
    # A rotated pair with 1 - p = eps and 1 - q = eps * frac: each pair of squares
    # takes its small one from its own block, so the leak amplitude sqrt(eps) stays
    # and both branches are within 1e-14, down to eps = 1e-16 and at 0.
    rng = np.random.default_rng(seed)
    d0, d1 = dops(PartialProjParams(1.0 - eps, 1.0 - eps * frac))
    v = decomposition.random_unitary(rng)
    s = kraus_set([decomposition.random_unitary(rng) @ d0 @ v, decomposition.random_unitary(rng) @ d1 @ v])
    assert max(decomposition.branch_deviations(reduce(s), s).values()) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1))
def test_sets_with_a_projective_outcome_reduce_in_every_order(n, seed):
    # A rank-1 projector U P at a random position, the other outcomes M_k (I - P) of a
    # random (n - 1)-outcome set: every remainder after P is singular. Every order
    # for n <= 5 and a random 60 of the 720 at n = 6, both cancel_u1 values.
    rng = np.random.default_rng(seed)
    psi = decomposition.random_unitary(rng)[:, 0]
    proj = np.outer(psi, psi.conj())
    ops = [m @ (np.eye(2) - proj) for m in random_kraus_set(n - 1, rng).ops]
    ops.insert(int(rng.integers(n)), decomposition.random_unitary(rng) @ proj)
    s = kraus_set(ops)
    orders = list(itertools.permutations(range(n)))
    if n == 6:
        orders = [orders[i] for i in rng.choice(len(orders), 60, replace=False)]
    for order, cancel_u1 in itertools.product(orders, (False, True)):
        proto = reduce(s, order=order, cancel_u1=cancel_u1)
        for label, m in zip(s.labels, s.ops):
            assert phase_distance(m, compose_branch(proto, label)) <= 1e-13, (order, cancel_u1)


def test_reduce_inverts_nothing_and_makes_one_svd(monkeypatch):
    # An n-outcome set costs one stacked SVD, and no inverse,
    # solve, pseudo-inverse, eigendecomposition or PSD square root.
    calls = collections.Counter()
    for name in ("svd", "eigh", "eigvalsh", "inv", "solve", "pinv"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **k: calls.update([_name]) or _real(*a, **k))

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce must not call this")

    sets = {n: random_kraus_set(n, np.random.default_rng(n)) for n in range(1, 7)}
    for module, name in ((decomposition, "psd_sqrt"), (linalg, "require_psd"), (linalg, "psd_sqrt")):
        monkeypatch.setattr(module, name, forbidden)
    for n, s in sets.items():
        calls.clear()
        reduce(s)
        assert calls == {"svd": 1}, n


TOTALS = ("total_sum", "total_sqrt_squared", "povm_Fp", "povm_FpTilde")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scored_sets(), st.floats(0.1, 1.0), density_matrices(), density_matrices())
def test_every_fidelity_lies_in_the_unit_interval(sets, alpha, rho, sigma):
    # Every numeric field of a report, the parametric total and the state
    # fidelities lie in [0, 1]; the totals are the family over the report's own
    # partials and probabilities.
    actual, ideal = sets
    report = fidelity_report(actual, ideal)
    partial = [report["partial"][label]["F"] for label in report["labels"]]
    values = [f for f in partial if f is not None] + [report[key] for key in TOTALS]
    values += report["p_actual"] + report["p_ideal"]
    values.append(total_fidelity(actual, ideal, "parametric", alpha=alpha))
    # Two states within the validator's tolerance whose overlap with themselves
    # rounds to 1 + 1e-9.
    states = [(rho, sigma), *((r, r) for r in (np.diag([1 + 5e-9, 0.0]), np.diag([0.5 + 4e-9, 0.5])))]
    values += [state_fidelity(a, b, variant) for a, b in states
               for variant in ("uhlmann", "uhlmann_squared")]
    # A process within the trace checks' 1e-9 whose F6 and F7 round to 1 + 1e-9.
    chi = ProcessMatrix(np.diag([1.0 + 5e-10, 0.0, 0.0, 0.0]).astype(complex))
    values += [process_fidelity(chi, chi, v) for v in ("F6", "F7")] + [average_state_fidelity(chi, chi)]
    assert all(0.0 <= v <= 1.0 for v in values), values
    w = np.sqrt(np.multiply(report["p_actual"], report["p_ideal"]))
    f = np.array(partial, dtype=float)
    assert abs(report["total_sum"] - w @ f) <= 1e-12
    assert abs(report["total_sqrt_squared"] - (w @ np.sqrt(f)) ** 2) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scored_sets())
def test_a_measurement_scores_one_against_itself(sets):
    # Mixed (noisy) sets included: each total is the family over partials of 1.
    for ps in sets:
        report = fidelity_report(ps, ps)
        values = {key: report[key] for key in TOTALS}
        values.update((label, e["F"]) for label, e in report["partial"].items())
        for key, f in values.items():
            assert abs(f - 1.0) <= 1e-10, key


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kraus_sets(), scored_sets())
def test_json_round_trips_are_exact(s, sets):
    back = kraus_set_from_json(kraus_set_to_json(s))
    assert back.labels == s.labels and all(np.array_equal(a, b) for a, b in zip(back.ops, s.ops))
    proto = reduce(s)
    again = protocol_from_json(protocol_to_json(proto))
    assert again.leaf_labels == proto.leaf_labels and len(again.steps) == len(proto.steps)
    assert np.array_equal(again.final_unitary, proto.final_unitary)
    for a, b in zip(again.steps, proto.steps):
        assert a.params == b.params
        for name in ("pre_unitary", "post_unitary_0", "post_unitary_1"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    for ps in sets:
        again = process_set_from_json(process_set_to_json(ps))
        assert again.labels == ps.labels
        assert all(np.array_equal(a.chi, b.chi) for (_, a), (_, b) in zip(again.outcomes, ps.outcomes))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kraus_sets(), st.one_of(st.none(), st.sampled_from(sorted(MALFORMED))), st.integers(0, 99))
def test_one_array_readers_match_per_matrix_readers(s, bad, where):
    # Same bits as the per-matrix readers on generated documents, and with one
    # malformed matrix, the same error message.
    kraus_doc = json.loads(kraus_set_to_json(s))
    docs = [(kraus_set_from_json, reference_kraus_set_from_json, assert_same_kraus_sets, kraus_doc,
             [(o, "matrix") for o in kraus_doc["ops"]])]
    proto_doc = json.loads(protocol_to_json(reduce(s)))
    slots = [(step, key) for step in proto_doc["steps"]
             for key in ("pre_unitary", "post_unitary_0", "post_unitary_1")]
    docs.append((protocol_from_json, reference_protocol_from_json, assert_same_protocols,
                 proto_doc, slots + [(proto_doc, "final_unitary")]))
    for reader, reference, same, doc, slots in docs:
        if bad is not None:
            node, key = slots[where % len(slots)]
            node[key] = MALFORMED[bad](node[key])
        result, message = read_both(reader, reference, json.dumps(doc))
        if bad is None:
            same(*result)
        else:
            assert message is not None


near_edges = st.sampled_from([0.0, 1e-16, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 1e-16, 1.0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.floats(0.0, 1.0), near_edges), st.one_of(st.floats(0.0, 1.0), near_edges))
def test_angles_round_trip(p, q):
    back = pq_from_angles(*angles_from_pq(PartialProjParams(p, q)))
    assert abs(back.p - p) <= 1e-12 and abs(back.q - q) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.floats(0.0, 1.0), near_edges), st.one_of(st.floats(0.0, 1.0), near_edges),
       st.sampled_from(VARIANTS))
def test_circuit_kraus_pairs_match_kron_reference(p, q, variant):
    c = circuit_from_pq(variant, PartialProjParams(p, q))
    for k, ref in zip(kraus_from_circuit(c), kron_kraus_from_circuit(c)):
        assert k.shape == (2, 2) and np.abs(k - ref).max() <= 1e-14


def purity(rho) -> float:
    return float(np.einsum("...ij,...ji->...", rho, rho).real)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 1), density_matrices())
def test_apply_outcome_keeps_trace_and_purity(p, q, outcome, rho):
    try:
        out = apply_outcome(PartialProjParams(p, q), outcome, rho)
    except Infeasible:  # a zero-probability outcome
        assume(False)
    assert abs(np.trace(out).real - 1.0) <= 1e-12
    if abs(purity(rho) - 1.0) <= 1e-12:
        assert abs(purity(out) - 1.0) <= 1e-10


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.floats(0.0, 1.0), near_edges), st.one_of(st.floats(0.0, 1.0), near_edges),
       st.integers(0, 1), density_matrices())
def test_apply_outcome_matches_the_matmul_reference(p, q, outcome, rho):
    # D_k rho D_k^dag / Tr by two numpy matrix products, against apply_outcome, which
    # computes it on Python scalars with partial_projection.update.
    params = PartialProjParams(p, q)
    dk = dops(params)[outcome]
    ref = dk @ rho @ adjoint(dk)
    norm = np.trace(ref).real
    if abs(norm - ZERO_BRANCH_TOL) <= 1e-15:
        return  # the two norms may fall on either side of the Infeasible rule
    if norm < ZERO_BRANCH_TOL:
        with pytest.raises(Infeasible):
            apply_outcome(params, outcome, rho)
    else:
        assert np.abs(apply_outcome(params, outcome, rho) - ref / norm).max() <= 1e-15


EPS = float(np.finfo(float).eps)


def reference_validate_state(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The eigvalsh routine that the closed-form ``validate_state`` replaced."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        skew = np.linalg.norm(rho - adjoint(rho))
    if not skew <= tol:
        raise ValueError("state is not Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= tol:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    w = np.linalg.eigvalsh((rho + adjoint(rho)) / 2)
    if w[0] < -tol:
        raise ValueError(f"negative eigenvalue {w[0]:.3e}")
    return rho


@st.composite
def checked_matrices(draw):
    """(rho, tol) at the edges of each check of ``validate_state``.

    U diag(l, 1 - l) U^dag scaled by 1 + d, plus an anti-Hermitian perturbation
    of norm s. Each of l, s and d is drawn either near its edge, within 16 ulps
    of 1 from -tol for l and within 16 ulps of tol from tol for s and d, or away from
    it. Rounding into entries of size 1 moves s by up to about 1e-6 of tol, so the
    non-Hermitian part lands near tol, on either side. Then, in a quarter of the
    cases, one or two real or imaginary parts become NaN or an infinity.
    """
    tol = draw(st.sampled_from([1e-10, 1e-8]))
    ulps = st.integers(-16, 16)
    lam = draw(st.one_of(ulps.map(lambda k: -tol + k * EPS), st.floats(-2e-8, 1.0)))
    near_tol = ulps.map(lambda k: tol * (1.0 + k * EPS))
    skew = draw(st.one_of(near_tol, st.sampled_from([0.0, 0.5 * tol, 10 * tol])))
    dtrace = draw(st.sampled_from([0.0, 0.0, -0.5 * tol, 1e-3, draw(near_tol)]))
    u = su2(draw(quaternions))
    e = np.array(draw(st.tuples(*[unit] * 8))).view(complex).reshape(2, 2)
    k = e - adjoint(e)  # anti-Hermitian: it leaves the eigenvalues of the Hermitian part
    k_norm = np.linalg.norm(k)
    rho = (u * [lam, 1.0 - lam]) @ adjoint(u) * (1.0 + dtrace)
    if k_norm > 0:
        rho += skew / (2 * k_norm) * k  # rho - rho^dag = s k / |k|
    flat = rho.reshape(-1).view(float)
    if draw(st.integers(0, 3)) == 0:
        for i in draw(st.sampled_from([(0,), (3,), (6, 7), (2, 5)])):
            flat[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return rho, tol


def _check(validate, rho, tol) -> str | None:
    try:
        validate(rho, tol)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(checked_matrices())
def test_validate_state_matches_the_eigvalsh_routine(case):
    # Accept or reject and the message agree with the eigvalsh routine, except
    # in a band at each edge: a non-Hermitian part within 2 ulps (relative) of
    # tol, where numpy's norm and math.hypot round differently (0.58 ulp apart
    # at most over 1e5 samples), and a smallest eigenvalue within 4 ulps of 1
    # from -tol (1.9 apart at most). A negative-eigenvalue message agrees to
    # within one unit of its last printed digit.
    rho, tol = case
    with np.errstate(invalid="ignore"):
        skew = np.linalg.norm(rho - adjoint(rho))
    if abs(skew - tol) <= 2 * EPS * tol:
        return
    finite = np.all(np.isfinite(rho))
    if finite and abs(np.linalg.eigvalsh((rho + adjoint(rho)) / 2)[0] + tol) <= 4 * EPS:
        return
    ref, new = _check(reference_validate_state, rho, tol), _check(validate_state, rho, tol)
    if ref is None or new is None or not ref.startswith("negative eigenvalue"):
        assert new == ref
    else:
        assert new.startswith("negative eigenvalue")
        w_ref, w_new = float(ref.split()[-1]), float(new.split()[-1])
        assert abs(w_new - w_ref) <= 1.001e-3 * abs(w_ref)


def test_validate_state_is_the_2x2_case_of_the_psd_rule():
    # Seeded trace-1 matrices (at least 1,000 kept) whose non-Hermitian part (Frobenius) and smallest
    # eigenvalue are each at least a factor 2 from tol, inside or out, and 20 with a
    # NaN entry: validate_state and linalg.require_psd give the same verdict.
    rng = np.random.default_rng(17)
    verdicts = collections.Counter()
    for i in range(2020):
        tol = 10.0 ** rng.uniform(-10, -8)
        z = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 3)  # smallest eigenvalue / tol
        y = 10.0 ** rng.uniform(-3, 2)  # |rho - rho^dag|_F / tol
        if -2 < z < -0.5 or 0.5 < y < 2:
            continue
        u = decomposition.random_unitary(rng)
        lam = z * tol
        rho = (u * [lam, 1.0 - lam]) @ adjoint(u)
        e = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        k = e - adjoint(e)
        rho += y * tol / (2 * np.linalg.norm(k)) * k
        if i >= 2000:
            rho[divmod(i % 4, 2)] = np.nan
        got = _check(validate_state, rho, tol) is None
        try:
            linalg.require_psd(rho, tol, "state")
        except ValueError:
            assert not got, (rho, tol)
        else:
            assert got, (rho, tol)
        verdicts[got] += 1
    assert sum(verdicts.values()) >= 1000 and min(verdicts.values()) > 200, verdicts


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.995), st.floats(0.0, 1.0), st.floats(-1.2, 1.2),
       st.one_of(st.just(1.0), st.floats(0.3, 1.0)), density_matrices(), st.integers(0, 2**32 - 1))
def test_simulate_batch_keeps_trace_and_purity(p, frac, alpha, eta, rho, seed):
    # Final states have trace 1 and the batch's purity is Tr rho^2; at eta = 1 a
    # pure input ends pure.
    q = 1.0 - p + 1e-3 + frac * (p - 1e-3 - 0.005)
    t = thresholds_from_pq(PartialProjParams(p, q))
    batch = simulate_batch(ReadoutConfig(tau_min=1.0, seed=seed, alpha=alpha, efficiency=eta), t, rho, 20)
    states = batch.final_state
    assert np.all(np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0) <= 1e-12)
    tr_sq = np.einsum("nij,nji->n", states, states).real
    assert np.all(np.abs(batch.purity - tr_sq) <= 1e-12)
    if eta == 1.0 and abs(purity(rho) - 1.0) <= 1e-12:
        assert np.all(np.abs(tr_sq - 1.0) <= 1e-10)


# The stacked process algebra against the per-outcome einsum and loop reference
# (tests/test_fidelity.py), within REFERENCE_TOL, fixed before the stacked code.
REFERENCE_TOL = 1e-12


@st.composite
def scored_sets_with_failures(draw):
    """A pair of ``scored_sets`` with some outcomes zeroed: chi = 0 on the actual
    side is a failed outcome, on the ideal side an outcome with p~_k = 0 (F is None)."""
    actual, ideal = draw(scored_sets())
    n = len(actual.labels)

    def zeroed(ps):
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return ProcessSet(tuple(
            (label, ProcessMatrix(np.zeros_like(chi.chi)) if z else chi)
            for (label, chi), z in zip(ps.outcomes, mask)
        ))

    return zeroed(actual), zeroed(ideal)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(scored_sets(), scored_sets_with_failures()), st.floats(0.1, 1.0))
def test_stacked_report_matches_per_outcome_reference(sets, alpha):
    # Every report field, the parametric total, and F8/F9 of each scored pair.
    actual, ideal = sets
    report = fidelity_report(actual, ideal)
    assert_reports_agree(report, reference_fidelity_report(actual, ideal), REFERENCE_TOL)
    family = fidelity._family(*reference_partials(actual, ideal)[:2], alpha)
    assert abs(total_fidelity(actual, ideal, "parametric", alpha=alpha) - family) <= REFERENCE_TOL
    for (_, a), (_, i) in zip(actual.outcomes, ideal.outcomes):
        if a.trace <= 0.0 or i.trace <= 0.0:
            continue
        for variant in ("F8", "F9"):
            try:
                expect = reference_process_fidelity(a, i, variant)
            except ValueError as e:
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    process_fidelity(a, i, variant)
                continue
            assert abs(process_fidelity(a, i, variant) - expect) <= REFERENCE_TOL, variant


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scored_sets())
def test_stacked_povm_fidelity_matches_reference(sets):
    # Both sides of a scored pair are complete, so their POVMs sum to I.
    actual, ideal = (list(fidelity._povms(ps.chis())) for ps in sets)
    terms = reference_povm_terms(np.stack(actual), np.stack(ideal))
    for variant, alpha in (("Fp", 1.0), ("FpTilde", 0.5)):
        expect = fidelity._family(*terms, alpha)
        assert abs(povm_fidelity(actual, ideal, variant) - expect) <= REFERENCE_TOL, variant


def random_isometry_kraus(rng, r):
    """r 2 x 2 Kraus operators of a random channel: the blocks of a (2r, 2) isometry."""
    z = rng.standard_normal((2 * r, 2)) + 1j * rng.standard_normal((2 * r, 2))
    return np.linalg.qr(z)[0].reshape(r, 2, 2)


@st.composite
def noisy_unitaries(draw):
    """A noisy unitary channel and a unitary ideal: one of the four noise kinds, or
    a random isometry of 1 to 3 Kraus operators, after a random unitary."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = decomposition.random_unitary(rng)
    ideal = chi_from_kraus([decomposition.random_unitary(rng) if draw(st.booleans()) else u])
    if draw(st.booleans()):
        spec = NoiseSpec(draw(st.sampled_from(KINDS)), draw(st.floats(0.0, 1.0)), draw(st.integers(0, 99)))
        return noisy_branch(u, spec), reference_noisy_branch(u, spec), ideal
    ops = random_isometry_kraus(rng, draw(st.integers(1, 3))) @ u
    return chi_from_kraus(ops), reference_chi_from_kraus(list(ops)), ideal


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(noisy_unitaries())
def test_stacked_channel_algebra_matches_reference(case):
    # chi_from_kraus and noisy_branch against the einsum expansion; F6, F7 and the
    # average state fidelity against the per-check reference.
    chi, ref_chi, ideal = case
    assert np.abs(chi.chi - ref_chi.chi).max() <= REFERENCE_TOL
    for variant in ("F6", "F7"):
        expect = reference_process_fidelity(chi, ideal, variant)
        assert abs(process_fidelity(chi, ideal, variant) - expect) <= REFERENCE_TOL, variant
    expect = reference_average_state_fidelity(chi, ideal)
    assert abs(average_state_fidelity(chi, ideal) - expect) <= REFERENCE_TOL


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_stacked_process_sets_match_reference(n, seed, isometry):
    # One expansion of all n operators against one einsum per operator.
    rng = np.random.default_rng(seed)
    ops = random_isometry_kraus(rng, n) if isometry else random_kraus_set(n, rng).ops
    labels = [str(k) for k in range(n)]
    got = process_set_from_kraus(ops, labels)
    expect = reference_process_set_from_kraus(ops, labels)
    assert got.labels == expect.labels
    for (_, a), (_, b) in zip(got.outcomes, expect.outcomes):
        assert np.abs(a.chi - b.chi).max() <= REFERENCE_TOL
    assert np.abs(chi_from_kraus(ops).chi - reference_chi_from_kraus(ops).chi).max() <= REFERENCE_TOL
