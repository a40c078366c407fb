"""Generated-input properties: every backend's leaf table is the Born rule.

For Kraus sets of 2 to 4 outcomes, some of them scaled unitaries sqrt(w) U
(whose reduction steps have p + q = 1, no measurement at all), the leaf
table of each backend must give leaf k the probability Tr(M_k rho M_k^dag)
and the state M_k rho M_k^dag / Tr. The protocols ``reduce`` builds from
random sets of 2 to 6 outcomes keep their invariants at every order.
Examples are derandomized, so a run is reproducible.
"""

import collections
import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from genmeas import continuous_readout, decomposition, linalg  # noqa: E402
from genmeas.continuous_readout import ReadoutConfig, thresholds_from_pq  # noqa: E402
from genmeas.decomposition import compose_branch, kraus_set, random_kraus_set, reduce  # noqa: E402
from genmeas.errors import Infeasible, SingularRemainder  # noqa: E402
from genmeas.linalg import adjoint, herm_eig, is_unitary, phase_distance  # noqa: E402
from genmeas.partial_projection import PartialProjParams  # noqa: E402
from test_continuous_readout import reference_exit_table  # noqa: E402

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
        vals, vecs = herm_eig(g)
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kraus_sets(), states())
def test_leaf_tables_follow_the_born_rule(s, rho):
    try:
        proto = reduce(s)
    except SingularRemainder:
        assume(False)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.995), st.floats(0.0, 1.0), st.sampled_from([1e-2, 1e-3]), st.floats(0.3, 1.0))
def test_exit_table_is_the_exit_law(p, frac, m, eta):
    # The table that simulate_batch samples against closed forms of the exit
    # law at drift +1 (hidden label 0), times in units of tau.
    q = 1.0 - p + 1e-3 + frac * (p - 1e-3 - 0.005)
    params = PartialProjParams(p, q)
    t = thresholds_from_pq(params)
    cfg = ReadoutConfig(tau_min=1.0, seed=0, dt=m, efficiency=eta)
    surv = continuous_readout._exit_table(t, cfg)
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
    # The coherence factors of the continuous backend's instrument.
    z = np.exp(-(1.0 - eta) * m / (2.0 * eta)) ** np.arange(1, pmf.shape[1] + 1)
    _, kappa = continuous_readout._readout_instrument(params, cfg)
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
    except Infeasible:  # the default cap, 1e6 dt, is too short
        with pytest.raises(Infeasible, match="duration cap"):
            continuous_readout._exit_table(t, cfg)
        return
    if cap is not None:
        outlast = np.maximum(free.sum(axis=0), np.exp(-2.0 * np.array([t.R0, t.R1])) @ free)
        j_lo = int(np.argmax(outlast < 5e-13))
        j_cap = j_lo + int(cap * max(free.shape[1] - 2 - j_lo, 0))
        cfg = ReadoutConfig(tau_min=1.0, seed=0, alpha=alpha, dt=m, efficiency=eta,
                            max_duration=(j_cap - 0.5) * m)
    ref = reference_exit_table(t, cfg)
    surv = continuous_readout._exit_table(t, cfg)
    assert surv.shape == ref.shape
    if cap is not None:
        assert surv.shape[1] == j_cap + 1
    # Both sum one alternating series in different orders and with different term
    # cuts: allow 1e-15 h plus 16 ulps of its absolute sum A_b(s) = sum_n |c_bn|
    # e^{-lam_n s}, which is nonincreasing in s, so A at the power of two at or
    # below j bounds bin j.
    lam, c, m_tau, _ = continuous_readout._exit_series(t, cfg)
    k = np.frexp(np.maximum(np.arange(ref.shape[1]), 1))[1] - 1
    absum = np.abs(c) @ np.exp(-np.outer(lam, 2.0 ** np.arange(k.max() + 1) * m_tau))
    assert np.all(np.abs(surv - ref) <= 1e-15 * ref[:, :1] + 16 * np.finfo(float).eps * absum[:, k])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_reduce_keeps_its_invariants(n, seed):
    # Every order for n <= 4, both cancel_u1 values: unitary protocol matrices,
    # p + q >= 1, a complete set of branches, each its target up to phase, and
    # without cancel_u1 a PSD remainder branch V D1 V^dag.
    s = random_kraus_set(n, np.random.default_rng(seed))
    orders = itertools.permutations(range(n)) if n <= 4 else [tuple(range(n))]
    for order, cancel_u1 in itertools.product(orders, (False, True)):
        try:
            proto = reduce(s, order=order, cancel_u1=cancel_u1)
        except SingularRemainder:
            continue
        for step in proto.steps:
            assert is_unitary(np.stack([step.pre_unitary, step.post_unitary_0,
                                        step.post_unitary_1]), tol=1e-12)
            assert step.params.p + step.params.q >= 1.0
            if not cancel_u1:
                b1 = step.branch_operator(1)
                assert np.linalg.norm(b1 - adjoint(b1)) <= 1e-12
                assert np.linalg.eigvalsh((b1 + adjoint(b1)) / 2)[0] >= -1e-12
                assert np.array_equal(step.post_unitary_1, step.pre_unitary)
        assert is_unitary(proto.final_unitary, tol=1e-12)
        branches = [compose_branch(proto, label) for label in s.labels]
        assert np.linalg.norm(sum(adjoint(b) @ b for b in branches) - np.eye(2)) <= 1e-12
        for b, m in zip(branches, s.ops):
            assert phase_distance(m, b) <= 1e-12, (order, cancel_u1)


def test_reduce_makes_one_svd_per_outcome(monkeypatch):
    # An n-outcome set costs one SVD per step plus one for the final branch,
    # and no eigendecomposition or PSD square root.
    calls = collections.Counter()
    for name in ("svd", "eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **k: calls.update([_name]) or _real(*a, **k))

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce must not call this")

    sets = {n: random_kraus_set(n, np.random.default_rng(n)) for n in range(2, 7)}
    for module, name in ((decomposition, "remainder"), (decomposition, "svd_decompose_pair"),
                         (decomposition, "psd_sqrt"), (linalg, "herm_eig"), (linalg, "psd_sqrt")):
        monkeypatch.setattr(module, name, forbidden)
    for n, s in sets.items():
        calls.clear()
        reduce(s)
        assert calls == {"svd": n}, n
