import math

import numpy as np
import pytest

from genmeas.ancilla_circuit import (
    MAIN,
    VARIANTS,
    Gate,
    angles_from_pq,
    build_circuit,
    circuit_from_pq,
    circuit_to_json,
    gate_matrix,
    kraus_from_circuit,
    pq_from_angles,
)
from genmeas.linalg import adjoint, phase_distance
from genmeas.partial_projection import PartialProjParams, dops


def kron_kraus_from_circuit(c):
    """The Kronecker-product build that ``kraus_from_circuit`` replaced, kept as
    its reference (``tests/test_properties.py``): every gate lifted to the 4x4
    main (x) ancilla space, the whole unitary multiplied out, and the ancilla-|0>
    columns 0 and 2 read off."""
    eye = np.eye(2, dtype=complex)
    u = np.eye(4, dtype=complex)
    for g in c.gates[:-1]:
        m = gate_matrix(g)
        if m.shape != (4, 4):
            m = np.kron(m, eye) if g.target == MAIN else np.kron(eye, m)
        u = m @ u
    return u[np.ix_([0, 2], [0, 2])], u[np.ix_([1, 3], [0, 2])]


def test_angles_projective():
    phi, eps = angles_from_pq(PartialProjParams(1.0, 1.0))
    assert abs(phi - math.pi / 2) < 1e-12
    assert abs(eps) < 1e-12


def test_angles_symmetric_pq():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = rng.uniform(0, 1)
        _, eps = angles_from_pq(PartialProjParams(p, p))
        assert abs(eps) < 1e-12


def test_angles_example():
    phi, eps = angles_from_pq(PartialProjParams(0.8, 0.6))
    assert abs(phi - 0.42243) < 5e-6
    assert abs(eps - 0.22107) < 5e-6


def test_pq_from_angles_cases():
    params = pq_from_angles(0.0, 0.0)
    assert params.p == 0.5 and params.q == 0.5
    params = pq_from_angles(math.pi / 2, 0.0)
    assert params.p == 1.0 and params.q == 1.0


def test_pq_from_angles_out_of_range():
    with pytest.raises(ValueError, match=r"must not exceed pi/2"):
        pq_from_angles(1.4, 0.5)


def test_angle_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p, q = rng.uniform(0, 1, 2)
        phi, eps = angles_from_pq(PartialProjParams(p, q))
        back = pq_from_angles(phi, eps)
        assert abs(back.p - p) < 1e-12
        assert abs(back.q - q) < 1e-12


def test_gate_matrix_rz():
    phi = 0.9
    m = gate_matrix(Gate("Rz", phi, "main"))
    assert np.allclose(m, np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)]))


def test_gate_matrix_cz_pi():
    m = gate_matrix(Gate("CZ", math.pi, "both"))
    assert np.allclose(m, np.diag([1, 1, 1, -1]), atol=1e-15)


def test_ry_given_z_action():
    phi = 0.7
    u = gate_matrix(Gate("RyGivenZ", phi, "both"))
    psi = np.array([0.6, 0.8], dtype=complex)
    inp = np.kron(psi, [1.0, 0.0])
    out = u @ inp
    sz = np.diag([1.0, -1.0])
    expect = math.cos(phi / 2) * np.kron(psi, [1, 0]) + math.sin(phi / 2) * np.kron(
        sz @ psi, [0, 1]
    )
    assert np.allclose(out, expect, atol=1e-12)


def test_gate_constraints():
    with pytest.raises(ValueError):
        Gate("CZ", 1.0, "ancilla")
    with pytest.raises(ValueError):
        Gate("Rx", 1.0, "both")
    with pytest.raises(ValueError):
        Gate("MeasureAncillaZ", 0.5, "ancilla")


def test_build_circuit_shapes():
    phi, eps = angles_from_pq(PartialProjParams(0.8, 0.6))
    assert len(build_circuit("direct", phi, eps).gates) == 3
    assert len(build_circuit("fixed_cz", phi, eps).gates) == 4
    assert len(build_circuit("cphase", phi, eps).gates) == 7
    with pytest.raises(ValueError, match="unknown circuit variant"):
        build_circuit("bogus", phi, eps)


def test_direct_projective_limit():
    c = build_circuit("direct", math.pi / 2, 0.0)
    k0, k1 = kraus_from_circuit(c)
    assert phase_distance(k0, np.diag([1.0, 0.0])) < 1e-12
    assert phase_distance(k1, np.diag([0.0, 1.0])) < 1e-12


def test_direct_no_measurement_limit():
    k0, k1 = kraus_from_circuit(build_circuit("direct", 0.0, 0.0))
    eye = np.eye(2, dtype=complex) / math.sqrt(2)
    assert phase_distance(k0, eye) < 1e-12
    assert phase_distance(k1, eye) < 1e-12


def test_direct_closed_form_diagonal():
    rng = np.random.default_rng(14)
    for _ in range(500):
        p, q = rng.uniform(0, 1, 2)
        phi, eps = angles_from_pq(PartialProjParams(p, q))
        k0, _ = kraus_from_circuit(build_circuit("direct", phi, eps))
        expect = np.diag(
            [
                math.sqrt((1 + math.sin(phi + eps)) / 2),
                math.sqrt((1 - math.sin(phi - eps)) / 2),
            ]
        )
        assert phase_distance(expect.astype(complex), k0) < 1e-12


def test_variant_equivalence_grid():
    grid = list(np.linspace(0.05, 0.95, 10))
    cases = [(p, q) for p in grid for q in grid]
    cases += [(1.0, 1.0), (1.0, 0.4), (0.4, 1.0), (0.7, 0.3)]
    for p, q in cases:
        params = PartialProjParams(p, q)
        pairs = {
            v: kraus_from_circuit(circuit_from_pq(v, params)) for v in VARIANTS
        }
        d0, d1 = dops(params)
        for v in VARIANTS:
            k0, k1 = pairs[v]
            total = adjoint(k0) @ k0 + adjoint(k1) @ k1
            assert np.linalg.norm(total - np.eye(2)) < 1e-12
            # Each outcome operator is defined up to its own phase.
            assert phase_distance(d0, k0) < 1e-12
            assert phase_distance(d1, k1) < 1e-12
        # The three constructions are the same physical circuit, so they
        # agree pairwise under one shared phase across both outcomes.
        ref = np.vstack(pairs["direct"])
        for v in ("cphase", "fixed_cz"):
            assert phase_distance(ref, np.vstack(pairs[v])) < 1e-12


def test_null_result_case():
    params = PartialProjParams(1.0, 0.35)
    phi, eps = angles_from_pq(params)
    assert abs(phi + eps - math.pi / 2) < 1e-12
    _, k1 = kraus_from_circuit(circuit_from_pq("direct", params))
    ket0 = np.array([1.0, 0.0], dtype=complex)
    assert np.linalg.norm(k1 @ ket0) < 1e-12


def test_circuit_json():
    import json

    c = circuit_from_pq("cphase", PartialProjParams(0.8, 0.6))
    data = json.loads(circuit_to_json(c))
    assert data["format_version"] == "1.0"
    assert data["tensor_ordering"] == "main_x_ancilla"
    assert data["gates"][-1]["kind"] == "MeasureAncillaZ"
    assert all(
        g["angle"] is None or isinstance(g["angle"], float) for g in data["gates"]
    )
