import numpy as np
import pytest

from genmeas.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    adjoint,
    equal_up_to_phase,
    herm_eig,
    is_unitary,
    pauli_basis,
    pauli_expand,
    phase_distance,
    psd_sqrt,
)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_adjoint_identity():
    assert np.allclose(adjoint(np.eye(2)), np.eye(2))


def test_adjoint_hermitian_pauli():
    assert np.allclose(adjoint(PAULI_Y), PAULI_Y)


def test_adjoint_phase_conjugation():
    theta = 0.7
    m = np.diag([np.exp(1j * theta), 1.0])
    assert np.allclose(adjoint(m), np.diag([np.exp(-1j * theta), 1.0]))


def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [1.0, 3.0])
    assert is_unitary(v, tol=1e-12)


def test_herm_eig_sigma_x():
    w, v = herm_eig(PAULI_X)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v @ np.diag(w) @ adjoint(v), PAULI_X)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="deviation from Hermiticity"):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_herm_eig_rejects_nan():
    with pytest.raises(ValueError, match="deviation from Hermiticity nan"):
        herm_eig(np.full((2, 2), np.nan, dtype=complex))


def test_is_unitary_on_a_stack():
    stack = np.stack([np.eye(2), PAULI_X, np.eye(2)]).astype(complex)
    assert is_unitary(stack)
    stack[2, 0, 0] = 5.0
    assert not is_unitary(stack)
    assert not is_unitary(np.full((2, 2), np.nan))


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = random_complex(rng, 4)
        m = (a + adjoint(a)) / 2
        w, v = herm_eig(m)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.linalg.norm(v @ np.diag(w) @ adjoint(v) - m) < 1e-10
        assert is_unitary(v, tol=1e-12)


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(2, dtype=complex)), np.eye(2))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError, match="below -"):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_psd_sqrt_squares_and_commutes():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = random_complex(rng, 2)
        m = adjoint(a) @ a
        r = psd_sqrt(m)
        assert np.linalg.norm(r @ r - m) < 1e-10
        assert np.linalg.norm(r @ m - m @ r) < 1e-10


def test_stack_helpers_match_single_matrices():
    # adjoint, herm_eig and psd_sqrt on a (3, 4, 2, 2) stack equal the
    # single-matrix results; one bad matrix fails the whole stack.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    m = adjoint(a) @ a
    w, _ = herm_eig(m)
    r = psd_sqrt(m)
    for i in np.ndindex(3, 4):
        assert np.array_equal(adjoint(a)[i], adjoint(a[i]))
        assert np.allclose(w[i], herm_eig(m[i])[0], atol=1e-12)
        assert np.allclose(r[i], psd_sqrt(m[i]), atol=1e-12)
    m[1, 2] = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="below -"):
        psd_sqrt(m)
    m[1, 2] = a[1, 2]
    with pytest.raises(ValueError, match="Hermiticity"):
        herm_eig(m)


def test_pauli_basis_normalization():
    for n in (1, 2):
        basis = pauli_basis(n)
        d = 2**n
        assert len(basis) == d * d
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                tr = np.trace(adjoint(ej) @ ei)
                assert abs(tr - (d if i == j else 0.0)) < 1e-12


def test_pauli_expand_identity():
    basis = pauli_basis(1)
    assert np.allclose(pauli_expand(np.eye(2, dtype=complex), basis), [1, 0, 0, 0])


def test_pauli_expand_sigma_z():
    basis = pauli_basis(1)
    assert np.allclose(pauli_expand(PAULI_Z, basis), [0, 0, 0, 1])


def test_pauli_expand_partial_projection():
    basis = pauli_basis(1)
    d0 = np.diag([np.sqrt(0.8), np.sqrt(0.4)]).astype(complex)
    alpha = pauli_expand(d0, basis)
    expect = [
        (np.sqrt(0.8) + np.sqrt(0.4)) / 2,
        0.0,
        0.0,
        (np.sqrt(0.8) - np.sqrt(0.4)) / 2,
    ]
    assert np.allclose(alpha, expect, atol=1e-12)


def test_pauli_expand_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match basis dim"):
        pauli_expand(np.eye(4, dtype=complex), pauli_basis(1))


def test_pauli_round_trip_random():
    rng = np.random.default_rng(29)
    for n in (1, 2):
        basis = pauli_basis(n)
        for _ in range(500):
            m = random_complex(rng, 2**n)
            back = sum(a * e for a, e in zip(pauli_expand(m, basis), basis))
            assert np.linalg.norm(back - m) < 1e-12


def test_phase_alignment():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        m = random_complex(rng, 2)
        theta = rng.uniform(0, 2 * np.pi)
        assert phase_distance(m, np.exp(1j * theta) * m) < 1e-10
        assert equal_up_to_phase(m, np.exp(1j * theta) * m)
    assert not equal_up_to_phase(PAULI_X, PAULI_Z)
