import numpy as np
import pytest

from genmeas.linalg import (
    CHI_TO_POVM,
    PAULI_BASIS,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    VEC_TO_PAULI,
    adjoint,
    identity_deviation,
    is_unitary,
    pauli_expand,
    phase_distance,
    psd_sqrt,
    read_only,
    require_psd,
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


def test_require_psd_diagonal():
    # The eigenvalue floor is -tol, inclusive.
    require_psd(np.diag([3.0, 1.0]), 1e-10, "state")
    require_psd(np.diag([1.0, -1e-10]), 1e-10, "state")
    with pytest.raises(ValueError, match=r"^state has eigenvalue -2\.000e-10 below -1\.0e-10$"):
        require_psd(np.diag([1.0, -2e-10]), 1e-10, "state")


def test_require_psd_sigma_x():
    # Hermitian with eigenvalues -1 and 1: the message names the object.
    with pytest.raises(ValueError, match="^POVM element has eigenvalue -1"):
        require_psd(PAULI_X, 1e-10, "POVM element")


def test_require_psd_rejects_non_hermitian():
    # |m - m^dag|_F is sqrt(2) times the max-abs deviation here; the Frobenius norm rules.
    m = np.diag([0.5, 0.5]) + np.array([[0.0, 8e-9], [0.0, 0.0]])
    require_psd(m, 1.2e-8, "chi")
    with pytest.raises(ValueError, match="^chi deviates from Hermitian by 1.131e-08"):
        require_psd(m, 1e-8, "chi")


def test_require_psd_rejects_nan():
    with pytest.raises(ValueError, match="^chi deviates from Hermitian by nan"):
        require_psd(np.full((2, 2), np.nan), 1e-8, "chi")


def test_identity_deviation_is_frobenius_per_matrix():
    stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 1.5]), np.eye(3) + 0.1]).astype(complex)
    assert np.allclose(identity_deviation(stack), [0.0, 0.5, 0.3])
    assert identity_deviation(np.eye(2)) == 0.0
    assert np.isnan(identity_deviation(np.full((2, 2), np.nan)))


def test_is_unitary_on_a_stack():
    stack = np.stack([np.eye(2), PAULI_X, np.eye(2)]).astype(complex)
    assert is_unitary(stack)
    stack[2, 0, 0] = 5.0
    assert not is_unitary(stack)
    assert not is_unitary(np.full((2, 2), np.nan))


def test_require_psd_random():
    # Random Hermitian 4 x 4 matrices shifted so their smallest eigenvalue is -2 tol or
    # -tol / 2: only the first are refused, alone or anywhere in a stack.
    rng = np.random.default_rng(11)
    tol = 1e-8
    for _ in range(1000):
        a = random_complex(rng, 4)
        m = (a + adjoint(a)) / 2
        m -= np.eye(4) * np.linalg.eigvalsh(m)[0]
        require_psd(m - tol / 2 * np.eye(4), tol, "m")
        with pytest.raises(ValueError, match="^m has eigenvalue"):
            require_psd(np.stack([m, m - 2 * tol * np.eye(4)]), tol, "m")


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
    # adjoint, identity_deviation and psd_sqrt on a (3, 4, 2, 2) stack equal the
    # single-matrix results; one bad matrix fails the whole stack.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    m = adjoint(a) @ a
    dev = identity_deviation(m)
    r = psd_sqrt(m)
    for i in np.ndindex(3, 4):
        assert np.array_equal(adjoint(a)[i], adjoint(a[i]))
        assert dev[i] == identity_deviation(m[i])
        assert np.allclose(r[i], psd_sqrt(m[i]), atol=1e-12)
    m[1, 2] = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="below -"):
        psd_sqrt(m)
    m[1, 2] = a[1, 2]
    with pytest.raises(ValueError, match="Hermitian"):
        psd_sqrt(m)


def test_pauli_basis_normalization():
    assert PAULI_BASIS.shape == (4, 2, 2)
    for i, ei in enumerate(PAULI_BASIS):
        for j, ej in enumerate(PAULI_BASIS):
            tr = np.trace(adjoint(ej) @ ei)
            assert abs(tr - (2 if i == j else 0.0)) < 1e-12


def test_pauli_constants_are_read_only_with_their_shapes():
    paulis = [(m, (2, 2)) for m in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)]
    for a, shape in [*paulis, (PAULI_BASIS, (4, 2, 2)), (VEC_TO_PAULI, (4, 4)), (CHI_TO_POVM, (16, 4))]:
        assert a.shape == shape and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_pauli_expand_identity():
    assert np.allclose(pauli_expand(np.eye(2, dtype=complex)), [1, 0, 0, 0])


def test_pauli_expand_sigma_z():
    assert np.allclose(pauli_expand(PAULI_Z), [0, 0, 0, 1])


def test_pauli_expand_partial_projection():
    d0 = np.diag([np.sqrt(0.8), np.sqrt(0.4)]).astype(complex)
    alpha = pauli_expand(d0)
    expect = [
        (np.sqrt(0.8) + np.sqrt(0.4)) / 2,
        0.0,
        0.0,
        (np.sqrt(0.8) - np.sqrt(0.4)) / 2,
    ]
    assert np.allclose(alpha, expect, atol=1e-12)


def test_pauli_expand_dimension_mismatch():
    for m in (np.eye(4, dtype=complex), np.ones(2)):
        with pytest.raises(ValueError, match="expected 2 x 2"):
            pauli_expand(m)


def test_pauli_round_trip_random():
    rng = np.random.default_rng(29)
    for _ in range(500):
        m = random_complex(rng, 2)
        back = sum(a * e for a, e in zip(pauli_expand(m), PAULI_BASIS))
        assert np.linalg.norm(back - m) < 1e-12
    stack = np.stack([random_complex(rng, 2) for _ in range(5)])
    assert np.array_equal(pauli_expand(stack), np.stack([pauli_expand(m) for m in stack]))


def test_phase_alignment():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        m = random_complex(rng, 2)
        theta = rng.uniform(0, 2 * np.pi)
        assert phase_distance(m, np.exp(1j * theta) * m) < 1e-10
    assert phase_distance(PAULI_X, PAULI_Z) > 1.0


def test_read_only_copies_only_a_writeable_array_or_another_dtype():
    m = np.eye(2, dtype=complex)
    frozen = read_only(m, np.complex128)
    assert frozen is not m and not frozen.flags.writeable and m.flags.writeable
    assert read_only(frozen, np.complex128) is frozen and read_only(frozen) is frozen
    converted = read_only(frozen, np.complex64)
    assert converted.dtype == np.complex64 and not converted.flags.writeable
    from_list = read_only([[1.0, 0.0], [0.0, 1.0]], np.complex128)
    assert from_list.dtype == np.complex128 and not from_list.flags.writeable
