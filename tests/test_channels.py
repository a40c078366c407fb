import math

import numpy as np
import pytest

from genmeas import channels
from genmeas.channels import (
    NoiseSpec,
    amplitude_damping_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    noise_kraus,
    noisy_branch,
    unitary_jitter_kraus,
)
from genmeas.fidelity import _povms, chi_from_kraus
from genmeas.linalg import adjoint, is_unitary
from genmeas.partial_projection import PartialProjParams, dops


def trace_preservation(ops):
    total = sum(adjoint(k) @ k for k in ops)
    return np.linalg.norm(total - np.eye(2))


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("bogus", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("depolarizing", 1.5)
    # An infinite or NaN angle spread is no rotation: noisy_branch would return a NaN chi.
    for strength in (-0.1, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="jitter strength must be finite and nonnegative"):
            NoiseSpec("unitary_jitter", strength)
    NoiseSpec("unitary_jitter", 2.0)  # radians, not a probability


def test_all_channels_trace_preserving():
    rng = np.random.default_rng(81)
    for _ in range(1000):
        strength = float(rng.uniform(0, 1))
        for kind in ("depolarizing", "dephasing", "amplitude_damping"):
            spec = NoiseSpec(kind, strength)
            assert trace_preservation(noise_kraus(spec)) < 1e-12
        spec = NoiseSpec("unitary_jitter", strength, seed=int(rng.integers(1 << 30)))
        assert trace_preservation(noise_kraus(spec)) < 1e-12


def test_channels_completely_positive():
    rng = np.random.default_rng(82)
    for _ in range(200):
        strength = float(rng.uniform(0, 1))
        for kind in ("depolarizing", "dephasing", "amplitude_damping"):
            chi = chi_from_kraus(noise_kraus(NoiseSpec(kind, strength)), d=2)
            w = np.linalg.eigvalsh((chi.chi + adjoint(chi.chi)) / 2)
            assert w[0] > -1e-10


def test_depolarizing_action():
    lam = 0.4
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
    out = sum(k @ rho @ adjoint(k) for k in depolarizing_kraus(lam))
    assert np.linalg.norm(out - ((1 - lam) * rho + lam * np.eye(2) / 2)) < 1e-12


def test_dephasing_kills_coherence():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = sum(k @ rho @ adjoint(k) for k in dephasing_kraus(1.0))
    assert np.linalg.norm(out - np.eye(2) / 2) < 1e-12


def test_amplitude_damping_decays_excited_state():
    gamma = 0.3
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = sum(k @ rho @ adjoint(k) for k in amplitude_damping_kraus(gamma))
    assert np.allclose(out, np.diag([gamma, 1 - gamma]), atol=1e-12)


def test_unitary_jitter_is_unitary():
    rng = np.random.default_rng(83)
    for _ in range(200):
        (k,) = unitary_jitter_kraus(0.2, int(rng.integers(1 << 30)))
        assert is_unitary(k, tol=1e-12)


def test_noisy_branch_zero_strength():
    d0, _ = dops(PartialProjParams(0.8, 0.6))
    chi = noisy_branch(d0, NoiseSpec("depolarizing", 0.0))
    assert np.linalg.norm(chi.chi - chi_from_kraus([d0], 2).chi) < 1e-12


def test_noisy_branch_depolarized_identity():
    lam = 0.2
    chi = noisy_branch(np.eye(2, dtype=complex), NoiseSpec("depolarizing", lam))
    assert np.allclose(chi.chi, np.diag([0.85, 0.05, 0.05, 0.05]), atol=1e-12)


def test_noisy_branch_full_dephasing_identity():
    chi = noisy_branch(np.eye(2, dtype=complex), NoiseSpec("dephasing", 1.0))
    assert np.allclose(chi.chi, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)


def test_noisy_branch_set_stays_trace_preserving():
    d0, d1 = dops(PartialProjParams(0.8, 0.6))
    spec = NoiseSpec("amplitude_damping", 0.25)
    total = sum(_povms(noisy_branch(m, spec).chi) for m in (d0, d1))
    assert np.linalg.norm(total - np.eye(2)) < 1e-9


def test_noise_stack_is_shared_read_only():
    # noisy_branch reads one cached stack per spec; no caller can change it.
    spec = NoiseSpec("unitary_jitter", 0.3, seed=5)
    stack = channels._noise_stack(spec)
    assert channels._noise_stack(spec) is stack and not stack.flags.writeable
    assert np.array_equal(stack, np.stack(noise_kraus(spec)))
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.0
