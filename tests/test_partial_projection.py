import math

import numpy as np
import pytest

from genmeas.errors import Infeasible
from genmeas.linalg import adjoint
from genmeas.partial_projection import (
    PartialProjParams,
    apply_outcome,
    dops,
    outcome_probabilities,
    pure_state,
    strength,
    validate_state,
)

KET0 = pure_state(np.array([1.0, 0.0]))
KET1 = pure_state(np.array([0.0, 1.0]))
PLUS = pure_state(np.array([1.0, 1.0]) / math.sqrt(2))


def random_state(rng):
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return pure_state(psi / np.linalg.norm(psi))


def test_params_validate_range():
    with pytest.raises(ValueError):
        PartialProjParams(1.2, 0.5)
    with pytest.raises(ValueError):
        PartialProjParams(0.5, -0.1)


def test_dops_projective():
    d0, d1 = dops(PartialProjParams(1.0, 1.0))
    assert np.allclose(d0, np.diag([1.0, 0.0]))
    assert np.allclose(d1, np.diag([0.0, 1.0]))


def test_dops_no_measurement():
    d0, d1 = dops(PartialProjParams(0.5, 0.5))
    assert np.allclose(d0, np.eye(2) / math.sqrt(2))
    assert np.allclose(d1, np.eye(2) / math.sqrt(2))


def test_dops_example_values():
    d0, d1 = dops(PartialProjParams(0.8, 0.6))
    assert np.allclose(np.diag(d0).real, [0.89443, 0.63246], atol=5e-6)
    assert np.allclose(np.diag(d1).real, [0.44721, 0.77460], atol=5e-6)


def test_dops_completeness_grid():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p, q = rng.uniform(0, 1, 2)
        d0, d1 = dops(PartialProjParams(p, q))
        total = adjoint(d0) @ d0 + adjoint(d1) @ d1
        assert np.linalg.norm(total - np.eye(2)) < 1e-15


def test_probabilities_projective():
    assert outcome_probabilities(PartialProjParams(1.0, 1.0), KET0) == (1.0, 0.0)


def test_probabilities_superposition():
    p0, p1 = outcome_probabilities(PartialProjParams(0.8, 0.6), PLUS)
    assert abs(p0 - 0.6) < 1e-12
    assert abs(p1 - 0.4) < 1e-12


def test_probabilities_mixed_state_average():
    rng = np.random.default_rng(6)
    mixed = np.eye(2, dtype=complex) / 2
    for _ in range(200):
        p, q = rng.uniform(0, 1, 2)
        p0, p1 = outcome_probabilities(PartialProjParams(p, q), mixed)
        assert abs(p0 - (1 + p - q) / 2) < 1e-12
        assert abs(p1 - (1 + q - p) / 2) < 1e-12


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        params = PartialProjParams(*rng.uniform(0, 1, 2))
        p0, p1 = outcome_probabilities(params, random_state(rng))
        assert abs(p0 + p1 - 1.0) < 1e-12


def test_apply_outcome_full_collapse():
    out = apply_outcome(PartialProjParams(1.0, 1.0), 0, PLUS)
    assert np.allclose(out, KET0)


def test_apply_outcome_no_measurement():
    rho = random_state(np.random.default_rng(8))
    out = apply_outcome(PartialProjParams(0.5, 0.5), 0, rho)
    assert np.allclose(out, rho)


def test_apply_outcome_partial_collapse():
    out = apply_outcome(PartialProjParams(0.8, 0.6), 0, PLUS)
    assert abs(out[0, 0].real - 2.0 / 3.0) < 1e-12
    psi = np.array([math.sqrt(0.8), math.sqrt(0.4)])
    psi /= np.linalg.norm(psi)
    assert np.allclose(out, pure_state(psi))


@pytest.mark.parametrize("outcome", [2, -1, 3, 0.5, 1.0, True, "0", None])
def test_apply_outcome_rejects_unknown_labels(outcome):
    with pytest.raises(ValueError, match="outcome must be 0 or 1"):
        apply_outcome(PartialProjParams(0.8, 0.6), outcome, PLUS)


def test_apply_outcome_zero_branch():
    with pytest.raises(Infeasible, match="outcome 1 has probability"):
        apply_outcome(PartialProjParams(1.0, 1.0), 1, KET0)


def test_purity_preservation():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        params = PartialProjParams(*rng.uniform(0.05, 0.95, 2))
        rho = random_state(rng)
        for outcome in (0, 1):
            out = apply_outcome(params, outcome, rho)
            assert abs(np.trace(out @ out).real - 1.0) < 1e-10


def test_strength_values():
    assert strength(PartialProjParams(1.0, 1.0)) == 1.0
    assert strength(PartialProjParams(0.5, 0.5)) == 0.0
    assert abs(strength(PartialProjParams(0.8, 0.6)) - 0.4) < 1e-15


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.full((2, 2), np.nan), "not Hermitian"),
        (np.eye(2), "trace is 2"),
        (np.eye(3) / 3, "expected a 2x2 matrix"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
    ],
)
def test_validate_state_rejects(rho, message):
    with pytest.raises(ValueError, match=message):
        validate_state(rho)
