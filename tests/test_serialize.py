import json

import numpy as np
import pytest

from genmeas.decomposition import random_kraus_set
from genmeas.linalg import adjoint
from genmeas.serialize import (
    FORMAT_VERSION,
    check_version,
    dump,
    kraus_set_from_json,
    kraus_set_to_json,
    matrix_from_json,
    matrix_to_json,
    require_key,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(91)
    for _ in range(1000):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)


def test_matrix_json_shape():
    rows = matrix_to_json(np.array([[1 + 2j, 0], [0, 3 - 4j]]))
    assert rows[0][0] == [1.0, 2.0]
    assert rows[1][1] == [3.0, -4.0]


def elementwise_matrix_to_json(m) -> list:
    """The element-wise writer ``matrix_to_json`` replaced, kept as its reference."""
    return [[[c.real, c.imag] for c in row] for row in np.asarray(m, dtype=complex)]


def test_matrix_json_matches_elementwise_writer():
    # Views that are not C-contiguous complex128, and real input.
    rng = np.random.default_rng(95)
    stack = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    m = stack[1]
    cases = [m, m.T, adjoint(m), stack[:, 0, :], stack[::2, 1, ::-1], m.real, m.real.T,
             np.eye(2, dtype=int), np.array([[-0.0, 1e-300], [2.5, -7]], dtype=np.float32)]
    for c in cases:
        rows = matrix_to_json(c)
        expect = elementwise_matrix_to_json(c)
        assert rows == expect
        assert json.dumps(rows) == json.dumps(expect)
        assert all(type(x) is float for row in rows for pair in row for x in pair)


def test_dump_layout():
    doc = {"format_version": "1.0", "ops": [{"label": "a", "m": [[1.5, -0.0]]}], "n": None}
    text = dump(doc)
    assert text.splitlines() == [
        "{",
        '  "format_version": "1.0",',
        '  "ops": [{"label": "a", "m": [[1.5, -0.0]]}],',
        '  "n": null',
        "}",
    ]
    assert json.loads(text) == doc


def test_check_version_accepts_minor():
    check_version({"format_version": "1.7"}, "test")
    check_version({}, "test")  # absent defaults to current


def test_check_version_rejects_major():
    with pytest.raises(ValueError):
        check_version({"format_version": "2.0"}, "test")


def test_kraus_set_round_trip():
    rng = np.random.default_rng(92)
    s = random_kraus_set(3, rng, labels=("x", "y", "z"))
    back = kraus_set_from_json(kraus_set_to_json(s))
    assert back.labels == s.labels
    for a, b in zip(back.ops, s.ops):
        assert np.array_equal(a, b)


def test_kraus_set_json_carries_version():
    rng = np.random.default_rng(93)
    s = random_kraus_set(2, rng)
    data = json.loads(kraus_set_to_json(s))
    assert data["format_version"] == FORMAT_VERSION


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_matrix_from_json_rejects_non_finite(bad):
    rows = matrix_to_json(np.eye(2))
    rows[1][0][1] = bad
    with pytest.raises(ValueError, match="finite"):
        matrix_from_json(json.loads(json.dumps(rows)))


@pytest.mark.parametrize(
    "value, kind, ok",
    [
        ([], list, True), ({}, list, False), ("a", str, True), (1, str, False),
        (2, int, True), (2.0, int, False), (True, int, False),
        (0.5, float, True), (1, float, True), (False, float, False), (None, float, False),
    ],
)
def test_require_key_kind(value, kind, ok):
    if ok:
        assert require_key({"k": value}, "k", kind) is value
    else:
        with pytest.raises(ValueError, match="expected 'k' to be"):
            require_key({"k": value}, "k", kind)


def test_kraus_set_json_rejects_wrong_types():
    data = json.loads(kraus_set_to_json(random_kraus_set(2, np.random.default_rng(94))))
    with pytest.raises(ValueError, match="'label' to be a string"):
        kraus_set_from_json(json.dumps({**data, "ops": [{**data["ops"][0], "label": None}]}))
    with pytest.raises(ValueError, match="'ops' to be a list"):
        kraus_set_from_json(json.dumps({**data, "ops": 3}))
