import json

import numpy as np
import pytest

from genmeas.decomposition import (
    COMPLETENESS_TOL, MeasurementProtocol, TwoOutcomeStep, kraus_set, protocol_from_json,
    protocol_to_json, random_kraus_set, reduce,
)
from genmeas.linalg import adjoint, is_unitary
from genmeas.partial_projection import PartialProjParams
from genmeas.serialize import (
    FORMAT_VERSION,
    check_version,
    dump,
    kraus_set_from_json,
    kraus_set_to_json,
    matrices_from_json,
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


# Per-matrix readers: the code the one-array readers replaced, kept as their reference.

def reference_kraus_set_from_json(text):
    data = json.loads(text)
    check_version(data, "kraus set")
    ops = require_key(data, "ops", list)
    return kraus_set(
        [matrix_from_json(require_key(o, "matrix"), 2) for o in ops],
        [require_key(o, "label", str) for o in ops],
    )


def reference_protocol_from_json(text):
    data = json.loads(text)
    check_version(data, "protocol")
    steps = tuple(
        TwoOutcomeStep(
            pre_unitary=matrix_from_json(require_key(s, "pre_unitary"), 2),
            params=PartialProjParams(require_key(s, "p", float), require_key(s, "q", float)),
            post_unitary_0=matrix_from_json(require_key(s, "post_unitary_0"), 2),
            post_unitary_1=matrix_from_json(require_key(s, "post_unitary_1"), 2),
        )
        for s in require_key(data, "steps", list)
    )
    final_unitary = matrix_from_json(require_key(data, "final_unitary"), 2)
    unitaries = [final_unitary]
    for s in steps:
        unitaries += [s.pre_unitary, s.post_unitary_0, s.post_unitary_1]
    if not is_unitary(np.stack(unitaries), tol=COMPLETENESS_TOL):
        raise ValueError("a protocol unitary is not unitary")
    labels = require_key(data, "leaf_labels", list)
    if not all(isinstance(label, str) for label in labels):
        raise ValueError("expected 'leaf_labels' to be a list of strings")
    return MeasurementProtocol(steps=steps, final_unitary=final_unitary, leaf_labels=tuple(labels))


def protocol_matrices(p) -> list:
    return [m for s in p.steps for m in (s.pre_unitary, s.post_unitary_0, s.post_unitary_1)] + [
        p.final_unitary
    ]


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def read_both(reader, reference, text):
    """(result, None) from both readers, or (None, message) when both raise one
    ValueError message; fails if they differ."""
    try:
        expect = reference(text)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            reader(text)
        assert str(got.value) == str(e)
        return None, str(e)
    return (reader(text), expect), None


def assert_same_kraus_sets(got, expect):
    assert got.labels == expect.labels
    assert all(same_bits(a, b) for a, b in zip(got.ops, expect.ops))


def assert_same_protocols(got, expect):
    assert got.leaf_labels == expect.leaf_labels
    assert [s.params for s in got.steps] == [s.params for s in expect.steps]
    assert all(same_bits(a, b) for a, b in zip(protocol_matrices(got), protocol_matrices(expect)))


# One bad matrix entry of each kind, as a (path within the matrix, value) pair.
MALFORMED = {
    "wrong shape": lambda rows: rows[:1],
    "extra row": lambda rows: rows + [rows[0]],
    "nan entry": lambda rows: [[[float("nan"), 0.0], rows[0][1]], rows[1]],
    "inf entry": lambda rows: [rows[0], [rows[1][0], [0.0, float("-inf")]]],
    "not a pair": lambda rows: [[[1.0, 0.0, 0.0], rows[0][1]], rows[1]],
    "a number for a pair": lambda rows: [[1.0, rows[0][1]], rows[1]],
    "string entry": lambda rows: [[["1.0", 0.0], rows[0][1]], rows[1]],
    "string pair": lambda rows: [rows[0], [rows[1][0], "1"]],
    "null entry": lambda rows: [[[None, 0.0], rows[0][1]], rows[1]],
    "not a list": lambda rows: 7,
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_one_array_readers_keep_per_matrix_messages(kind):
    s = random_kraus_set(3, np.random.default_rng(96))
    for k in range(3):
        doc = json.loads(kraus_set_to_json(s))
        doc["ops"][k]["matrix"] = MALFORMED[kind](doc["ops"][k]["matrix"])
        result, message = read_both(kraus_set_from_json, reference_kraus_set_from_json, json.dumps(doc))
        assert result is None and message, kind
    doc = json.loads(protocol_to_json(reduce(s)))
    for node, key in [(doc["steps"][1], "pre_unitary"), (doc["steps"][0], "post_unitary_1"),
                      (doc, "final_unitary")]:
        good = node[key]
        node[key] = MALFORMED[kind](good)
        result, message = read_both(protocol_from_json, reference_protocol_from_json, json.dumps(doc))
        assert result is None and message, kind
        node[key] = good


def test_one_array_readers_read_any_json_numbers():
    # Integers, booleans, -0.0 and integers beyond int64 read as the per-matrix reader reads them.
    cases = [
        [[[1, 0], [0, 0]], [[0, 0], [True, False]]],
        [[[-0.0, 0.0], [0.0, -0.0]], [[0.0, 0.0], [1.0, -0.0]]],
        [[[2**70, 0], [0, 1]], [[1, 0], [0, 1]]],
    ]
    for rows in cases:
        doc = {"ops": [{"label": "a", "matrix": rows}, {"label": "b", "matrix": rows}]}
        (got, expect), _ = read_both(kraus_set_from_json, reference_kraus_set_from_json, json.dumps(doc))
        assert_same_kraus_sets(got, expect)
    assert matrices_from_json([], 2).shape == (0, 2, 2)
