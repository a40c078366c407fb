"""Shared JSON conventions.

Complex numbers are [re, im] pairs, matrices row-major nested lists, angles
radians as doubles. Every document carries a "format_version"; readers
reject unknown major versions. Writers lay a document out with :func:`dump`:
one top-level key per line, each value compact on its line; readers decode
one with :func:`loads`. A document of the wrong schema raises ``ValueError``
naming the missing or wrong-typed key or the wrong matrix shape; a matrix
entry must be finite.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .decomposition import KrausSet

FORMAT_VERSION = "1.0"


def loads(text: str):
    """``json.loads`` of a document; one nested too deeply for the decoder's recursion
    limit is a ``ValueError`` like any other unreadable document."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def matrix_to_json(m: np.ndarray) -> list:
    """Nested [re, im] rows of ``m``, or a list of them for a stack (..., rows, cols):
    one ``tolist`` of its (..., rows, cols, 2) float view."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(m.shape + (2,)).tolist()


def dump(doc: dict) -> str:
    """JSON text of ``doc`` with one ``"key": value`` line per top-level key.

    Each value is encoded compactly by ``json.dumps``, which runs CPython's C
    encoder only when there is no ``indent``; :func:`loads` reads the result.
    """
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()) + "\n}"


def matrix_from_json(rows: list, dim: int = 2) -> np.ndarray:
    """``dim`` x ``dim`` complex matrix from [re, im] rows: :func:`matrices_from_json`
    of one matrix."""
    return matrices_from_json([rows], dim)[0]


def _read_matrix(rows: list, dim: int) -> np.ndarray:
    """One matrix, one ``complex()`` per entry; ``ValueError`` saying what is wrong."""
    try:
        m = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
        )
    except (TypeError, ValueError):
        raise ValueError("expected a matrix of [re, im] pairs") from None
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def matrices_from_json(docs: list, dim: int) -> np.ndarray:
    """(n, dim, dim) complex stack of the [re, im] row matrices in ``docs``.

    All of them are read as one float array viewed as complex. Anything but n
    finite dim x dim matrices of numbers is read one matrix at a time, which
    names what is wrong with the first bad matrix, or reads numbers the one
    array cannot hold, such as integers beyond int64.
    """
    try:
        a = np.array(docs)
    except ValueError:
        a = None
    if (a is None or a.dtype.kind not in "biuf" or a.shape != (len(docs), dim, dim, 2)
            or not np.isfinite(a).all()):
        mats = [_read_matrix(rows, dim) for rows in docs]
        return np.array(mats, dtype=np.complex128).reshape(len(docs), dim, dim)
    return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]


_KINDS = {list: "a list", str: "a string", int: "an integer", float: "a number"}


def require_key(data, key: str, kind: type | None = None):
    """``data[key]`` of a decoded JSON object.

    Raises ``ValueError`` naming ``key`` if it is absent or, given ``kind``
    (``list``, ``str``, ``int`` or ``float``), if its value is not of that
    JSON type. An integer is also a number; a boolean is neither.
    """
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"expected a JSON object with key {key!r}")
    value = data[key]
    if kind is not None and (
        isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)
    ):
        raise ValueError(f"expected {key!r} to be {_KINDS[kind]}")
    return value


def require_distinct(labels) -> None:
    """``ValueError`` if an outcome label repeats: outcomes are keyed by label."""
    if len(set(labels)) != len(labels):
        raise ValueError(f"outcome labels must be distinct, got {list(labels)}")


def check_version(data: dict, what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"expected a {what} JSON object")
    major = str(data.get("format_version", FORMAT_VERSION)).split(".")[0]
    if major != FORMAT_VERSION.split(".")[0]:
        raise ValueError(
            f"unsupported {what} format_version {data.get('format_version')}"
        )


def kraus_set_to_json(s: KrausSet) -> str:
    """Labels and matrices, all of these from one :func:`matrix_to_json` of their stack."""
    return dump(
        {
            "format_version": FORMAT_VERSION,
            "ops": [
                {"label": label, "matrix": m}
                for label, m in zip(s.labels, matrix_to_json(np.array(s.ops)))
            ],
        }
    )


def kraus_set_from_json(text: str) -> KrausSet:
    from .decomposition import kraus_set

    data = loads(text)
    check_version(data, "kraus set")
    ops = require_key(data, "ops", list)
    return kraus_set(
        matrices_from_json([require_key(o, "matrix") for o in ops], 2),
        [require_key(o, "label", str) for o in ops],
    )
