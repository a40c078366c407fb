"""Shared JSON conventions.

Complex numbers are [re, im] pairs, matrices row-major nested lists, angles
radians as doubles. Every document carries a "format_version"; readers
reject unknown major versions. Writers lay a document out with :func:`dump`:
one top-level key per line, each value compact on its line. A document of
the wrong schema raises ``ValueError`` naming the missing or wrong-typed key
or the wrong matrix shape; a matrix entry must be finite.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .decomposition import KrausSet

FORMAT_VERSION = "1.0"


def matrix_to_json(m: np.ndarray) -> list:
    """Nested [re, im] rows of ``m``: one ``tolist`` of its (rows, cols, 2) float view."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(m.shape + (2,)).tolist()


def dump(doc: dict) -> str:
    """JSON text of ``doc`` with one ``"key": value`` line per top-level key.

    Each value is encoded compactly by ``json.dumps``, which runs CPython's C
    encoder only when there is no ``indent``; ``json.loads`` reads the result.
    """
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()) + "\n}"


def matrix_from_json(rows: list, dim: int | None = None) -> np.ndarray:
    """Square complex matrix from [re, im] rows, ``dim`` x ``dim`` if given."""
    try:
        m = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
        )
    except (TypeError, ValueError):
        raise ValueError("expected a matrix of [re, im] pairs") from None
    n = len(m) if dim is None else dim
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def matrices_from_json(docs: list, dim: int) -> np.ndarray:
    """(n, dim, dim) complex stack of the [re, im] row matrices in ``docs``.

    All of them are read as one float array viewed as complex. Anything but n
    finite dim x dim matrices of numbers goes through :func:`matrix_from_json`
    one matrix at a time, which names the first bad matrix.
    """
    try:
        a = np.array(docs)
    except ValueError:
        a = None
    if (a is None or a.dtype.kind not in "biuf" or a.shape != (len(docs), dim, dim, 2)
            or not np.isfinite(a).all()):
        mats = [matrix_from_json(rows, dim) for rows in docs]
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
    return dump(
        {
            "format_version": FORMAT_VERSION,
            "ops": [
                {"label": label, "matrix": matrix_to_json(m)}
                for label, m in zip(s.labels, s.ops)
            ],
        }
    )


def kraus_set_from_json(text: str) -> KrausSet:
    from .decomposition import kraus_set

    data = json.loads(text)
    check_version(data, "kraus set")
    ops = require_key(data, "ops", list)
    return kraus_set(
        matrices_from_json([require_key(o, "matrix") for o in ops], 2),
        [require_key(o, "label", str) for o in ops],
    )
