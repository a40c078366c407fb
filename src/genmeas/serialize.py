"""Shared JSON conventions.

Complex numbers are [re, im] pairs, matrices row-major nested lists, angles
radians as doubles. Every document carries a "format_version"; readers
reject unknown major versions. A document of the wrong schema raises
``ValueError`` naming the missing key or the wrong matrix shape.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .decomposition import KrausSet

FORMAT_VERSION = "1.0"


def matrix_to_json(m: np.ndarray) -> list:
    return [[[c.real, c.imag] for c in row] for row in np.asarray(m, dtype=complex)]


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
    return m


def require_key(data, key: str):
    """``data[key]`` of a decoded JSON object; ``ValueError`` naming ``key`` if absent."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"expected a JSON object with key {key!r}")
    return data[key]


def check_version(data: dict, what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"expected a {what} JSON object")
    major = str(data.get("format_version", FORMAT_VERSION)).split(".")[0]
    if major != FORMAT_VERSION.split(".")[0]:
        raise ValueError(
            f"unsupported {what} format_version {data.get('format_version')}"
        )


def kraus_set_to_json(s: KrausSet) -> str:
    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "ops": [
                {"label": label, "matrix": matrix_to_json(m)}
                for label, m in zip(s.labels, s.ops)
            ],
        },
        indent=2,
    )


def kraus_set_from_json(text: str) -> KrausSet:
    from .decomposition import kraus_set

    data = json.loads(text)
    check_version(data, "kraus set")
    ops = require_key(data, "ops")
    return kraus_set(
        [matrix_from_json(require_key(o, "matrix"), 2) for o in ops],
        [require_key(o, "label") for o in ops],
    )
