"""Seeded sampling outputs pinned in ``tests/golden/sampling.json``.

Each case reduces a Kraus set (with and without ``cancel_u1``), reads the
protocol back from its JSON, and samples it from one state on one backend:
2,000 shots at seed 7. A case records the histogram and each reached leaf's
mean state, or, when the backend cannot realize the protocol, only the
exception's class. Exact histograms pin the seeded streams as firmly at
2,000 shots as at more, and keep the test to a few seconds.
``tests/test_golden.py`` compares a fresh run against the
file. Regenerate it, from the repository root, with

    PYTHONPATH=src python tests/golden_sampling.py

numpy does not promise that ``Generator`` streams stay the same across its
feature releases (NEP 19), so the file records the numpy version it was made
with.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from genmeas.continuous_readout import ReadoutConfig
from genmeas.decomposition import (
    kraus_set, protocol_from_json, protocol_to_json, random_kraus_set, reduce, sample_protocol,
)
from genmeas.errors import GenmeasError
from genmeas.partial_projection import pure_state

GOLDEN = Path(__file__).parent / "golden" / "sampling.json"
SHOTS, SEED = 2_000, 7
BACKENDS = ("exact", "ancilla-direct", "ancilla-cphase", "ancilla-fixed_cz",
            "continuous-1", "continuous-0.7")


def trine():
    ops = []
    for k in range(3):
        theta = 2 * math.pi * k / 3
        psi = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        ops.append(math.sqrt(2.0 / 3.0) * np.outer(psi, psi.conj()))
    return kraus_set(ops, ("a", "b", "c"))


def kraus_sets():
    return {
        "trine": trine(),
        "random4_seed3": random_kraus_set(4, np.random.default_rng(3)),
        "random2_seed9": random_kraus_set(2, np.random.default_rng(9)),
    }


def states():
    tilted = np.array([[0.7, 0.15 - 0.1j], [0.15 + 0.1j, 0.3]])
    return {
        "mixed": np.eye(2, dtype=complex) / 2,
        "plus": pure_state(np.array([1.0, 1.0]) / math.sqrt(2)),
        "tilted": tilted,
    }


def _matrix(m):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m).tolist()]


def sample_case(proto, rho, backend):
    """{"counts", "means"} of one sampled case, or {"raises": class name}."""
    name, _, eta = backend.partition("-") if backend.startswith("continuous") else (backend, "", "")
    config = ReadoutConfig(tau_min=1.0, seed=SEED, efficiency=float(eta)) if eta else None
    try:
        counts, means = sample_protocol(proto, rho, SHOTS, SEED, name, config)
    except GenmeasError as e:
        return {"raises": type(e).__name__}
    return {"counts": counts, "means": {label: _matrix(m) for label, m in means.items()}}


def sample_cases():
    """Every case, keyed ``set/state/cancel_u1/backend``, in a fixed order."""
    out = {}
    rhos = states()
    for (set_name, s), cancel_u1 in itertools.product(kraus_sets().items(), (False, True)):
        proto = protocol_from_json(protocol_to_json(reduce(s, cancel_u1=cancel_u1)))
        for (state_name, rho), backend in itertools.product(rhos.items(), BACKENDS):
            key = f"{set_name}/{state_name}/cancel_u1={cancel_u1}/{backend}"
            out[key] = sample_case(proto, rho, backend)
    return out


def main():
    head = {"numpy": np.__version__, "shots": SHOTS, "seed": SEED}
    cases = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sample_cases().items())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(head)[:-1] + ', "cases": {\n' + cases + "\n}}\n")


if __name__ == "__main__":
    main()
