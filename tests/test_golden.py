"""Seeded sampling outputs against the pinned corpus ``tests/golden/sampling.json``.

Histograms and exception classes must match exactly, mean states within
``FLOAT_TOL``; ``tests/golden_sampling.py`` regenerates the file.
"""

import json

import numpy as np

from golden_sampling import GOLDEN, SEED, SHOTS, sample_cases

FLOAT_TOL = 1e-12


def test_sampling_matches_the_golden_corpus():
    doc = json.loads(GOLDEN.read_text())
    assert (doc["shots"], doc["seed"]) == (SHOTS, SEED)
    got = sample_cases()
    assert sorted(got) == sorted(doc["cases"])
    diffs = []
    for key, want in doc["cases"].items():
        case = got[key]
        if "raises" in want or "raises" in case or case["counts"] != want["counts"]:
            if case != want:
                diffs.append(f"{key}: got {case.get('raises') or case['counts']}, "
                             f"pinned {want.get('raises') or want['counts']}")
            continue
        assert sorted(case["means"]) == sorted(want["means"]), key
        for label, m in want["means"].items():
            dev = float(np.max(np.abs(np.subtract(case["means"][label], m))))
            if not dev <= FLOAT_TOL:
                diffs.append(f"{key}: mean state of leaf {label} moved by {dev:.2e}")
    versions = f"corpus made with numpy {doc['numpy']}, running numpy {np.__version__}"
    assert not diffs, f"{len(diffs)} of {len(got)} cases differ ({versions}):\n" + "\n".join(diffs)
