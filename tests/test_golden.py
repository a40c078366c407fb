"""Seeded outputs against the pinned corpora in ``tests/golden/``.

``sampling.json``: histograms and exception classes must match exactly, mean
states within ``FLOAT_TOL``; ``tests/golden_sampling.py`` regenerates it.
``cli.json``: exit codes, integers, labels and structure must match exactly,
floats within ``FLOAT_TOL``; ``tests/golden_cli.py`` regenerates it.
"""

import json

import numpy as np

import golden_cli
from golden_sampling import GOLDEN, SEED, SHOTS, sample_cases

FLOAT_TOL = 1e-12


def _versions(doc) -> str:
    return f"corpus made with numpy {doc['numpy']}, running numpy {np.__version__}"


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
    assert not diffs, f"{len(diffs)} of {len(got)} cases differ ({_versions(doc)}):\n" + "\n".join(diffs)


def test_exact_cases_equal_their_unit_efficiency_continuous_twins():
    # One leaf table at eta = 1 and one seeding rule: each exact case has its
    # continuous-1 twin's histogram, and its mean states within FLOAT_TOL: the
    # continuous cases keep the means they were first pinned with, which today's
    # build reproduces only to round-off.
    cases = json.loads(GOLDEN.read_text())["cases"]
    exact = [key for key in cases if key.endswith("/exact")]
    twins = [(cases[key], cases[key.removesuffix("exact") + "continuous-1"]) for key in exact]
    assert sum("raises" not in twin for _, twin in twins) == 12
    for case, twin in twins:
        if "raises" not in twin:
            assert case["counts"] == twin["counts"] and case["means"].keys() == twin["means"].keys()
            for label, m in case["means"].items():
                assert np.max(np.abs(np.subtract(twin["means"][label], m))) <= FLOAT_TOL


def json_diffs(got, want, path: str = "") -> list[str]:
    """Where two parsed JSON values differ: a float by more than ``FLOAT_TOL``, any
    other value, type, key set or length at all."""
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} {got!r}, pinned {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)}, pinned {sorted(want)}"]
        return [d for k in want for d in json_diffs(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)}, pinned {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in json_diffs(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if abs(got - want) <= FLOAT_TOL else [f"{path}: {got!r}, pinned {want!r}"]
    return [] if got == want else [f"{path}: {got!r}, pinned {want!r}"]


def test_json_diffs_tells_ints_floats_and_structure_apart():
    assert json_diffs({"a": [1, 0.5, "x"]}, {"a": [1, 0.5 + 1e-13, "x"]}) == []
    assert json_diffs([1], [1.0]) == ["[0]: int 1, pinned float 1.0"]
    assert json_diffs([True], [1]) == ["[0]: bool True, pinned int 1"]
    assert json_diffs({"a": 0.5}, {"a": 0.5 + 1e-11}) == [f"/a: 0.5, pinned {0.5 + 1e-11!r}"]
    assert json_diffs({"a": [1]}, {"a": [1, 2]}) == ["/a: length 1, pinned 2"]
    assert json_diffs({"a": 1}, {"b": 1}) == [": keys ['a'], pinned ['b']"]


def test_cli_matches_the_golden_corpus():
    doc = json.loads(golden_cli.GOLDEN.read_text())
    assert (doc["seed"], doc["runs"], doc["shots"]) == (golden_cli.SEED, golden_cli.RUNS, golden_cli.SHOTS)
    got = golden_cli.run_cases()
    assert list(got) == list(doc["cases"])
    diffs = [d for key, want in doc["cases"].items() for d in json_diffs(got[key], want, key)]
    shown = "\n".join(diffs[:20])
    assert not diffs, f"{len(diffs)} values differ ({_versions(doc)}):\n{shown}"
