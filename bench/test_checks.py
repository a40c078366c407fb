"""The benchmark's own tests: every checker counts a failure on a corrupted output.

Run with ``python3 -m pytest -q bench``.
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from genmeas import continuous_readout as cr  # noqa: E402
from genmeas import decomposition as dec  # noqa: E402


@pytest.fixture(scope="module")
def trine_zero():
    """The trine sampled from |0>: leaf a has probability 2/3, b and c 1/6 each."""
    w = wl.TrineShots(seed=3)
    rho = w.states[1]
    counts, means = dec.sample_protocol(w.proto, rho, 1000, seed=11, backend="exact")
    probs, states = w.refs[1]
    return counts, means, probs, states


def test_sample_outputs_pass(trine_zero):
    counts, means, probs, states = trine_zero
    assert checks.check_histogram(counts, probs, 1000) == []
    assert checks.check_mean_states(means, counts, states) == []


def test_swapped_leaf_labels_fail(trine_zero):
    counts, means, probs, states = trine_zero
    swap = {"a": "b", "b": "a", "c": "c"}
    counts = {swap[k]: v for k, v in counts.items()}
    means = {swap[k]: v for k, v in means.items()}
    assert checks.check_histogram(counts, probs, 1000)
    assert checks.check_mean_states(means, counts, states)


def test_perturbed_mean_state_fails(trine_zero):
    counts, means, probs, states = trine_zero
    means = dict(means)
    means["a"] = means["a"] + 1e-6 * np.array([[1, 0], [0, -1]])
    assert checks.check_mean_states(means, counts, states)


def test_histogram_seven_sigma_off_fails():
    p, shots = 1 / 3, 1000
    shift = math.ceil(7 * math.sqrt(shots * p * (1 - p)))
    counts = {"a": round(shots * p) + shift, "b": round(shots * p) - shift}
    counts["c"] = shots - counts["a"] - counts["b"]
    assert checks.check_histogram(counts, {"a": p, "b": p, "c": p}, shots)


def test_binomial_limit_is_six_sigma_and_exact_for_small_counts():
    sd = math.sqrt(1000 * 0.5 * 0.5)
    assert checks.binomial_ok(round(500 + 5.5 * sd), 1000, 0.5)
    assert not checks.binomial_ok(round(500 + 7 * sd), 1000, 0.5)
    # One expected count in 64 shots: 4 hits is rare but not a 6-sigma event.
    assert checks.binomial_ok(4, 64, 1 / 64)
    assert not checks.binomial_ok(1, 64, 0.0)


@pytest.fixture(scope="module")
def walk_batch():
    p, q = 0.8, 0.6
    rho = wl.pure([1, 1])
    t = cr.thresholds_from_pq(cr.PartialProjParams(p, q))
    records = cr.simulate_batch(cr.ReadoutConfig(tau_min=1.0, seed=5), t, rho, 300)
    r0, r1 = 0.5 * math.log(p / (1 - q)), -0.5 * math.log(q / (1 - p))
    args = ([r.outcome for r in records], [r.final_R for r in records],
            [r.final_state for r in records], rho, p, q, r0, r1, 0.0, 1.0)
    return args


def test_walk_outputs_pass(walk_batch):
    assert checks.check_walk(*walk_batch) == []


def test_final_r_off_threshold_fails(walk_batch):
    args = list(walk_batch)
    args[1] = list(args[1])
    args[1][0] += 1e-5
    assert checks.check_walk(*args)


def test_walk_state_off_reference_fails(walk_batch):
    args = list(walk_batch)
    args[2] = [np.array([[1, 0], [0, 0]], dtype=complex)] * len(args[2])
    assert checks.check_walk(*args)


def test_fidelity_above_one_fails():
    report = {
        "labels": ["0", "1"], "partial": {"0": {"F": 1.01}, "1": {"F": 0.9}},
        "p_actual": [0.5, 0.5], "p_ideal": [0.5, 0.5],
        "total_sum": 0.5 * 1.01 + 0.5 * 0.9, "total_sqrt_squared": 0.9,
        "povm_Fp": 0.95, "povm_FpTilde": 0.95,
    }
    assert checks.check_report(report)
    assert checks.fidelity_in_range("x", 1.01)
    chi = np.zeros((4, 4))
    chi[0, 0] = 1.0
    assert checks.check_linear_law(1.01, chi, chi)


def test_synth_score_op_passes():
    w = wl.SynthScore(seed=2)
    for i in range(5):
        assert w.run_op(i)["fails"] == []


def test_nonzero_cli_exit_fails():
    assert checks.check_exit("synth", 2, "error: kraus set not complete")
    assert checks.check_exit("synth", 0) == []


def test_cli_pipeline_counts_a_failed_stage(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(BENCH.parent / "src"))
    w = wl.CliPipeline(seed=1)
    try:
        (w.dir / "kraus0.json").write_text(json.dumps({"format_version": "1.0", "ops": []}))
        r = w.run_op(0)
    finally:
        w.close()
    assert r["fails"] and "exited" in r["fails"][0]


def test_trine_op_counts_swapped_labels(monkeypatch):
    w = wl.TrineShots(seed=3)
    real = dec.sample_protocol

    def swapped(*args, **kwargs):
        counts, means = real(*args, **kwargs)
        swap = {"a": "b", "b": "a", "c": "c"}
        return {swap[k]: v for k, v in counts.items()}, {swap[k]: v for k, v in means.items()}

    monkeypatch.setattr(dec, "sample_protocol", swapped)
    assert w.run_op(4)["fails"]  # op 4: exact backend from |0>


def test_tracer_flags_absent_functions():
    pkg = types.ModuleType("fakegm")
    sub = types.ModuleType("fakegm.linalg")
    sub.herm_eig = lambda m: m
    sys.modules.update({"fakegm": pkg, "fakegm.linalg": sub})
    try:
        spans = tr.Tracer()
        spans.install("fakegm")
        sub.herm_eig(1)
    finally:
        del sys.modules["fakegm"], sys.modules["fakegm.linalg"]
    assert "linalg.psd_sqrt" in spans.absent and "decomposition.reduce" in spans.absent
    assert "linalg.herm_eig" not in spans.absent
    assert list(spans.arrays()["span_name"]) == [0]


def test_self_time_subtracts_children():
    spans = {
        "names": np.array(["a.f@a", "b.g@a"]), "span_name": np.array([0, 1, 1]),
        "parent": np.array([-1, 0, 0]), "op": np.array([0, 0, 0]),
        "t0": np.array([0, 10, 50]), "t1": np.array([100, 30, 60]),
    }
    an = tr.analyse(spans, cost_ns=0.0)
    assert list(an["self_ns"]) == [70.0, 20.0, 10.0]
    assert list(an["top_func"]) == ["a.f", "a.f", "a.f"]


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(m[0], m[1], m[2]) for m in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_designed_mix_quantile_ignores_where_the_run_stops():
    import run

    mix = {"cheap": 0.5, "dear": 0.5}
    ops = [{"cls": "cheap", "s": 1.0}] * 9 + [{"cls": "dear", "s": 10.0}] * 3
    assert run.quantile(ops, mix, 0.5) == 1.0
    assert run.quantile(ops, mix, 0.51) == 10.0
    assert run.rate(ops, mix, None, "s") == 2 / 11
