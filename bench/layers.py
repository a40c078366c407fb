"""Per-layer metrics of the traced run, and the prediction each one carries.

``METRICS`` is the record of which end-to-end metric each layer metric
should move, on which workload, and where it should not move. Workload
codes: T trine_shots, R readout_walk, S synth_score, C cli_pipeline. A
metric is reported on the workloads in its ``applies`` string and reported
as 0 and listed as not applicable on the others. ``BENCHMARK.json`` lists
the same names, units and directions.
"""

from __future__ import annotations

import numpy as np

WORKLOAD_CODES = {"trine_shots": "T", "readout_walk": "R", "synth_score": "S", "cli_pipeline": "C"}

SLOW_PQ = "p0.99_q0.98"
FAST_PQ = "p0.8_q0.6"

# name, unit, better, applies, should move, predicted unchanged
METRICS = [
    ("decomposition.sample_protocol.us_per_shot", "us", "lower", "TRSC",
     "shots_per_s, op_p50_ms on trine_shots; ops_per_s on synth_score", "ops_per_s on readout_walk"),
    ("decomposition.sample_protocol.us_per_shot.exact", "us", "lower", "TC",
     "shots_per_s on trine_shots", "readout_walk"),
    ("decomposition.sample_protocol.us_per_shot.ancilla-direct", "us", "lower", "TS",
     "shots_per_s on trine_shots", "readout_walk"),
    ("decomposition.sample_protocol.us_per_shot.ancilla-cphase", "us", "lower", "TS",
     "shots_per_s on trine_shots", "readout_walk"),
    ("decomposition.sample_protocol.us_per_shot.ancilla-fixed_cz", "us", "lower", "TS",
     "shots_per_s on trine_shots", "readout_walk"),
    ("decomposition.sample_protocol.us_per_shot.continuous", "us", "lower", "R",
     "shots_per_s on readout_walk", "trine_shots"),
    ("decomposition.execute_protocol.calls_per_shot", "count", "lower", "TRSC",
     "shots_per_s on trine_shots", "readout_walk"),
    ("decomposition.execute_protocol.steps_per_shot", "count", "lower", "TRSC",
     "shots_per_s on trine_shots", "-"),
    ("decomposition.execute_protocol.useful_step_frac", "ratio", "higher", "TRSC",
     "shots_per_s on trine_shots", "-"),
    ("decomposition.reduce.us_per_set", "us", "lower", "TRSC",
     "ops_per_s on synth_score; setup_s on trine_shots", "trine_shots throughput"),
    ("decomposition.reduce.us_per_set.n2", "us", "lower", "S", "ops_per_s on synth_score", "-"),
    ("decomposition.reduce.us_per_set.n3", "us", "lower", "TRS",
     "ops_per_s on synth_score; setup_s on trine_shots", "-"),
    ("decomposition.reduce.us_per_set.n4", "us", "lower", "SC", "ops_per_s on synth_score", "-"),
    ("decomposition.reduce.us_per_set.n5", "us", "lower", "S", "ops_per_s on synth_score", "-"),
    ("decomposition.reduce.us_per_set.n6", "us", "lower", "S", "ops_per_s on synth_score", "-"),
    ("decomposition.protocol_json.us_per_set", "us", "lower", "SC",
     "ops_per_s on synth_score; op_p50_ms on cli_pipeline", "trine_shots"),
    ("decomposition.self_us_per_op", "us", "lower", "TRSC", "op_p50_ms where sampled", "-"),
    ("partial_projection.validate_state.calls_per_shot", "count", "lower", "TRSC",
     "shots_per_s on trine_shots", "ops_per_s on synth_score (small share)"),
    ("partial_projection.validate_state.self_share", "ratio", "lower", "TRSC",
     "shots_per_s on trine_shots", "ops_per_s on synth_score (small share)"),
    ("partial_projection.apply_outcome.calls_per_shot", "count", "lower", "TRSC",
     "shots_per_s on trine_shots (exact backend)", "readout_walk"),
    ("partial_projection.outcome_probabilities.calls_per_shot", "count", "lower", "TRSC",
     "shots_per_s on trine_shots (exact backend)", "readout_walk"),
    ("partial_projection.self_us_per_op", "us", "lower", "TRSC", "shots_per_s on trine_shots", "-"),
    ("ancilla_circuit.kraus_from_circuit.calls_per_distinct", "ratio", "lower", "TS",
     "shots_per_s on trine_shots; ops_per_s and peak_rss_mb on synth_score", "readout_walk"),
    ("ancilla_circuit.kraus_from_circuit.us_per_call", "us", "lower", "TS",
     "shots_per_s on trine_shots; ops_per_s on synth_score", "readout_walk"),
    ("ancilla_circuit.self_us_per_op", "us", "lower", "TS", "ops_per_s on synth_score", "-"),
    ("continuous_readout.simulate_batch.us_per_traj", "us", "lower", "RC",
     "ops_per_s on readout_walk", "all of trine_shots"),
    ("continuous_readout.simulate_trajectory.calls_per_traj", "count", "lower", "RC",
     "ops_per_s, shots_per_s on readout_walk", "trine_shots"),
    (f"continuous_readout.steps_per_traj.{FAST_PQ}", "count", "lower", "RC",
     "none: denominator of us_per_step; must stay within its statistical spread", "every workload"),
    (f"continuous_readout.steps_per_traj.{SLOW_PQ}", "count", "lower", "R",
     "none: denominator of us_per_step; must stay within its statistical spread", "every workload"),
    ("continuous_readout.us_per_step", "us", "lower", "RC", "ops_per_s on readout_walk", "trine_shots"),
    (f"continuous_readout.max_steps_per_batch.{FAST_PQ}", "count", "lower", "RC",
     "op_tail_ms on readout_walk", "-"),
    (f"continuous_readout.max_steps_per_batch.{SLOW_PQ}", "count", "lower", "R",
     "op_tail_ms on readout_walk", "-"),
    ("continuous_readout.trajectories_to_jsonl.us_per_traj", "us", "lower", "C",
     "op_p50_ms on cli_pipeline", "readout_walk (not called)"),
    ("continuous_readout.self_us_per_op", "us", "lower", "RC", "ops_per_s on readout_walk", "trine_shots"),
    ("fidelity.fidelity_report.us_per_call", "us", "lower", "SC",
     "ops_per_s on synth_score", "trine_shots, readout_walk"),
    ("fidelity.average_state_fidelity.us_per_call", "us", "lower", "S",
     "ops_per_s on synth_score", "trine_shots, readout_walk"),
    ("fidelity.apply_process.calls_per_set", "count", "lower", "S", "ops_per_s on synth_score", "-"),
    ("fidelity.state_fidelity.calls_per_set", "count", "lower", "S", "ops_per_s on synth_score", "-"),
    ("fidelity.chi_from_kraus.us_per_call", "us", "lower", "S", "ops_per_s on synth_score", "trine_shots"),
    ("fidelity.povm_from_process.us_per_call", "us", "lower", "SC", "ops_per_s on synth_score", "trine_shots"),
    ("fidelity.self_us_per_op", "us", "lower", "SC", "ops_per_s on synth_score", "trine_shots"),
    ("channels.noisy_branch.us_per_call", "us", "lower", "S", "ops_per_s on synth_score", "trine_shots"),
    ("channels.self_us_per_op", "us", "lower", "S", "ops_per_s on synth_score", "trine_shots"),
    ("serialize.kraus_set_json.us_per_set", "us", "lower", "SC",
     "ops_per_s on synth_score; op_p50_ms on cli_pipeline", "trine_shots"),
    ("serialize.self_us_per_op", "us", "lower", "SC", "ops_per_s on synth_score", "trine_shots"),
    ("linalg.herm_eig.calls_per_set", "count", "lower", "SC", "ops_per_s on synth_score", "-"),
    ("linalg.psd_sqrt.calls_per_set", "count", "lower", "SC", "ops_per_s on synth_score", "-"),
    ("linalg.self_us_per_op", "us", "lower", "SC", "ops_per_s on synth_score", "-"),
    ("cli.import_s", "s", "lower", "TRSC", "setup_s on every workload; op_p50_ms on cli_pipeline", "-"),
    ("cli.synth_s", "s", "lower", "C", "op_p50_ms on cli_pipeline", "-"),
    ("cli.simulate_s", "s", "lower", "C", "op_p50_ms, shots_per_s on cli_pipeline", "-"),
    ("cli.trajectory_s", "s", "lower", "C", "op_p50_ms on cli_pipeline", "-"),
    ("cli.fidelity_s", "s", "lower", "C", "op_p50_ms on cli_pipeline", "-"),
    ("cli.synth.output_bytes", "bytes", "lower", "C", "op_p50_ms on cli_pipeline", "-"),
    ("cli.simulate.output_bytes", "bytes", "lower", "C", "op_p50_ms on cli_pipeline", "-"),
    ("cli.trajectory.output_bytes", "bytes", "lower", "C", "op_p50_ms on cli_pipeline", "-"),
    ("cli.fidelity.output_bytes", "bytes", "lower", "C", "op_p50_ms on cli_pipeline", "-"),
    ("trace.overhead_frac", "ratio", "lower", "TRSC", "none: cost of tracing itself", "-"),
    ("trace.span_cost_ns", "ns", "lower", "TRSC", "none: cost of one wrapped call", "-"),
    ("trace.spans_per_op", "count", "lower", "TRSC", "none: calls crossing a layer boundary", "-"),
]

UNITS = {m[0]: m[1] for m in METRICS}


def applies(name: str, workload: str) -> bool:
    return WORKLOAD_CODES[workload] in next(m[3] for m in METRICS if m[0] == name)


def _div(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def compute(an: dict, ops: list[dict], warmup: dict, setup_n: int | None) -> dict:
    """Per-layer values from the span analysis and each op's metadata.

    ``ops[i]`` is op i's result (``sample``/``walk``/``n``/``sets``/``cli_*``
    metadata); ``warmup`` is the untimed warm-up op's result.
    """
    func, op = an["func"], an["op"]
    dur_us, self_us = an["dur_ns"] / 1e3, an["self_ns"] / 1e3
    in_ops = op >= 0
    n_ops = len(ops)
    samples = [o["sample"] for o in ops if "sample" in o]
    walks = [o["walk"] for o in ops if "walk" in o]
    shots = sum(s["shots"] for s in samples)
    trajs = sum(w["trajectories"] for w in walks)
    sets = sum(o.get("sets", 0) for o in ops)

    def sel(name, where=in_ops):
        return where & (func == name)

    def under(name, top):
        return sel(name) & (an["top_func"] == top)

    out = {}
    sp = sel("decomposition.sample_protocol")
    out["decomposition.sample_protocol.us_per_shot"] = _div(dur_us[sp].sum(), shots)
    backend_of = np.array([o.get("sample", {}).get("backend", "") for o in ops] + [""], dtype=object)
    span_backend = backend_of[np.where(in_ops, op, -1)]
    for b in ("exact", "ancilla-direct", "ancilla-cphase", "ancilla-fixed_cz", "continuous"):
        b_shots = sum(s["shots"] for s in samples if s["backend"] == b)
        out[f"decomposition.sample_protocol.us_per_shot.{b}"] = _div(
            dur_us[sp & (span_backend == b)].sum(), b_shots)
    top_sp = "decomposition.sample_protocol"
    out["decomposition.execute_protocol.calls_per_shot"] = _div(
        under("decomposition.execute_protocol", top_sp).sum(), shots)
    out["decomposition.execute_protocol.steps_per_shot"] = _div(
        sum(s["steps_visited"] for s in samples), shots)
    out["decomposition.execute_protocol.useful_step_frac"] = _div(
        sum(s["steps_visited"] for s in samples), sum(s["protocol_steps"] for s in samples))

    red = sel("decomposition.reduce")
    if red.any():
        red_n = np.array([o.get("n", 0) for o in ops] + [0])[np.where(in_ops, op, -1)]
    else:
        red = sel("decomposition.reduce", op == -1)
        red_n = np.full(len(op), setup_n or 0)
    out["decomposition.reduce.us_per_set"] = float(dur_us[red].mean()) if red.any() else 0.0
    for k in range(2, 7):
        m = red & (red_n == k)
        out[f"decomposition.reduce.us_per_set.n{k}"] = float(dur_us[m].mean()) if m.any() else 0.0
    pj = sel("decomposition.protocol_to_json") | sel("decomposition.protocol_from_json")
    out["decomposition.protocol_json.us_per_set"] = _div(dur_us[pj].sum(), sets)

    out["partial_projection.validate_state.calls_per_shot"] = _div(
        under("partial_projection.validate_state", top_sp).sum(), shots)
    out["partial_projection.validate_state.self_share"] = _div(
        self_us[under("partial_projection.validate_state", top_sp)].sum(), dur_us[sp].sum())
    for f in ("apply_outcome", "outcome_probabilities"):
        out[f"partial_projection.{f}.calls_per_shot"] = _div(
            under(f"partial_projection.{f}", top_sp).sum(), shots)

    kfc = sel("ancilla_circuit.kraus_from_circuit", op >= -1)
    keys = {tuple(k) for o in ops + [warmup] for k in o.get("sample", {}).get("ancilla_keys", [])}
    out["ancilla_circuit.kraus_from_circuit.calls_per_distinct"] = _div(kfc.sum(), len(keys))
    out["ancilla_circuit.kraus_from_circuit.us_per_call"] = float(dur_us[kfc].mean()) if kfc.any() else 0.0

    sb = sel("continuous_readout.simulate_batch")
    out["continuous_readout.simulate_batch.us_per_traj"] = _div(dur_us[sb].sum(), trajs)
    out["continuous_readout.simulate_trajectory.calls_per_traj"] = _div(
        under("continuous_readout.simulate_trajectory", "continuous_readout.simulate_batch").sum(), trajs)
    for tag, pq in ((FAST_PQ, [0.8, 0.6]), (SLOW_PQ, [0.99, 0.98])):
        ws = [w for w in walks if w["pq"] == pq]
        out[f"continuous_readout.steps_per_traj.{tag}"] = _div(
            sum(w["steps"] for w in ws), sum(w["trajectories"] for w in ws))
        out[f"continuous_readout.max_steps_per_batch.{tag}"] = _div(
            sum(w["max_steps"] for w in ws), len(ws))
    out["continuous_readout.us_per_step"] = _div(dur_us[sb].sum(), sum(w["steps"] for w in walks))
    tj = sel("continuous_readout.trajectories_to_jsonl")
    out["continuous_readout.trajectories_to_jsonl.us_per_traj"] = _div(
        dur_us[tj].sum(), sum(o.get("jsonl_trajectories", 0) for o in ops))

    for f in ("fidelity.fidelity_report", "fidelity.average_state_fidelity",
              "fidelity.chi_from_kraus", "fidelity.povm_from_process", "channels.noisy_branch"):
        m = sel(f)
        out[f"{f}.us_per_call"] = float(dur_us[m].mean()) if m.any() else 0.0
    for f in ("fidelity.apply_process", "fidelity.state_fidelity", "linalg.herm_eig", "linalg.psd_sqrt"):
        out[f"{f}.calls_per_set"] = _div(sel(f).sum(), sets)
    kj = sel("serialize.kraus_set_to_json") | sel("serialize.kraus_set_from_json")
    out["serialize.kraus_set_json.us_per_set"] = _div(dur_us[kj].sum(), sets)

    module = np.array([f.partition(".")[0] for f in func], dtype=object)
    for layer in ("decomposition", "partial_projection", "ancilla_circuit", "continuous_readout",
                  "fidelity", "channels", "serialize", "linalg"):
        out[f"{layer}.self_us_per_op"] = _div(self_us[in_ops & (module == layer)].sum(), n_ops)

    cli_ops = [o for o in ops if "cli_bytes" in o]
    for stage in ("synth", "simulate", "trajectory", "fidelity"):
        out[f"cli.{stage}_s"] = float(np.median([o["cli_s"][stage] for o in cli_ops])) if cli_ops else 0.0
        out[f"cli.{stage}.output_bytes"] = (
            float(np.median([o["cli_bytes"][stage] for o in cli_ops])) if cli_ops else 0.0)
    out["trace.spans_per_op"] = _div(in_ops.sum(), n_ops)
    return out


def site_counts(an: dict) -> dict:
    """Calls per binding site during the timed ops, e.g. validate_state@decomposition."""
    ids = an["span_name"][an["op"] >= 0]
    counts = np.bincount(ids, minlength=len(an["sites"]))
    return {site: int(c) for site, c in zip(an["sites"], counts)}
