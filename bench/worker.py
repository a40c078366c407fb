"""One workload in one fresh process; started by ``run.py``.

usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Imports ``genmeas`` from ``src/``, builds the workload's inputs from the
seed, runs one untimed warm-up op and prints ``READY`` with the set-up's
CPU time. Unless ``--setup-only``, it then starts the speed sampler of
``speed.py``, runs ops until ``--seconds`` of wall time have passed and
prints one JSON line with the op times, failure counts and peak memory.
All times are CPU times scaled by the sampler's reference kernel. With ``--trace 1`` the package's public functions
are wrapped before set-up, the spans are written to ``.bench_out/`` and
the JSON carries the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import genmeas  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def run_ops(workload, seconds: float, spans) -> list[dict]:
    """Run ops for ``seconds`` of wall time."""
    results = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if spans is not None:
            spans.op_id = i
        try:
            r = workload.run_op(i)
        except Exception:  # a raising op is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            r = {"s": None, "fails": [f"op {i} raised: {traceback.format_exc(limit=1).strip()[-300:]}"]}
        results.append(r)
        i += 1
        if time.perf_counter() >= deadline:
            return results


def normalise(results: list[dict], timeline: speed.Timeline) -> list[float]:
    """Scale each op's CPU times to the nominal machine speed; keep the raw op time.

    CLI stages are scaled one by one, since the machine's speed can change
    within a pipeline. Returns each op's factor (the median one for an op
    that raised).
    """
    factors = [timeline.factor(*r["span"]) if "span" in r else None for r in results]
    for r, f in zip(results, factors):
        if r["s"] is None:
            continue
        r["cpu_s"] = r["s"]
        if "cli_spans" in r:
            spans = r.pop("cli_spans")
            r["cli_s"] = {k: v * timeline.factor(*spans[k]) for k, v in r["cli_s"].items()}
            r["s"] = sum(r["cli_s"].values())
            if "shot_s" in r:
                r["shot_s"] = r["cli_s"]["simulate"]
                r["traj_s"] = r["cli_s"]["trajectory"]
            continue
        for key in ("s", "shot_s", "traj_s"):
            if key in r:
                r[key] *= f
    known = [f for f in factors if f is not None]
    mid = statistics.median(known) if known else speed.NOMINAL_S / statistics.median(timeline.cpu)
    return [mid if f is None else f for f in factors]


def import_cpu_seconds(repeats: int = 5) -> float:
    """Median CPU time of a fresh ``import genmeas.cli`` minus that of a bare interpreter."""
    bare, full = [], []
    for _ in range(repeats):
        for code, acc in (("pass", bare), ("import genmeas.cli", full)):
            t = wl.cpu_now()
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=60)
            acc.append(wl.cpu_now() - t)
    return statistics.median(full) - statistics.median(bare)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # One CPU for the worker, its CLI children and the speed sampler, so
    # that the reference kernel times the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not Path(genmeas.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"genmeas imported from {genmeas.__file__}, not from {SRC}")

    spans = None
    if args.trace:
        spans = tr.Tracer()
        spans.install()
    cls = wl.WORKLOADS[args.workload]
    workload = cls(args.seed, tracer=spans) if cls is wl.CliPipeline else cls(args.seed)
    try:
        warm = workload.run_op(0, salt=wl.WARMUP)
        setup_cpu = wl.cpu_now()
        setup_scale = speed.NOMINAL_S / statistics.median(speed.kernel() for _ in range(5))
        print(f"READY {setup_cpu * setup_scale}", flush=True)
        if args.setup_only:
            return 0
        wl.OUT_DIR.mkdir(exist_ok=True)
        sampler = speed.Sampler(wl.OUT_DIR / f"speed-{os.getpid()}.txt")
        try:
            results = run_ops(workload, args.seconds, spans)
            # Before the sampler is waited for, so its memory is not counted.
            child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        finally:
            timeline = speed.Timeline(sampler.stop())
    finally:
        if hasattr(workload, "close"):
            workload.close()
    if spans is not None:
        spans.op_id = tr.CHECK

    factors = normalise(results, timeline)
    fails = [r["fails"] for r in [warm] + results]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fields = ("cls", "s", "cpu_s", "shots", "shot_s", "trajectories", "traj_s", "sets")
    out = {
        "ops": [{k: r[k] for k in fields if k in r} for r in results],
        "mix": cls.mix,
        "tail_q": cls.tail_q,
        "reference_ms": timeline.median_ms(),
        "attempted": len(fails),
        "failed": sum(1 for f in fails if f),
        "failures": [m for f in fails for m in f][:10],
        "peak_rss_kb": self_kb + child_kb,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "genmeas": genmeas.__version__},
    }
    if spans is not None:
        cost = tr.span_cost_ns()
        arrays = spans.arrays()
        wl.OUT_DIR.mkdir(exist_ok=True)
        tr.save(wl.OUT_DIR / f"spans-{args.workload}.npz", arrays)
        an = tr.analyse(arrays, cost)
        span_scale = np.array(factors + [setup_scale])[np.where(an["op"] >= 0, an["op"], -1)]
        an["dur_ns"] *= span_scale
        an["self_ns"] *= span_scale
        values = layers.compute(an, results, warm, getattr(cls, "setup_n", None))
        values["trace.span_cost_ns"] = cost
        values["cli.import_s"] = import_cpu_seconds() * statistics.median(factors)
        skip = [m[0] for m in layers.METRICS if not layers.applies(m[0], args.workload)]
        # trace.overhead_frac compares two processes; run.py measures it.
        out["per_layer"] = {
            name: [0.0 if name in skip else values.get(name, 0.0), unit]
            for name, unit in layers.UNITS.items()
        }
        out["not_applicable"] = skip
        out["absent"] = spans.absent
        out["site_counts"] = layers.site_counts(an)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
