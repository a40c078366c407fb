"""genmeas benchmark: one command, four workloads, an untraced and a traced mode.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload runs in its own fresh
worker process (``bench/worker.py``) that imports ``genmeas`` from
``src/`` with the BLAS thread count pinned to 1; all load comes from that
one process, and ``cli_pipeline`` runs its CLI stages one at a time.

Times are CPU seconds (user + system) of the worker and of its CLI child
processes. The program is single-threaded and waits on nothing, so its
CPU time is its wall time on an idle machine. On a shared virtual machine
the host steals a varying share of the wall time, which CPU time leaves
out, and other tenants change the speed of the CPU itself by up to 2x
within seconds. A sampler process times a reference kernel every 30 ms
on the CPU the ops run on, and each op, or each CLI stage, is scaled to
a nominal speed by the kernel times around it (``bench/speed.py``). The
worker, its CLI children and the sampler share one pinned CPU. The
detail line also reports the unscaled figures.

``--trace 0`` prints the end-to-end metrics. Set-up (interpreter start,
``import genmeas``, input generation, fixed reductions, one warm-up op) is
measured in ``SETUPS`` fresh processes and reported as the median; then
one process runs ops for ``--seconds`` seconds of wall time. Throughputs
and op-time quantiles weight each op class by its share of the
workload's designed cycle. ``op_tail_ms`` is the op time at the workload's
``tail_q``: the highest percentile that leaves at least ten ops above it
in a run of ``run_seconds`` on the 2-vCPU machine the benchmark was tuned
on (``cli_pipeline`` completes too few pipelines for that and uses p75);
the detail line reports how many ops a run actually left above it.

``--trace 1`` prints the per-layer metrics: an untraced and a traced
process run the same seeded ops, the traced one records spans at every
binding of the package's public functions (``bench/tracer.py``), and the
ratio of their op times is the tracing overhead.

Every op's outputs are checked against independent references
(``bench/checks.py``); an op that raises or fails a check counts in
``failed``. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details: op count and tail percentile, trajectories and sets per second,
failures, and the Python, numpy and CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("trine_shots", "readout_walk", "synth_score", "cli_pipeline")
SETUPS = 5
WORKER_SLACK_S = 120.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    """``genmeas`` from ``src/`` and one BLAS thread: the matrices are 2x2."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, env, trace: int, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return (its CPU seconds up to READY, its JSON result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(args.seconds + WORKER_SLACK_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not ready.startswith("READY ") or code != 0:
        raise BenchError(f"{args.workload} worker exited {code} (set-up {'done' if ready else 'not done'})")
    setup_s = float(ready.split()[1])
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def rate(ops: list[dict], mix: dict, work: str | None, secs: str) -> float | None:
    """Work per second at the workload's designed op mix (``work`` None: ops per second).

    Each op class (backend and state, grid point, set size...) contributes
    its median work and median time, weighted by its share of the designed
    cycle. A few slow seconds, or the point in the cycle where the run
    stops, then move the figure little.
    """
    per_cls: dict[str, list[dict]] = {}
    for o in ops:
        if o["s"] is not None and (work is None or o.get(work)):
            per_cls.setdefault(o["cls"], []).append(o)
    if not per_cls:
        return None
    done = sum(mix[c] * (statistics.median(o[work] for o in v) if work else 1.0)
               for c, v in per_cls.items())
    took = sum(mix[c] * statistics.median(o[secs] for o in v) for c, v in per_cls.items())
    return done / took


def quantile(ops: list[dict], mix: dict, q: float, key: str = "s") -> float:
    """Op time at quantile ``q`` of the designed mix.

    Each op weighs its class's share of the designed cycle divided by the
    number of ops of that class in the run, so where in the cycle the run
    stops does not shift the quantile from one op class to another.
    """
    per_cls: dict[str, int] = {}
    for o in ops:
        per_cls[o["cls"]] = per_cls.get(o["cls"], 0) + 1
    total = sum(mix[c] for c in per_cls)
    acc = 0.0
    for o in sorted(ops, key=lambda o: o[key]):
        acc += mix[o["cls"]] / per_cls[o["cls"]] / total
        if acc >= q - 1e-12:
            return o[key]
    return max(o[key] for o in ops)


def op_stats(res: dict) -> dict:
    ops = [o for o in res["ops"] if o["s"] is not None]
    if not ops:
        raise BenchError("no op completed")
    q = res["tail_q"]
    tail = quantile(ops, res["mix"], q)
    return {"ops": len(ops), "op_p50_ms": quantile(ops, res["mix"], 0.5) * 1e3,
            "op_tail_ms": tail * 1e3, "tail_percentile": 100.0 * q,
            "ops_beyond_tail": sum(1 for o in ops if o["s"] > tail)}


def untraced(args, env) -> tuple[dict, dict, dict]:
    setups = [run_worker(args, env, 0, True)[0] for _ in range(SETUPS - 1)]
    setup_s, res = run_worker(args, env, 0, False)
    setups.append(setup_s)
    st = op_stats(res)
    ops, mix = res["ops"], res["mix"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rate(ops, mix, None, "s"), "1/s"),
        "shots_per_s": (rate(ops, mix, "shots", "shot_s"), "1/s"),
        "op_p50_ms": (st["op_p50_ms"], "ms"),
        "op_tail_ms": (st["op_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    detail = {
        "ops": st["ops"], "op_tail_percentile": st["tail_percentile"],
        "op_tail_ops_beyond": st["ops_beyond_tail"], "setup_runs_s": setups,
        "failed_frac": res["failed"] / res["attempted"],
        "reference_ms": res["reference_ms"],
        "unscaled_ops_per_s": rate(ops, mix, None, "cpu_s"),
        "unscaled_op_p50_ms": quantile([o for o in ops if o["s"] is not None], mix, 0.5, "cpu_s") * 1e3,
        "trajectories_per_s": rate(ops, mix, "trajectories", "traj_s"),
        "sets_per_s": rate(ops, mix, "sets", "s"),
        "failures": res["failures"], "env": res["env"],
    }
    return metrics, detail, res


def traced(args, env) -> tuple[dict, dict, list[dict]]:
    _, base = run_worker(args, env, 0, False)
    _, res = run_worker(args, env, 1, False)
    metrics = {name: tuple(vu) for name, vu in res["per_layer"].items()}
    pairs = [(a["s"], b["s"]) for a, b in zip(base["ops"], res["ops"])
             if a["s"] is not None and b["s"] is not None]
    metrics["trace.overhead_frac"] = (sum(b for _, b in pairs) / sum(a for a, _ in pairs) - 1.0, "ratio")
    detail = {
        "ops_untraced": len(base["ops"]), "ops_traced": len(res["ops"]),
        "ops_compared": len(pairs), "not_applicable": res["not_applicable"],
        "absent": res["absent"], "site_counts": res["site_counts"],
        "failures": base["failures"] + res["failures"], "env": res["env"],
    }
    return metrics, detail, [base, res]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "genmeas" / "__init__.py").is_file():
        print(f"error: no genmeas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            metrics, detail, runs = traced(args, env)
        else:
            metrics, detail, res = untraced(args, env)
            runs = [res]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=len(os.sched_getaffinity(0)))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
