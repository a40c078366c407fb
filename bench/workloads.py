"""The benchmark's four workloads.

Each workload is built from the seed argument alone: the seed redraws every
random input (sets, states, noise strengths, sampling seeds) while the
trine, the weak trine and the (p, q) grid stay fixed, so the cost mix does
not depend on the seed. ``run_op(i)`` prepares op ``i``'s inputs, times only
the calls into ``genmeas``, then checks the outputs against the independent
references in ``checks`` outside the timed interval.

Program functions are looked up on their modules at call time
(``dec.sample_protocol``), so a traced run sees the wrapped bindings.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from genmeas import channels as ch
from genmeas import continuous_readout as cr
from genmeas import decomposition as dec
from genmeas import fidelity as fid
from genmeas import serialize as ser
from genmeas.partial_projection import PartialProjParams

import checks
import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

BACKENDS = ("exact", "ancilla-direct", "ancilla-cphase", "ancilla-fixed_cz")
ANCILLA_VARIANTS = ("direct", "cphase", "fixed_cz")
NOISE_KINDS = ("depolarizing", "dephasing", "amplitude_damping", "unitary_jitter")
WARMUP = 1  # seed salt of the untimed warm-up op; timed ops use salt 0


def cpu_now() -> float:
    """CPU seconds (user + system) of this process and of its finished children.

    Ops are timed in CPU time: on a shared virtual machine the host can
    steal a third of the wall time, which CPU time does not count.
    """
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


class timed:
    """CPU seconds ``s`` (as ``cpu_now``) and monotonic wall ``span`` of a block.

    The worker scales ``s`` by the machine speed the sampler measured over ``span``.
    """

    def __enter__(self) -> "timed":
        self.start = time.monotonic()
        self.cpu0 = cpu_now()
        return self

    def __exit__(self, *exc) -> None:
        self.s = cpu_now() - self.cpu0
        self.span = (self.start, time.monotonic())


def derive_seed(seed: int, i: int, salt: int = 0) -> int:
    return int(np.random.SeedSequence([salt, seed, i]).generate_state(1)[0])


def pure(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def haar_pure(rng: np.random.Generator) -> np.ndarray:
    return pure(rng.standard_normal(2) + 1j * rng.standard_normal(2))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def trine_kraus(weak: bool = False) -> list[np.ndarray]:
    """sqrt(2/3)|t_k><t_k|, or the full-rank weak trine with cos/sin(pi/8) weights."""
    ops = []
    for k in range(3):
        theta = 2.0 * math.pi * k / 3.0
        t = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=np.complex128)
        t_perp = np.array([-math.sin(theta / 2), math.cos(theta / 2)], dtype=np.complex128)
        m = np.outer(t, t.conj())
        if weak:
            m = math.cos(math.pi / 8) * m + math.sin(math.pi / 8) * np.outer(t_perp, t_perp.conj())
        ops.append(math.sqrt(2.0 / 3.0) * m)
    return ops


def protocol_meta(steps, leaf_labels, counts: dict, backend: str, shots: int) -> dict:
    """Shots, steps visited and ancilla-circuit keys of one ``sample_protocol`` call.

    ``steps`` is a list of (p, q); leaf k < len(steps) is reached after k + 1
    steps, the final leaf after all of them.
    """
    n_steps = len(steps)
    visited = sum(counts.get(label, 0) * min(k + 1, n_steps) for k, label in enumerate(leaf_labels))
    keys = []
    if backend.startswith("ancilla"):
        variant = backend.split("-", 1)[1]
        keys = [[variant, p, q] for p, q in steps]
    return {"backend": backend, "shots": shots, "steps_visited": visited,
            "protocol_steps": n_steps * shots, "ancilla_keys": keys}


def steps_of(proto) -> list[tuple[float, float]]:
    return [(s.params.p, s.params.q) for s in proto.steps]


def walk_meta(pq, durations, dt: float) -> dict:
    steps = np.rint(np.asarray(durations, dtype=float) / dt)
    return {"pq": list(pq), "trajectories": len(steps), "steps": float(steps.sum()),
            "max_steps": float(steps.max(initial=0.0))}


def sample_checks(counts, means, refs, shots) -> list[str]:
    probs, states = refs
    return checks.check_histogram(counts, probs, shots) + checks.check_mean_states(means, counts, states)


class TrineShots:
    """1,000-shot ``sample_protocol`` calls on the trine, cycling 4 backends x 4 states."""

    shots = 1000
    setup_n = 3
    mix = {f"{b}/{s}": 1 / 16 for b in BACKENDS for s in range(4)}
    tail_q = 0.9

    def __init__(self, seed: int):
        self.seed = seed
        self.ks = dec.kraus_set(trine_kraus(), ("a", "b", "c"))
        self.proto = dec.reduce(self.ks)
        self.steps = steps_of(self.proto)
        tilted = [math.cos(math.pi / 8), np.exp(1j * math.pi / 5) * math.sin(math.pi / 8)]
        self.states = [np.eye(2, dtype=np.complex128) / 2, pure([1, 0]), pure([1, 1]), pure(tilted)]
        self.refs = [checks.leaf_references(self.ks.ops, self.ks.labels, r) for r in self.states]

    def run_op(self, i: int, salt: int = 0) -> dict:
        backend = BACKENDS[i % 4]
        s = (i // 4) % 4
        seed = derive_seed(self.seed, i, salt)
        with timed() as t:
            counts, means = dec.sample_protocol(self.proto, self.states[s], self.shots, seed, backend)
        return {
            "cls": f"{backend}/{s}", "s": t.s, "span": t.span, "shots": self.shots, "shot_s": t.s,
            "fails": sample_checks(counts, means, self.refs[s], self.shots),
            "sample": protocol_meta(self.steps, self.proto.leaf_labels, counts, backend, self.shots),
        }


class ReadoutWalk:
    """1,000-trajectory ``simulate_batch`` calls over a fixed grid; every sixth op is
    a 200-shot continuous-backend ``sample_protocol`` call on the weak trine."""

    trajectories = 1000
    shots = 200
    setup_n = 3
    # One op class per cell of the cycle: the twelve (p, q) x readout x state
    # walks, each 5/72 of the ops, and the continuous-backend samples of the
    # three states, 1/18 each. The cells differ in cost by up to 15% within
    # a (p, q) setting, so classes that spanned them would let the point in
    # the cycle where a run stops move the quantiles.
    mix = {**{f"walk/{k}": 5 / 72 for k in range(12)}, **{f"continuous/{s}": 1 / 18 for s in range(3)}}
    tail_q = 0.75
    grid_pq = ((0.8, 0.6), (0.99, 0.98))
    grid_readout = ((0.0, 1.0), (math.pi / 4, 0.7))

    def __init__(self, seed: int):
        self.seed = seed
        self.states = [pure([1, 0]), pure([0, 1]), pure([1, 1])]
        self.thresholds = {
            pq: cr.thresholds_from_pq(PartialProjParams(*pq)) for pq in self.grid_pq
        }
        self.weak = dec.kraus_set(trine_kraus(weak=True), ("a", "b", "c"))
        self.weak_proto = dec.reduce(self.weak)
        self.weak_steps = steps_of(self.weak_proto)
        self.weak_refs = [checks.leaf_references(self.weak.ops, self.weak.labels, r) for r in self.states]
        self.weak_config = cr.ReadoutConfig(tau_min=1.0, seed=0)

    def run_op(self, i: int, salt: int = 0) -> dict:
        seed = derive_seed(self.seed, i, salt)
        if i % 6 == 5:
            s = (i // 6) % 3
            with timed() as t:
                counts, means = dec.sample_protocol(
                    self.weak_proto, self.states[s], self.shots, seed, "continuous", self.weak_config
                )
            return {
                "cls": f"continuous/{s}", "s": t.s, "span": t.span, "shots": self.shots, "shot_s": t.s,
                "fails": sample_checks(counts, means, self.weak_refs[s], self.shots),
                "sample": protocol_meta(self.weak_steps, self.weak_proto.leaf_labels, counts, "continuous", self.shots),
            }
        j = i - (i + 1) // 6
        pq = self.grid_pq[j % 2]
        alpha, eta = self.grid_readout[(j // 2) % 2]
        rho = self.states[(j // 4) % 3]
        config = cr.ReadoutConfig(tau_min=1.0, seed=seed, alpha=alpha, efficiency=eta)
        with timed() as t:
            records = cr.simulate_batch(config, self.thresholds[pq], rho, self.trajectories)
        p, q = pq
        fails = checks.check_walk(
            [r.outcome for r in records], [r.final_R for r in records],
            [r.final_state for r in records], rho, p, q,
            0.5 * math.log(p / (1.0 - q)), -0.5 * math.log(q / (1.0 - p)), alpha, eta,
        )
        return {
            "cls": f"walk/{j % 12}", "s": t.s, "span": t.span, "trajectories": len(records), "traj_s": t.s,
            "fails": fails,
            "walk": walk_meta(pq, [r.duration for r in records], config.dt),
        }


class SynthScore:
    """One seeded random Kraus set (n = 2..6) taken through JSON, reduce, a 64-shot
    ancilla sample and fidelity scoring."""

    shots = 64
    avg_samples = 100
    mix = {f"n{n}": 1 / 5 for n in range(2, 7)}
    tail_q = 0.95

    def __init__(self, seed: int):
        self.seed = seed

    def run_op(self, i: int, salt: int = 0) -> dict:
        rng = np.random.default_rng([salt, self.seed, i])
        n = 2 + i % 5
        ks = dec.random_kraus_set(n, rng)
        rho = haar_pure(rng)
        backend = "ancilla-" + ANCILLA_VARIANTS[i % 3]
        spec = ch.NoiseSpec(NOISE_KINDS[i % 4], float(rng.uniform(0.0, 0.2)), int(rng.integers(2**31)))
        u = haar_unitary(rng)
        sample_seed, avg_seed = (int(x) for x in rng.integers(2**31, size=2))

        with timed() as op:
            ks2 = ser.kraus_set_from_json(ser.kraus_set_to_json(ks))
            proto = dec.reduce(ks2)
            proto2 = dec.protocol_from_json(dec.protocol_to_json(proto))
            with timed() as smp:
                counts, means = dec.sample_protocol(proto2, rho, self.shots, sample_seed, backend)
            branches = {label: dec.compose_branch(proto2, label) for label in ks.labels}
            actual = fid.ProcessSet(
                outcomes=tuple((label, ch.noisy_branch(b, spec)) for label, b in branches.items())
            )
            report = fid.fidelity_report(actual, fid.process_set_from_kraus(ks.ops, ks.labels))
            chi = ch.noisy_branch(u, spec)
            chi_u = fid.chi_from_kraus([u], 2)
            avg = fid.average_state_fidelity(chi, chi_u, samples=self.avg_samples, seed=avg_seed)

        fails = (
            checks.check_kraus_round_trip(ks, ks2)
            + checks.check_protocol_round_trip(proto, proto2)
            + sample_checks(counts, means, checks.leaf_references(ks.ops, ks.labels, rho), self.shots)
            + checks.check_branches(branches, ks.ops, ks.labels)
            + checks.check_report(report)
            + checks.check_linear_law(avg, chi.chi, chi_u.chi)
        )
        return {
            "cls": f"n{n}", "s": op.s, "span": op.span, "shots": self.shots, "shot_s": smp.s, "sets": 1, "n": n,
            "fails": fails,
            "sample": protocol_meta(steps_of(proto2), proto2.leaf_labels, counts, backend, self.shots),
        }


class CliPipeline:
    """``python -m genmeas.cli`` synth -> simulate -> trajectory -> fidelity, one
    subprocess at a time, on files written during set-up.

    Set-up writes ``n_sets`` seeded 4-outcome sets, each with its state and
    noisy process set, and the pipelines cycle over them, so a run's medians
    span several random sets rather than hinge on one.
    """

    stages = ("synth", "simulate", "trajectory", "fidelity")
    shots = 2000
    n_sets = 8
    mix = dict.fromkeys([f"set{k}" for k in range(n_sets)], 1 / n_sets)
    # Seven to twelve pipelines fit in a run, too few to leave ten above
    # any percentile over the median; p75 still shows a slow minority.
    tail_q = 0.75
    trajectories = 1000
    traj_pq = (0.8, 0.6)
    traj_dt = 0.01  # tau_min / 100 with the CLI's default tau of 1
    setup_n = 4

    def __init__(self, seed: int, tracer: tr.Tracer | None = None):
        self.seed = seed
        self.tracer = tracer
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        self.sets = []  # (labels, leaf references) of each set
        for k in range(self.n_sets):
            rng = np.random.default_rng([seed, 4, k])
            ks = dec.random_kraus_set(4, rng, labels=("a", "b", "c", "d"))
            rho = haar_pure(rng)
            self.sets.append((ks.labels, checks.leaf_references(ks.ops, ks.labels, rho)))
            spec = ch.NoiseSpec("depolarizing", float(rng.uniform(0.0, 0.2)))
            actual = fid.ProcessSet(
                outcomes=tuple((lab, ch.noisy_branch(m, spec)) for lab, m in zip(ks.labels, ks.ops))
            )
            ideal = fid.process_set_from_kraus(ks.ops, ks.labels)
            files = {
                f"kraus{k}.json": ser.kraus_set_to_json(ks),
                f"state{k}.json": json.dumps(ser.matrix_to_json(rho)),
                f"actual{k}.json": fid.process_set_to_json(actual),
                f"ideal{k}.json": fid.process_set_to_json(ideal),
            }
            for name, text in files.items():
                (self.dir / name).write_text(text)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _argv(self, stage: str, seed: int, k: int) -> list[str]:
        return {
            "synth": ["synth", f"kraus{k}.json", "--output", "proto.json"],
            "simulate": ["simulate", "proto.json", "--backend", "exact", "--shots", str(self.shots),
                         "--seed", str(seed), "--state", f"state{k}.json", "--no-timestamp",
                         "--output", "sim.json"],
            "trajectory": ["trajectory", "--p", str(self.traj_pq[0]), "--q", str(self.traj_pq[1]),
                           "--shots", str(self.trajectories), "--seed", str(seed),
                           "--state", "plus", "--output", "traj.jsonl"],
            "fidelity": ["fidelity", f"actual{k}.json", f"ideal{k}.json", "--mode", "process",
                         "--no-timestamp", "--output", "fid.json"],
        }[stage]

    def run_op(self, i: int, salt: int = 0) -> dict:
        seed = derive_seed(self.seed, i, salt) % 2**31
        k = i % self.n_sets
        cls = f"set{k}"
        outputs = {"synth": "proto.json", "simulate": "sim.json",
                   "trajectory": "traj.jsonl", "fidelity": "fid.json"}
        for name in outputs.values():
            (self.dir / name).unlink(missing_ok=True)
        stage_s, stage_spans, stage_bytes, fails, procs = {}, {}, {}, [], {}
        start = time.monotonic()
        for stage in self.stages:
            if self.tracer is not None:
                spans = self.dir / f"spans-{stage}.npz"
                cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(spans)]
            else:
                cmd = [sys.executable, "-m", "genmeas.cli"]
            with timed() as t:
                proc = subprocess.run(cmd + self._argv(stage, seed, k), cwd=self.dir, capture_output=True,
                                      text=True, timeout=120)
            stage_s[stage], stage_spans[stage] = t.s, t.span
            procs[stage] = proc
            if proc.returncode != 0:
                break
        elapsed = sum(stage_s.values())
        span = (start, time.monotonic())

        for stage, proc in procs.items():
            fails += checks.check_exit(stage, proc.returncode, proc.stderr)
            out = self.dir / outputs[stage]
            stage_bytes[stage] = len(proc.stdout.encode()) + (out.stat().st_size if out.exists() else 0)
            spans = self.dir / f"spans-{stage}.npz"
            if self.tracer is not None and spans.exists():
                self.tracer.extend(tr.load(spans), self.tracer.op_id)
                spans.unlink()
        if len(procs) < len(self.stages) or fails:
            return {"cls": cls, "s": elapsed, "span": span, "fails": fails or ["pipeline stopped early"],
                    "cli_s": stage_s, "cli_spans": stage_spans}

        labels, refs = self.sets[k]
        fails += checks.check_synth_stdout(procs["synth"].stdout, labels)
        sim = json.loads((self.dir / "sim.json").read_text())
        counts = {k: int(v) for k, v in sim["histogram"].items()}
        means = {k: ser.matrix_from_json(v) for k, v in sim.get("mean_final_states", {}).items()}
        fails += sample_checks(counts, means, refs, self.shots)
        lines = [json.loads(x) for x in (self.dir / "traj.jsonl").read_text().splitlines() if x.strip()]
        p, q = self.traj_pq
        fails += checks.check_jsonl_outcomes(lines, self.trajectories, 0.5 * p + 0.5 * (1.0 - q))
        fails += checks.check_report(json.loads((self.dir / "fid.json").read_text()))
        proto = json.loads((self.dir / "proto.json").read_text())
        steps = [(s["p"], s["q"]) for s in proto["steps"]]
        return {
            "cls": cls, "s": elapsed, "span": span, "shots": self.shots, "shot_s": stage_s["simulate"],
            "trajectories": len(lines), "traj_s": stage_s["trajectory"], "sets": 1, "n": 4,
            "fails": fails, "cli_s": stage_s, "cli_spans": stage_spans, "cli_bytes": stage_bytes,
            "sample": protocol_meta(steps, proto["leaf_labels"], counts, "exact", self.shots),
            "walk": walk_meta(self.traj_pq, [rec["duration"] for rec in lines], self.traj_dt),
            "jsonl_trajectories": len(lines),
        }


WORKLOADS = {
    "trine_shots": TrineShots,
    "readout_walk": ReadoutWalk,
    "synth_score": SynthScore,
    "cli_pipeline": CliPipeline,
}

