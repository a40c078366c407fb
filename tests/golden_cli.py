"""CLI outputs pinned in ``tests/golden/cli.json``.

Each case runs one command through ``genmeas.cli.main`` in-process and records
its exit code, its output document and any lines it prints to stdout:
- ``synth`` on the trine and on a seeded random 4-outcome set (also with
  ``--order`` and ``--cancel-u1``): the protocol document and the per-leaf
  deviation lines, each kept as its text and its number;
- ``simulate --no-timestamp`` from |+> on all five backends, 2,000 shots at
  seed 7, for the trine protocol (projective: ``continuous`` exits 4) and a weak
  two-outcome protocol (finite thresholds), and ``continuous`` on the weak one
  at alpha 0.3 and efficiency 0.7;
- ``circuit --p 0.8 --q 0.6`` for each variant;
- ``trajectory --p 0.8 --q 0.6`` at alpha in {0, 1.2} and efficiency in {1, 0.7},
  50 runs at seed 7, one record per JSON line;
- ``fidelity --mode process`` on a seeded noisy/ideal pair of process sets, in
  both orders (a rank-1 ideal takes F9's trace formula, a noisy one its Uhlmann
  route), and ``fidelity --mode povm`` on the same pair's POVMs, each with
  ``--no-timestamp``.

The noisy side composes a seeded unitary jitter before and depolarizing noise
after each operator of a seeded random 3-outcome Kraus set, so its POVM moves
too. ``tests/test_golden.py`` compares a fresh run against the file: integers,
labels and structure exactly, floats within 1e-12. Regenerate it, from the
repository root, with

    PYTHONPATH=src python tests/golden_cli.py

The trajectories and the shots come from numpy ``Generator`` streams, which numpy does not
promise to keep across feature releases (NEP 19), so the file records the
numpy version it was made with.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from genmeas import cli
from genmeas.channels import NoiseSpec, depolarizing_kraus, noise_kraus
from genmeas.decomposition import kraus_set, protocol_to_json, random_kraus_set, reduce
from genmeas.fidelity import ProcessSet, chi_from_kraus, process_set_from_kraus, process_set_to_json
from genmeas.serialize import dump, kraus_set_to_json, matrix_to_json
from golden_sampling import trine

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
SEED, RUNS, SHOTS = 7, 50, 2_000
BACKENDS = ("exact", "ancilla-direct", "ancilla-cphase", "ancilla-fixed_cz", "continuous")
# A weak two-outcome set, H diag(sqrt(0.8), sqrt(0.4)) and H diag(sqrt(0.2), sqrt(0.6)):
# its one step has finite thresholds, so the continuous backend runs it.
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
WEAK = kraus_set([_H @ np.diag(np.sqrt(d)) for d in ((0.8, 0.4), (0.2, 0.6))])


def _input_files(tmp: Path) -> None:
    """Write the Kraus sets and protocols of ``synth`` and ``simulate`` into ``tmp``."""
    sets = {"trine": trine(), "set4": random_kraus_set(4, np.random.default_rng(SEED)), "weak": WEAK}
    for name, s in sets.items():
        (tmp / f"{name}.json").write_text(kraus_set_to_json(s))
        (tmp / f"{name}_protocol.json").write_text(protocol_to_json(reduce(s)))


def _pair_files(tmp: Path) -> None:
    """Write the noisy/ideal pair as process sets and as POVMs into ``tmp``."""
    ks = random_kraus_set(3, np.random.default_rng(SEED))
    (jitter,) = noise_kraus(NoiseSpec("unitary_jitter", 0.5, seed=5))  # a 0.40 rad rotation
    noise = np.stack(depolarizing_kraus(0.1))
    noisy_ops = [m @ jitter for m in ks.ops]
    noisy = ProcessSet(outcomes=tuple((label, chi_from_kraus(noise @ m))
                                      for label, m in zip(ks.labels, noisy_ops)))
    sets = {"noisy": noisy, "ideal": process_set_from_kraus(ks.ops, ks.labels)}
    for name, ps in sets.items():
        (tmp / f"{name}.json").write_text(process_set_to_json(ps))
    for name, ops in (("noisy", noisy_ops), ("ideal", ks.ops)):
        elements = [{"label": label, "matrix": matrix_to_json(m.conj().T @ m)}
                    for label, m in zip(ks.labels, ops)]
        (tmp / f"{name}_povm.json").write_text(dump({"format_version": "1.0", "elements": elements}))


def commands() -> dict:
    """Every case's argv, keyed by case name; file arguments are names in one directory."""
    cases = {}
    for alpha, eta in itertools.product(("0", "1.2"), ("1", "0.7")):
        cases[f"trajectory/alpha={alpha}/efficiency={eta}"] = [
            "trajectory", "--p", "0.8", "--q", "0.6", "--alpha", alpha, "--efficiency", eta,
            "--shots", str(RUNS), "--seed", str(SEED)]
    for actual, ideal in (("noisy", "ideal"), ("ideal", "noisy")):
        cases[f"fidelity/process/{actual}-vs-{ideal}"] = [
            "fidelity", f"{actual}.json", f"{ideal}.json", "--mode", "process", "--no-timestamp"]
    cases["fidelity/povm/noisy-vs-ideal"] = [
        "fidelity", "noisy_povm.json", "ideal_povm.json", "--mode", "povm", "--no-timestamp"]
    cases["synth/trine"] = ["synth", "trine.json"]
    cases["synth/set4"] = ["synth", "set4.json"]
    cases["synth/set4/order=3,1,0,2/cancel-u1"] = [
        "synth", "set4.json", "--order", "3,1,0,2", "--cancel-u1"]
    sim = ["--state", "plus", "--shots", str(SHOTS), "--seed", str(SEED), "--no-timestamp"]
    for name, backend in itertools.product(("trine", "weak"), BACKENDS):
        cases[f"simulate/{name}/{backend}"] = [
            "simulate", f"{name}_protocol.json", "--backend", backend, *sim]
    cases["simulate/weak/continuous/alpha=0.3/efficiency=0.7"] = [
        "simulate", "weak_protocol.json", "--backend", "continuous", "--alpha", "0.3",
        "--efficiency", "0.7", *sim]
    for variant in ("direct", "cphase", "fixed_cz"):
        cases[f"circuit/{variant}"] = ["circuit", "--p", "0.8", "--q", "0.6", "--variant", variant]
    return cases


def run_cases() -> dict:
    """{"argv", "exit", "output"} of every case, in a fixed order, plus "stdout" where
    the command prints. ``output`` is the parsed document, or the list of parsed
    lines for JSON-lines output; each stdout line is kept as [text, number], split
    at its last space, so its number compares as a float."""
    out = {}
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        _input_files(tmp)
        _pair_files(tmp)
        for key, argv in commands().items():
            dest = tmp / "out.json"
            args = [str(tmp / a) if a.endswith(".json") else a for a in argv]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*args, "--output", str(dest)])
            text = dest.read_text() if dest.exists() else "null"
            doc = ([json.loads(line) for line in text.splitlines()] if argv[0] == "trajectory"
                   else json.loads(text))
            out[key] = {"argv": argv, "exit": code, "output": doc}
            lines = [line.rpartition(" ") for line in stdout.getvalue().splitlines()]
            if lines:
                out[key]["stdout"] = [[head, float(number)] for head, _, number in lines]
            dest.unlink(missing_ok=True)
    return out


def main():
    head = {"numpy": np.__version__, "seed": SEED, "runs": RUNS, "shots": SHOTS}
    cases = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in run_cases().items())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(head)[:-1] + ', "cases": {\n' + cases + "\n}}\n")


if __name__ == "__main__":
    main()
