"""CLI outputs pinned in ``tests/golden/cli.json``.

Each case runs one command through ``genmeas.cli.main`` in-process and records
its exit code and its output document:
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

The trajectories come from numpy ``Generator`` streams, which numpy does not
promise to keep across feature releases (NEP 19), so the file records the
numpy version it was made with.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np

from genmeas import cli
from genmeas.channels import NoiseSpec, depolarizing_kraus, noise_kraus
from genmeas.decomposition import random_kraus_set
from genmeas.fidelity import ProcessSet, chi_from_kraus, process_set_from_kraus, process_set_to_json
from genmeas.serialize import dump, matrix_to_json

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
SEED, RUNS = 7, 50


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
    return cases


def run_cases() -> dict:
    """{"argv", "exit", "output"} of every case, in a fixed order. ``output`` is the
    parsed document, or the list of parsed lines for JSON-lines output."""
    out = {}
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        _pair_files(tmp)
        for key, argv in commands().items():
            dest = tmp / "out.json"
            args = [str(tmp / a) if a.endswith(".json") else a for a in argv]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*args, "--output", str(dest)])
            text = dest.read_text() if dest.exists() else "null"
            doc = ([json.loads(line) for line in text.splitlines()] if argv[0] == "trajectory"
                   else json.loads(text))
            out[key] = {"argv": argv, "exit": code, "output": doc}
            dest.unlink(missing_ok=True)
    return out


def main():
    head = {"numpy": np.__version__, "seed": SEED, "runs": RUNS}
    cases = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in run_cases().items())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(head)[:-1] + ', "cases": {\n' + cases + "\n}}\n")


if __name__ == "__main__":
    main()
