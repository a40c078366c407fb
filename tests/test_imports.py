"""What ``import genmeas`` and each CLI command load.

The package resolves its public names on first use (PEP 562), and each
``cmd_*`` imports only the modules it runs, so a one-shot command compiles
no module it does not need. These tests pin both: a stray top-level import
shows up as an extra module here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genmeas
from genmeas.decomposition import kraus_set
from genmeas.fidelity import process_set_from_kraus, process_set_to_json
from genmeas.partial_projection import PartialProjParams, dops
from genmeas.serialize import kraus_set_to_json, matrix_to_json

# The public names of the package, by the submodule that defines them.
PUBLIC = {
    "ancilla_circuit": (
        "Gate", "TwoQubitCircuit", "angles_from_pq", "build_circuit", "circuit_from_pq",
        "gate_matrix", "kraus_from_circuit", "pq_from_angles",
    ),
    "channels": ("NoiseSpec", "noise_kraus", "noisy_branch"),
    "continuous_readout": (
        "ReadoutConfig", "Thresholds", "TrajectoryBatch", "measurement_operator",
        "pq_from_thresholds", "simulate_batch", "thresholds_from_pq",
    ),
    "decomposition": (
        "KrausSet", "MeasurementProtocol", "TwoOutcomeStep", "compose_branch", "kraus_set",
        "random_kraus_set", "reduce", "sample_protocol", "validate_kraus_set",
    ),
    "fidelity": (
        "ProcessMatrix", "ProcessSet", "apply_process", "average_state_fidelity",
        "chi_from_kraus", "classical_fidelity", "fidelity_report", "partial_fidelity",
        "povm_fidelity", "process_fidelity", "process_set_from_kraus",
        "state_fidelity", "total_fidelity",
    ),
    "partial_projection": (
        "PartialProjParams", "apply_outcome", "dops", "outcome_probabilities", "pure_state",
        "strength",
    ),
}

# Every command loads the package, the CLI and what _parse_state, _emit and main use.
BASE = {"genmeas", "genmeas.cli", "genmeas.errors", "genmeas.partial_projection",
        "genmeas.serialize"}
DECOMPOSITION = {"genmeas.decomposition", "genmeas.linalg"}
# The synth -> simulate -> trajectory -> fidelity chain never loads channels or
# ancilla_circuit, and trajectory and fidelity never load decomposition.
LOADED = {
    "synth": DECOMPOSITION,
    "simulate-exact": DECOMPOSITION,
    "simulate-ancilla-direct": DECOMPOSITION | {"genmeas.ancilla_circuit"},
    "simulate-continuous": DECOMPOSITION | {"genmeas.continuous_readout"},
    "trajectory": {"genmeas.continuous_readout"},
    "circuit": {"genmeas.ancilla_circuit"},
    "fidelity-process": {"genmeas.fidelity", "genmeas.linalg"},
    "fidelity-povm": {"genmeas.fidelity", "genmeas.linalg"},
}

# Runs CLI_ARGS in this interpreter, then writes the loaded genmeas modules to MODULES_FILE.
RUNNER = """
import json, sys
from genmeas.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    json.dump(sorted(m for m in sys.modules if m == "genmeas" or m.startswith("genmeas.")), f)
sys.exit(code)
"""


def _loaded_in_fresh_interpreter(code: str, argv: list[str], cwd: Path) -> set[str]:
    src = str(Path(genmeas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = cwd / "modules.json"
    proc = subprocess.run([sys.executable, "-c", code, str(out), *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(out.read_text()))


def _argv(case: str) -> list[str]:
    if case == "synth":
        return ["synth", "kraus.json", "--output", "out.json"]
    if case.startswith("simulate-"):
        return ["simulate", "proto.json", "--backend", case.split("-", 1)[1], "--shots", "5",
                "--output", "out.json"]
    if case == "trajectory":
        return ["trajectory", "--p", "0.8", "--q", "0.6", "--shots", "5", "--output", "out.json"]
    if case == "circuit":
        return ["circuit", "--p", "0.8", "--q", "0.6", "--output", "out.json"]
    mode = case.split("-", 1)[1]
    return ["fidelity", f"{mode}.json", f"{mode}.json", "--mode", mode, "--output", "out.json"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A weak two-outcome measurement as a Kraus set, its protocol, process set and POVM."""
    path = tmp_path_factory.mktemp("cli-inputs")
    ops = dops(PartialProjParams(0.8, 0.6))
    (path / "kraus.json").write_text(kraus_set_to_json(kraus_set(ops, ("0", "1"))))
    (path / "process.json").write_text(process_set_to_json(process_set_from_kraus(ops, ("0", "1"))))
    elements = [{"label": lab, "matrix": matrix_to_json(m.conj().T @ m)}
                for lab, m in zip(("0", "1"), ops)]
    (path / "povm.json").write_text(json.dumps({"format_version": "1.0", "elements": elements}))
    from genmeas.cli import main

    assert main(["synth", str(path / "kraus.json"), "--output", str(path / "proto.json")]) == 0
    return path


@pytest.mark.parametrize("case", sorted(LOADED))
def test_command_loads_only_its_modules(case, inputs):
    assert _loaded_in_fresh_interpreter(RUNNER, _argv(case), inputs) == BASE | LOADED[case]


def test_bare_import_loads_no_submodule(tmp_path):
    code = ("import json, sys, genmeas\n"
            "json.dump([m for m in sys.modules if m.startswith('genmeas')], open(sys.argv[1], 'w'))")
    assert _loaded_in_fresh_interpreter(code, [], tmp_path) == {"genmeas"}


def test_lazy_namespace_resolves_every_public_name():
    names = [name for group in PUBLIC.values() for name in group]
    assert sorted(genmeas.__all__) == sorted(names)
    star = {}
    exec("from genmeas import *", star)
    listed = dir(genmeas)
    for module, group in PUBLIC.items():
        home = importlib.import_module(f"genmeas.{module}")
        for name in group:
            assert name in listed
            assert getattr(genmeas, name) is getattr(home, name)
            assert star[name] is getattr(home, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        genmeas.no_such_name
    assert not hasattr(genmeas, "_private")
    # A submodule name is not a lazy attribute: the import system loads it.
    from genmeas import channels

    assert channels is sys.modules["genmeas.channels"]
