"""Every JSON document writer goes through ``serialize.dump``.

A document is laid out with one top-level key per line and each value
compact on its line, so the values are encoded by CPython's C encoder; the
readers (``json.loads``) are unchanged.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import genmeas
from genmeas.ancilla_circuit import VARIANTS, circuit_from_pq, circuit_to_json
from genmeas.channels import NoiseSpec, noisy_branch
from genmeas.cli import main
from genmeas.decomposition import kraus_set, protocol_to_json, random_kraus_set, reduce
from genmeas.fidelity import ProcessSet, process_set_from_kraus, process_set_to_json
from genmeas.partial_projection import PartialProjParams
from genmeas.serialize import dump, kraus_set_to_json

SRC = Path(genmeas.__file__).parent


def indented_dumps_calls(path: Path) -> list[str]:
    """``file:line`` of each ``dumps(...)`` call with an ``indent`` keyword."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "dumps" and any(k.arg == "indent" for k in node.keywords):
            sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_no_indented_json_dumps_in_package():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    sites = [site for path in sources for site in indented_dumps_calls(path)]
    assert sites == [], f"indented json.dumps outside serialize.dump: {sites}"


def test_indent_finder_sees_a_call(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json\njson.dumps({}, indent=2)\ndumps([], sort_keys=True, indent=None)\n")
    assert indented_dumps_calls(path) == ["probe.py:2", "probe.py:3"]


def assert_document_layout(text: str) -> dict:
    """``text`` parses, has one ``"key": value`` line per top-level key between
    ``{`` and ``}``, and ``dump`` writes the parsed document back unchanged."""
    doc = json.loads(text)
    assert isinstance(doc, dict) and doc
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "{" and lines[-1] == "}"
    assert len(lines) == len(doc) + 2
    for line, (key, value) in zip(lines[1:-1], doc.items()):
        head = f"  {json.dumps(key)}: "
        assert line.startswith(head)
        assert json.loads(line[len(head):].rstrip(",")) == value
    assert dump(doc) == text.rstrip("\n")
    return doc


def test_library_writers_layout():
    rng = np.random.default_rng(131)
    ks = random_kraus_set(4, rng, labels=("a", "b", "c", "d"))
    ps = process_set_from_kraus(ks.ops, ks.labels)
    noisy = ProcessSet(outcomes=tuple(
        (label, noisy_branch(m, NoiseSpec("depolarizing", 0.1))) for label, m in zip(ks.labels, ks.ops)
    ))
    texts = [kraus_set_to_json(ks), protocol_to_json(reduce(ks)), process_set_to_json(ps),
             process_set_to_json(noisy)]
    texts += [circuit_to_json(circuit_from_pq(v, PartialProjParams(0.8, 0.6))) for v in VARIANTS]
    for text in texts:
        doc = assert_document_layout(text)
        assert doc["format_version"] == "1.0"


@pytest.mark.parametrize("timestamp", [False, True])
def test_cli_writers_layout(tmp_path, timestamp):
    ops = [math.sqrt(2.0 / 3.0) * np.outer(v, v) for v in
           (np.array([1.0, 0.0]), np.array([0.5, math.sqrt(3) / 2]), np.array([0.5, -math.sqrt(3) / 2]))]
    ks = kraus_set(ops, ("a", "b", "c"))
    (tmp_path / "trine.json").write_text(kraus_set_to_json(ks))
    ps = tmp_path / "ps.json"
    ps.write_text(process_set_to_json(process_set_from_kraus(ks.ops, ks.labels)))
    stamp = [] if timestamp else ["--no-timestamp"]
    runs = {
        "synth": ["synth", str(tmp_path / "trine.json")],
        "simulate": ["simulate", str(tmp_path / "synth.json"), "--shots", "500", "--seed", "3", *stamp],
        "fidelity": ["fidelity", str(ps), str(ps), *stamp],
        "circuit": ["circuit", "--p", "0.8", "--q", "0.6", "--variant", "cphase"],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--output", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("}\n")
        doc = assert_document_layout(text)
        assert ("generated_at" in doc) == (timestamp and name in ("simulate", "fidelity"))
