"""Single-field mutations of every document the command line reads.

Each mutation takes a valid document and sets one of its nodes to a wrong
type, null, NaN or an out-of-range number, or deletes one key. Whatever the
document, ``main`` must return (never raise) one of the documented exit
codes, and a failure must print exactly one ``error:`` line. The values
marked "never valid" fit no node of a Kraus set, protocol or state
document, so those mutations must fail; the process-set document carries a
redundant ``p`` per outcome and a POVM element may be any PSD matrix, so
there the mutations need only fail cleanly.

The numeric readout flags of ``trajectory`` and ``simulate --backend
continuous`` are swept the same way, one flag at a time: besides the exit
code and the single ``error:`` line, nothing may warn, and a run that
succeeds may print no nan or inf.

Every option of every command is swept too: each must change the output
for some value or make the command exit 2, so no flag is accepted and
then ignored.
"""

import argparse
import copy
import itertools
import json
import math
import re
import warnings
from datetime import datetime

import numpy as np
import pytest

from genmeas import cli
from genmeas.cli import build_parser, main
from genmeas.decomposition import kraus_set, protocol_to_json, random_kraus_set, reduce
from genmeas.fidelity import process_set_from_kraus, process_set_to_json
from genmeas.serialize import kraus_set_to_json, matrix_to_json

from test_cli import HADAMARD_OPS, trine_ops

LABELS = ("a", "b", "c")
DELETE = object()
# (value, never valid)
BAD_VALUES = (
    (None, True), (math.nan, True), ([], True), (5, True), (-1.5, True),
    ("x", False), (True, False),
)
EXIT_CODES = {0, 2, 3, 4, 5}
READOUT_FLAGS = {
    "trajectory": ("--tau", "--dt", "--alpha", "--efficiency", "--r0", "--r1"),
    "simulate": ("--tau", "--dt", "--alpha", "--efficiency"),
}
READOUT_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-300")


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutations(doc):
    """(path, value, never valid, mutated document) for every single-field mutation."""
    for path in _paths(doc):
        for value, never_valid in BAD_VALUES:
            yield path, value, never_valid, _mutated(doc, path, value)
        if path and isinstance(_parent(doc, path), dict):
            yield path, DELETE, False, _mutated(doc, path, DELETE)


def _documents():
    ops = trine_ops()
    povm = [m.conj().T @ m for m in ops]
    return {
        "kraus": json.loads(kraus_set_to_json(kraus_set(ops, LABELS))),
        "protocol": json.loads(protocol_to_json(reduce(kraus_set(ops, LABELS)))),
        "process": json.loads(process_set_to_json(process_set_from_kraus(ops, LABELS))),
        "state": matrix_to_json(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])),
        "povm": {"elements": [
            {"label": label, "matrix": matrix_to_json(e)} for label, e in zip(LABELS, povm)
        ]},
    }


STRICT = ("kraus", "protocol", "state")


@pytest.mark.parametrize("name", ["kraus", "protocol", "process", "state", "povm"])
def test_every_mutation_exits_cleanly(name, tmp_path, capsys):
    docs = _documents()
    fixed = {}
    for other in ("protocol", "process", "povm"):
        fixed[other] = tmp_path / f"{other}.json"
        fixed[other].write_text(json.dumps(docs[other]))
    path = tmp_path / "mutated.json"
    args = {
        "kraus": ["synth", str(path)],
        "protocol": ["simulate", str(path), "--shots", "20"],
        "state": ["simulate", str(fixed["protocol"]), "--state", str(path), "--shots", "20"],
        "process": ["fidelity", str(path), str(fixed["process"])],
        "povm": ["fidelity", str(path), str(fixed["povm"]), "--mode", "povm"],
    }[name]
    path.write_text(json.dumps(docs[name]))
    assert main(args) == 0
    capsys.readouterr()
    count = 0
    for where, value, never_valid, doc in mutations(docs[name]):
        path.write_text(json.dumps(doc))
        code = main(args)
        err = capsys.readouterr().err
        what = f"{name} {where} = {'deleted' if value is DELETE else value!r}"
        assert code in EXIT_CODES, what
        if code:
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1, what
        if never_valid and name in STRICT:
            assert code != 0, what
        count += 1
    assert count > 100


@pytest.mark.parametrize("command", ["trajectory", "simulate"])
def test_every_readout_flag_value_exits_cleanly(command, tmp_path, capsys):
    proto = tmp_path / "weak.json"
    proto.write_text(protocol_to_json(reduce(kraus_set(HADAMARD_OPS))))
    base = {
        "trajectory": ["trajectory", "--r0", "0.4", "--r1=-0.5"],
        "simulate": ["simulate", str(proto), "--backend", "continuous", "--no-timestamp"],
    }[command]
    codes = set()
    for flag, value in itertools.product(READOUT_FLAGS[command], READOUT_VALUES):
        what = f"{command} {flag}={value}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*base, f"{flag}={value}", "--shots", "20"])
        out, err = capsys.readouterr()
        assert code in EXIT_CODES, what
        assert not caught, (what, [str(w.message) for w in caught])
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, what
        else:
            assert out and not re.search("nan|inf", out + err, re.IGNORECASE), what
        codes.add(code)
    assert codes == {0, 2, 4}


# Values tried for an option that takes one; argparse refusing a value (its own
# exit 2, before the command runs) does not count as the command reading it.
OPTION_VALUES = ("0", "1", "0.5", "-1", "plus", "1,0,2")


class _FixedDatetime:
    """``genmeas.cli.datetime`` with one fixed ``now``: a stamped report repeats."""

    @staticmethod
    def now(tz=None):
        return datetime(2000, 1, 1, tzinfo=tz)


def _options():
    """(command, option) for every option of every subcommand but ``--help``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                yield command, action


def test_every_option_is_read_or_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "datetime", _FixedDatetime)
    ks = random_kraus_set(3, np.random.default_rng(5), labels=LABELS)
    (tmp_path / "kraus.json").write_text(kraus_set_to_json(ks))
    (tmp_path / "proto.json").write_text(protocol_to_json(reduce(kraus_set(HADAMARD_OPS))))
    (tmp_path / "process.json").write_text(process_set_to_json(process_set_from_kraus(ks.ops, LABELS)))
    base = {
        "synth": ["synth", "kraus.json"],
        "simulate": ["simulate", "proto.json", "--shots", "20"],
        "trajectory": ["trajectory", "--p", "0.8", "--q", "0.6", "--shots", "20"],
        "circuit": ["circuit", "--p", "0.8", "--q", "0.6"],
        "fidelity": ["fidelity", "process.json", "process.json"],
    }

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    reference = {command: run(argv) for command, argv in base.items()}
    assert all(r[0] == 0 for r in reference.values()), reference
    ignored, count = [], 0
    for command, action in _options():
        flag = action.option_strings[-1]
        values = [[]] if action.nargs == 0 else [[v] for v in action.choices or OPTION_VALUES]
        for value in values:
            try:
                got = run([*base[command], flag, *value])
            except SystemExit:
                capsys.readouterr()
                continue
            if got[0] == 2 or got != reference[command]:
                break
        else:
            ignored.append(f"{command} {flag}")
        count += 1
    assert not ignored, ignored
    assert count >= 30
