import itertools
import json
import math

import numpy as np
import pytest

from genmeas import decomposition
from genmeas.channels import NoiseSpec, noisy_branch
from genmeas.cli import main
from genmeas.decomposition import (
    compose_branch,
    kraus_set,
    protocol_from_json,
    protocol_to_json,
    reduce,
)
from genmeas.fidelity import process_set_from_kraus, process_set_to_json
from genmeas.linalg import phase_distance
from genmeas.partial_projection import PartialProjParams, dops
from genmeas.serialize import kraus_set_to_json, matrix_to_json


# A weak two-outcome measurement: finite thresholds on the continuous backend.
HADAMARD_OPS = [
    np.array([[1, 1], [1, -1]]) / math.sqrt(2) @ np.diag([math.sqrt(0.8), math.sqrt(0.4)]),
    np.array([[1, 1], [1, -1]]) / math.sqrt(2) @ np.diag([math.sqrt(0.2), math.sqrt(0.6)]),
]


def trine_ops():
    ops = []
    for k in range(3):
        theta = 2 * math.pi * k / 3
        psi = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        ops.append(math.sqrt(2.0 / 3.0) * np.outer(psi, psi.conj()))
    return ops


@pytest.fixture
def trine_json(tmp_path):
    path = tmp_path / "trine.json"
    path.write_text(kraus_set_to_json(kraus_set(trine_ops(), ("a", "b", "c"))))
    return str(path)


@pytest.fixture
def trine_protocol(tmp_path, trine_json):
    out = str(tmp_path / "protocol.json")
    assert main(["synth", trine_json, "--output", out]) == 0
    return out


def test_synth_trine(trine_protocol, capsys):
    proto = protocol_from_json(open(trine_protocol).read())
    assert len(proto.steps) == 2
    for lab, m in zip(("a", "b", "c"), trine_ops()):
        assert phase_distance(m, compose_branch(proto, lab)) < 1e-9


def test_synth_projective(tmp_path):
    path = tmp_path / "proj.json"
    path.write_text(
        kraus_set_to_json(kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    )
    out = str(tmp_path / "proto.json")
    assert main(["synth", str(path), "--output", out]) == 0
    proto = protocol_from_json(open(out).read())
    assert len(proto.steps) == 1
    assert abs(proto.steps[0].params.p - 1.0) < 1e-9
    assert abs(proto.steps[0].params.q - 1.0) < 1e-9


def test_synth_incomplete_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(kraus_set_to_json(kraus_set([0.9 * np.eye(2)])))
    assert main(["synth", str(path)]) == 2
    assert "deviation" in capsys.readouterr().err


def test_simulate_trine_exact(trine_protocol, tmp_path, capsys):
    out = str(tmp_path / "stats.json")
    code = main(
        ["simulate", trine_protocol, "--shots", "6000", "--seed", "5",
         "--output", out, "--no-timestamp"]
    )
    assert code == 0
    data = json.loads(open(out).read())
    sigma = math.sqrt((1 / 3) * (2 / 3) / 6000)
    for label in ("a", "b", "c"):
        assert abs(data["histogram"][label] / 6000 - 1 / 3) < 4 * sigma
    assert data["backend"] == "exact"
    assert "generated_at" not in data


def test_simulate_zero_shots(trine_protocol, tmp_path):
    out = str(tmp_path / "empty.json")
    code = main(
        ["simulate", trine_protocol, "--shots", "0", "--output", out,
         "--no-timestamp"]
    )
    assert code == 0
    data = json.loads(open(out).read())
    assert data["histogram"] == {"a": 0, "b": 0, "c": 0}
    assert data["mean_final_states"] == {}


def test_simulate_projective_continuous_exits_4(tmp_path, capsys):
    # The leaf table is built even for zero shots, so 0 shots fails as 10 do.
    path = tmp_path / "proj.json"
    path.write_text(
        kraus_set_to_json(kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    )
    proto = str(tmp_path / "proto.json")
    assert main(["synth", str(path), "--output", proto]) == 0
    for shots in ("10", "0"):
        code = main(
            ["simulate", proto, "--backend", "continuous", "--shots", shots]
        )
        assert code == 4


def test_simulate_reproducible(trine_protocol, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert main(
            ["simulate", trine_protocol, "--shots", "500", "--seed", "9",
             "--output", out, "--no-timestamp"]
        ) == 0
    assert open(a).read() == open(b).read()


def test_trajectory_pq(tmp_path, capsys):
    out = str(tmp_path / "traj.jsonl")
    code = main(
        ["trajectory", "--p", "0.8", "--q", "0.6", "--shots", "400",
         "--seed", "3", "--output", out]
    )
    assert code == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 400
    row = json.loads(lines[0])
    assert row["outcome"] in (0, 1)
    assert "frequency" in capsys.readouterr().err


@pytest.mark.parametrize("shots", [0, 3])
@pytest.mark.parametrize("to_file", [True, False])
def test_trajectory_jsonl_has_no_blank_lines(shots, to_file, tmp_path, capsys):
    out = tmp_path / "traj.jsonl"
    argv = ["trajectory", "--p", "0.8", "--q", "0.6", "--shots", str(shots)]
    assert main(argv + (["--output", str(out)] if to_file else [])) == 0
    text = out.read_text() if to_file else capsys.readouterr().out
    assert text.endswith("\n") if shots else text == ""
    lines = text.splitlines()
    assert len(lines) == shots
    for line in lines:
        assert json.loads(line)["outcome"] in (0, 1)


def test_trajectory_of_zero_runs_prints_no_statistics(capsys):
    # No frequency or mean duration of zero runs: the count alone, and no JSONL.
    assert main(["trajectory", "--p", "0.8", "--q", "0.6", "--shots", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "0 runs\n"


def test_trajectory_requires_parameters(capsys):
    assert main(["trajectory", "--p", "0.8"]) == 2


@pytest.mark.parametrize("flags", [
    ["--p", "0.8", "--q", "0.6", "--r0", "5", "--r1", "-5"],
    ["--p", "0.8", "--r0", "0.5", "--r1", "-0.5"],
    ["--p", "0.8", "--q", "0.6", "--r1", "-0.5"],
    ["--q", "0.6", "--r0", "0.5"],
    ["--r0", "0.5"],
    [],
])
def test_trajectory_rejects_mixed_or_partial_flag_pairs(flags, tmp_path, capsys):
    # A readout is given by exactly one whole pair, --p/--q or --r0/--r1: a
    # mix of the two or a partial pair exits 2 with one error line, writing
    # nothing, rather than silently dropping flags.
    out = tmp_path / "traj.jsonl"
    assert main(["trajectory", *flags, "--shots", "10", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_trajectory_rejects_swapped_roles(capsys):
    assert main(["trajectory", "--p", "0.2", "--q", "0.3"]) == 2


BAD_READOUT = [["--shots", "-3"], ["--tau", "0"], ["--dt", "-1"], ["--efficiency", "0"]]


@pytest.mark.parametrize("bad", BAD_READOUT)
def test_trajectory_rejects_bad_settings(bad, tmp_path, capsys):
    out = str(tmp_path / "traj.jsonl")
    code = main(["trajectory", "--p", "0.8", "--q", "0.6", "--output", out, *bad])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "traj.jsonl").exists()


@pytest.mark.parametrize("bad", BAD_READOUT)
def test_simulate_continuous_rejects_bad_settings(bad, tmp_path, capsys):
    ops = [HADAMARD_OPS[0], HADAMARD_OPS[1]]
    path = tmp_path / "weak.json"
    path.write_text(kraus_set_to_json(kraus_set(ops)))
    proto = str(tmp_path / "proto.json")
    assert main(["synth", str(path), "--output", proto]) == 0
    capsys.readouterr()
    code = main(["simulate", proto, "--backend", "continuous", *bad])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("backend, flags", [
    ("exact", ["--efficiency", "0", "--tau", "-5", "--dt", "-1"]),
    ("ancilla-direct", ["--alpha", "9"]),
    ("exact", ["--efficiency", "1"]),
])
def test_simulate_refuses_readout_flags_off_continuous(backend, flags, tmp_path, capsys):
    # The readout flags are read only by the continuous backend; any other refuses
    # them, valid values included, with one error line naming each flag given.
    path = tmp_path / "weak.json"
    path.write_text(protocol_to_json(reduce(kraus_set(HADAMARD_OPS))))
    out = tmp_path / "sim.json"
    assert main(["simulate", str(path), "--backend", backend, "--shots", "10",
                 "--output", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()
    given = flags[::2]
    assert all(flag in err for flag in given) and f"not {backend}" in err, err


@pytest.mark.parametrize("shots", ["0", "5"])
@pytest.mark.parametrize("backend", ["exact", "ancilla-direct", "ancilla-cphase",
                                     "ancilla-fixed_cz", "continuous"])
def test_simulate_negative_seed_exits_2(backend, shots, tmp_path, capsys):
    # Every backend refuses the seed with one error line naming it, at any shot
    # count: no generator has to be made for the check to run.
    path = tmp_path / "weak.json"
    path.write_text(protocol_to_json(reduce(kraus_set(HADAMARD_OPS))))
    out = tmp_path / "sim.json"
    assert main(["simulate", str(path), "--backend", backend, "--shots", shots,
                 "--seed", "-1", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed ") and err.count("\n") == 1 and not out.exists(), err


def test_circuit_command(tmp_path):
    out = str(tmp_path / "circuit.json")
    code = main(
        ["circuit", "--p", "0.8", "--q", "0.6", "--variant", "cphase",
         "--output", out]
    )
    assert code == 0
    data = json.loads(open(out).read())
    assert data["variant"] == "cphase"
    assert abs(data["phi"] - 0.42243) < 5e-6
    assert data["gates"][-1]["kind"] == "MeasureAncillaZ"


def test_fidelity_identical_process_sets(tmp_path):
    ps = process_set_from_kraus(trine_ops(), ("a", "b", "c"))
    path = tmp_path / "ps.json"
    path.write_text(process_set_to_json(ps))
    out = str(tmp_path / "report.json")
    code = main(
        ["fidelity", str(path), str(path), "--output", out, "--no-timestamp"]
    )
    assert code == 0
    report = json.loads(open(out).read())
    assert abs(report["total_sum"] - 1.0) < 1e-10
    assert abs(report["povm_FpTilde"] - 1.0) < 1e-10


def test_fidelity_monotone_in_noise(tmp_path):
    from genmeas.fidelity import ProcessSet

    ops = trine_ops()
    labels = ("a", "b", "c")
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(process_set_to_json(process_set_from_kraus(ops, labels)))
    totals = []
    for lam in (0.1, 0.2):
        ps = ProcessSet(
            outcomes=tuple(
                (lab, noisy_branch(m, NoiseSpec("depolarizing", lam)))
                for lab, m in zip(labels, ops)
            )
        )
        actual_path = tmp_path / f"actual_{lam}.json"
        actual_path.write_text(process_set_to_json(ps))
        out = str(tmp_path / f"report_{lam}.json")
        code = main(
            ["fidelity", str(actual_path), str(ideal_path), "--output", out,
             "--no-timestamp"]
        )
        assert code == 0
        totals.append(json.loads(open(out).read())["total_sum"])
    assert totals[1] < totals[0] < 1.0


def test_fidelity_label_mismatch_exits_5(tmp_path, capsys):
    ops = trine_ops()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(process_set_to_json(process_set_from_kraus(ops, ("a", "b", "c"))))
    b.write_text(process_set_to_json(process_set_from_kraus(ops, ("a", "b", "z"))))
    assert main(["fidelity", str(a), str(b)]) == 5


def test_fidelity_rejects_non_psd_process_matrix(tmp_path, capsys):
    # Adding 0.2 diag(1, -1, 0, 0) to each chi keeps the traces and the POVMs:
    # only positivity is wrong, and the report would score above 1.
    ps = process_set_from_kraus(list(dops(PartialProjParams(0.8, 0.6))), ("0", "1"))
    ideal, bad = tmp_path / "ideal.json", tmp_path / "bad.json"
    ideal.write_text(process_set_to_json(ps))
    doc = json.loads(ideal.read_text())
    for o, (_, chi) in zip(doc["outcomes"], ps.outcomes):
        o["chi"] = matrix_to_json(chi.chi + 0.2 * np.diag([1.0, -1.0, 0.0, 0.0]))
    bad.write_text(json.dumps(doc))
    assert main(["fidelity", str(bad), str(ideal)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "process matrix has eigenvalue" in err


def test_fidelity_povm_mode(tmp_path):
    elements = [
        {"label": "0", "matrix": matrix_to_json(np.diag([0.8, 0.4]))},
        {"label": "1", "matrix": matrix_to_json(np.diag([0.2, 0.6]))},
    ]
    doc = json.dumps({"elements": elements})
    a = tmp_path / "a.json"
    a.write_text(doc)
    out = str(tmp_path / "report.json")
    code = main(
        ["fidelity", str(a), str(a), "--mode", "povm", "--output", out,
         "--no-timestamp"]
    )
    assert code == 0
    report = json.loads(open(out).read())
    assert abs(report["povm_Fp"] - 1.0) < 1e-10


def test_fidelity_povm_checks_format_version(tmp_path, capsys):
    elements = [{"label": "0", "matrix": matrix_to_json(np.eye(2))}]
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"format_version": "1.0", "elements": elements}))
    bad.write_text(json.dumps({"format_version": "9.0", "elements": elements}))
    for pair in ((bad, good), (good, bad)):
        assert main(["fidelity", *map(str, pair), "--mode", "povm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "9.0" in err


def test_fidelity_povm_mixed_shapes_exit_2(tmp_path, capsys):
    def doc(*mats):
        elements = [{"label": str(k), "matrix": matrix_to_json(m)} for k, m in enumerate(mats)]
        return json.dumps({"format_version": "1.0", "elements": elements})

    q2 = tmp_path / "q2.json"
    q2.write_text(doc(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    q3 = tmp_path / "q3.json"
    q3.write_text(doc(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(doc(np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 1.0])))
    # The reader takes 2 x 2 elements only, on either side.
    for pair, text in (((q2, q3), "expected a 2x2 matrix, got shape (3, 3)"),
                       ((q3, q2), "expected a 2x2 matrix, got shape (3, 3)"),
                       ((q2, mixed), "expected a 2x2 matrix, got shape (3, 3)"),
                       ((mixed, q2), "expected a 2x2 matrix, got shape (3, 3)")):
        assert main(["fidelity", *map(str, pair), "--mode", "povm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and text in err


def _process_doc(path, shift):
    """The (0.8, 0.6) partial projection's process set, ``shift`` added to chi^(0)."""
    ps = process_set_from_kraus(list(dops(PartialProjParams(0.8, 0.6))), ("0", "1"))
    doc = json.loads(process_set_to_json(ps))
    doc["outcomes"][0]["chi"] = matrix_to_json(ps.outcomes[0][1].chi + shift)
    path.write_text(json.dumps(doc))
    return str(path)


def _povm_doc(path, *mats):
    elements = [{"label": str(k), "matrix": matrix_to_json(m)} for k, m in enumerate(mats)]
    path.write_text(json.dumps({"format_version": "1.0", "elements": elements}))
    return str(path)


@pytest.mark.parametrize("case", ["non-hermitian chi", "negative element", "sum"])
def test_fidelity_psd_and_identity_checks_name_the_object(case, tmp_path, capsys):
    # One PSD rule (Frobenius Hermiticity, eigenvalue floor) and one identity check, as
    # test_fidelity_rejects_non_psd_process_matrix for a negative chi eigenvalue: a chi
    # 9e-9 from Hermitian entrywise is 1.27e-8 from it in the Frobenius norm.
    skew = np.zeros((4, 4))
    skew[0, 1] = 9e-9
    ideal = _process_doc(tmp_path / "ideal.json", 0.0)
    proj = _povm_doc(tmp_path / "proj.json", np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    argv, code, text = {
        "non-hermitian chi": ([_process_doc(tmp_path / "herm.json", skew), ideal],
                              2, "process matrix deviates from Hermitian by 1.273e-08"),
        "negative element": ([_povm_doc(tmp_path / "neg.json", np.diag([1.0 + 1e-6, 0.0]),
                                        np.diag([-1e-6, 1.0])), proj, "--mode", "povm"],
                             2, "POVM element has eigenvalue -1.000e-06"),
        "sum": ([_povm_doc(tmp_path / "sum.json", np.diag([1.0, 0.0]), np.diag([0.0, 1.0 - 1e-6])),
                 proj, "--mode", "povm"], 5, "actual POVM sums to I only within 1.000e-06"),
    }[case]
    assert main(["fidelity", *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err, err


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_fidelity_process_dim_not_a_qubit_power_exits_2(tmp_path, capsys, dim):
    # A 1x1 chi once scored povm_Fp 4.0 against itself and a 9x9 one failed inside
    # numpy; only qubit processes are scored, so a two-qubit (16x16) one exits 2 too.
    chi = np.zeros((dim * dim, dim * dim))
    chi[0, 0] = 1.0
    doc = tmp_path / "set.json"
    doc.write_text(json.dumps({"format_version": "1.0", "dim": dim, "outcomes": [
        {"label": "0", "p": 1.0, "chi": matrix_to_json(chi)}]}))
    assert main(["fidelity", str(doc), str(doc), "--mode", "process"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"process set dim {dim} is not 2" in err


def test_circuit_out_of_range_exits_2(capsys):
    assert main(["circuit", "--p", "1.5", "--q", "0.6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_missing_protocol_exits_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_trajectory_missing_state_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["trajectory", "--p", "0.8", "--q", "0.6", "--state", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "trajectory"])
def test_count_too_large_to_allocate_exits_2(command, trine_protocol, capsys):
    # 10**12 runs need arrays of about 15 TiB, which the allocator refuses at
    # once: one error line naming the allocation, not a MemoryError traceback.
    # ancilla-* still draws a (shots, steps) matrix; exact draws counts only.
    args = {"simulate": ["simulate", trine_protocol, "--backend", "ancilla-direct"],
            "trajectory": ["trajectory", "--p", "0.8", "--q", "0.6"]}[command]
    assert main([*args, "--shots", str(10**12)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err


def test_exact_simulate_of_10_12_shots_allocates_nothing(trine_protocol, capsys):
    # One multinomial draw over the leaf probabilities, whatever the shot count.
    assert main(["simulate", trine_protocol, "--shots", str(10**12), "--no-timestamp"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["shots"] == sum(data["histogram"].values()) == 10**12


@pytest.mark.parametrize("shots", [2**63, 10**20])
@pytest.mark.parametrize("backend", ["exact", "continuous", "ancilla-direct"])
def test_shot_count_beyond_int64_exits_2(backend, shots, trine_protocol, capsys):
    # numpy counts in int64: one error line naming the shot count, not an
    # OverflowError traceback, and before the leaf table is built.
    assert main(["simulate", trine_protocol, "--backend", backend, "--shots", str(shots)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shot count") and err.count("\n") == 1 and str(shots) in err


def test_fidelity_missing_input_exits_2(tmp_path, capsys):
    ps = tmp_path / "ps.json"
    ps.write_text(process_set_to_json(process_set_from_kraus(trine_ops(), ("a", "b", "c"))))
    for args in ([str(tmp_path / "missing.json"), str(ps)], [str(ps), str(tmp_path / "other.json")]):
        assert main(["fidelity", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _bare_ops(path):
    path.write_text(json.dumps({"ops": [matrix_to_json(m) for m in trine_ops()]}))


def _one_by_one(path):
    path.write_text(json.dumps({"ops": [{"label": "0", "matrix": [[[1.0, 0.0]]]}]}))


@pytest.mark.parametrize(
    "command, write, message",
    [
        ("synth", _bare_ops, "key 'matrix'"),
        ("synth", _one_by_one, "expected a 2x2 matrix"),
        ("simulate", None, "key 'steps'"),
        ("fidelity", None, "key 'dim'"),
    ],
)
def test_wrong_schema_exits_2(command, write, message, trine_json, tmp_path, capsys):
    path = trine_json
    if write is not None:
        path = tmp_path / "bad.json"
        write(path)
    args = [command, str(path)] + ([str(path)] if command == "fidelity" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_tol_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["circuit", "--p", "0.8", "--q", "0.6", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_inaccurate_branch_exits_3(trine_json, tmp_path, capsys, monkeypatch):
    # A bound below the trine's round-off deviations: synth names the first leaf
    # above it on one error line, writes no protocol and exits 3.
    s = kraus_set(trine_ops(), ("a", "b", "c"))
    proto = reduce(s)
    devs = {lab: phase_distance(m, compose_branch(proto, lab)) for lab, m in zip(s.labels, s.ops)}
    tol = 1e-18
    assert max(devs.values()) > tol, "the trine composes without round-off: pick another set"
    first = next(lab for lab, dev in devs.items() if dev > tol)
    monkeypatch.setattr(decomposition, "BRANCH_TOL", tol)
    out = tmp_path / "proto.json"
    assert main(["synth", trine_json, "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: leaf {first}: composition deviation {devs[first]:.3e} "
                                   f"exceeds {tol:.0e}")


def test_leak_amplitude_below_the_stored_p_floor_exits_3(tmp_path, capsys):
    # Outcome 0 leaves the amplitude a = 5e-9 on |0>; step 0's p = 1 - a^2 rounds to 1
    # as a double, so outcomes 1 and 2 lose their |0> parts, a / sqrt(2) > 1e-9.
    d = np.diag([5e-9, 1.0]) / math.sqrt(2)
    ops = [np.diag([1.0, 0.0]), d, np.array([[1, 1], [1, -1]]) / math.sqrt(2) @ d]
    path = tmp_path / "floor.json"
    path.write_text(kraus_set_to_json(kraus_set(ops)))
    assert main(["synth", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: leaf 1: composition deviation 3.536e-09")


@pytest.mark.parametrize("order", ["", "0,,2", "0,b,2"])
def test_synth_malformed_order_exits_2(order, trine_json, tmp_path, capsys):
    # An empty --order is given, not absent: it is refused, not read as the default.
    out = tmp_path / "proto.json"
    assert main(["synth", trine_json, "--order", order, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --order") and err.count("\n") == 1 and repr(order) in err
    assert not out.exists()


def test_projective_set_synths_in_every_order(tmp_path, capsys):
    # Outcome 0 is projective, so the remainder after it, diag(0, 1), is singular:
    # nothing is inverted, and every order reduces exactly.
    path = tmp_path / "projective.json"
    ops = [np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, math.sqrt(3) / 2])]
    path.write_text(kraus_set_to_json(kraus_set(ops)))
    out = str(tmp_path / "proto.json")
    for order in [None, *itertools.permutations(range(3))]:
        flags = [] if order is None else ["--order", ",".join(map(str, order))]
        assert main(["synth", str(path), *flags, "--output", out]) == 0, order
        proto = protocol_from_json(open(out).read())
        for label, m in zip(("0", "1", "2"), ops):
            assert phase_distance(m, compose_branch(proto, label)) <= 1e-12, (order, label)
    capsys.readouterr()


def test_one_unitary_set_synths(tmp_path, capsys):
    # A one-outcome set is its final unitary, relative phase included.
    path = tmp_path / "unitary.json"
    path.write_text(kraus_set_to_json(kraus_set([np.diag([1.0, 1j])])))
    out = tmp_path / "proto.json"
    assert main(["synth", str(path), "--output", str(out)]) == 0
    proto = protocol_from_json(out.read_text())
    assert proto.steps == () and np.allclose(proto.final_unitary, np.diag([1.0, 1j]), atol=1e-15)
    capsys.readouterr()


def test_trajectory_zero_p_exits_4(capsys):
    # p = 0 with q = 1 puts a threshold at infinity, like --p 1 --q 1.
    for p, q in (("0", "1"), ("1", "1")):
        assert main(["trajectory", "--p", p, "--q", q]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_trajectory_no_measurement_pq_exits_4(tmp_path, capsys):
    # At p + q = 1 the thresholds collapse onto (0, 0), or (round-off, 0),
    # which cannot carry p: the split would not follow the state.
    for p, q in (("0.7", "0.3"), ("0.0101", "0.9899")):
        assert main(["trajectory", "--p", p, "--q", q, "--state", "0"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "simulate --backend continuous" in err
    # Thresholds given as (0, 0), or (p, q) = (1/2, 1/2), keep the 1/2 convention.
    out = str(tmp_path / "traj.jsonl")
    for args in (["--r0", "0", "--r1", "0"], ["--p", "0.5", "--q", "0.5"]):
        assert main(["trajectory", *args, "--state", "0", "--output", out]) == 0
        assert "outcome-0 frequency 0.5" in capsys.readouterr().err


def test_trajectory_thresholds_projective_in_double_exit_4(capsys):
    # Past |R| of about 18.7, q reads back as exactly 1: the readout is
    # projective in double precision, as an infinite threshold is.
    for r0 in ("20", "400"):
        assert main(["trajectory", "--r0", r0, "--r1", "-1", "--state", "0"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not finite" in err


def test_synth_stdout_is_json_without_output(trine_json, capsys):
    assert main(["synth", trine_json]) == 0
    out, err = capsys.readouterr()
    proto = protocol_from_json(out)
    assert proto.leaf_labels == ("a", "b", "c")
    assert [line.split(":")[0] for line in err.splitlines()] == ["leaf a", "leaf b", "leaf c"]


def test_synth_deviations_on_stdout_with_output(trine_json, tmp_path, capsys):
    out = str(tmp_path / "protocol.json")
    assert main(["synth", trine_json, "--output", out]) == 0
    stdout, err = capsys.readouterr()
    assert err == ""
    assert [line.split(":")[0] for line in stdout.splitlines()] == ["leaf a", "leaf b", "leaf c"]
    protocol_from_json(open(out).read())


def test_synth_repeated_labels_exits_2(tmp_path, capsys):
    path = tmp_path / "trine.json"
    doc = json.loads(kraus_set_to_json(kraus_set(trine_ops(), ("a", "b", "c"))))
    doc["ops"][1]["label"] = "a"
    path.write_text(json.dumps(doc))
    out = tmp_path / "protocol.json"
    assert main(["synth", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "labels must be distinct" in err
    assert not out.exists()


def test_fidelity_povm_repeated_labels_exits_2(tmp_path, capsys):
    # Two identical elements, both labelled "a": exit 2, as for a Kraus or protocol file.
    path = tmp_path / "povm.json"
    element = {"label": "a", "matrix": matrix_to_json(np.eye(2) / 2)}
    path.write_text(json.dumps({"format_version": "1.0", "elements": [element, element]}))
    assert main(["fidelity", str(path), str(path), "--mode", "povm"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "labels must be distinct" in err
    assert err.count("error:") == 1 and err.count("\n") == 1


def test_simulate_repeated_leaf_labels_exits_2(trine_protocol, tmp_path, capsys):
    doc = json.loads(open(trine_protocol).read())
    doc["leaf_labels"] = ["a", "a", "c"]
    proto = tmp_path / "repeated.json"
    proto.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", str(proto), "--shots", "3000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "labels must be distinct" in err


def test_simulate_swapped_roles_step_exits_2(tmp_path, capsys):
    # A hand-edited step with p + q < 1 is invalid input on every backend.
    path = tmp_path / "weak.json"
    path.write_text(kraus_set_to_json(kraus_set(HADAMARD_OPS)))
    proto = tmp_path / "proto.json"
    assert main(["synth", str(path), "--output", str(proto)]) == 0
    doc = json.loads(proto.read_text())
    doc["steps"][0]["p"], doc["steps"][0]["q"] = 0.3, 0.4
    proto.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", str(proto), "--backend", "continuous", "--shots", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outcome roles are swapped" in err


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.diag([1.0, 1.0]), "trace is 2"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
    ],
)
def test_simulate_non_density_state_exits_2(rho, message, trine_protocol, tmp_path, capsys):
    state = tmp_path / "rho.json"
    state.write_text(json.dumps(matrix_to_json(rho)))
    for shots in ("100", "0"):
        assert main(["simulate", trine_protocol, "--state", str(state), "--shots", shots]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def _bool_matrix(dim, k):
    """dim x dim [re, im] rows written in JSON booleans, with true at (k, k)."""
    return [[[i == j == k, False] for j in range(dim)] for i in range(dim)]


@pytest.mark.parametrize("case", ["synth", "simulate", "trajectory", "process", "povm"])
def test_boolean_matrix_entries_exit_2(case, trine_protocol, tmp_path, capsys):
    # A boolean is not a number, in a matrix entry as in a scalar key: diag(true, false)
    # would otherwise read as diag(1, 0), and the Kraus pair below synthesize.
    path = tmp_path / "bool.json"
    doc = {
        "synth": {"format_version": "1.0",
                  "ops": [{"label": str(k), "matrix": _bool_matrix(2, k)} for k in (0, 1)]},
        "simulate": _bool_matrix(2, 0),
        "trajectory": _bool_matrix(2, 0),
        "process": {"format_version": "1.0", "dim": 2,
                    "outcomes": [{"label": "0", "chi": _bool_matrix(4, 0)}]},
        "povm": {"format_version": "1.0",
                 "elements": [{"label": "0", "matrix": [[[1, 0], [0, 0]], [[0, 0], [True, 0]]]}]},
    }[case]
    path.write_text(json.dumps(doc))
    args = {
        "synth": ["synth", str(path)],
        "simulate": ["simulate", trine_protocol, "--state", str(path)],
        "trajectory": ["trajectory", "--p", "0.8", "--q", "0.6", "--state", str(path)],
        "process": ["fidelity", str(path), str(path)],
        "povm": ["fidelity", str(path), str(path), "--mode", "povm"],
    }[case]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "error: matrix entries must be numbers, not booleans\n"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("case", ["synth", "simulate", "state", "process", "povm"])
def test_deeply_nested_json_exits_2(case, trine_protocol, tmp_path, capsys):
    # A document nested past the decoder's recursion limit is invalid input, at
    # each of the five places a command decodes JSON: one error line, no traceback.
    docs = {
        "synth": '{"format_version": "1.0", "ops": %s}',
        "simulate": '{"format_version": "1.0", "steps": %s}',
        "state": "%s",
        "process": '{"format_version": "1.0", "dim": 2, "outcomes": %s}',
        "povm": '{"format_version": "1.0", "elements": %s}',
    }
    path = tmp_path / "deep.json"
    path.write_text(docs[case] % DEEP)
    args = {
        "synth": ["synth", str(path)],
        "simulate": ["simulate", str(path)],
        "state": ["simulate", trine_protocol, "--state", str(path)],
        "process": ["fidelity", str(path), str(path)],
        "povm": ["fidelity", str(path), str(path), "--mode", "povm"],
    }[case]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "error: JSON document is nested too deeply\n"
