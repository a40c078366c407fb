import json
import math

import numpy as np
import pytest

from genmeas.channels import NoiseSpec, noisy_branch
from genmeas.cli import main
from genmeas.decomposition import (
    compose_branch,
    kraus_set,
    protocol_from_json,
    random_unitary,
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
    assert json.loads(open(out).read())["histogram"] == {}


def test_simulate_projective_continuous_exits_4(tmp_path, capsys):
    path = tmp_path / "proj.json"
    path.write_text(
        kraus_set_to_json(kraus_set([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    )
    proto = str(tmp_path / "proto.json")
    assert main(["synth", str(path), "--output", proto]) == 0
    code = main(
        ["simulate", proto, "--backend", "continuous", "--shots", "10"]
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


def test_trajectory_requires_parameters(capsys):
    assert main(["trajectory", "--p", "0.8"]) == 2


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
    for pair, text in (((q2, q3), "actual POVM elements are (2, 2), ideal POVM elements (3, 3)"),
                       ((q2, mixed), "ideal POVM elements must share one d x d shape"),
                       ((mixed, q2), "actual POVM elements must share one d x d shape")):
        assert main(["fidelity", *map(str, pair), "--mode", "povm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and text in err


@pytest.mark.parametrize("dim", [1, 3])
def test_fidelity_process_dim_not_a_qubit_power_exits_2(tmp_path, capsys, dim):
    # A 1x1 chi once scored povm_Fp 4.0 against itself; a 9x9 one failed inside numpy.
    chi = np.zeros((dim * dim, dim * dim))
    chi[0, 0] = 1.0
    doc = tmp_path / "set.json"
    doc.write_text(json.dumps({"format_version": "1.0", "dim": dim, "outcomes": [
        {"label": "0", "p": 1.0, "chi": matrix_to_json(chi)}]}))
    assert main(["fidelity", str(doc), str(doc), "--mode", "process"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"dim {dim} is not 2^k with k >= 1" in err


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


def test_inaccurate_branch_exits_3(tmp_path, capsys):
    # A near-projective pair, 1 - p = 1e-12, whose reduction snaps p to 1 and
    # drops the leak amplitude: a leaf deviates by about 1e-6 > BRANCH_TOL.
    rng = np.random.default_rng(7)
    d0, d1 = dops(PartialProjParams(1.0 - 1e-12, 1.0 - 2e-13))
    while True:
        u0, u1, v = (random_unitary(rng) for _ in range(3))
        s = kraus_set([u0 @ d0 @ v, u1 @ d1 @ v])
        proto = reduce(s)
        devs = [phase_distance(m, compose_branch(proto, lab)) for lab, m in zip(s.labels, s.ops)]
        if max(devs) > 1e-9:
            break
    path = tmp_path / "near_projective.json"
    path.write_text(kraus_set_to_json(s))
    out = tmp_path / "proto.json"
    assert main(["synth", str(path), "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: leaf ")
    assert "composition deviation" in captured.err and "exceeds 1e-09" in captured.err


def test_singular_remainder_exits_3(tmp_path, capsys):
    # Outcome 0 is projective, so its remainder diag(0, 1) cannot be inverted
    # for the next step; starting from outcome 1 avoids that.
    path = tmp_path / "singular.json"
    ops = [np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, math.sqrt(3) / 2])]
    path.write_text(kraus_set_to_json(kraus_set(ops)))
    assert main(["synth", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "try a different outcome ordering" in err
    out = str(tmp_path / "proto.json")
    assert main(["synth", str(path), "--order", "1,2,0", "--output", out]) == 0
    proto = protocol_from_json(open(out).read())
    for label, m in zip(("0", "1", "2"), ops):
        assert phase_distance(m, compose_branch(proto, label)) < 1e-9


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
