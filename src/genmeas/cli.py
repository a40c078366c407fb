"""Command-line front end: validate -> reduce -> compile -> simulate -> score.

Subcommands
-----------
synth       reduce a Kraus-set JSON file to a measurement protocol
simulate    run a protocol on a backend and collect outcome statistics
trajectory  run thresholded-readout trajectories for a (p, q) or (R0, R1)
circuit     emit the ancilla-circuit gate list for a (p, q)
fidelity    score an actual measurement against an ideal one

Exit codes: 0 ok; 2 invalid input (``ValueError``, including out-of-range
parameters, a wrong-schema JSON document and a missing or unreadable file);
3 a reduction that fails numerically: a singular remainder, or a leaf that
composes its Kraus operator only to a deviation above ``BRANCH_TOL`` (1e-9);
4 a backend that cannot realize a step; 5 measurements that cannot be
compared. A ``GenmeasError`` carries its code as ``exit_code``, and ``main``
is the one place that maps an exception to an exit code and prints it as a
single ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ancilla_circuit import circuit_from_pq, circuit_to_json
from .continuous_readout import (
    ReadoutConfig,
    Thresholds,
    pq_from_thresholds,
    simulate_batch,
    thresholds_from_pq,
    trajectories_to_jsonl,
)
from .decomposition import (
    branch_deviations,
    protocol_from_json,
    protocol_to_json,
    reduce as reduce_kraus,
    sample_protocol,
)
from .errors import GenmeasError, Infeasible, Mismatch
from .fidelity import fidelity_report, povm_fidelity, process_set_from_json
from .partial_projection import PartialProjParams, pure_state, validate_state
from .serialize import (
    check_version, kraus_set_from_json, matrix_from_json, matrix_to_json, require_key,
)

EXIT_OK = 0
EXIT_VALIDATION = 2

_NAMED_STATES = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "plus": np.array([1.0, 1.0]) / math.sqrt(2),
    "minus": np.array([1.0, -1.0]) / math.sqrt(2),
}


def _parse_state(spec: str) -> np.ndarray:
    if spec == "mixed":
        return np.eye(2, dtype=np.complex128) / 2.0
    if spec in _NAMED_STATES:
        return pure_state(_NAMED_STATES[spec])
    with open(spec) as f:
        return validate_state(matrix_from_json(json.load(f), 2))


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_synth(args) -> int:
    with open(args.kraus) as f:
        ks = kraus_set_from_json(f.read())
    order = tuple(int(x) for x in args.order.split(",")) if args.order else None
    proto = reduce_kraus(ks, order=order, cancel_u1=args.cancel_u1)
    # Without --output stdout carries the protocol JSON, so the deviations go to stderr.
    for label, dev in branch_deviations(proto, ks).items():
        print(f"leaf {label}: composition deviation {dev:.3e}",
              file=sys.stdout if args.output else sys.stderr)
    _write(protocol_to_json(proto), args.output)
    return EXIT_OK


def _readout_config(args) -> ReadoutConfig:
    return ReadoutConfig(
        tau_min=args.tau,
        seed=args.seed,
        alpha=args.alpha,
        dt=args.dt,
        efficiency=args.efficiency,
    )


def cmd_simulate(args) -> int:
    with open(args.protocol) as f:
        proto = protocol_from_json(f.read())
    state = _parse_state(args.state)
    readout = _readout_config(args) if args.backend == "continuous" else None
    if args.shots == 0:
        _emit({"format_version": "1.0", "histogram": {}, "shots": 0,
               "seed": args.seed, "backend": args.backend}, args)
        return EXIT_OK
    counts, means = sample_protocol(
        proto, state, args.shots, args.seed, args.backend, readout
    )
    _emit(
        {
            "format_version": "1.0",
            "histogram": counts,
            "mean_final_states": {k: matrix_to_json(v) for k, v in means.items()},
            "shots": args.shots,
            "seed": args.seed,
            "backend": args.backend,
        },
        args,
    )
    return EXIT_OK


def cmd_trajectory(args) -> int:
    state = _parse_state(args.state)
    if args.p is not None and args.q is not None:
        t = thresholds_from_pq(PartialProjParams(args.p, args.q))
        if t.finite and abs(pq_from_thresholds(t).p - args.p) > 1e-9:
            raise Infeasible(f"thresholds ({t.R0:.3g}, {t.R1:.3g}) cannot carry p = {args.p}: at "
                             "p + q = 1 the readout stops at once; use `simulate --backend continuous`")
    elif args.r0 is not None and args.r1 is not None:
        t = Thresholds(R0=args.r0, R1=args.r1)
    else:
        raise ValueError("provide either --p/--q or --r0/--r1")
    batch = simulate_batch(_readout_config(args), t, state, args.shots)
    _write(trajectories_to_jsonl(batch), args.output)
    n = max(len(batch), 1)
    print(f"outcome-0 frequency {np.count_nonzero(batch.outcome == 0) / n:.4f}, "
          f"mean duration {batch.duration.sum() / n:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_circuit(args) -> int:
    circuit = circuit_from_pq(args.variant, PartialProjParams(args.p, args.q))
    _write(circuit_to_json(circuit), args.output)
    return EXIT_OK


def cmd_fidelity(args) -> int:
    texts = []
    for path in (args.actual, args.ideal):
        with open(path) as f:
            texts.append(f.read())
    if args.mode == "process":
        report = fidelity_report(*(process_set_from_json(text) for text in texts))
    else:
        docs = [json.loads(text) for text in texts]
        for doc in docs:
            check_version(doc, "POVM")
        a, b = (require_key(doc, "elements", list) for doc in docs)
        if [require_key(e, "label", str) for e in a] != [require_key(e, "label", str) for e in b]:
            raise Mismatch("POVM labels differ")
        pa = [matrix_from_json(require_key(e, "matrix")) for e in a]
        pi = [matrix_from_json(require_key(e, "matrix")) for e in b]
        report = {
            "povm_Fp": povm_fidelity(pa, pi, variant="Fp"),
            "povm_FpTilde": povm_fidelity(pa, pi, variant="FpTilde"),
            "labels": [e["label"] for e in a],
        }
    report["format_version"] = "1.0"
    _emit(report, args)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--output", default=None)
    p.add_argument("--no-timestamp", action="store_true")


def _add_readout(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--efficiency", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genmeas", description="Generalized qubit measurement toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="reduce a Kraus set to a protocol")
    p.add_argument("kraus")
    p.add_argument("--order", default=None, help="comma-separated permutation")
    p.add_argument("--cancel-u1", action="store_true", dest="cancel_u1")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="sample a protocol on a backend")
    p.add_argument("protocol")
    p.add_argument(
        "--backend",
        default="exact",
        choices=["exact", "ancilla-direct", "ancilla-cphase",
                 "ancilla-fixed_cz", "continuous"],
    )
    p.add_argument("--state", default="mixed")
    p.add_argument("--shots", type=int, default=10_000)
    _add_common(p)
    _add_readout(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trajectory", help="run thresholded-readout trajectories")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--state", default="plus")
    p.add_argument("--shots", type=int, default=1000)
    _add_common(p)
    _add_readout(p)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("circuit", help="emit an ancilla-circuit gate list")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--variant", default="direct",
                   choices=["direct", "cphase", "fixed_cz"])
    _add_common(p)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("fidelity", help="score actual vs ideal measurement")
    p.add_argument("actual")
    p.add_argument("ideal")
    p.add_argument("--mode", default="process", choices=["process", "povm"])
    _add_common(p)
    p.set_defaults(func=cmd_fidelity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenmeasError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
