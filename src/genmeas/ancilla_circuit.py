"""Ancilla-qubit circuits realizing a partial projection.

The two-qubit Hilbert space is ordered main (x) ancilla throughout. The
ancilla starts in |0>, is entangled with the main qubit, rotated by
Ry(epsilon - pi/2), and measured projectively in Z; the classical outcome
0 or 1 selects which partial projection D0 or D1 acted on the main qubit.
Three equivalent constructions are provided:

* ``direct``  -- a Z-controlled Y rotation by phi.
* ``cphase``  -- a controlled-phase gate CZ(2 phi) dressed by ancilla
  Rx(+-pi/2) rotations plus phase corrections on both wires.
* ``fixed_cz`` -- an ancilla Ry(phi) followed by the standard CZ(pi).

The angle map is

    phi     = [arcsin(2p - 1) + arcsin(2q - 1)] / 2,
    epsilon = [arcsin(2p - 1) - arcsin(2q - 1)] / 2,

inverted by p = [1 + sin(phi + epsilon)]/2, q = [1 + sin(phi - epsilon)]/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .partial_projection import PartialProjParams
from .serialize import FORMAT_VERSION, dump

VARIANTS = ("direct", "cphase", "fixed_cz")
# pq_from_angles accepts |phi +- epsilon| up to pi/2 + ANGLE_TOL, round-off of angles_from_pq.
ANGLE_TOL = 1e-12

MAIN = "main"
ANCILLA = "ancilla"
BOTH = "both"


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    ``kind`` is one of Rx, Ry, Rz, RyGivenZ, CZ, MeasureAncillaZ. Rotations
    act on a single wire; RyGivenZ and CZ act on both; the measurement has
    no angle.
    """

    kind: str
    angle: float | None = None
    target: str = ANCILLA

    def __post_init__(self):
        if self.kind in ("RyGivenZ", "CZ") and self.target != BOTH:
            raise ValueError(f"{self.kind} must target both wires")
        if self.kind in ("Rx", "Ry", "Rz") and self.target not in (MAIN, ANCILLA):
            raise ValueError(f"{self.kind} must target exactly one wire")
        if self.kind == "MeasureAncillaZ" and self.angle is not None:
            raise ValueError("MeasureAncillaZ takes no angle")


@dataclass(frozen=True)
class TwoQubitCircuit:
    """Ordered gate list ending in the ancilla measurement."""

    variant: str
    gates: tuple[Gate, ...]
    phi: float
    epsilon: float

    def __post_init__(self):
        measures = [g for g in self.gates if g.kind == "MeasureAncillaZ"]
        if len(measures) != 1 or self.gates[-1].kind != "MeasureAncillaZ":
            raise ValueError("circuit must end in exactly one ancilla measurement")


def angles_from_pq(params: PartialProjParams) -> tuple[float, float]:
    """Circuit angles (phi, epsilon) realizing the partial projection (p, q)."""
    a = math.asin(2.0 * params.p - 1.0)
    b = math.asin(2.0 * params.q - 1.0)
    return (a + b) / 2.0, (a - b) / 2.0


def pq_from_angles(phi: float, epsilon: float) -> PartialProjParams:
    """Inverse of :func:`angles_from_pq`; requires |phi +- epsilon| <= pi/2."""
    bound = math.pi / 2 + ANGLE_TOL
    if abs(phi + epsilon) > bound or abs(phi - epsilon) > bound:
        raise ValueError(
            f"|phi +- epsilon| must not exceed pi/2, got phi={phi}, epsilon={epsilon}"
        )
    p = 0.5 * (1.0 + math.sin(phi + epsilon))
    q = 0.5 * (1.0 + math.sin(phi - epsilon))
    return PartialProjParams(min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0))


def _rx(phi: float):
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return (c, -1j * s), (-1j * s, c)


def _ry(phi: float):
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return (c, -s), (s, c)


def _rz(phi: float):
    return (cmath.exp(-1j * phi / 2.0), 0.0), (0.0, cmath.exp(1j * phi / 2.0))


def _scalars(g: Gate):
    """A gate on Python numbers: its 2x2 matrix on one wire or, for a two-wire gate,
    the ancilla matrices (m0, m1) it applies when main is |0> and |1>. RyGivenZ is
    exp(-i phi (sigma_z x sigma_y) / 2), ancilla Ry(+-phi) controlled by main Z."""
    if g.kind == "Rx":
        return _rx(g.angle)
    if g.kind == "Ry":
        return _ry(g.angle)
    if g.kind == "Rz":
        return _rz(g.angle)
    if g.kind == "RyGivenZ":
        return _ry(g.angle), _ry(-g.angle)
    if g.kind == "CZ":
        return ((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, cmath.exp(1j * g.angle)))
    raise ValueError(f"gate kind {g.kind!r} has no matrix")


def gate_matrix(g: Gate) -> np.ndarray:
    """Matrix of a gate: 2x2 for single-wire gates, 4x4 for two-wire gates."""
    m = _scalars(g)
    if g.target != BOTH:
        return np.array(m, dtype=np.complex128)
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, :2], out[2:, 2:] = m
    return out


def build_circuit(variant: str, phi: float, epsilon: float) -> TwoQubitCircuit:
    """Assemble the gate list for one of the three constructions."""
    readout = (
        Gate("Ry", epsilon - math.pi / 2.0, ANCILLA),
        Gate("MeasureAncillaZ", None, ANCILLA),
    )
    if variant == "direct":
        gates = (Gate("RyGivenZ", phi, BOTH),) + readout
    elif variant == "cphase":
        # The main-qubit Rz(-phi) phase correction is always applied so
        # that protocols can compose further unitaries afterwards.
        gates = (
            Gate("Rx", -math.pi / 2.0, ANCILLA),
            Gate("CZ", 2.0 * phi, BOTH),
            Gate("Rx", math.pi / 2.0, ANCILLA),
            Gate("Ry", phi, ANCILLA),
            Gate("Rz", -phi, MAIN),
        ) + readout
    elif variant == "fixed_cz":
        gates = (
            Gate("Ry", phi, ANCILLA),
            Gate("CZ", math.pi, BOTH),
        ) + readout
    else:
        raise ValueError(f"unknown circuit variant {variant!r}")
    return TwoQubitCircuit(variant=variant, gates=gates, phi=phi, epsilon=epsilon)


def circuit_from_pq(variant: str, params: PartialProjParams) -> TwoQubitCircuit:
    phi, epsilon = angles_from_pq(params)
    return build_circuit(variant, phi, epsilon)


def kraus_from_circuit(c: TwoQubitCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Realized Kraus pair K_a = <a|_ancilla U_total |0>_ancilla on the main qubit.

    Only the two columns with the ancilla in |0> are propagated, on Python complex
    scalars: ``top`` and ``bottom`` hold the rows (ancilla 0, ancilla 1) with main in
    |0> and |1>. An ancilla gate multiplies both (a two-wire gate each by its own
    matrix); a main-wire gate mixes them.
    """
    from .linalg import mul2  # on call: the circuit command only writes the gate list

    top, bottom = ((1.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 0.0))
    for g in c.gates:
        if g.kind == "MeasureAncillaZ":
            break
        m = _scalars(g)
        if g.target == BOTH:
            top, bottom = mul2(m[0], top), mul2(m[1], bottom)
        elif g.target == MAIN:
            (t0, b0), (t1, b1) = mul2(m, (top[0], bottom[0])), mul2(m, (top[1], bottom[1]))
            top, bottom = (t0, t1), (b0, b1)
        else:
            top, bottom = mul2(m, top), mul2(m, bottom)
    k = np.array(((top[0], bottom[0]), (top[1], bottom[1])), dtype=np.complex128)
    return k[0], k[1]


def circuit_to_json(c: TwoQubitCircuit) -> str:
    """Serialize the ordered gate list; angles are radians as doubles."""
    return dump(
        {
            "format_version": FORMAT_VERSION,
            "tensor_ordering": "main_x_ancilla",
            "variant": c.variant,
            "phi": c.phi,
            "epsilon": c.epsilon,
            "gates": [
                {"kind": g.kind, "angle": g.angle, "target": g.target}
                for g in c.gates
            ],
        }
    )
