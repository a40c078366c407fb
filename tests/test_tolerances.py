"""Every small float in ``src/`` is a named module constant, and each tolerance
constant is the boundary it is documented as.

A tolerance written inline as a literal (a default argument, a comparison bound)
cannot be found, documented or pinned by name. The scan flags each float literal
of magnitude below 1e-6 that is not the value of a module-level assignment to an
upper-case name. The boundary tests check, for each tolerance in the README's
tolerance table, its value and that an input half of it inside passes and one
twice it outside does not.
"""

import ast
import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

import genmeas
from genmeas import (
    ancilla_circuit, cli, continuous_readout, decomposition, fidelity, linalg, partial_projection,
)
from genmeas.ancilla_circuit import pq_from_angles
from genmeas.continuous_readout import ReadoutConfig, thresholds_from_pq
from genmeas.decomposition import branch_deviations, kraus_set, reduce, validate_kraus_set
from genmeas.errors import InaccurateBranch, Infeasible, Mismatch, NotComplete
from genmeas.fidelity import (
    ProcessMatrix, average_state_fidelity, chi_from_kraus, povm_fidelity, process_fidelity,
    state_fidelity,
)
from genmeas.partial_projection import PartialProjParams, apply_outcome, validate_state

SRC = Path(genmeas.__file__).parent
SMALL = 1e-6


def _is_constant_assignment(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AnnAssign)) and all(
        isinstance(t, ast.Name) and t.id.lstrip("_").isupper() for t in targets)


def small_float_literals(path: Path) -> list[str]:
    """``file:line`` of each float literal 0 < |x| < 1e-6 outside a module constant."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = {id(n) for stmt in tree.body if _is_constant_assignment(stmt) for n in ast.walk(stmt)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and type(node.value) is float
                   and 0.0 < abs(node.value) < SMALL and id(node) not in exempt)
    return [f"{path.name}:{line}" for line in lines]


def test_no_inline_tolerances_in_package():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    sites = [site for path in sources for site in small_float_literals(path)]
    assert sites == [], f"float literals below {SMALL:g} outside module constants: {sites}"


def test_tolerance_finder_sees_a_literal(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "TOL = 1e-12\n_CUT: float = 2e-9\n"
        "def f(x, tol=1e-10):\n    return abs(x) < 3e-7 or x > -5e-8 or x == 0.5\n"
        "y = 4e-9\n"
    )
    assert small_float_literals(path) == ["probe.py:3", "probe.py:4", "probe.py:4", "probe.py:5"]


def _ok(exc, f, *args) -> bool:
    """Whether ``f(*args)`` returns without raising ``exc``."""
    try:
        f(*args)
    except exc:
        return False
    return True


def _cli_exit(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


I2, E00, E01 = np.eye(2), np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
CHI_I = chi_from_kraus([I2])
PROJECTORS = [E00, I2 - E00]


def scaled(chi: ProcessMatrix, s: float) -> ProcessMatrix:
    return ProcessMatrix(chi.chi * s)

PROJECTIVE = reduce(kraus_set(PROJECTORS))


# Each tolerance as a boundary: probe(x) is True at x = tol / 2 and False at x = 2 tol,
# where x is the quantity the tolerance bounds. The README's tolerance table names these.
BOUNDARIES = {
    "ancilla_circuit.ANGLE_TOL": (  # |phi + epsilon| - pi/2
        ancilla_circuit, 1e-12, lambda x: _ok(ValueError, pq_from_angles, math.pi / 4 + x, math.pi / 4)),
    "cli.THRESHOLD_P_TOL": (  # |p read back - p| at p + q = 1, where thresholds (0, 0) read p = 1/2
        cli, 1e-9, lambda x: _cli_exit(["trajectory", "--p", repr(0.5 + x), "--q", repr(0.5 - x),
                                        "--shots", "1"]) == 0),
    "decomposition.BRANCH_TOL": (  # a leaf's phase-aligned distance from its Kraus operator
        decomposition, 1e-9,
        lambda x: _ok(InaccurateBranch, branch_deviations, PROJECTIVE, kraus_set([E00 + x * E01, I2 - E00]))),
    "decomposition.COMPLETENESS_TOL": (  # |sum M^dag M - I|_F
        decomposition, 1e-9,
        lambda x: _ok(NotComplete, validate_kraus_set, kraus_set([np.diag([1.0, math.sqrt(1.0 + x)])]))),
    "fidelity.UHLMANN_CLAMP": (  # a POVM element's negative eigenvalue
        fidelity, 1e-10,
        lambda x: _ok(ValueError, povm_fidelity, [np.diag([1.0 + x, 0.0]), np.diag([-x, 1.0])], PROJECTORS)),
    "fidelity.PSD_TOL": (  # a scored state's negative eigenvalue
        fidelity, 1e-8, lambda x: _ok(ValueError, state_fidelity, np.diag([1.0 + x, -x]), I2 / 2)),
    "fidelity.UNIT_TRACE_TOL": (  # |Tr chi - 1| for F6 and F7
        fidelity, 1e-9, lambda x: _ok(ValueError, process_fidelity, scaled(CHI_I, 1 + x), CHI_I)),
    "fidelity.POVM_SUM_TOL": (  # |sum P_k - I|_F
        fidelity, 1e-9, lambda x: _ok(Mismatch, povm_fidelity, [E00, np.diag([0.0, 1.0 - x])], PROJECTORS)),
    "fidelity.TP_TOL": (  # |P - I|_F of the process's POVM, P = (1 + s) I with s = x / sqrt(2)
        fidelity, 1e-8,
        lambda x: _ok(ValueError, average_state_fidelity, scaled(CHI_I, 1 + x / math.sqrt(2)), CHI_I)),
    "fidelity.PROB_SUM_TOL": (  # |sum a_k - 1| of a classical fidelity's input
        fidelity, 1e-9, lambda x: _ok(ValueError, fidelity.classical_fidelity, [0.5 + x, 0.5], [0.5, 0.5])),
    "fidelity.PURITY_TOL": (  # 1 - Tr rho^2: a pure state's fidelity is sqrt(Tr rho sigma), no Uhlmann route
        fidelity, 1e-12, lambda x: state_fidelity(np.diag([1.0 - x / 2, x / 2]), I2 / 2) == math.sqrt(0.5)),
    "fidelity.RANK1_TOL": (  # an ideal's second eigenvalue over its largest: F8 needs rank 1
        fidelity, 1e-12,
        lambda x: _ok(ValueError, process_fidelity, CHI_I, ProcessMatrix(np.diag([1.0, x, 0.0, 0.0])), "F8")),
    "linalg.EIG_CLAMP_TOL": (  # psd_sqrt's default eigenvalue floor
        linalg, 1e-10, lambda x: _ok(ValueError, linalg.psd_sqrt, np.diag([1.0, -x]))),
    "linalg.UNITARY_TOL": (  # |m^dag m - I|_F
        linalg, 1e-10, lambda x: linalg.is_unitary(np.diag([1.0, math.sqrt(1.0 + x)]))),
    "linalg.PHASE_FLOOR": (  # |Tr(b^dag a)|: below it phase_distance does not align b
        linalg, 1e-300, lambda x: linalg.phase_distance(math.sqrt(x) * 1j * E00, math.sqrt(x) * E00) > 0.0),
    "partial_projection.STATE_TOL": (  # validate_state's negative eigenvalue
        partial_projection, 1e-10, lambda x: _ok(ValueError, validate_state, np.diag([1.0 + x, -x]))),
    "partial_projection.ZERO_BRANCH_TOL": (  # an outcome's probability: below it Infeasible
        partial_projection, 1e-12,
        lambda x: not _ok(Infeasible, apply_outcome, PartialProjParams(1.0, 1.0 - x), 0, I2 - E00)),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_tolerance_is_the_boundary(name):
    module, value, probe = BOUNDARIES[name]
    assert getattr(module, name.split(".")[1]) == value
    assert probe(value / 2) and not probe(2 * value)


def test_cap_probability_is_the_boundary():
    # A readout whose runs outlast the duration cap with probability above _CAP_PROB is
    # Infeasible: a cap where that probability is _CAP_PROB / 2 passes, one at 2 _CAP_PROB not.
    assert continuous_readout._CAP_PROB == 1e-12
    t = thresholds_from_pq(PartialProjParams(0.99, 0.98))
    config = ReadoutConfig(tau_min=1.0, seed=0)
    lm, c = continuous_readout._exit_series(t, *continuous_readout._grid(config))
    # P(T > j dt) under drift +1 and under drift -1 (:func:`_exit_series`).
    labels = np.array([np.ones(2), np.exp(-2.0 * np.array([t.R0, t.R1]))]).T

    def first_step_below(level: float) -> int:
        def outlast(j):
            return ((c @ np.exp(-lm * j)) @ labels).max()

        lo, hi = 1, 1
        while outlast(hi) > level:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if outlast(mid) > level else (lo, mid)
        return hi

    cap_prob = continuous_readout._CAP_PROB
    m = continuous_readout._grid(config)[0]
    for level, ok in ((cap_prob / 2, True), (2 * cap_prob, False)):
        j = first_step_below(level) - (0 if ok else 1)
        assert _ok(Infeasible, continuous_readout._exit_series, t, m, j) is ok


def test_tail_floor_ends_the_exit_table():
    # The exit table ends at the first step where both sides' tails are below
    # _TAIL_FLOOR of their exit probability, well before the duration cap.
    assert continuous_readout._TAIL_FLOOR == 1e-17
    t = thresholds_from_pq(PartialProjParams(0.8, 0.6))
    grid = continuous_readout._grid(ReadoutConfig(tau_min=1.0, seed=0))
    surv = continuous_readout._exit_table(t, *grid)
    below = np.all(surv[:, 1:] < continuous_readout._TAIL_FLOOR * surv[:, :1], axis=0)
    assert below[-1] and not below[:-1].any()
    assert surv.shape[1] < grid[1]
