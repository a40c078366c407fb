"""Independent correctness references for the benchmark's outputs.

Every checker takes the program's outputs plus the benchmark's own inputs
and returns a list of failure messages (empty when the output is right).
The references are computed here from the original Kraus operators with
plain numpy; none of them calls back into ``genmeas``.

Statistical checks allow 6 sigma. A spurious failure would reject a correct
change, and changes that alter random-number use redraw every sample, while
real defects such as swapped labels land far beyond 6 sigma. The 6 sigma
limit is applied as its two-sided normal tail probability (about 2e-9) to
the exact binomial distribution, so that leaves with only a few expected
counts get no spurious failures.
"""

from __future__ import annotations

import math

import numpy as np

SIGMAS = 6.0
TAIL_PROB = math.erfc(SIGMAS / math.sqrt(2.0))
STATE_TOL = 1e-8
BRANCH_TOL = 1e-9
THRESHOLD_TOL = 1e-6
WALK_FIDELITY_TOL = 1e-6
TRACE_TOL = 1e-9
FIDELITY_SLACK = 1e-9
LINEAR_LAW_TOL = 0.05


def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _tail(count: int, n: int, p: float, step: int) -> float:
    """P(X <= count) for step = -1, P(X >= count) for step = +1; X ~ Bin(n, p)."""
    total = 0.0
    k = count
    while 0 <= k <= n:
        term = math.exp(_log_pmf(k, n, p))
        total += term
        if term < 1e-300 or (term < total * 1e-17 and abs(k - n * p) > 1):
            break
        k += step
    return total


def binomial_ok(count: int, n: int, p: float) -> bool:
    """Whether ``count`` successes in ``n`` trials are within 6 sigma of Bin(n, p)."""
    p = min(max(p, 0.0), 1.0)
    if not 0 <= count <= n:
        return False
    if p <= 1e-15:
        return count == 0
    if p >= 1.0 - 1e-15:
        return count == n
    mean = n * p
    sd = math.sqrt(n * p * (1.0 - p))
    if abs(count - mean) <= 4.0 * sd:
        return True
    step = 1 if count > mean else -1
    return min(1.0, 2.0 * _tail(count, n, p, step)) >= TAIL_PROB


def leaf_references(ops, labels, rho) -> tuple[dict, dict]:
    """Born probabilities Tr(M rho M^dag) and post-measurement states per leaf."""
    probs, states = {}, {}
    for label, m in zip(labels, ops):
        out = m @ rho @ m.conj().T
        p = float(np.trace(out).real)
        probs[label] = p
        if p > 1e-15:
            states[label] = out / p
    return probs, states


def check_histogram(counts: dict, probs: dict, shots: int) -> list[str]:
    """Leaf counts sum to ``shots`` and each is within 6 sigma of shots * p_k."""
    fails = []
    if set(counts) - set(probs):
        fails.append(f"unknown leaves {sorted(set(counts) - set(probs))}")
    total = sum(counts.values())
    if total != shots:
        fails.append(f"leaf counts sum to {total}, expected {shots}")
    for label, p in probs.items():
        c = int(counts.get(label, 0))
        if not binomial_ok(c, shots, p):
            fails.append(f"leaf {label}: count {c}, expected {shots * p:.1f}")
    return fails


def check_mean_states(means: dict, counts: dict, states: dict, tol=STATE_TOL) -> list[str]:
    """Each reached leaf's mean final state equals M_k rho M_k^dag / Tr."""
    fails = []
    for label, c in counts.items():
        if c == 0:
            continue
        if label not in means or label not in states:
            fails.append(f"leaf {label}: reached {c} times but has no mean state")
            continue
        dev = float(np.max(np.abs(np.asarray(means[label]) - states[label])))
        if not dev <= tol:
            fails.append(f"leaf {label}: mean state off by {dev:.2e}")
    return fails


def check_walk(outcomes, final_R, final_states, rho, p, q, R0, R1, alpha, eta) -> list[str]:
    """Thresholded-readout batch against the partial projection (p, q) on rho."""
    fails = []
    outcomes = np.asarray(outcomes)
    final_R = np.asarray(final_R, dtype=float)
    states = np.asarray(final_states)
    n = len(outcomes)
    p0 = p * rho[0, 0].real + (1.0 - q) * rho[1, 1].real
    n0 = int(np.sum(outcomes == 0))
    if not binomial_ok(n0, n, p0):
        fails.append(f"outcome-0 count {n0} of {n}, expected {n * p0:.1f}")
    target = np.where(outcomes == 0, R0, R1)
    dev = float(np.max(np.abs(final_R - target))) if n else 0.0
    if not dev <= THRESHOLD_TOL:
        fails.append(f"final_R off its threshold by {dev:.2e}")
    traces = np.trace(states, axis1=1, axis2=2).real
    if not np.all(np.abs(traces - 1.0) <= TRACE_TOL):
        fails.append(f"final-state trace off by {np.max(np.abs(traces - 1.0)):.2e}")
    purity = np.einsum("nij,nji->n", states, states).real
    if not np.all(purity <= 1.0 + TRACE_TOL):
        fails.append(f"final-state purity {np.max(purity):.12f} exceeds 1")
    if eta == 1.0:
        d = {
            0: np.array([math.sqrt(p), math.sqrt(1.0 - q)]),
            1: np.array([math.sqrt(1.0 - p), math.sqrt(q)]),
        }
        for k, r in ((0, R0), (1, R1)):
            sel = outcomes == k
            if not np.any(sel):
                continue
            phase = (r / 2.0) * math.tan(alpha)
            dk = d[k] * np.array([np.exp(-1j * phase), np.exp(1j * phase)])
            ref = dk[:, None] * rho * dk.conj()[None, :]
            ref = ref / np.trace(ref).real
            # Squared fidelity Tr(rho sigma) against the pure reference state.
            fid = np.einsum("nij,ji->n", states[sel], ref).real
            if not np.all(fid >= 1.0 - WALK_FIDELITY_TOL):
                fails.append(f"outcome {k}: final-state fidelity {np.min(fid):.9f}")
    return fails


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b minimised over a global phase on b."""
    t = np.trace(b.conj().T @ a)
    if abs(t) > 1e-300:
        b = (t / abs(t)) * b
    return float(np.linalg.norm(a - b))


def check_branches(branches: dict, ops, labels) -> list[str]:
    """Composed branches equal M_k up to phase, and sum_k B^dag B = I."""
    fails = []
    for label, m in zip(labels, ops):
        dev = phase_distance(m, branches[label])
        if not dev <= BRANCH_TOL:
            fails.append(f"branch {label}: deviation {dev:.2e} from M_k")
    total = sum(b.conj().T @ b for b in branches.values())
    dev = float(np.linalg.norm(total - np.eye(2)))
    if not dev <= BRANCH_TOL:
        fails.append(f"branches complete only to {dev:.2e}")
    return fails


def check_kraus_round_trip(before, after) -> list[str]:
    if tuple(before.labels) != tuple(after.labels):
        return [f"kraus JSON round trip changed labels {before.labels} -> {after.labels}"]
    for a, b in zip(before.ops, after.ops):
        if a.shape != b.shape or not np.array_equal(a, b):
            return ["kraus JSON round trip is not exact"]
    return []


def check_protocol_round_trip(before, after) -> list[str]:
    if tuple(before.leaf_labels) != tuple(after.leaf_labels) or len(before.steps) != len(after.steps):
        return ["protocol JSON round trip changed the protocol's shape"]
    pairs = [(before.final_unitary, after.final_unitary)]
    for s, t in zip(before.steps, after.steps):
        if (s.params.p, s.params.q) != (t.params.p, t.params.q):
            return ["protocol JSON round trip changed a step's (p, q)"]
        pairs += [
            (s.pre_unitary, t.pre_unitary),
            (s.post_unitary_0, t.post_unitary_0),
            (s.post_unitary_1, t.post_unitary_1),
        ]
    if not all(np.array_equal(a, b) for a, b in pairs):
        return ["protocol JSON round trip is not exact"]
    return []


def fidelity_in_range(name: str, value, upper: float = 1.0 + FIDELITY_SLACK) -> list[str]:
    if value is None or not (0.0 <= value <= upper):
        return [f"fidelity {name} = {value} outside [0, 1]"]
    return []


def check_report(report: dict) -> list[str]:
    """Fidelity report: values in range and total_sum consistent with its own fields."""
    fails = []
    labels = report["labels"]
    for label in labels:
        f = report["partial"][label]["F"]
        if f is not None:
            fails += fidelity_in_range(f"partial[{label}]", f)
    for key in ("total_sum", "total_sqrt_squared", "povm_Fp", "povm_FpTilde"):
        fails += fidelity_in_range(key, report[key])
    expected = 0.0
    for label, pa, pi in zip(labels, report["p_actual"], report["p_ideal"]):
        f = report["partial"][label]["F"]
        if f is not None and pa > 0.0 and pi > 0.0:
            expected += math.sqrt(pa * pi) * f
    if not abs(report["total_sum"] - expected) <= 1e-9:
        fails.append(f"total_sum {report['total_sum']!r} != sum sqrt(p p') F = {expected!r}")
    return fails


def check_linear_law(avg_fidelity: float, chi: np.ndarray, chi_ideal: np.ndarray) -> list[str]:
    """Average state fidelity near 1 - (1 - F6)(2/3), with F6 = Tr(chi chi_ideal)."""
    fails = fidelity_in_range("average_state_fidelity", avg_fidelity)
    f6 = float(np.trace(np.asarray(chi) @ np.asarray(chi_ideal)).real)
    expected = 1.0 - (1.0 - f6) * 2.0 / 3.0
    if not abs(avg_fidelity - expected) <= LINEAR_LAW_TOL:
        fails.append(f"average_state_fidelity {avg_fidelity:.4f}, linear law {expected:.4f}")
    return fails


def check_exit(stage: str, returncode: int, stderr: str = "") -> list[str]:
    if returncode != 0:
        return [f"cli {stage} exited {returncode}: {stderr.strip()[-200:]}"]
    return []


def check_synth_stdout(stdout: str, labels) -> list[str]:
    """``synth`` prints one composition deviation per leaf; each must be <= 1e-9."""
    devs = {}
    for line in stdout.splitlines():
        if line.startswith("leaf ") and "composition deviation" in line:
            head, _, value = line.rpartition(" ")
            devs[head.split()[1].rstrip(":")] = float(value)
    fails = []
    for label in labels:
        if label not in devs:
            fails.append(f"synth reported no deviation for leaf {label}")
        elif not devs[label] <= BRANCH_TOL:
            fails.append(f"synth leaf {label}: composition deviation {devs[label]:.2e}")
    return fails


def check_jsonl_outcomes(lines, shots: int, p0: float) -> list[str]:
    """Trajectory JSONL: one line per shot and outcome-0 count within 6 sigma."""
    if len(lines) != shots:
        return [f"trajectory wrote {len(lines)} lines, expected {shots}"]
    n0 = sum(1 for rec in lines if rec["outcome"] == 0)
    if not binomial_ok(n0, shots, p0):
        return [f"trajectory outcome-0 count {n0} of {shots}, expected {shots * p0:.1f}"]
    return []
