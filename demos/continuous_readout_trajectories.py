"""Thresholded continuous readout of a qubit.

A weak continuous measurement along Z produces an integrated readout R(t)
that diffuses with state-dependent drift. Stopping the record the moment
R crosses an upper threshold R0 (declare outcome 0) or a lower threshold
R1 (declare outcome 1) realizes exactly the standardized partial
projection with fidelities (p, q) fixed by the thresholds.

This script simulates a batch of trajectories for (p, q) = (0.8, 0.6),
checks the outcome statistics against the Born rule, and verifies that
every stopped record leaves the qubit in the state the partial projection
predicts, as long as the detector is ideal. It then repeats the run with
quantum efficiency eta = 0.6 to show the extra dephasing an inefficient
detector causes.
"""

import math

import numpy as np

from genmeas import (
    PartialProjParams,
    ReadoutConfig,
    apply_outcome,
    pure_state,
    simulate_batch,
    thresholds_from_pq,
)

params = PartialProjParams(0.8, 0.6)
t = thresholds_from_pq(params)
print(f"(p, q) = (0.8, 0.6)  ->  thresholds R0 = {t.R0:.5f}, R1 = {t.R1:.5f}")

config = ReadoutConfig(tau_min=1.0, seed=11)
plus = pure_state(np.array([1.0, 1.0]) / math.sqrt(2))

n = 5000
batch = simulate_batch(config, t, plus, n)

f0 = np.count_nonzero(batch.outcome == 0) / n
expected = 0.5 * (1.0 + params.p - params.q)
sigma = math.sqrt(expected * (1 - expected) / n)
print(f"outcome-0 frequency: {f0:.4f}  (Born rule {expected:.4f}, "
      f"deviation {abs(f0 - expected) / sigma:.1f} sigma)")

durations = batch.duration
print(f"mean stopping time: {durations.mean():.3f} tau "
      f"(min {durations.min():.2f}, max {durations.max():.2f})")

# Each stopped record should match the partial-projection update exactly:
# gather the two ideal post-measurement states by outcome and compare arrays.
ideal = np.stack([apply_outcome(params, b, plus) for b in (0, 1)])
worst = np.linalg.norm(batch.final_state - ideal[batch.outcome], axis=(1, 2)).max()
print(f"worst state deviation from ideal partial projection: {worst:.2e}")
print(f"all purities stay at 1: "
      f"{bool(np.all(np.abs(batch.purity - 1.0) < 1e-9))}")

print()
print("same run with quantum efficiency eta = 0.6")
lossy = ReadoutConfig(tau_min=1.0, seed=11, efficiency=0.6)
purities = simulate_batch(lossy, t, plus, 2000).purity
print(f"mean purity after stopping: {purities.mean():.4f} "
      f"(unobserved signal dephases the qubit)")
