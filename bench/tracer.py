"""Span tracing at the boundaries of ``genmeas``'s public functions.

Span times are thread CPU time, like the op times, so time the host steals
from the machine does not count. ``Tracer.install`` rebinds, at run time, every module attribute of the
``genmeas`` package that holds one of the ``TARGETS`` functions, including
aliases such as ``cli.reduce_kraus``, to a wrapper that records a span:
name, start, end, parent span and op id. Each binding site gets its own
span name (``partial_projection.validate_state@decomposition``), so call
counts can be split by caller. Spans stay in memory in flat arrays and are
written out once, at the end of the run.

A target that the package no longer defines is recorded as absent, with a
call count of 0, rather than raising.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

TARGETS = {
    "decomposition": (
        "reduce", "sample_protocol", "execute_protocol",
        "protocol_to_json", "protocol_from_json", "compose_branch",
    ),
    "partial_projection": ("validate_state", "apply_outcome", "outcome_probabilities"),
    "ancilla_circuit": ("kraus_from_circuit",),
    "continuous_readout": ("simulate_batch", "simulate_trajectory", "trajectories_to_jsonl"),
    "fidelity": (
        "fidelity_report", "average_state_fidelity", "apply_process",
        "state_fidelity", "chi_from_kraus", "povm_from_process",
    ),
    "channels": ("noisy_branch",),
    "serialize": ("kraus_set_to_json", "kraus_set_from_json"),
    "linalg": ("herm_eig", "psd_sqrt"),
}

# Op ids for spans outside the timed ops.
SETUP = -1
CHECK = -2


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack = [-1]
        self.op_id = SETUP
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        span_name, parent, op, t0, t1 = self.span_name, self.parent, self.op, self.t0, self.t1
        stack = self.stack
        clock = time.thread_time_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(t0)
            span_name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            t1.append(0)
            stack.append(i)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "genmeas") -> None:
        """Wrap every binding of every target in the imported ``package`` modules."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for layer, funcs in TARGETS.items():
            home = modules.get(f"{package}.{layer}")
            for func in funcs:
                original = getattr(home, func, None) if home is not None else None
                if original is None or not callable(original):
                    self.absent.append(f"{layer}.{func}")
                    continue
                for mod_name, mod in modules.items():
                    site = mod_name.rpartition(".")[2] if mod_name != package else package
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, self.wrap(original, f"{layer}.{func}@{site}"))

    def arrays(self) -> dict:
        n = len(self.t1)
        return {
            "names": np.array(self.names, dtype=object),
            "span_name": np.frombuffer(self.span_name, dtype=np.int32)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            "op": np.frombuffer(self.op, dtype=np.int32)[:n].copy(),
            "t0": np.frombuffer(self.t0, dtype=np.int64)[:n].copy(),
            "t1": np.frombuffer(self.t1, dtype=np.int64)[:n].copy(),
        }

    def extend(self, spans: dict, op_id: int) -> None:
        """Append spans recorded in another process, re-parented and tagged with ``op_id``."""
        base = len(self.t1)
        remap = np.array([self._id(str(n)) for n in spans["names"]], dtype=np.int32)
        parent = spans["parent"].astype(np.int64)
        self.span_name.extend(remap[spans["span_name"]].tolist())
        self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
        self.op.extend([op_id] * len(parent))
        self.t0.extend(spans["t0"].tolist())
        self.t1.extend(spans["t1"].tolist())


def save(path, spans: dict) -> None:
    np.savez(path, **{k: (v.astype(str) if k == "names" else v) for k, v in spans.items()})


def load(path) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def span_cost_ns(calls: int = 20000) -> float:
    """Wall cost a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    best = []
    for _ in range(5):
        t = time.thread_time_ns()
        for _ in range(calls):
            noop()
        raw = time.thread_time_ns() - t
        t = time.thread_time_ns()
        for _ in range(calls):
            wrapped()
        best.append((time.thread_time_ns() - t - raw) / calls)
    return float(max(0.0, np.median(best)))


def analyse(spans: dict, cost_ns: float) -> dict:
    """Per-span corrected duration and self time, function key and top-level ancestor.

    Self time is a span's duration minus the time its direct children
    cover. Both are corrected for the wrapper cost: each descendant span
    adds ``cost_ns`` to its ancestors' durations, and each direct child
    adds it to its parent's self time.
    """
    parent = spans["parent"].astype(np.int64)
    n = len(parent)
    dur = (spans["t1"] - spans["t0"]).astype(float)
    has_parent = parent >= 0
    n_child = np.bincount(parent[has_parent], minlength=n)
    child_dur = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    # Depth and top-level ancestor by pointer jumping; parents precede children.
    top = np.arange(n)
    depth = np.zeros(n, dtype=np.int64)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        top[live] = anc[live]
        depth[live] += 1
        anc[live] = parent[anc[live]]
    n_desc = np.zeros(n, dtype=float)
    for d in range(int(depth.max(initial=0)), 0, -1):
        sel = depth == d
        np.add.at(n_desc, parent[sel], n_desc[sel] + 1.0)
    names = [str(s) for s in spans["names"]]
    func_of_name = np.array([s.partition("@")[0] for s in names] or [""], dtype=object)
    func = func_of_name[spans["span_name"]] if n else np.array([], dtype=object)
    return {
        "func": func,
        "op": spans["op"],
        "dur_ns": np.maximum(dur - n_desc * cost_ns, 0.0),
        "self_ns": np.maximum(dur - child_dur - n_child * cost_ns, 0.0),
        "top_func": func[top] if n else func,
        "sites": names,
        "span_name": spans["span_name"],
    }
