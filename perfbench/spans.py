"""Span tracer that wraps the program's public functions from outside.

Every public function of the layers below is replaced, for the duration of
one task, by a wrapper that records a span: its name, start, end, parent span
and the task it belongs to. The wrapper is installed in every module of the
package that holds the function under its name, so calls are caught where the
caller looks the name up (for example `fourieradd.circuits.apply_hadamard`,
which `run_circuit` calls). Nothing in the program is edited.

Spans stay in memory until the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "verify", "dense", "arithmetic", "circuits", "statevector")
KERNELS = {
    "apply_hadamard": "h",
    "apply_phase": "phase",
    "apply_controlled_phase": "cphase",
    "apply_swap": "swap",
}
# Amplitudes each kernel reads and writes once, as a share of the state.
KERNEL_TOUCHED = {"h": 1.0, "phase": 0.5, "cphase": 0.25, "swap": 0.5}
BYTES_PER_AMPLITUDE = 16
# Gate constructors build one Gate record each; they mark no layer boundary,
# and wrapping them would triple the span count of circuit construction.
UNWRAPPED = {"circuits": {"hadamard", "phase", "cphase", "swap"}}
CIRCUIT_ALGEBRA = ("qft_circuit", "inverse_qft_circuit", "concat", "inverse", "shift_qubits")
ADDER_CONSTRUCTORS = ("const_adder_circuit", "draper_adder_circuit", "phase_adder_circuit", "draper_inner_circuit")
VERIFY_INPUTS = ("circuits.run_circuit", "dense.check_modularity", "dense.check_phase_adder_equivalence")
STAGES = ("transform", "rotations", "inverse")


def _middle_gates(constructor: str, circuit) -> int:
    """Gates between the two transforms of an adder circuit, by the adder's closed form."""
    if constructor == "const_adder_circuit":
        return circuit.n_qubits
    m = circuit.n_qubits // 2
    return m * (m + 1) // 2


class Tracer:
    """Records spans for calls into the program while installed."""

    def __init__(self, package) -> None:
        self._package = package
        self.names: list[str] = []
        self.task = array("l")
        self.parent = array("l")
        self.name = array("l")
        self.amps = array("q")
        self.stage = array("b")
        self.start = array("d")
        self.end = array("d")
        self._task_id = -1
        self._open_spans: list[int] = []
        self._runs: list[list] = []  # [stage bounds or None, next gate position] per open run_circuit
        self._adders: dict[int, tuple] = {}  # id(circuit) -> (circuit, transform gate count)
        self._patches: list[tuple] = []
        # keyed by id of the original function, which the wrapper keeps alive
        self._wrappers = {id(fn): self._wrap(layer, attr, fn) for layer, attr, fn in self._targets()}

    # -- recording -------------------------------------------------------

    def _code(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, code: int, amps: int = 0, stage: int = -1) -> int:
        index = len(self.start)
        self.task.append(self._task_id)
        self.parent.append(self._open_spans[-1] if self._open_spans else -1)
        self.name.append(code)
        self.amps.append(amps)
        self.stage.append(stage)
        self.end.append(0.0)
        self._open_spans.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open_spans.pop()

    def _wrap(self, layer: str, attr: str, fn):
        code = self._code(f"{layer}.{attr}")
        if attr in KERNELS:

            def kernel(state, *args, **kwargs):
                stage = -1
                if self._runs:
                    run = self._runs[-1]
                    position, run[1] = run[1], run[1] + 1
                    if run[0] is not None:
                        stage = (position >= run[0][0]) + (position >= run[0][1])
                index = self._open(code, 1 << state.n_qubits, stage)
                try:
                    return fn(state, *args, **kwargs)
                finally:
                    self._close(index)

            return kernel
        if attr == "run_circuit":

            def run_circuit(circuit, *args, **kwargs):
                entry = self._adders.get(id(circuit))
                bounds = None
                if entry is not None and entry[0] is circuit:
                    bounds = (entry[1], len(circuit.gates) - entry[1])
                self._runs.append([bounds, 0])
                index = self._open(code)
                try:
                    return fn(circuit, *args, **kwargs)
                finally:
                    self._close(index)
                    self._runs.pop()

            return run_circuit
        if attr in ("const_adder_circuit", "draper_adder_circuit"):

            def adder(*args, **kwargs):
                index = self._open(code)
                try:
                    circuit = fn(*args, **kwargs)
                finally:
                    self._close(index)
                transform = (len(circuit.gates) - _middle_gates(attr, circuit)) // 2
                self._adders[id(circuit)] = (circuit, transform)
                return circuit

            return adder

        def span(*args, **kwargs):
            index = self._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return span

    # -- installing ------------------------------------------------------

    def _targets(self):
        """(layer, name, function) for every public function the layers define."""
        for layer in LAYERS:
            module = getattr(self._package, layer)
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                    and attr not in UNWRAPPED.get(layer, ())
                ):
                    yield layer, attr, fn

    def install(self, task_id: int) -> None:
        """Wrap every target wherever the package holds it, for one task."""
        self._task_id = task_id
        holders = [self._package] + [m for m in vars(self._package).values() if inspect.ismodule(m)]
        for module in holders:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)
        self._adders.clear()

    # -- reading ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "task": np.asarray(self.task, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "name": np.asarray(self.name, dtype=np.int64),
            "amps": np.asarray(self.amps, dtype=np.int64),
            "stage": np.asarray(self.stage, dtype=np.int8),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap and
    the time they cover is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def layer_metrics(spans: dict[str, np.ndarray]) -> dict[str, tuple[float, str]]:
    """Per-layer figures, with their units, from the spans of one round."""
    names = [str(name) for name in spans["names"]]
    code = {name: index for index, name in enumerate(names)}
    layer_of = np.array([name.split(".")[0] for name in names] + [""])
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], len(names))
    span_layer = layer_of[name]
    parent_layer = layer_of[parent_name]

    def mask(*qualified: str) -> np.ndarray:
        return np.isin(name, [code[q] for q in qualified if q in code])

    def outermost(*qualified: str) -> np.ndarray:
        codes = [code[q] for q in qualified if q in code]
        return np.isin(name, codes) & ~np.isin(parent_name, codes)

    metrics: dict[str, tuple[float, str]] = {}
    for attr, kind in KERNELS.items():
        calls = mask(f"statevector.{attr}")
        count, seconds = int(calls.sum()), float(duration[calls].sum())
        moved = 2 * BYTES_PER_AMPLITUDE * KERNEL_TOUCHED[kind] * float(spans["amps"][calls].sum())
        metrics[f"statevector.{kind}.calls"] = (float(count), "count")
        metrics[f"statevector.{kind}.us_per_call"] = (1e6 * seconds / count if count else 0.0, "us")
        metrics[f"statevector.{kind}.gbps_computed"] = (moved / seconds / 1e9 if seconds else 0.0, "GB/s")
    kernels = mask(*(f"statevector.{attr}" for attr in KERNELS))
    metrics["statevector.amp_passes"] = (float(spans["amps"][kernels].sum()), "count")
    io = mask("statevector.state_from_dict", "statevector.state_to_dict")
    metrics["statevector.io_ms"] = (float(1e3 * duration[io].sum()), "ms")

    builds = outermost(*(f"circuits.{attr}" for attr in CIRCUIT_ALGEBRA))
    metrics["circuits.build_ms"] = (float(1e3 * duration[builds].sum()), "ms")
    metrics["circuits.build.calls"] = (float(builds.sum()), "count")
    runs = mask("circuits.run_circuit")
    metrics["circuits.run.self_ms"] = (float(1e3 * own[runs].sum()), "ms")
    metrics["circuits.run.calls"] = (float(runs.sum()), "count")
    for index, stage in enumerate(STAGES):
        in_stage = kernels & (spans["stage"] == index)
        metrics[f"circuits.stage.{stage}_ms"] = (float(1e3 * duration[in_stage].sum()), "ms")

    adders = outermost(*(f"arithmetic.{attr}" for attr in ADDER_CONSTRUCTORS))
    metrics["arithmetic.build_ms"] = (float(1e3 * duration[adders].sum()), "ms")
    metrics["arithmetic.build.calls"] = (float(adders.sum()), "count")

    for attr in ("dft_matrix", "check_modularity", "check_phase_adder_equivalence", "circuit_to_matrix"):
        metrics[f"dense.{attr}.ms"] = (float(1e3 * duration[mask(f"dense.{attr}")].sum()), "ms")
    metrics["dense.dft_matrix.calls"] = (float(mask("dense.dft_matrix").sum()), "count")
    metrics["dense.self_ms"] = (float(1e3 * own[span_layer == "dense"].sum()), "ms")

    metrics["verify.self_ms"] = (float(1e3 * own[span_layer == "verify"].sum()), "ms")
    inputs = mask(*VERIFY_INPUTS) & (parent_layer == "verify")
    metrics["verify.inputs"] = (float(inputs.sum()), "count")
    metrics["cli.self_ms"] = (float(1e3 * own[span_layer == "cli"].sum()), "ms")
    return metrics
