"""Seeded task lists for the benchmark's two workloads, and the output check of every task.

Each task is one `fourier-adder` command line. The seed picks the inputs (basis
values, constants, amplitudes, the verify seed, the classical re-check sample).
The widths and the order of the tasks, and with them the work in a round and
the sequence of allocations behind peak memory, are fixed per workload, so runs
with different seeds measure the same amount of work.

The checks trust nothing the program reports about itself. Every comparison is
written so that it passes only when `error <= tol` holds, which NaN never
satisfies.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

AMP_TOL = 1e-9  # largest distance of any amplitude from the classically expected state
VERIFY_TOL = 1e-10  # the program's default tolerance; a verify report may print no larger max_error
VERIFY_SAMPLES = 4  # (a, c) pairs per verify task re-run through apply_const_add
SAMPLE_MAX_QUBITS = 10

WORKLOADS = ("verify", "add")


def qft_gates(n: int) -> int:
    """Gates in the unfused transform over n qubits: n Hadamards, n(n-1)/2 cphases, n//2 swaps."""
    return n * (n + 1) // 2 + n // 2


def const_adder_gates(n: int) -> int:
    """Gates in the unfused constant adder: transform, n rotations, inverse transform."""
    return 2 * qft_gates(n) + n


def register_adder_gates(m: int) -> int:
    """Gates in the unfused register adder over two m-qubit operands."""
    return 2 * qft_gates(m) + m * (m + 1) // 2


def _basis(n: int, index: int) -> np.ndarray:
    vector = np.zeros(1 << n, dtype=np.complex128)
    vector[index] = 1.0
    return vector


def _compare(actual: np.ndarray, expected: np.ndarray) -> str | None:
    error = np.abs(actual - expected)
    if bool(np.all(error <= AMP_TOL)):
        return None
    return f"amplitudes off by up to {float(np.max(error))!r}"


def _parse_table(out: str, n: int) -> np.ndarray:
    """Amplitudes from `add`'s default table; rows the program left out count as zero."""
    dim = 1 << n
    amplitudes = np.zeros(dim, dtype=np.complex128)
    seen = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"malformed table row {line!r}")
        index = int(fields[0])
        if not 0 <= index < dim or index in seen:
            raise ValueError(f"bad or repeated row index {index}")
        seen.add(index)
        amplitudes[index] = complex(float(fields[1]), float(fields[2]))
    return amplitudes


def _parse_state_json(out: str, n: int) -> np.ndarray:
    data = json.loads(out)
    pairs = np.asarray(data["amplitudes"], dtype=np.float64)
    if data["n"] != n or pairs.shape != (1 << n, 2):
        raise ValueError(f"state document has n={data['n']!r} and shape {pairs.shape}")
    return pairs[:, 0] + 1j * pairs[:, 1]


@dataclass(frozen=True)
class AddTask:
    """`add` on a basis input; the output must be |a + c mod 2**n> with amplitude 1."""

    n: int
    const: int
    value: int

    def argv(self) -> tuple[str, ...]:
        return ("add", "--n", str(self.n), "--const", str(self.const), "--input", str(self.value))

    def widths(self) -> tuple[int, ...]:
        return (self.n,)

    def gate_amps(self) -> int:
        return const_adder_gates(self.n) << self.n

    def check(self, code, out: str, program) -> str | None:
        if code != 0:
            return f"exit code {code}"
        target = (self.value + self.const) % (1 << self.n)
        return _compare(_parse_table(out, self.n), _basis(self.n, target))


@dataclass(frozen=True)
class AddRegTask:
    """`add-reg` on basis operands; the output must name a and (a + b) mod 2**n."""

    n: int
    a: int
    b: int

    def argv(self) -> tuple[str, ...]:
        return ("add-reg", "--n", str(self.n), "--a", str(self.a), "--b", str(self.b))

    def widths(self) -> tuple[int, ...]:
        return (2 * self.n,)

    def gate_amps(self) -> int:
        return register_adder_gates(self.n) << (2 * self.n)

    def check(self, code, out: str, program) -> str | None:
        if code != 0:
            return f"exit code {code}"
        expected = [f"a={self.a}", f"b={(self.a + self.b) % (1 << self.n)}"]
        if out.split() != expected:
            return f"printed {out.strip()!r}, expected {' '.join(expected)!r}"
        return None


@dataclass(frozen=True, eq=False)
class AddStateTask:
    """`add --input <state file>`; the output must be the input amplitudes rolled by c."""

    n: int
    const: int
    path: str
    amplitudes: np.ndarray
    as_json: bool

    def argv(self) -> tuple[str, ...]:
        argv = ("add", "--n", str(self.n), "--const", str(self.const), "--input", self.path)
        return argv + ("--json",) if self.as_json else argv

    def widths(self) -> tuple[int, ...]:
        return (self.n,)

    def gate_amps(self) -> int:
        return const_adder_gates(self.n) << self.n

    def check(self, code, out: str, program) -> str | None:
        if code != 0:
            return f"exit code {code}"
        parse = _parse_state_json if self.as_json else _parse_table
        return _compare(parse(out, self.n), np.roll(self.amplitudes, self.const % (1 << self.n)))


_REPORT = re.compile(r"^(\S+)  n=(\d+)  c=(-?\d+)  max_error=(\S+)  (pass|FAIL)$")
_CHECK_NAMES = {
    "const": ("const-adder-exhaustive",),
    "draper": ("register-adder-exhaustive",),
    "equivalence": ("phase-adder-equivalence",),
    "modularity": ("modularity", "modular-constant-shift"),
}


@dataclass(frozen=True)
class VerifyTask:
    """`verify` for one suite; its reports are checked, then a sample is re-run classically.

    Each report must pass with a finite max_error in [0, VERIFY_TOL]. Because a
    sweep whose kernel writes NaN can still report max_error=0.0, every sample
    (n, a, c) is also run through apply_const_add and compared with |a + c>.
    """

    suite: str
    n_max: int
    seed: int
    samples: tuple[tuple[int, int, int], ...]

    def argv(self) -> tuple[str, ...]:
        return ("verify", "--suite", self.suite, "--n-max", str(self.n_max), "--seed", str(self.seed))

    def widths(self) -> tuple[int, ...]:
        if self.suite == "equivalence":
            return ()  # dense matrices only, no statevector
        if self.suite == "draper":
            return tuple(2 * n for n in range(1, self.n_max + 1))
        return tuple(range(1, self.n_max + 1))

    def gate_amps(self) -> int:
        total = 0
        for n in range(1, self.n_max + 1):
            if self.suite == "const":  # 2**n constants x 2**n inputs, each on 2**n amplitudes
                total += const_adder_gates(n) << (3 * n)
            elif self.suite == "draper":  # 4**n inputs, each on 4**n amplitudes
                total += register_adder_gates(n) << (4 * n)
            elif self.suite == "modularity":  # 8 adders expanded column by column
                total += 8 * (const_adder_gates(n) << (2 * n))
        return total

    def check(self, code, out: str, program) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        expected = {(name, n) for name in _CHECK_NAMES[self.suite] for n in range(1, self.n_max + 1)}
        if not lines or lines[-1] != f"all {len(expected)} checks passed":
            return f"last line {lines[-1] if lines else ''!r}"
        seen = set()
        for line in lines[:-1]:
            match = _REPORT.match(line)
            if match is None:
                return f"malformed report {line!r}"
            name, n, _, error, status = match.groups()
            seen.add((name, int(n)))
            max_error = float(error)
            if status != "pass" or not (0.0 <= max_error <= VERIFY_TOL):
                return f"report {line!r} is outside [0, {VERIFY_TOL}]"
        if seen != expected or len(lines) - 1 != len(expected):
            return f"reports cover {sorted(seen)}, expected {sorted(expected)}"
        for n, a, c in self.samples:
            state = program.statevector.basis_state(n, a)
            program.arithmetic.apply_const_add(state, c)
            failure = _compare(state.amplitudes, _basis(n, (a + c) % (1 << n)))
            if failure is not None:
                return f"re-run of {a} + {c} on {n} qubits: {failure}"
        return None


def _verify(rng: np.random.Generator, suite: str, n_max: int) -> VerifyTask:
    samples = []
    for _ in range(VERIFY_SAMPLES):
        n = int(rng.integers(1, min(n_max, SAMPLE_MAX_QUBITS) + 1))
        samples.append((n, int(rng.integers(0, 1 << n)), int(rng.integers(-(1 << n), 1 << n))))
    return VerifyTask(suite, n_max, int(rng.integers(0, 2**31)), tuple(samples))


def _add(rng: np.random.Generator, n: int) -> AddTask:
    return AddTask(n, int(rng.integers(-(1 << n), 1 << n)), int(rng.integers(0, 1 << n)))


def _add_reg(rng: np.random.Generator, n: int) -> AddRegTask:
    return AddRegTask(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def _add_state(rng: np.random.Generator, n: int, path: Path, as_json: bool) -> AddStateTask:
    """A dense superposition with every |amplitude|**2 far above the table's display cutoff."""
    dim = 1 << n
    amplitudes = rng.uniform(0.5, 1.5, dim) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, dim))
    amplitudes /= np.linalg.norm(amplitudes)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"n": n, "amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()]}, handle)
    return AddStateTask(n, int(rng.integers(-(1 << n), 1 << n)), str(path), amplitudes, as_json)


# Two workloads, one per subcommand family, each of two task families that the
# roadmap items move separately (see README.md). A round holds 19 tasks of
# about 0.2 s on average, so a 55 s run records 150 to 230 task times and its
# tail percentile is the 75th or the 95th (see bench.tail_percentile). Each
# round has seven shorter tasks, five equal tasks in the middle and seven
# longer ones, so the 50th percentile of the tasks' best times falls in the
# middle of one group of equal tasks and reads the same from seed to seed.
_ROUNDS = {
    "verify": [("const", 4)] + [("draper", 4)] * 2 + [("equivalence", 8)] * 2 + [("modularity", 5)] * 2
    + [("equivalence", 9)] * 5
    + [("modularity", 6)] * 2 + [("const", 5)] * 2 + [("draper", 5)] * 2 + [("modularity", 7)],
    "add": [("add-reg", 9)] * 2 + [("json", 14)] + [("table", 14)] * 2 + [("json", 15)] * 2
    + [("add", 18)] * 5
    + [("table", 15)] + [("add-reg", 10)] * 2 + [("json", 16), ("add", 19), ("table", 16), ("add", 20)],
}
_WARMUPS = {
    "verify": ("const", 3),
    "add": ("json", 10),
}


def make_task(rng: np.random.Generator, kind: str, n: int, workdir: Path, index: int):
    """One seeded task of the given kind and width; state files are written under workdir."""
    if kind == "add":
        return _add(rng, n)
    if kind == "add-reg":
        return _add_reg(rng, n)
    if kind in ("json", "table"):
        return _add_state(rng, n, workdir / f"state-{index}.json", kind == "json")
    return _verify(rng, kind, n)


def build(workload: str, seed: int, workdir: Path):
    """The warm-up task and the fixed task list of one round, both generated from the seed."""
    rng = np.random.default_rng(seed)
    warmup = make_task(rng, *_WARMUPS[workload], workdir, 0)
    return warmup, [make_task(rng, kind, n, workdir, i + 1) for i, (kind, n) in enumerate(_ROUNDS[workload])]
