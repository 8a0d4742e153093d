"""Benchmark of the `fourier-adder` command, run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0

Every task is one `fourier-adder` command line, called in-process through
`fourieradd.cli.main` with stdout captured, and every output is checked by the
benchmark itself. `--trace 0` reports the end-to-end metrics; `--trace 1`
reports the per-layer metrics from a separately traced pass. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. The line
before it records the seed, the machine and the figures that need a note.
A traced run also writes the spans of its last traced round to
`.bench_out/spans-<workload>.npz`. Exits 2 without a result when there is no
`src/fourieradd` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# OpenBLAS sizes its thread pool when numpy first loads it, so the pins are set
# before anything imports numpy. One thread: all load comes from this process.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
OUT_DIR = ".bench_out"
WORK_DIR = ".bench_work"
RECORD_ONLY = (  # layer figures that are 0 on every workload that does not reach the layer
    "statevector.io_ms",
    "dense.dft_matrix.ms",
    "dense.check_modularity.ms",
    "dense.check_phase_adder_equivalence.ms",
    "dense.circuit_to_matrix.ms",
    "dense.self_ms",
    "verify.self_ms",
)
MAX_FAILURES_SHOWN = 5


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=55.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(THREAD_PINS)
    import bench
    import workloads

    args = _parse(argv, workloads.WORKLOADS)
    root = Path.cwd()
    try:
        program = bench.load_program(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = root / WORK_DIR / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup, tasks = workloads.build(args.workload, args.seed, workdir)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": bench.machine_record({var: os.environ[var] for var in THREAD_PINS}),
            "state_bytes": {n: 16 << n for n in sorted({n for t in tasks for n in t.widths()})},
            "work_gate_amps_per_round": sum(t.gate_amps() for t in tasks),
        }
        if args.trace == 0:
            # One set-up after every round, so the set-up times spread over the whole run.
            setup: list[float] = []
            _, warmup_failure = bench.run_task(program, warmup)
            rounds = bench.run_rounds(
                program, tasks, args.seconds, after_round=lambda: setup.append(bench.measure_setup(root, warmup))
            )
            metrics, notes = bench.end_to_end(rounds, record["work_gate_amps_per_round"], setup)
            record.update(notes, setup_s_all=setup)
        else:
            _, warmup_failure = bench.run_task(program, warmup)
            metrics, tracer, plain, spanned = bench.traced(program, tasks, args.seconds)
            rounds = plain + spanned
            for name in RECORD_ONLY:
                record[name] = metrics.pop(name)
            record.update(rounds_untraced=len(plain), rounds_traced=len(spanned))
            tracer.write(root / OUT_DIR / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [warmup_failure] + [f for r in rounds for f in r.failures]
    failed = [f for f in failures if f is not None]
    record["failed_frac"] = (len(failed) / len(failures), "fraction")
    record["failures"] = failed[:MAX_FAILURES_SHOWN]
    result = {
        "correct": not failed,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
