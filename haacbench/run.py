"""Run one benchmark workload, or summarize a trace.

Usage, from the root of a checkout::

    python3 haacbench/run.py --workload compile_cold --seed 1 --seconds 15 --trace 0
    python3 haacbench/run.py summarize .haacbench/trace-compile_cold-seed1.jsonl

A run imports the program from the checkout's ``src/`` (never from an
installed copy), pins the environment, checks every output, and prints
as its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Traced runs also write their
spans as JSONL under ``.haacbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".haacbench"

#: Cleared before the program is imported, so no run inherits a cache,
#: a backend or engine override, a result store, faults or a log sink.
PINNED_ENV = (
    "REPRO_PROG_CACHE", "REPRO_GC_BACKEND", "REPRO_GC_WORKERS",
    "REPRO_SIM_ENGINE", "REPRO_RESULT_STORE", "REPRO_FAULTS",
    "REPRO_SUPERVISOR_LOG",
)


class Refused(Exception):
    """The run cannot measure the program it is meant to measure."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise Refused(f"no program source at {SRC}; run from a full checkout")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise Refused(f"imported repro from {repro.__file__}, not from {SRC}")


def commit():
    """The checkout's commit, read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_has_aes():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return "aes" in line.split(":", 1)[1].split()
    except OSError:
        pass
    return None


def host_facts() -> dict:
    """Resolved backend and engine plus host facts; refuses a non-numpy run."""
    import multiprocessing

    import numpy

    from repro.gc.backends import resolve_backend
    from repro.sim.engine import engine_mode

    backend = resolve_backend("auto")
    engine = engine_mode()
    if backend.name != "numpy" or getattr(backend, "auto_fallback_reason", None):
        raise Refused(
            f"gc backend resolved to {backend.name!r}, not 'numpy': the run "
            "would measure a different program"
        )
    if engine != "numpy":
        raise Refused(f"sim engine resolved to {engine!r}, not 'numpy'")
    methods = multiprocessing.get_all_start_methods()
    return {
        "gc_backend": backend.name,
        "sim_engine": engine,
        "pinned_env": list(PINNED_ENV),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_aes": cpu_has_aes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # The supervisor forks where it can.
        "mp_start_method": "fork" if "fork" in methods else "spawn",
        "commit": commit(),
    }


def summarize(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py summarize")
    parser.add_argument("trace", help="a trace JSONL written by a --trace 1 run")
    args = parser.parse_args(argv)
    from spans import read_jsonl, summary_table

    print(summary_table(read_jsonl(args.trace)))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "summarize":
        return summarize(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        facts = host_facts()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), str(OUT)
    )
    tracer = result.pop("tracer")
    print("env " + json.dumps(facts))
    print("exact " + json.dumps(result.pop("exact"), sort_keys=True))
    print(f"units {result.pop('records')}")
    print("setups " + " ".join(f"{t:.4f}" for t in result.pop("setup_times")))
    print(f"host factor mean {result.pop('host_factor'):.4f} "
          f"({result.pop('host_samples')} kernel samples)")
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        print(f"trace {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
