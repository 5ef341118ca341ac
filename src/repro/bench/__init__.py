"""The ``repro bench <suite>`` API: one entry point for every benchmark.

Five suites share one :class:`~repro.bench.runner.BenchRunner` (common
``--quick``/``--repeats``/``--json``/``--out`` flags, uniform schema
header, merge-into-``BENCH_throughput.json`` semantics in one place):

* ``throughput`` -- garbling/evaluation gates-per-second per backend;
* ``sim``        -- timing-simulator models, engines, batched grid;
* ``protocol``   -- streamed two-party session latency vs an unbounded
  in-flight window;
* ``service``    -- concurrent-session multiplexer throughput;
* ``scenarios``  -- queue x bandwidth scenario scan (standalone
  artifact; ``--store`` makes it resumable through the
  content-addressed :class:`repro.store.ResultStore`).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from . import protocol, scenarios, service, sim, throughput
from .runner import BenchRunner, THROUGHPUT_SCHEMA, add_common_arguments

__all__ = [
    "BenchRunner",
    "THROUGHPUT_SCHEMA",
    "SUITES",
    "add_bench_subparsers",
    "main",
]

#: suite name -> module with HELP / DEFAULT_OUT / add_arguments / run.
SUITES = {
    "throughput": throughput,
    "sim": sim,
    "protocol": protocol,
    "service": service,
    "scenarios": scenarios,
}

#: Suites whose grid points persist in the ResultStore (get --store).
_STORE_SUITES = {"scenarios"}


def add_bench_subparsers(parser: argparse.ArgumentParser) -> None:
    """Attach one subparser per suite (used by ``repro bench``)."""
    sub = parser.add_subparsers(dest="suite", required=True)
    for name, module in SUITES.items():
        suite_parser = sub.add_parser(name, help=module.HELP)
        add_common_arguments(
            suite_parser, module.DEFAULT_OUT, store=name in _STORE_SUITES
        )
        module.add_arguments(suite_parser)


def run_suite(args: argparse.Namespace) -> int:
    return SUITES[args.suite].run(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__
    )
    add_bench_subparsers(parser)
    return run_suite(parser.parse_args(argv))
