"""``repro bench protocol`` -- two-party session latency.

Times complete ``TwoPartySession`` sessions -- OT handshake, garbling,
table transfer, evaluation, output sharing, transcript digests -- on
the same circuit and seed under two in-flight windows of the
:class:`~repro.gc.protocol.StreamedDriver`:

* ``streamed`` -- window 1 (:meth:`TwoPartySession.run`): one AND
  level's tables ship and are evaluated before the next is garbled;
* ``unbounded`` -- a window of at least the level count: every level is
  garbled before any is evaluated, so the Evaluator holds nothing
  evaluated until the garbling is over.

The headline metric is ``first_level_speedup``: the unbounded-window
session time over the window-1 ``first_level_s`` -- how much sooner
the Evaluator holds (and has evaluated) the first AND level's tables
under streaming than it would once the whole exchange was done.
Merges into ``BENCH_throughput.json`` under ``"protocol" ->
"streaming"`` (sub-schema ``repro.bench_protocol/v2``).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, Optional, Sequence

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import GateOp
from ..circuits.stdlib.integer import add, less_than, mul
from ..gc.protocol import StreamedDriver, TwoPartySession
from .runner import BenchRunner, add_common_arguments

HELP = "two-party session latency: window-1 streaming vs an unbounded window"
DEFAULT_OUT = "BENCH_throughput.json"
FULL_REPEATS = 3

PROTOCOL_SCHEMA = "repro.bench_protocol/v2"


def quick_circuit():
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(8)
    ys = builder.add_evaluator_inputs(8)
    builder.mark_outputs(add(builder, xs, ys))
    builder.mark_outputs(mul(builder, xs, ys))
    builder.mark_outputs([less_than(builder, xs, ys)])
    return builder.build("mixed8")


def full_circuit():
    from ..circuits.stdlib.aes_circuit import build_aes128_circuit

    return build_aes128_circuit()


def session_bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _best_of(repeats, fn):
    best_seconds = None
    best_value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
            best_value = value
    return best_seconds, best_value


def measure_protocol(quick: bool = False, repeats: int = 3) -> dict:
    """Benchmark both windows; returns the ``"protocol"`` section."""
    circuit = quick_circuit() if quick else full_circuit()
    garbler_bits, evaluator_bits = session_bits(circuit)
    and_gates = sum(1 for gate in circuit.gates if gate.op is GateOp.AND)
    schedule = circuit.and_level_schedule()
    and_levels = sum(1 for ands, _ in schedule if ands)

    def session(window):
        driver = StreamedDriver(
            TwoPartySession(circuit, seed=7, backend="auto"),
            garbler_bits,
            evaluator_bits,
            max_inflight_levels=window,
        )
        while not driver.done:
            driver.step()
        return driver.result

    unbounded_seconds, unbounded = _best_of(
        repeats, lambda: session(len(schedule))
    )
    streamed_seconds, stream = _best_of(repeats, lambda: session(1))
    if (unbounded.output_bits, unbounded.transcript_digest) != (
        stream.output_bits, stream.transcript_digest
    ):
        raise AssertionError(
            "window-1 and unbounded-window sessions disagree -- refusing "
            "to report benchmark numbers for a broken protocol"
        )

    first_level_s = stream.first_level_s or streamed_seconds
    return {
        "schema": PROTOCOL_SCHEMA,
        "streaming": {
            "circuit": circuit.name,
            "gates": len(circuit.gates),
            "and_gates": and_gates,
            "and_levels": and_levels,
            "unbounded": {
                "seconds": unbounded_seconds,
                "first_level_s": unbounded.first_level_s,
            },
            "streamed": {
                "seconds": streamed_seconds,
                "and_gates_per_s": and_gates / streamed_seconds,
                "bytes": stream.total_bytes,
                "first_level_s": first_level_s,
            },
            # Time until the Evaluator has *evaluated* level 1 under
            # streaming vs waiting out the whole unbounded-window session.
            "first_level_speedup": unbounded_seconds / first_level_s,
        },
    }


def render(section: Dict) -> str:
    info = section["streaming"]
    unbounded = info["unbounded"]
    stream = info["streamed"]
    return "\n".join([
        f"circuit {info['circuit']}: {info['gates']} gates, "
        f"{info['and_gates']} AND over {info['and_levels']} levels",
        f"   unbounded: {unbounded['seconds'] * 1000:8.2f} ms",
        f"    streamed: {stream['seconds'] * 1000:8.2f} ms "
        f"({stream['and_gates_per_s']:,.0f} AND/s, {stream['bytes']:,} B)",
        f" first level: {stream['first_level_s'] * 1000:8.2f} ms "
        f"({info['first_level_speedup']:.1f}x sooner than the "
        f"unbounded-window session completes)",
    ])


def add_arguments(parser: argparse.ArgumentParser) -> None:
    pass


def run(args: argparse.Namespace) -> int:
    runner = BenchRunner.from_args(args)
    section = measure_protocol(
        quick=runner.quick, repeats=runner.repeats(FULL_REPEATS)
    )
    out_path = runner.merge_section(section, key="protocol")
    print(render(section))
    print(f"wrote {out_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_common_arguments(parser, DEFAULT_OUT)
    add_arguments(parser)
    return run(parser.parse_args(argv))
