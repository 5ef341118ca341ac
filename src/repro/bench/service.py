"""``repro bench service`` -- concurrent-session service throughput.

Two transports, gated identically:

* ``--transport memory`` -- N identical level-streamed sessions through
  the in-process :class:`repro.serve.SessionMultiplexer` cooperative
  scheduler (the ``"concurrent"`` sub-section);
* ``--transport process`` -- the same sessions through the
  out-of-process :class:`repro.serve.Supervisor`, one OS process per
  party over a kernel socketpair (the ``"process"`` sub-section);
* ``--transport both`` (default) -- both, so one run keeps every gated
  key fresh.

Before reporting any numbers, every concurrent result -- output bits
*and* transcript digest -- is asserted bit-identical to a solo
``TwoPartySession.run`` of the same session (the process path additionally
hands the supervisor the solo digest as its retry re-verification
reference): throughput figures for a protocol that corrupts under
concurrency are worthless.  Merges into ``BENCH_throughput.json`` under
``"service"`` (sub-schema ``repro.bench_service/v2``), carrying over
whichever transport sub-section this invocation did not refresh so a
single-transport run never drops the other lane from the regression
gate.  A single service run is timed (``--repeats`` is accepted for
flag uniformity but unused -- the scheduler percentiles already
aggregate many sessions).
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, Optional, Sequence

from ..gc.protocol import TwoPartySession
from ..serve import SessionMultiplexer, SessionSpec, Supervisor
from .runner import BenchRunner, add_common_arguments
from .protocol import full_circuit, quick_circuit, session_bits

HELP = "concurrent-session service throughput (multiplexer + supervisor)"
DEFAULT_OUT = "BENCH_throughput.json"

SERVICE_SCHEMA = "repro.bench_service/v2"

#: Transport sub-sections the gate may track; used to carry the one a
#: single-transport run did not refresh over from the prior artifact.
_TRANSPORT_KEYS = ("concurrent", "process")


def _solo_reference(circuit, garbler_bits, evaluator_bits):
    return TwoPartySession(circuit, seed=7, backend="auto").run(
        garbler_bits, evaluator_bits
    )


def _assert_identical(session_id: str, result, error, solo) -> None:
    if result is None:
        raise AssertionError(
            f"session {session_id} failed under concurrency: {error!r}"
        )
    if result.output_bits != solo.output_bits:
        raise AssertionError(
            f"session {session_id} output diverged from the solo run -- "
            "refusing to report benchmark numbers for a protocol that "
            "corrupts under concurrency"
        )
    if result.transcript_digest != solo.transcript_digest:
        raise AssertionError(
            f"session {session_id} transcript diverged from the solo "
            "run under concurrency"
        )


def measure_service(
    quick: bool = False,
    sessions: Optional[int] = None,
    concurrency: int = 4,
    window: int = 1,
) -> dict:
    """Benchmark the multiplexer; returns the ``"service"`` section."""
    circuit = quick_circuit() if quick else full_circuit()
    if sessions is None:
        sessions = 8 if quick else 4
    garbler_bits, evaluator_bits = session_bits(circuit)

    # Ground truth: the same session, solo.
    solo = _solo_reference(circuit, garbler_bits, evaluator_bits)

    mux = SessionMultiplexer(
        max_concurrent=concurrency,
        max_pending=max(0, sessions - concurrency),
        max_inflight_levels=window,
    )
    handles = [
        mux.submit(
            TwoPartySession(circuit, seed=7, backend="auto"),
            garbler_bits,
            evaluator_bits,
            session_id=f"s{index}",
        )
        for index in range(sessions)
    ]
    stats = mux.run_until_complete()

    for handle in handles:
        _assert_identical(
            handle.session_id, handle.result, handle.error, solo
        )

    summary = stats.summary()
    return {
        "schema": SERVICE_SCHEMA,
        "concurrent": {
            "circuit": circuit.name,
            "sessions": sessions,
            "concurrency": concurrency,
            "window": window,
            "bit_identical_to_solo": True,
            "wall_s": summary["wall_s"],
            "sessions_per_s": summary["sessions_per_s"],
            "levels_per_s_mean": summary["levels_per_s_mean"],
            "first_level_p50_s": summary["first_level_p50_s"],
            "first_level_p95_s": summary["first_level_p95_s"],
            "queue_wait_p50_s": summary["queue_wait_p50_s"],
            "queue_wait_p95_s": summary["queue_wait_p95_s"],
        },
    }


def measure_service_process(
    quick: bool = False,
    sessions: Optional[int] = None,
    concurrency: int = 2,
    deadline_s: float = 120.0,
    retries: int = 1,
) -> dict:
    """Benchmark the supervisor; returns the ``"process"`` sub-section.

    Every session runs as two supervised OS processes; the solo
    transcript digest doubles as the supervisor's retry re-verification
    reference, so a number is only ever reported for sessions proven
    bit-identical to fault-free.
    """
    circuit = quick_circuit() if quick else full_circuit()
    if sessions is None:
        sessions = 8 if quick else 4
    garbler_bits, evaluator_bits = session_bits(circuit)

    solo = _solo_reference(circuit, garbler_bits, evaluator_bits)

    supervisor = Supervisor(
        max_concurrent=concurrency,
        max_pending=max(0, sessions - concurrency),
        deadline_s=deadline_s,
        retries=retries,
    )
    handles = [
        supervisor.submit(SessionSpec(
            circuit,
            garbler_bits,
            evaluator_bits,
            seed=7,
            backend="auto",
            session_id=f"p{index}",
            reference_digest=solo.transcript_digest,
        ))
        for index in range(sessions)
    ]
    stats = supervisor.run_until_complete()

    for handle in handles:
        _assert_identical(
            handle.session_id, handle.result, handle.error, solo
        )

    summary = stats.summary()
    return {
        "circuit": circuit.name,
        "sessions": sessions,
        "concurrency": concurrency,
        "deadline_s": deadline_s,
        "retry_budget": retries,
        "bit_identical_to_solo": True,
        "wall_s": summary["wall_s"],
        "sessions_per_s": summary["sessions_per_s"],
        "levels_per_s_mean": summary["levels_per_s_mean"],
        "first_level_p50_s": summary["first_level_p50_s"],
        "first_level_p95_s": summary["first_level_p95_s"],
        "queue_wait_p50_s": summary["queue_wait_p50_s"],
        "queue_wait_p95_s": summary["queue_wait_p95_s"],
        "retries": summary["retries"],
        "worker_restarts": summary["worker_restarts"],
    }


def _render_block(title: str, info: Dict) -> str:
    lines = [
        f"{title} -- circuit {info['circuit']}: {info['sessions']} "
        f"sessions on {info['concurrency']} slots, all bit-identical "
        "to solo",
        f"  throughput: {info['sessions_per_s']:.1f} sessions/s, "
        f"{info['levels_per_s_mean']:.0f} levels/s per session, "
        f"{info['wall_s'] * 1000:.1f} ms wall",
        f" first level: p50 {info['first_level_p50_s'] * 1000:.1f} ms, "
        f"p95 {info['first_level_p95_s'] * 1000:.1f} ms",
        f"  queue wait: p50 {info['queue_wait_p50_s'] * 1000:.2f} ms, "
        f"p95 {info['queue_wait_p95_s'] * 1000:.2f} ms",
    ]
    if "retries" in info:
        lines.append(
            f" supervision: {info['retries']} retries, "
            f"{info['worker_restarts']} worker restarts, deadline "
            f"{info['deadline_s']:g}s"
        )
    return "\n".join(lines)


def render(section: Dict) -> str:
    blocks = []
    if "concurrent" in section:
        blocks.append(_render_block("multiplexer", section["concurrent"]))
    if "process" in section:
        blocks.append(_render_block("supervisor", section["process"]))
    return "\n".join(blocks)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sessions",
        type=int,
        default=None,
        help="sessions to serve (default: 4, or 8 with --quick)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=4, help="scheduler slots"
    )
    parser.add_argument(
        "--window",
        type=int,
        default=1,
        help="max in-flight AND levels per session (memory transport)",
    )
    parser.add_argument(
        "--transport",
        choices=["memory", "process", "both"],
        default="both",
        help="which service substrate to measure (default both, so one "
        "run refreshes every gated service.* key)",
    )
    parser.add_argument(
        "--deadline-s",
        type=float,
        default=120.0,
        help="process transport: per-session watchdog deadline",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="process transport: failed-session relaunch budget",
    )


def run(args: argparse.Namespace) -> int:
    runner = BenchRunner.from_args(args)
    section: Dict[str, object] = {"schema": SERVICE_SCHEMA}
    if args.transport in ("memory", "both"):
        section.update(measure_service(
            quick=runner.quick,
            sessions=args.sessions,
            concurrency=args.concurrency,
            window=args.window,
        ))
        section["schema"] = SERVICE_SCHEMA
    if args.transport in ("process", "both"):
        section["process"] = measure_service_process(
            quick=runner.quick,
            sessions=args.sessions,
            concurrency=args.concurrency,
            deadline_s=args.deadline_s,
            retries=args.retries,
        )
    # A single-transport run must not drop the other lane from the
    # merged artifact (merge_section replaces "service" wholesale, and
    # the regression gate treats a missing baseline metric as failure).
    if runner.out.exists():
        try:
            previous = json.loads(runner.out.read_text()).get("service", {})
        except (OSError, ValueError):
            previous = {}
        for key in _TRANSPORT_KEYS:
            if key not in section and key in previous:
                section[key] = previous[key]
    out_path = runner.merge_section(section, key="service")
    print(render(section))
    print(f"wrote {out_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_common_arguments(parser, DEFAULT_OUT)
    add_arguments(parser)
    return run(parser.parse_args(argv))
