#!/usr/bin/env python
"""Fail when a tracked benchmark metric regresses versus the baseline.

Compares a freshly generated ``BENCH_throughput.json`` (from
``python -m repro bench throughput`` and ``... bench sim``) against
the committed baseline (``benchmarks/BENCH_baseline.json``) and exits
non-zero if any tracked higher-is-better metric dropped more than the
threshold (default 20%).

Tracked metrics:

* ``backends.<name>.garble.gates_per_s`` and ``.evaluate.gates_per_s``
  -- garbling substrate throughput;
* ``sim.models.<name>.cycles_per_s`` -- timing-simulator throughput per
  model (decoupled / coupled / pull-based / multicore);
* ``sim.engines.<engine>.cycles_per_s`` (and the ``aes128`` nested
  block with its ``speedup_numpy_vs_vectorized`` ratio, full runs
  only) -- the per-engine decoupled-replay comparison, including the
  level-parallel engine's >= 3x AES-128 acceptance ratio;
* ``sim.batched_grid.scenarios_per_s`` -- scenario-grid retire rate
  through the batched config axis (the ``repro bench scenarios`` fast
  path);
* ``sim.compile.{cold,warm}_per_s`` -- compiles per second, cold
  (fresh circuit, empty dependence-graph registry, no cache) and warm
  (program-cache disk hit); inverted from the recorded seconds because
  this checker gates higher-is-better metrics only;
* ``protocol.streaming.streamed.and_gates_per_s`` and
  ``protocol.streaming.first_level_speedup`` -- level-streamed
  two-party session throughput, and how much sooner its first AND level
  is evaluated than an unbounded-window session completes
  (``repro bench protocol``; AES-128 at full scale, the mixed smoke
  circuit in the quick lane);
* ``service.concurrent.{sessions_per_s,levels_per_s_mean}`` and
  ``service.process.{sessions_per_s,levels_per_s_mean}`` --
  concurrent-session throughput through the in-process multiplexer and
  the out-of-process supervisor respectively (``repro bench service``;
  every session is asserted bit-identical to a solo run before any
  number is reported, so these only exist for a correct service);
* ``parallel.workers.<N>.{garble,evaluate}.gates_per_s`` -- the
  worker-scaling curve, **only when the recorded ``cpu_count`` matches
  between baseline and current run**.  The curve's shape depends on the
  host's core count (a 1-core container honestly records dispatch
  overhead, not speedup), so on a mismatch the comparison is skipped
  with a printed notice instead of producing cross-host noise or false
  regressions.

Metrics present in the baseline but missing from the current report are
also failures -- a silently dropped lane is how regressions hide.

CI runs this check at smoke scale against
``benchmarks/BENCH_smoke_baseline.json`` with ``--threshold 0.35`` --
quick-lane circuits are small enough that runner jitter needs the
relaxed bar (see .github/workflows/ci.yml).

Usage::

    python -m repro bench throughput --json BENCH_throughput.json
    python -m repro bench sim        --json BENCH_throughput.json
    python scripts/check_bench_regression.py BENCH_throughput.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "BENCH_baseline.json"
)


def tracked_metrics(report: dict) -> dict:
    """Flatten the higher-is-better metrics of one report."""
    metrics = {}
    for backend, entry in report.get("backends", {}).items():
        for phase in ("garble", "evaluate"):
            value = entry.get(phase, {}).get("gates_per_s")
            if value is not None:
                metrics[f"backends.{backend}.{phase}.gates_per_s"] = value
    for model, entry in report.get("sim", {}).get("models", {}).items():
        value = entry.get("cycles_per_s")
        if value is not None:
            metrics[f"sim.models.{model}.cycles_per_s"] = value
    engines = report.get("sim", {}).get("engines", {})
    for engine in ("numpy", "vectorized", "reference"):
        value = engines.get(engine, {}).get("cycles_per_s")
        if value is not None:
            metrics[f"sim.engines.{engine}.cycles_per_s"] = value
    aes = engines.get("aes128", {})
    for engine in ("numpy", "vectorized", "reference"):
        value = aes.get(engine, {}).get("cycles_per_s")
        if value is not None:
            metrics[f"sim.engines.aes128.{engine}.cycles_per_s"] = value
    # Numpy level-parallel vs the flat loop on the AES-128 decoupled
    # replay.  A ratio is host-robust; tracking it guards the recorded
    # speedup (3.99x at baseline) against relative regressions -- the
    # threshold is the generic relative one, not an absolute 3x floor.
    speedup = aes.get("speedup_numpy_vs_vectorized")
    if speedup is not None:
        metrics["sim.engines.aes128.speedup_numpy_vs_vectorized"] = speedup
    # Batched multi-config replay: scenario-grid retire rate through the
    # batched config axis (the `repro bench scenarios` fast path).
    grid = report.get("sim", {}).get("batched_grid", {})
    value = grid.get("scenarios_per_s")
    if value is not None:
        metrics["sim.batched_grid.scenarios_per_s"] = value
    # Compile cost through the shared dependence graph (cold) and the
    # persistent program cache (warm).  The report records seconds; this
    # checker is higher-is-better only, so the gated form is the
    # inverted compiles-per-second rate.
    compile_block = report.get("sim", {}).get("compile", {})
    for key in ("cold_per_s", "warm_per_s"):
        value = compile_block.get(key)
        if value is not None:
            metrics[f"sim.compile.{key}"] = value
    # Level-streamed session (repro bench protocol): end-to-end AND-gate
    # throughput, plus the pipelining headline -- how much sooner the
    # window-1 Evaluator finishes its first AND level than a session
    # that garbles every level before evaluating any completes.  The
    # speedup is a same-run ratio, so it is host-robust like the engine
    # speedups.
    streaming = report.get("protocol", {}).get("streaming", {})
    value = streaming.get("streamed", {}).get("and_gates_per_s")
    if value is not None:
        metrics["protocol.streaming.streamed.and_gates_per_s"] = value
    value = streaming.get("first_level_speedup")
    if value is not None:
        metrics["protocol.streaming.first_level_speedup"] = value
    # Concurrent-session service (repro bench service): multiplexed
    # throughput in-process ("concurrent") and supervised out-of-process
    # throughput ("process" -- one OS process per party under the
    # supervisor).  Latency percentiles are recorded in the report but
    # not gated here -- this checker is higher-is-better only.
    service = report.get("service", {})
    for transport in ("concurrent", "process"):
        entry = service.get(transport, {})
        for key in ("sessions_per_s", "levels_per_s_mean"):
            value = entry.get(key)
            if value is not None:
                metrics[f"service.{transport}.{key}"] = value
    return metrics


def parallel_metrics(report: dict) -> dict:
    """Flatten the worker-scaling curve (comparable same-host only)."""
    metrics = {}
    section = report.get("parallel") or {}
    for workers, entry in section.get("workers", {}).items():
        for phase in ("garble", "evaluate"):
            value = entry.get(phase, {}).get("gates_per_s")
            if value is not None:
                metrics[
                    f"parallel.workers.{workers}.{phase}.gates_per_s"
                ] = value
    return metrics


def check(
    current: dict, baseline: dict, threshold: float
) -> "tuple[list[str], list[str], int]":
    """Compare reports; returns (failures, notices, compared).

    Failures (non-empty = exit 1) are regressions or dropped lanes;
    notices are comparisons legitimately skipped, currently only the
    worker-scaling curve when the two reports were recorded on hosts
    with different visible core counts; ``compared`` counts the
    baseline metrics actually enforced.
    """
    failures: list[str] = []
    notices: list[str] = []
    current_metrics = tracked_metrics(current)
    baseline_metrics = tracked_metrics(baseline)

    base_parallel = baseline.get("parallel") or {}
    if base_parallel.get("workers"):
        current_parallel = current.get("parallel") or {}
        base_cores = base_parallel.get("cpu_count")
        current_cores = current_parallel.get("cpu_count")
        if not current_parallel.get("workers"):
            # A dropped lane, not a host mismatch: the current run never
            # recorded the curve the baseline tracks.
            failures.append(
                "parallel: worker-scaling section missing from current "
                "report (baseline tracks it)"
            )
        elif base_cores is not None and base_cores == current_cores:
            baseline_metrics.update(parallel_metrics(baseline))
            current_metrics.update(parallel_metrics(current))
        else:
            notices.append(
                "skipping parallel worker-scaling comparison: baseline "
                f"recorded cpu_count={base_cores}, current run "
                f"cpu_count={current_cores} -- scaling curves from "
                "different core counts are not comparable"
            )

    for name, base_value in sorted(baseline_metrics.items()):
        if base_value <= 0:
            continue
        value = current_metrics.get(name)
        if value is None:
            failures.append(f"{name}: missing from current report")
            continue
        ratio = value / base_value
        if ratio < 1.0 - threshold:
            failures.append(
                f"{name}: {value:,.0f} vs baseline {base_value:,.0f} "
                f"({(1.0 - ratio) * 100:.1f}% regression, "
                f"threshold {threshold * 100:.0f}%)"
            )
    return failures, notices, len(baseline_metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "current",
        nargs="?",
        default="BENCH_throughput.json",
        help="freshly generated report (default: BENCH_throughput.json)",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline report "
        "(default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional drop before failing (default: 0.20)",
    )
    args = parser.parse_args(argv)

    current_path = pathlib.Path(args.current)
    baseline_path = pathlib.Path(args.baseline)
    if not current_path.exists():
        print(f"current report {current_path} not found", file=sys.stderr)
        return 2
    if not baseline_path.exists():
        print(f"baseline {baseline_path} not found", file=sys.stderr)
        return 2
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())

    failures, notices, compared = check(current, baseline, args.threshold)
    for notice in notices:
        print(f"notice: {notice}")
    if failures:
        print(f"REGRESSION: {len(failures)}/{compared} tracked metrics failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: {compared} tracked metrics within {args.threshold * 100:.0f}% "
          f"of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
