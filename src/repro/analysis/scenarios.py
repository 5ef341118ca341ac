"""Scenario-grid analysis: render ``BENCH_scenarios.json`` as report text.

``repro bench scenarios`` sweeps queue SRAM per GE (coupled model)
and DRAM bandwidth (decoupled model) for several workloads and persists
the grid -- including a per-workload ``summary`` block with the paper's
two design-space answers: the queue-SRAM *knee* where coupling costs
under :data:`KNEE_TOLERANCE` versus full decoupling, and the bandwidth
*flip point* where the workload stops being memory-bound.  This module
turns that artifact into the knee/flip table plus ASCII sweep charts
(reusing :mod:`repro.analysis.charts`), surfaced as ``repro scenarios``
on the CLI.

The loader accepts any ``repro.bench_scenarios/*`` schema version; v1
artifacts predate the persisted ``summary`` block, so one is derived on
load and every renderer can treat workloads uniformly.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence, Union

from .charts import bar_chart, log_bar_chart
from .report import render_table

__all__ = [
    "KNEE_TOLERANCE",
    "SCHEMA_PREFIX",
    "default_artifact_path",
    "load_report",
    "summarize_sweeps",
    "summary_table",
    "queue_chart",
    "bandwidth_chart",
    "render_report",
]

SCHEMA_PREFIX = "repro.bench_scenarios/"

#: A queue point within 1% of the decoupled runtime counts as converged
#: (shared with ``repro bench scenarios`` so artifact and analysis
#: agree on what "knee" means).
KNEE_TOLERANCE = 1.01

_NOT_REACHED = "not reached in sweep"


def default_artifact_path() -> Optional[pathlib.Path]:
    """``./BENCH_scenarios.json`` if present, else the committed artifact."""
    local = pathlib.Path("BENCH_scenarios.json")
    if local.is_file():
        return local
    committed = (
        pathlib.Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "BENCH_scenarios.json"
    )
    if committed.is_file():
        return committed
    return None


def summarize_sweeps(
    queue_sweep: Sequence[dict],
    bandwidth_sweep: Sequence[dict],
    scenarios: Optional[int] = None,
) -> dict:
    """Knee/flip summary of one workload's sweeps.

    ``None`` values mean the sweep never got there (rendered as
    ``"not reached in sweep"``).  ``scenarios`` defaults to every
    simulated point: each sweep entry plus the decoupled baseline.
    """
    knee = next(
        (
            point["queue_bytes_per_ge"]
            for point in queue_sweep
            if point["slowdown_vs_decoupled"] <= KNEE_TOLERANCE
        ),
        None,
    )
    flip = next(
        (
            point["gb_s"]
            for point in bandwidth_sweep
            if not point["memory_bound"]
        ),
        None,
    )
    if scenarios is None:
        scenarios = 1 + len(queue_sweep) + len(bandwidth_sweep)
    return {
        "scenarios": scenarios,
        "queue_knee_bytes_per_ge": knee,
        "compute_bound_from_gb_s": flip,
    }


def load_report(path: Union[str, pathlib.Path]) -> dict:
    """Parse and validate a ``BENCH_scenarios.json`` artifact."""
    data = json.loads(pathlib.Path(path).read_text())
    schema = data.get("schema")
    if not isinstance(schema, str) or not schema.startswith(SCHEMA_PREFIX):
        raise ValueError(
            f"{path}: not a scenario-grid artifact "
            f"(schema {schema!r}, expected {SCHEMA_PREFIX}*)"
        )
    workloads = data.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ValueError(f"{path}: artifact has no workload sections")
    for section in workloads.values():
        if "summary" not in section:
            section["summary"] = summarize_sweeps(
                section.get("queue_sweep", []),
                section.get("bandwidth_sweep", []),
            )
    return data


def _knee_cell(summary: dict) -> str:
    knee = summary.get("queue_knee_bytes_per_ge")
    return f"{knee}B/GE" if knee is not None else _NOT_REACHED


def _flip_cell(summary: dict) -> str:
    flip = summary.get("compute_bound_from_gb_s")
    return f"{flip:g} GB/s" if flip is not None else _NOT_REACHED


def summary_table(report: dict, workloads: Optional[Sequence[str]] = None) -> str:
    """The knee/flip-point table, one row per workload."""
    rows: List[list] = []
    for name, section in _sections(report, workloads):
        summary = section["summary"]
        sweep_ms = section.get("sweep_seconds")
        speedup = section.get("batched_speedup")
        rows.append([
            name,
            section.get("instructions", 0),
            _knee_cell(summary),
            _flip_cell(summary),
            summary.get("scenarios", 0),
            f"{sweep_ms * 1000:.1f}" if sweep_ms is not None else "-",
            f"{speedup:.1f}x" if speedup is not None else "-",
        ])
    return render_table(
        ["Workload", "Instrs", "Queue knee", "Compute-bound from",
         "Scenarios", "Sweep (ms)", "Batched vs serial"],
        rows,
        title="Scenario grid: queue-SRAM knee and memory-bound flip point",
    )


def queue_chart(name: str, section: dict) -> str:
    """Coupled slowdown vs queue SRAM per GE (linear bars)."""
    items = [
        (
            f"{point['queue_bytes_per_ge']}B",
            float(point["slowdown_vs_decoupled"]),
        )
        for point in section.get("queue_sweep", [])
    ]
    return bar_chart(
        items,
        title=f"{name}: coupled slowdown vs decoupled, by queue bytes/GE",
        unit="x",
    )


def bandwidth_chart(name: str, section: dict) -> str:
    """Decoupled runtime vs DRAM bandwidth (log bars, * = memory-bound)."""
    items = [
        (
            f"{point['gb_s']:g}GB/s" + ("*" if point["memory_bound"] else ""),
            float(point["runtime_cycles"]),
        )
        for point in section.get("bandwidth_sweep", [])
    ]
    return log_bar_chart(
        items,
        title=f"{name}: decoupled runtime cycles by DRAM bandwidth "
        "(log scale, * = memory-bound)",
    )


def _sections(
    report: dict, workloads: Optional[Sequence[str]]
) -> "List[tuple[str, dict]]":
    available: Dict[str, dict] = report.get("workloads", {})
    if workloads is None:
        return list(available.items())
    unknown = [name for name in workloads if name not in available]
    if unknown:
        raise KeyError(
            f"workloads not in artifact: {', '.join(unknown)} "
            f"(available: {', '.join(available)})"
        )
    return [(name, available[name]) for name in workloads]


def render_report(
    report: dict,
    workloads: Optional[Sequence[str]] = None,
    source: Optional[str] = None,
) -> str:
    """Full text rendering: header, knee/flip table, per-workload charts."""
    header = f"scenario grid ({report.get('schema', '?')}"
    engine = report.get("engine")
    if engine:
        header += f", engine={engine}"
    header += ")"
    if source:
        header += f" from {source}"
    blocks = [header, "", summary_table(report, workloads)]
    for name, section in _sections(report, workloads):
        blocks.append("")
        blocks.append(queue_chart(name, section))
        blocks.append("")
        blocks.append(bandwidth_chart(name, section))
    return "\n".join(blocks)
