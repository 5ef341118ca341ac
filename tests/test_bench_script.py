"""Bench tooling smoke tests: ``repro bench`` suites + regression gate."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECK_SCRIPT = ROOT / "scripts" / "check_bench_regression.py"


def _bench(suite, *args, timeout=300):
    """Run ``python -m repro bench <suite> ...`` from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", "bench", suite, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=timeout,
    )


def test_bench_throughput_quick_emits_valid_json(tmp_path):
    out = tmp_path / "BENCH_throughput.json"
    proc = _bench(
        "throughput", "--quick", "--json", str(out), "--workers", "1,2"
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["schema"] == "repro.bench_throughput/v1"
    assert data["circuit"]["gates"] > 0
    assert data["circuit"]["and_gates"] > 0
    assert "scalar" in data["backends"]
    for entry in data["backends"].values():
        for phase in ("garble", "evaluate"):
            assert entry[phase]["seconds"] > 0
            assert entry[phase]["gates_per_s"] > 0
            assert entry[phase]["and_gates_per_s"] > 0
    # Any skipped backend must say why.
    for skipped in data["skipped"]:
        assert skipped["backend"] and skipped["reason"]
    # Worker-scaling curve: one entry per requested count, plus the
    # context needed to interpret it (cores actually visible).
    scaling = data["parallel"]
    assert scaling["cpu_count"] >= 1
    assert sorted(scaling["workers"]) == ["1", "2"]
    for entry in scaling["workers"].values():
        assert entry["garble"]["gates_per_s"] > 0
        assert entry["evaluate"]["gates_per_s"] > 0
    assert "2" in scaling["speedup_vs_1"]


def test_bench_throughput_workers_none_skips_sweep(tmp_path):
    out = tmp_path / "BENCH_throughput.json"
    proc = _bench(
        "throughput", "--quick", "--json", str(out), "--workers", "none"
    )
    assert proc.returncode == 0, proc.stderr
    assert "parallel" not in json.loads(out.read_text())


def test_bench_throughput_rejects_unknown_circuit():
    proc = _bench("throughput", "--circuit", "nonsense", timeout=60)
    assert proc.returncode != 0


def test_bench_sim_quick_merges_into_report(tmp_path):
    out = tmp_path / "BENCH_throughput.json"
    # Pre-seed a garbling report so the merge path is exercised.
    out.write_text(json.dumps({
        "schema": "repro.bench_throughput/v1",
        "backends": {"scalar": {"garble": {"gates_per_s": 1.0},
                                "evaluate": {"gates_per_s": 1.0}}},
    }))
    proc = _bench("sim", "--quick", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["schema"] == "repro.bench_throughput/v1"
    assert "scalar" in data["backends"]  # merge preserved existing section
    sim = data["sim"]
    assert sim["schema"] == "repro.bench_sim/v1"
    assert sim["circuit"]["gates"] > 0
    for model in ("decoupled", "coupled", "pull_based", "multicore"):
        entry = sim["models"][model]
        assert entry["seconds"] > 0
        assert entry["cycles_per_s"] > 0
    multicore = sim["models"]["multicore"]
    assert multicore["cold_seconds"] >= multicore["warm_seconds"] * 0.5
    assert multicore["cache_stats"]["hits"] > 0
    engines = sim["engines"]
    for engine in ("numpy", "vectorized", "reference"):
        assert engines[engine]["cycles_per_s"] > 0
    # All engines replay the same model: identical simulated cycles.
    assert (
        engines["numpy"]["sim_cycles"]
        == engines["vectorized"]["sim_cycles"]
        == engines["reference"]["sim_cycles"]
    )
    assert engines["speedup_numpy_vs_vectorized"] > 0
    assert "aes128" not in engines  # full-scale comparison skipped on --quick
    # Batched-grid comparison: one scenario grid retired through the
    # batched config axis, with the serial per-point loop as context.
    grid = sim["batched_grid"]
    assert grid["scenarios"] == 1 + grid["queue_points"] + grid["bandwidth_points"]
    assert grid["seconds"] > 0 and grid["serial_seconds"] > 0
    assert grid["scenarios_per_s"] > 0
    assert grid["speedup_batched_vs_serial"] > 0


def test_bench_scenarios_quick_emits_grid(tmp_path):
    out = tmp_path / "BENCH_scenarios.json"
    proc = _bench(
        "scenarios", "--quick", "--json", str(out),
        "--queues", "64,4096,1048576", "--bandwidths", "8.8,35.2,512",
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["schema"] == "repro.bench_scenarios/v2"
    assert len(data["workloads"]) >= 3
    for section in data["workloads"].values():
        assert section["instructions"] > 0
        queue_points = section["queue_sweep"]
        assert [p["queue_bytes_per_ge"] for p in queue_points] == [
            64, 4096, 1048576,
        ]
        # Coupling can only hurt, and generous SRAM must converge to
        # the decoupled runtime (the paper's complete-decoupling claim).
        for point in queue_points:
            assert point["slowdown_vs_decoupled"] >= 1.0 - 1e-9
        assert abs(queue_points[-1]["slowdown_vs_decoupled"] - 1.0) < 1e-9
        # More bandwidth never slows the decoupled model down.
        runtimes = [p["runtime_cycles"] for p in section["bandwidth_sweep"]]
        assert runtimes == sorted(runtimes, reverse=True)
        assert section["bandwidth_sweep"][0]["memory_bound"] in (True, False)
        # Persisted per-workload summary: every scenario counted (the
        # decoupled baseline included), knee/flip carried in-artifact.
        summary = section["summary"]
        assert summary["scenarios"] == 1 + 3 + 3
        # Generous SRAM converged above, so the knee is always reached.
        assert summary["queue_knee_bytes_per_ge"] in (64, 4096, 1048576)
        # Batched vs serial context rides along by default, and the
        # script itself asserts per-point bit-identity between them.
        assert section["sweep_seconds"] > 0
        assert section["serial_sweep_seconds"] > 0
        assert section["batched_speedup"] > 0
    assert "scenarios in" in proc.stdout
    # The artifact round-trips through the analysis renderer.
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.analysis import scenarios as sc
    finally:
        sys.path.pop(0)
    text = sc.render_report(sc.load_report(out))
    for name in data["workloads"]:
        assert f"{name}: coupled slowdown" in text


def test_bench_scenarios_unreached_sweeps_are_explicit(tmp_path):
    """A grid too small to reach the knee/flip must say so, in the
    artifact (nulls in summary) and on stdout -- not print 'at NoneB'."""
    out = tmp_path / "BENCH_scenarios.json"
    proc = _bench(
        "scenarios", "--quick", "--workloads", "ReLU", "--queues", "64",
        "--bandwidths", "8.8", "--json", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("not reached in sweep") == 2
    assert "None" not in proc.stdout
    summary = json.loads(out.read_text())["workloads"]["ReLU"]["summary"]
    assert summary["queue_knee_bytes_per_ge"] is None
    assert summary["compute_bound_from_gb_s"] is None
    assert summary["scenarios"] == 3  # baseline + one queue + one bandwidth


def test_bench_scenarios_summary_lines_tolerate_empty_sweeps():
    """An empty --queues/--bandwidths sweep must not crash the summary
    text (max() over an empty list)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.bench.scenarios import summary_lines
    finally:
        sys.path.pop(0)
    section = {"summary": {
        "scenarios": 1,
        "queue_knee_bytes_per_ge": None,
        "compute_bound_from_gb_s": None,
    }}
    knee_text, flip_text = summary_lines(section, [], [])
    assert "no queue points" in knee_text
    assert "no bandwidth points" in flip_text


def test_bench_scenarios_no_serial_flag(tmp_path):
    out = tmp_path / "BENCH_scenarios.json"
    proc = _bench(
        "scenarios", "--quick", "--no-serial", "--workloads", "ReLU",
        "--json", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    section = json.loads(out.read_text())["workloads"]["ReLU"]
    assert "serial_sweep_seconds" not in section
    assert "batched_speedup" not in section


def test_bench_scenarios_rejects_unknown_workload(tmp_path):
    proc = _bench(
        "scenarios", "--workloads", "NotAThing",
        "--json", str(tmp_path / "out.json"), timeout=60,
    )
    assert proc.returncode != 0


def _report(scale=1.0, drop=()):
    """Synthetic BENCH_throughput.json content for the regression gate."""
    report = {
        "schema": "repro.bench_throughput/v1",
        "backends": {
            "scalar": {
                "garble": {"gates_per_s": 40_000.0 * scale},
                "evaluate": {"gates_per_s": 60_000.0 * scale},
            },
        },
        "sim": {
            "schema": "repro.bench_sim/v1",
            "models": {
                "decoupled": {"cycles_per_s": 400_000.0 * scale},
                "multicore": {"cycles_per_s": 15_000.0 * scale},
            },
            "batched_grid": {"scenarios_per_s": 20_000.0 * scale},
        },
    }
    for name in drop:
        report["sim"]["models"].pop(name, None)
    return report


def _run_check(tmp_path, current, baseline, extra=()):
    current_path = tmp_path / "current.json"
    baseline_path = tmp_path / "baseline.json"
    current_path.write_text(json.dumps(current))
    baseline_path.write_text(json.dumps(baseline))
    return subprocess.run(
        [sys.executable, str(CHECK_SCRIPT), str(current_path),
         "--baseline", str(baseline_path), *extra],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )


def test_check_regression_passes_within_threshold(tmp_path):
    proc = _run_check(tmp_path, _report(scale=0.85), _report())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok:" in proc.stdout


def test_check_regression_fails_beyond_threshold(tmp_path):
    proc = _run_check(tmp_path, _report(scale=0.5), _report())
    assert proc.returncode == 1
    assert "REGRESSION" in proc.stdout
    assert "backends.scalar.garble.gates_per_s" in proc.stdout
    assert "sim.models.multicore.cycles_per_s" in proc.stdout
    assert "sim.batched_grid.scenarios_per_s" in proc.stdout


def test_check_regression_fails_on_missing_metric(tmp_path):
    proc = _run_check(
        tmp_path, _report(drop=("multicore",)), _report()
    )
    assert proc.returncode == 1
    assert "missing from current report" in proc.stdout


def test_check_regression_threshold_flag(tmp_path):
    proc = _run_check(
        tmp_path, _report(scale=0.5), _report(), extra=["--threshold", "0.6"]
    )
    assert proc.returncode == 0


def _parallel_section(scale=1.0, cpu_count=1):
    return {
        "cpu_count": cpu_count,
        "inner": "numpy",
        "workers": {
            "1": {"garble": {"gates_per_s": 300_000.0 * scale},
                  "evaluate": {"gates_per_s": 400_000.0 * scale}},
            "2": {"garble": {"gates_per_s": 200_000.0 * scale},
                  "evaluate": {"gates_per_s": 300_000.0 * scale}},
        },
    }


def test_check_regression_tracks_parallel_on_same_core_count(tmp_path):
    baseline = _report()
    baseline["parallel"] = _parallel_section(cpu_count=4)
    current = _report()
    current["parallel"] = _parallel_section(scale=0.4, cpu_count=4)
    proc = _run_check(tmp_path, current, baseline)
    assert proc.returncode == 1
    assert "parallel.workers.1.garble.gates_per_s" in proc.stdout


def test_check_regression_skips_parallel_on_core_count_mismatch(tmp_path):
    """The single-core honesty guard: a curve recorded on a 1-core host
    must not trip false regressions against a multi-core run -- it is
    skipped with a printed notice instead."""
    baseline = _report()
    baseline["parallel"] = _parallel_section(cpu_count=1)
    current = _report()
    current["parallel"] = _parallel_section(scale=0.3, cpu_count=8)
    proc = _run_check(tmp_path, current, baseline)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "notice: skipping parallel worker-scaling comparison" in proc.stdout
    assert "cpu_count=1" in proc.stdout and "cpu_count=8" in proc.stdout
    # The non-parallel lanes are still enforced on the same run.
    current_regressed = _report(scale=0.5)
    current_regressed["parallel"] = _parallel_section(scale=0.3, cpu_count=8)
    proc = _run_check(tmp_path, current_regressed, baseline)
    assert proc.returncode == 1
    assert "parallel.workers" not in proc.stdout


def test_check_regression_fails_when_current_drops_parallel_section(tmp_path):
    """A missing section is a dropped lane (failure), not a host
    mismatch (notice) -- silently losing the curve is how regressions
    hide."""
    baseline = _report()
    baseline["parallel"] = _parallel_section(cpu_count=2)
    proc = _run_check(tmp_path, _report(), baseline)
    assert proc.returncode == 1
    assert "worker-scaling section missing" in proc.stdout


def test_check_regression_missing_files(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(CHECK_SCRIPT), str(tmp_path / "nope.json")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 2


def test_committed_baseline_is_valid():
    """benchmarks/BENCH_baseline.json stays parseable with tracked metrics."""
    baseline = json.loads((ROOT / "benchmarks" / "BENCH_baseline.json").read_text())
    assert baseline["schema"] == "repro.bench_throughput/v1"
    assert baseline["backends"]
    assert baseline["sim"]["models"]
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        from check_bench_regression import tracked_metrics
    finally:
        sys.path.pop(0)
    metrics = tracked_metrics(baseline)
    assert len(metrics) >= 6
    assert "sim.batched_grid.scenarios_per_s" in metrics
    assert all(value > 0 for value in metrics.values())
