"""The unified ``repro bench`` / ``repro store`` CLI, in process."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main


def test_bench_throughput_writes_schema_artifact(tmp_path):
    out = tmp_path / "BENCH_throughput.json"
    rc = cli_main([
        "bench", "throughput", "--quick", "--repeats", "1",
        "--workers", "none", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro.bench_throughput/v1"
    assert "scalar" in report["backends"]
    assert "parallel" not in report  # --workers none omits the sweep


def test_bench_merges_sections_without_clobbering(tmp_path):
    """Suites own their sections: sim lands next to throughput's keys."""
    out = tmp_path / "BENCH_throughput.json"
    assert cli_main([
        "bench", "throughput", "--quick", "--repeats", "1",
        "--workers", "none", "--out", str(out),
    ]) == 0
    assert cli_main([
        "bench", "sim", "--quick", "--repeats", "1", "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert "backends" in report  # throughput's section survived
    assert "sim" in report


def test_bench_scenarios_store_resume_zero_replays(tmp_path, capsys):
    """Acceptance: the warm second run performs zero replays."""
    out = tmp_path / "BENCH_scenarios.json"
    store = tmp_path / "store"
    argv = [
        "bench", "scenarios", "--quick", "--no-serial",
        "--workloads", "ReLU", "--queues", "64,1024",
        "--bandwidths", "8.8,512", "--out", str(out),
        "--store", str(store),
    ]
    assert cli_main(argv) == 0
    cold = json.loads(out.read_text())["workloads"]["ReLU"]
    scenarios = 1 + 2 + 2  # decoupled + queue points + bandwidth points
    assert cold["store"] == {"cached": 0, "replayed": scenarios}

    capsys.readouterr()
    assert cli_main(argv) == 0
    warm = json.loads(out.read_text())["workloads"]["ReLU"]
    assert warm["store"] == {"cached": scenarios, "replayed": 0}
    assert "0 replayed" in capsys.readouterr().out
    # The numbers the warm run served are the ones the cold run computed.
    assert warm["queue_sweep"] == cold["queue_sweep"]
    assert warm["bandwidth_sweep"] == cold["bandwidth_sweep"]
    assert warm["decoupled_cycles"] == cold["decoupled_cycles"]


def test_bench_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli_main(["bench", "nonesuch"])


def test_store_cli_info_bundle_merge(tmp_path, capsys):
    src = tmp_path / "src_store"
    dst = tmp_path / "dst_store"
    out = tmp_path / "BENCH_scenarios.json"
    assert cli_main([
        "bench", "scenarios", "--quick", "--no-serial",
        "--workloads", "ReLU", "--queues", "64",
        "--bandwidths", "8.8", "--out", str(out), "--store", str(src),
    ]) == 0

    assert cli_main(["store", "--dir", str(src)]) == 0
    assert "live entries" in capsys.readouterr().out

    bundle = tmp_path / "results.bundle.json"
    assert cli_main(["store", "bundle", str(bundle), "--dir", str(src)]) == 0
    assert cli_main(["store", "merge", str(bundle), "--dir", str(dst)]) == 0
    merged = capsys.readouterr().out
    assert "4 added" in merged  # meta + decoupled + 1 queue + 1 bandwidth

    # Re-merge is a no-op: everything identical, nothing conflicting.
    assert cli_main(["store", "merge", str(src), "--dir", str(dst)]) == 0
    assert "0 conflicts" in capsys.readouterr().out


def test_store_merge_without_source_errors(tmp_path, capsys):
    assert cli_main(["store", "merge", "--dir", str(tmp_path)]) == 2
    assert "source" in capsys.readouterr().err
