"""The benchmark's own tests: exact counts repeat, inputs follow the seed.

Slow (a few minutes: every case runs the real workload), so the file
name keeps it out of the repository's default test collection.  Run it
from the root of a checkout with either of::

    python3 -m pytest -q haacbench/repeatability.py
    python3 haacbench/repeatability.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, covered_time, self_time_by_name  # noqa: E402


def run(workload: str, seed: int, trace: int):
    """One short run; returns (result object, exact-count record)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    exact = json.loads(next(line for line in lines if line.startswith("exact "))[6:])
    return result, exact


def value(result, name):
    return result["metrics"][name]["value"]


def test_compile_counts_repeat_and_ignore_the_seed():
    runs = [run("compile_cold", seed, 0) for seed in (1, 1, 2)]
    for key in ("sim_cycles_geomean", "core.instructions", "core.depgraph_builds"):
        assert len({exact[key] for _, exact in runs}) == 1, key
    assert len({value(result, "sim_cycles_geomean") for result, _ in runs}) == 1


@pytest.mark.parametrize("workload", ["session_aes128", "serve_small"])
def test_session_counts_repeat_and_inputs_follow_the_seed(workload):
    (first, first_exact), (again, again_exact), (other, other_exact) = (
        run(workload, seed, 1) for seed in (1, 1, 2)
    )
    for key in ("gc.wire_bytes", "gc.hash_calls"):
        assert value(first, key) == value(again, key) == value(other, key), key
    assert value(first, "gc.hash_calls") > 0
    assert first_exact["first_inputs"] == again_exact["first_inputs"]
    assert first_exact["first_outputs"] == again_exact["first_outputs"]
    assert first_exact["first_inputs"] != other_exact["first_inputs"]
    assert first_exact["first_outputs"] != other_exact["first_outputs"]


def test_benchmark_json_lists_what_the_runs_print():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import END_TO_END, PER_LAYER, UNITS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: UNITS[name] for name in END_TO_END
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_tracer_restores_names_and_accounts_for_self_time():
    module = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer")
    tracer.enabled = True
    tracer.phase = "run"
    assert module.outer() == 2
    tracer.restore()
    assert module.inner is inner and module.outer is outer
    spans = tracer.spans
    assert [span["name"] for span in spans] == ["layer.outer", "layer.inner"]
    assert spans[1]["parent"] == spans[0]["id"]
    selfs = self_time_by_name(spans, "run")
    total = spans[0]["end"] - spans[0]["start"]
    assert abs(selfs["layer.outer"] + selfs["layer.inner"] - total) < 1e-9
    assert covered_time(spans) == total


def test_tracer_restores_static_and_inherited_methods():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        @staticmethod
        def build(x):
            return x * 2

    static = Child.__dict__["build"]
    tracer = Tracer()
    tracer.wrap(Child, "build", "layer.build")
    tracer.wrap(Child, "method", "layer.method")
    tracer.enabled = True
    assert Child.build(3) == 6 and Child().method() == "base"
    tracer.restore()
    assert Child.__dict__["build"] is static
    assert "method" not in Child.__dict__
    assert [span["name"] for span in tracer.spans] == ["layer.build", "layer.method"]


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
