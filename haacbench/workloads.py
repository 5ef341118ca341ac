"""The four benchmark workloads and the harness that times them.

Every workload follows one shape (see :func:`run_workload`):

1. ``setup()`` runs ``setups`` times; the median is ``setup_s`` and
   only the last set-up's state is kept.
2. ``unit(state, index)`` runs closed-loop until ``--seconds`` is
   spent (at least once).  A unit times only its own calls into the
   program and checks its outputs outside that region, counting every
   failure against the operations it attempted.
3. ``finish(state, records)`` turns the unit records into end-to-end
   metrics and runs whole-run checks (cycle counts, leaked children).

Every workload prints every end-to-end metric.  A metric outside a
workload's subject (session latency on ``compile_cold``, compile
throughput on ``serve_small``, ...) comes from :class:`Probe`, small
samples of the same calls interleaved with the workload's units, so
each number is defined everywhere while the workload's own metrics
carry its point.

Latencies are percentiles; rates are work done over time spent,
summed over the run.  Every host time is reported at a nominal host
speed (see :class:`HostSpeed`).

With tracing on, the loop first runs untraced for the budget, then
traced for the same number of units; per-layer metrics come from
the traced units (per unit of work) and from the traced set-ups
(``circuits.build_s``, ``core.progcache_put_s``, per set-up).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import random
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

import numpy

from spans import Tracer, covered_time, layer_of, self_time_by_name

import repro.core.compiler as compiler
import repro.sim.coupled as coupled
import repro.sim.timing as timing
from repro.bench.protocol import full_circuit, quick_circuit
from repro.circuits.netlist import GateOp
from repro.core import depgraph
from repro.core.program import HaacProgram
from repro.core.progcache import ProgramCache
from repro.core.verify import verify_streams
from repro.gc.backends.numpy_backend import NumpyLabelHashBackend
from repro.gc.channel import FramedChannel
from repro.gc.ot import OtReceiver, OtSender
from repro.gc.protocol import StreamedDriver, TwoPartySession
from repro.serve import SessionSpec, Supervisor
from repro.sim.config import HaacConfig, Role
from repro.sim.dram import DramSpec
from repro.workloads import PAPER_ORDER, get_workload

CONFIG = HaacConfig.paper_default()
OPT = compiler.OptLevel.RO_RN_ESW
ROLES = (Role.GARBLER, Role.EVALUATOR)
#: GB/s grid (half/quarter DDR4-4400 through 2x HBM2) and queue bytes
#: per GE -- the ``repro bench scenarios`` defaults.
BANDWIDTHS = (8.8, 17.6, 35.2, 70.4, 140.8, 512.0, 1024.0)
QUEUES = (64, 256, 1024, 4096, 16384, 65536)
DRAMS = [DramSpec(name=f"{gb:g}GB/s", bandwidth_gb_s=gb) for gb in BANDWIDTHS]
SWEEP_CIRCUITS = ("BubbSt", "GradDesc")
#: Both parties of one supervised session run at once.
PARTIES = 2

END_TO_END = (
    "setup_s", "peak_rss_mb", "compile_gates_per_s", "sim_cycles_geomean",
    "sweep_points_per_s", "session_and_gates_per_s", "first_level_s_p50",
    "sessions_per_s", "session_s_p50", "session_s_p90",
)
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "compile_gates_per_s": "1/s",
    "sim_cycles_geomean": "cycles", "sweep_points_per_s": "1/s",
    "session_and_gates_per_s": "1/s", "first_level_s_p50": "s",
    "sessions_per_s": "1/s", "session_s_p50": "s", "session_s_p90": "s",
}
#: Per-layer metrics: name -> unit.  Times are self times.
PER_LAYER = {
    "circuits.build_s": "s",
    "core.assemble_s": "s", "core.reorder_s": "s", "core.rename_s": "s",
    "core.from_netlist_s": "s", "core.esw_s": "s", "core.streams_s": "s",
    "core.depgraph_builds": "count", "core.instructions": "count",
    "core.progcache_key_s": "s", "core.progcache_get_s": "s",
    "core.progcache_put_s": "s",
    "core.progcache_entry_mb": "MB",
    "sim.replay_s": "s", "sim.coupled_s": "s", "sim.points": "count",
    "gc.session_init_s": "s", "gc.handshake_s": "s", "gc.ot_s": "s", "gc.garble_s": "s",
    "gc.eval_s": "s", "gc.hash_s": "s", "gc.hash_calls": "count",
    "gc.channel_s": "s", "gc.finish_s": "s", "gc.plumbing_s": "s",
    "gc.wire_bytes": "bytes",
    "serve.run_s_p50": "s", "serve.queue_wait_s_p50": "s",
    "serve.retries": "count", "serve.worker_restarts": "count",
    "serve.overhead_s_p50": "s",
    "core.self_s": "s", "sim.self_s": "s", "gc.self_s": "s",
    "serve.self_s": "s",
    "trace.wall_s": "s", "trace.uncovered_share": "share",
    "trace.overhead": "share", "trace.units": "count",
}
LAYERS = ("core", "sim", "gc", "serve")


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def seeded_inputs(seed: int, tag: str, index: int, circuit):
    """Garbler/evaluator bits and a session seed for one unit."""
    rng = random.Random(f"{seed}:{tag}:{index}")
    garbler = [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)]
    evaluator = [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator, rng.getrandbits(31)


def and_count(circuit) -> int:
    return sum(1 for gate in circuit.gates if gate.op is GateOp.AND)


def memo_free(blob: bytes):
    """A fresh circuit: the pickle round trip drops every instance memo."""
    return pickle.loads(blob)


def compile_fresh(blob: bytes, host: "HostSpeed"):
    """One cold compile from a memo-free circuit and an empty registry.

    Returns the circuit, the result, the raw seconds, the host factor
    and the dependence graphs built.
    """
    circuit = memo_free(blob)
    depgraph.clear_registry()
    builds = depgraph.build_counts()["graphs"]
    result, seconds, factor = host.timed(lambda: compiler.compile_circuit(
        circuit, CONFIG.window, CONFIG.n_ges, OPT,
        params=CONFIG.schedule_params(), cache=False,
    ))
    return circuit, result, seconds, factor, depgraph.build_counts()["graphs"] - builds


def compiled_matches(circuit, result, seed: int, tag: str) -> bool:
    """The compiled netlist computes the circuit, and its streams verify."""
    garbler, evaluator, _ = seeded_inputs(seed, tag, 0, circuit)
    lowered_g, lowered_e = result.lowered.adapt_inputs(garbler, evaluator)
    verify_streams(result.streams)
    return (
        result.program.netlist.eval_plain(lowered_g, lowered_e)
        == circuit.eval_plain(garbler, evaluator)
    )


def sweep_grid(streams) -> int:
    """Role x bandwidths (simulate_batch) and role x queues (coupled)."""
    points = 0
    for role in ROLES:
        config = CONFIG.with_role(role)
        points += len(timing.simulate_batch(streams, config.variants(dram=DRAMS)))
        points += len(coupled.coupled_runtime_batch(streams, config, QUEUES))
    return points


def sweep_sample_matches(streams, rng: random.Random) -> bool:
    """One bandwidth and one queue point, batched vs serial."""
    role = rng.choice(ROLES)
    config = CONFIG.with_role(role)
    dram = rng.choice(DRAMS)
    queue = rng.choice(QUEUES)
    batched = timing.simulate_batch(streams, [config.with_dram(dram)])[0]
    serial = timing.simulate(streams, config.with_dram(dram))
    queued = coupled.coupled_runtime_batch(streams, config, [queue])[0]
    queued_serial = coupled.coupled_runtime(streams, config, queue)
    return (
        (batched.compute_cycles, batched.traffic_cycles, batched.stalls.as_dict())
        == (serial.compute_cycles, serial.traffic_cycles, serial.stalls.as_dict())
        and (queued.cycles, queued.stall_cycles)
        == (queued_serial.cycles, queued_serial.stall_cycles)
    )


def lookup(circuit, store: ProgramCache):
    """``compile_circuit`` against a warm program cache."""
    return compiler.compile_circuit(
        circuit, CONFIG.window, CONFIG.n_ges, OPT,
        params=CONFIG.schedule_params(), cache=store,
    )


def run_session(circuit, garbler, evaluator, session_seed: int, host: "HostSpeed"):
    """One in-process streamed session; returns (driver, raw seconds, host factor)."""

    def session():
        driver = StreamedDriver(
            TwoPartySession(circuit, seed=session_seed, backend="numpy"), garbler, evaluator
        )
        while not driver.done:
            driver.step()
        return driver

    return host.timed(session)


def digest(*values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def session_metrics(seconds: List[float], firsts: List[float], walls: List[float],
                    and_gates: int) -> Dict[str, float]:
    """Latencies are percentiles; rates are totals over the run."""
    return {
        "session_and_gates_per_s": and_gates * len(seconds) / sum(seconds),
        "first_level_s_p50": statistics.median(firsts),
        "sessions_per_s": len(walls) / sum(walls),
        "session_s_p50": percentile(seconds, 50.0),
        "session_s_p90": percentile(seconds, 90.0),
    }


class Ledger:
    """Attempted/failed operation counts; failures are reported on stderr.

    One operation (a compile, a lookup plus its grid, a session) is one
    attempt; it fails if it raises or if any check on its output fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def attempt(what: str, fn):
    """``fn()``, or None (reported on stderr) if it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - any error fails the operation
        print(f"{what}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def passes(what: str, fn) -> bool:
    """Whether the check ``fn()`` returned true without raising."""
    return bool(attempt(what, fn))


# --------------------------------------------------------------------------
# Host speed: the reference every reported host time is scaled to
# --------------------------------------------------------------------------


#: Fixed inputs of :func:`reference_kernel`.
_KERNEL_KEYS = [f"k{i}" for i in range(1500)]
_KERNEL_ARRAY = numpy.arange(1 << 20, dtype=numpy.int64)  # 8 MiB


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def reference_kernel() -> int:
    """A fixed mix of what the program's host time goes to.

    Integer arithmetic, dict inserts and lookups, small-object
    allocation and a NumPy reduction over 8 MiB.  The collector is off
    while it runs, so it neither collects the program's garbage nor
    leaves it any (every object it makes is freed on return).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for i in range(7_000):
            total += i * i % 7
        table = {key: i for i, key in enumerate(_KERNEL_KEYS)}
        for key in _KERNEL_KEYS:
            total += table[key]
        pairs = [_Pair(i, i + 1) for i in range(2_000)]
        total += sum(pair.a + pair.b for pair in pairs)
        return total + int(_KERNEL_ARRAY.sum())
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """How slowly the host runs right now, relative to a nominal speed.

    A shared 2-core VM changes speed by up to 1.8x for stretches of
    seconds to minutes.  In a two-minute tight loop of a Merse compile,
    a mixed8 session and a grid sweep, each one's median time over 3 s
    windows varied by 17-22% (coefficient of variation).  Its ratio to
    :func:`reference_kernel`, timed in the same loop, varied by 4-10%:
    less than the ratio to a pure integer loop (8-11%), since the
    host's slow stretches slow memory-bound code more than such a loop.

    So every timed region of a run is bracketed by kernel samples
    (:meth:`timed`), and its time is reported at nominal speed: divided
    by its own factor, the mean of the kernel sample just before it and
    the one just after, over the kernel's nominal time.  A long region
    is split at :meth:`checkpoint` calls (after the program's passes,
    see :func:`install_checkpoints`) into segments of at least
    :data:`SEGMENT_S`, each corrected by the samples at its own ends.
    A run that is half on a fast stretch and half on a slow one thus
    corrects each stretch by its own speed.  The kernel runs no program
    code, so a change to the program moves the scaled numbers as it
    moves the raw ones.
    """

    #: A sample is the median of this many kernel runs, so a single
    #: interrupt does not become a region's factor.
    RUNS = 3
    #: One kernel run's time at nominal speed (its usual time on the
    #: host this benchmark was written on, in its faster stretches).
    NOMINAL_S = 0.0019
    #: A sample this recent still describes the host before a region.
    FRESH_S = 0.05
    #: The shortest segment a checkpoint closes.
    SEGMENT_S = 0.2

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self.last_end = -math.inf
        self.region: Optional[dict] = None
        # Forked party workers inherit this object; only this process samples.
        self.pid = os.getpid()

    def sample(self) -> float:
        """One sample: the factor right now (above 1 on a slow host)."""
        start = time.perf_counter()
        runs = []
        for _ in range(self.RUNS):
            begin = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - begin)
        self.last_end = time.perf_counter()
        self.spent += self.last_end - start
        self.samples.append(statistics.median(runs) / self.NOMINAL_S)
        return self.samples[-1]

    def timed(self, fn):
        """``(fn(), raw seconds, factor)``; seconds / factor is nominal time.

        Kernel samples taken inside ``fn`` (checkpoints, nested regions)
        are not counted.
        """
        fresh = time.perf_counter() - self.last_end < self.FRESH_S
        before = self.samples[-1] if fresh else self.sample()
        outer = self.region
        region = self.region = {"raw": 0.0, "nominal": 0.0}
        self._open(region, before)
        try:
            out = fn()
        finally:
            self._close(region)
            self.region = outer
        raw, nominal = region["raw"], region["nominal"]
        return out, raw, raw / nominal if nominal > 0 else region["factor"]

    def checkpoint(self) -> None:
        """Split the innermost region here if its segment is long enough."""
        region = self.region
        if region is None or os.getpid() != self.pid:
            return
        if self._elapsed(region) >= self.SEGMENT_S:
            self._close(region)
            self._open(region, region["factor"])

    def _open(self, region: dict, factor: float) -> None:
        region.update(factor=factor, kernel=self.spent, start=time.perf_counter())

    def _elapsed(self, region: dict) -> float:
        return time.perf_counter() - region["start"] - (self.spent - region["kernel"])

    def _close(self, region: dict) -> None:
        seconds = self._elapsed(region)
        after = self.sample()
        region["raw"] += seconds
        region["nominal"] += seconds / ((region["factor"] + after) / 2.0)
        region["factor"] = after

    def factor(self) -> float:
        """The mean factor over the run."""
        if not self.samples:
            self.sample()
        return statistics.fmean(self.samples)


# --------------------------------------------------------------------------
# The probe: foreign end-to-end metrics on mixed8
# --------------------------------------------------------------------------


class Probe:
    """End-to-end metrics outside a workload's subject, sampled in its loop.

    Between timed calls the workload lets the probe catch up to
    :data:`SHARE` of the loop's time, so probe samples spread over the
    same window as the workload's own.  Like the workload's, each
    sample is timed at nominal host speed.  The parts take turns.
    Parts:

    * ``compile`` -- one cold compile of the scaled Merse circuit (5,635
      gates): ``compile_gates_per_s``;
    * ``sweep`` -- the 26-point grid on the Merse program compiled
      before the loop, which also gives ``sim_cycles_geomean``:
      ``sweep_points_per_s``;
    * ``session`` -- one in-process ``mixed8`` session on the numpy
      backend: the five session metrics.

    Each sample is checked like the workloads' own operations.  Each
    runs with the workload's heap frozen (``gc.freeze``): otherwise a
    Merse compile next to the resident AES circuit took either 0.08 s
    or 0.17 s, by whether a full collection fell inside it, and the
    probe would measure the workload's heap instead of its own calls.
    """

    SHARE = 0.2

    def __init__(self, seed: int, ledger: Ledger, host: HostSpeed, parts) -> None:
        self.seed = seed
        self.ledger = ledger
        self.host = host
        self.parts = parts
        self.spent = 0.0
        self.turn = 0
        self.work = {part: [] for part in parts}  # (amount, nominal seconds)
        self.firsts: List[float] = []
        self.merse = pickle.dumps(get_workload("Merse").build_scaled().circuit)
        self.mixed8 = quick_circuit()
        # One unrecorded sample of each part: first calls pay lazy set-up.
        self.program = None
        if "compile" in parts or "sweep" in parts:
            self.program = compile_fresh(self.merse, host)[1]
        if "sweep" in parts:
            sweep_grid(self.program.streams)
        if "session" in parts:
            self.warm_session()

    def fill(self, loop_seconds: float) -> None:
        """Sample until the probe has had SHARE of ``loop_seconds``.

        A burst of session samples starts with an unrecorded warm-up
        session: the first session after a workload unit (a compile of
        seconds) runs slow, and as one sample in ten it set the p90.
        """
        warm = False
        while self.spent < self.SHARE * loop_seconds:
            part = self.parts[self.turn % len(self.parts)]
            self.turn += 1
            if part == "session" and not warm:
                self.sample("warm_session")
                warm = True
            self.sample(part)

    def sample(self, part: str) -> None:
        """One sample; its kernel time counts as the host's, not the probe's."""
        start, kernel = time.perf_counter(), self.host.spent
        gc.freeze()
        try:
            getattr(self, part)()
        finally:
            gc.unfreeze()
        self.spent += time.perf_counter() - start - (self.host.spent - kernel)

    def warm_session(self) -> None:
        garbler, evaluator, session_seed = seeded_inputs(self.seed, "probe-warmup", 0,
                                                         self.mixed8)
        run_session(self.mixed8, garbler, evaluator, session_seed, self.host)

    def compile(self) -> None:
        out = attempt("probe compile", lambda: compile_fresh(self.merse, self.host))
        if out is None:
            self.ledger.record(False, "probe compile")
            return
        circuit, result, seconds, factor, _ = out
        self.ledger.record(
            passes("probe check",
                   lambda: compiled_matches(circuit, result, self.seed, "probe")),
            "probe compile matches its circuit",
        )
        self.work["compile"].append((len(circuit.gates), seconds / factor))

    def sweep(self) -> None:
        streams = self.program.streams
        points, seconds, factor = self.host.timed(lambda: sweep_grid(streams))
        self.work["sweep"].append((points, seconds / factor))
        rng = random.Random(f"{self.seed}:probe:{len(self.work['sweep'])}")
        self.ledger.record(
            passes("probe sample", lambda: sweep_sample_matches(streams, rng)),
            "probe grid sample matches serial replay",
        )

    def session(self) -> None:
        circuit = self.mixed8
        garbler, evaluator, session_seed = seeded_inputs(
            self.seed, "probe", len(self.work["session"]), circuit
        )
        out = attempt("probe session", lambda: run_session(
            circuit, garbler, evaluator, session_seed, self.host
        ))
        result = out and out[0].result
        self.ledger.record(
            bool(result)
            and result.output_bits == circuit.eval_plain(garbler, evaluator)
            and not result.recovery_events,
            "probe session output equals eval_plain",
        )
        if result:
            driver, seconds, factor = out
            self.work["session"].append((1, seconds / factor))
            self.firsts.append(driver.first_level_s / factor)

    def metrics(self) -> Dict[str, float]:
        for part in self.parts:
            if not self.work[part]:
                self.sample(part)
        metrics: Dict[str, float] = {}
        for part, name in (("compile", "compile_gates_per_s"),
                           ("sweep", "sweep_points_per_s")):
            if part in self.parts:
                samples = self.work[part]
                metrics[name] = sum(a for a, _ in samples) / sum(s for _, s in samples)
        if "compile" in self.parts:
            metrics["sim_cycles_geomean"] = timing.simulate(
                self.program.streams, CONFIG
            ).runtime_cycles
        if "session" in self.parts:
            seconds = [s for _, s in self.work["session"]]
            metrics.update(
                session_metrics(seconds, self.firsts, seconds, and_count(self.mixed8))
            )
        return metrics


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    """Base: seed, ledger, tracer and a scratch directory in the checkout."""

    name = "workload"
    probe_parts = ()
    #: Set-ups per run; ``setup_s`` is their median.  Two where a set-up
    #: takes seconds, more where one is short enough for timer noise.
    setups = 2

    def __init__(self, seed: int, tracer: Tracer, scratch: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.ledger = Ledger()
        self.exact: Dict[str, object] = {}
        self.traced_unit = False
        self.probe: Optional[Probe] = None
        self.host = HostSpeed()
        self.loop_start = 0.0
        self.loop_aside = 0.0

    def build(self, name: str, fn):
        with self.tracer.span("circuits.build", request=name):
            built = fn()
        self.host.checkpoint()
        return built

    def setup(self):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def unit(self, state, index: int) -> dict:
        raise NotImplementedError

    def finish(self, state, records: List[dict]) -> Dict[str, float]:
        raise NotImplementedError

    def setup_metrics(self, setups: List[dict]) -> Dict[str, float]:
        return {}

    def aside(self) -> float:
        """Seconds spent so far on the probe and the host-speed kernel."""
        return self.host.spent + (self.probe.spent if self.probe else 0.0)

    def loop_work(self) -> float:
        """Seconds of the current loop spent on the workload itself."""
        return time.perf_counter() - self.loop_start - (self.aside() - self.loop_aside)

    def between(self) -> None:
        """Between two timed calls: let the probe catch up."""
        if self.probe is not None:
            self.probe.fill(self.loop_work())

    def layer_extras(self, state, records: List[dict]) -> Dict[str, float]:
        """Per-layer metrics that come from results, not spans."""
        return {}


class CompileCold(Workload):
    """All eight scaled VIP-Bench circuits, compiled cold, then replayed."""

    name = "compile_cold"
    probe_parts = ("session",)

    def setup(self):
        built = {
            name: self.build(name, get_workload(name).build_scaled)
            for name in PAPER_ORDER
        }
        return {name: pickle.dumps(item.circuit) for name, item in built.items()}

    def unit(self, blobs, index: int) -> dict:
        # compile_s and sim_s are nominal seconds; wall is raw.
        record = {"compile_s": 0.0, "sim_s": 0.0, "wall": 0.0, "gates": 0, "points": 0,
                  "instructions": 0, "builds": 0, "cycles": {}}
        for name, blob in blobs.items():
            self.tracer.request = name
            out = attempt(f"compile {name}", lambda: compile_fresh(blob, self.host))
            if out is None:
                self.ledger.record(False, f"compile {name}")
                continue
            circuit, result, seconds, factor, builds = out
            sim, sim_seconds, sim_factor = self.host.timed(
                lambda: timing.simulate(result.streams, CONFIG)
            )
            record["sim_s"] += sim_seconds / sim_factor
            record["compile_s"] += seconds / factor
            record["wall"] += seconds + sim_seconds
            record["gates"] += len(circuit.gates)
            record["points"] += 1
            record["instructions"] += len(result.program.instructions)
            record["builds"] += builds
            record["cycles"][name] = sim.runtime_cycles
            with self.tracer.paused():
                ok = passes(f"check {name}",
                            lambda: compiled_matches(circuit, result, self.seed, name))
            self.ledger.record(ok, f"compiled {name} matches its circuit")
            # Free this program first: the probe and the next compile
            # should not run over (or collect) its heap.
            del out, circuit, result, sim
            self.between()
        record["seconds"] = record["compile_s"] + record["sim_s"]
        return record

    def finish(self, blobs, records):
        cycles = records[-1]["cycles"]
        self.ledger.record(
            len(cycles) == len(blobs)
            and all(r["cycles"] == cycles for r in records),
            "cycle counts repeat across passes",
        )
        self.exact.update({
            "sim_cycles_geomean": geomean(list(cycles.values())),
            "core.instructions": records[-1]["instructions"],
            "core.depgraph_builds": records[-1]["builds"],
        })
        return {
            "compile_gates_per_s": sum(r["gates"] for r in records)
            / sum(r["compile_s"] for r in records),
            "sim_cycles_geomean": self.exact["sim_cycles_geomean"],
            "sweep_points_per_s": sum(r["points"] for r in records)
            / sum(r["sim_s"] for r in records),
        }

    def layer_extras(self, blobs, records):
        return {
            "core.instructions": statistics.median(r["instructions"] for r in records),
            "core.depgraph_builds": statistics.median(r["builds"] for r in records),
            "sim.points": statistics.median(r["points"] for r in records),
        }


class SweepWarm(Workload):
    """Warm program-cache lookups of BubbSt and GradDesc, then a 52-point grid."""

    name = "sweep_warm"
    probe_parts = ("session",)
    # The set-ups also give compile_gates_per_s: a third steadies it.
    setups = 3

    def setup(self):
        directory = tempfile.mkdtemp(prefix="progcache-", dir=self.scratch)
        store = ProgramCache(directory)
        blobs, gates, seconds = {}, 0, 0.0
        for name in SWEEP_CIRCUITS:
            circuit = self.build(name, get_workload(name).build_scaled).circuit
            depgraph.clear_registry()
            # A miss: compiles and puts.
            _, raw, factor = self.host.timed(lambda: lookup(circuit, store))
            seconds += raw / factor
            gates += len(circuit.gates)
            blobs[name] = pickle.dumps(circuit)
        entry_mb = sum(p.stat().st_size for p in store.root.glob("*.pkl")) / 2**20
        return {"dir": directory, "blobs": blobs, "gates": gates,
                "compile_s": seconds, "entry_mb": entry_mb}

    def teardown(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)

    def setup_metrics(self, setups):
        # The set-up compiles cold into the cache: compile + put.
        return {"compile_gates_per_s": sum(s["gates"] for s in setups)
                / sum(s["compile_s"] for s in setups)}

    def unit(self, state, index: int) -> dict:
        store = ProgramCache(state["dir"])  # what a fresh process would see
        # seconds is nominal; wall is raw.
        record = {"wall": 0.0, "seconds": 0.0, "points": 0, "builds": 0}
        for name, blob in state["blobs"].items():
            circuit = memo_free(blob)
            builds = depgraph.build_counts()["graphs"]
            self.tracer.request = name

            def lookup_and_sweep():
                result = attempt(f"lookup {name}", lambda: lookup(circuit, store))
                points = result and attempt(
                    f"sweep {name}", lambda: sweep_grid(result.streams)
                )
                return result, points

            (result, points), seconds, factor = self.host.timed(lookup_and_sweep)
            record["wall"] += seconds
            record["seconds"] += seconds / factor
            if not points:
                self.ledger.record(False, f"lookup and sweep {name}")
                continue
            record["points"] += points
            record["builds"] += depgraph.build_counts()["graphs"] - builds
            with self.tracer.paused():
                rng = random.Random(f"{self.seed}:{name}:{index}")
                ok = passes(f"sample {name}",
                            lambda: sweep_sample_matches(result.streams, rng))
            self.ledger.record(ok, f"{name} grid sample matches serial replay")
        self.ledger.record(
            store.stats.hits == len(state["blobs"]) and store.stats.misses == 0,
            "every lookup hit the program cache",
        )
        return record

    def finish(self, state, records):
        store = ProgramCache(state["dir"])
        cycles = [
            timing.simulate(lookup(memo_free(blob), store).streams, CONFIG).runtime_cycles
            for blob in state["blobs"].values()
        ]
        self.exact["sim_cycles_geomean"] = geomean(cycles)
        return {
            "sim_cycles_geomean": self.exact["sim_cycles_geomean"],
            "sweep_points_per_s": sum(r["points"] for r in records)
            / sum(r["seconds"] for r in records),
        }

    def layer_extras(self, state, records):
        return {
            "core.progcache_entry_mb": state["entry_mb"],
            "core.depgraph_builds": statistics.median(r["builds"] for r in records),
            "sim.points": statistics.median(r["points"] for r in records),
        }


class SessionAes128(Workload):
    """Streamed AES-128 sessions, one after another, in process."""

    name = "session_aes128"
    probe_parts = ("compile", "sweep")

    def setup(self):
        circuit = self.build("aes128", full_circuit)
        # Warm-up session: builds the lazily-made OT fixed-base table.
        garbler, evaluator, session_seed = seeded_inputs(self.seed, "warmup", 0, circuit)
        run_session(circuit, garbler, evaluator, session_seed, self.host)
        return {"circuit": circuit, "and_gates": and_count(circuit)}

    def unit(self, state, index: int) -> dict:
        circuit = state["circuit"]
        garbler, evaluator, session_seed = seeded_inputs(self.seed, self.name, index, circuit)
        self.tracer.request = f"s{index}"
        out = attempt(f"session {index}", lambda: run_session(
            circuit, garbler, evaluator, session_seed, self.host
        ))
        if out is None:
            self.ledger.record(False, f"session {index}")
            return {"wall": 0.0, "seconds": 0.0, "ok": False}
        driver, seconds, factor = out
        result = driver.result
        expected = circuit.eval_plain(garbler, evaluator)
        self.ledger.record(
            result is not None and result.output_bits == expected
            and not result.recovery_events,
            f"session {index} output equals eval_plain",
        )
        if result is None:
            return {"wall": seconds, "seconds": seconds / factor, "ok": False}
        # wall is raw; seconds and first are nominal.
        return {"wall": seconds, "ok": True, "seconds": seconds / factor,
                "first": driver.first_level_s / factor,
                "bytes": result.total_bytes, "index": index,
                "inputs": digest(garbler, evaluator, session_seed),
                "outputs": digest(result.output_bits)}

    def finish(self, state, records):
        done = [r for r in records if r["ok"]]
        self.exact["gc.wire_bytes"] = done[0]["bytes"]
        self.exact["first_inputs"] = records[0].get("inputs")
        self.exact["first_outputs"] = records[0].get("outputs")
        seconds = [r["seconds"] for r in done]
        return session_metrics(
            seconds, [r["first"] for r in done], seconds, state["and_gates"]
        )

    def layer_extras(self, state, records):
        return {"gc.wire_bytes": statistics.median(
            r["bytes"] for r in records if r["ok"]
        )}


class ServeSmall(Workload):
    """mixed8 sessions back to back through the one-slot process Supervisor."""

    name = "serve_small"
    probe_parts = ("compile", "sweep")
    setups = 7

    def setup(self):
        circuit = self.build("mixed8", quick_circuit)
        supervisor = Supervisor(max_concurrent=1, max_pending=0, deadline_s=60.0)
        state = {"circuit": circuit, "supervisor": supervisor,
                 "and_gates": and_count(circuit)}
        # Warm-up: one supervised and one solo session.
        self.supervised(state, "warmup", 0)
        garbler, evaluator, session_seed = seeded_inputs(self.seed, "warmup", 0, circuit)
        run_session(circuit, garbler, evaluator, session_seed, self.host)
        return state

    def supervised(self, state, tag: str, index: int):
        circuit = state["circuit"]
        garbler, evaluator, session_seed = seeded_inputs(self.seed, tag, index, circuit)
        supervisor = state["supervisor"]

        def serve():
            handle = supervisor.submit(SessionSpec(
                circuit, garbler, evaluator, seed=session_seed, backend="numpy",
                session_id=f"{tag}{index}",
            ))
            supervisor.run_until_complete()
            return handle

        handle, wall, factor = self.host.timed(serve)
        return wall, factor, handle, (garbler, evaluator, session_seed)

    def unit(self, state, index: int) -> dict:
        circuit = state["circuit"]
        self.tracer.request = f"s{index}"
        out = attempt(f"session {index}", lambda: self.supervised(state, "s", index))
        if out is None:
            self.ledger.record(False, f"session {index}")
            return {"wall": 0.0, "seconds": 0.0, "ok": False}
        wall, factor, handle, (garbler, evaluator, session_seed) = out
        result = handle.result
        stats = handle.stats
        self.ledger.record(
            result is not None
            and result.output_bits == circuit.eval_plain(garbler, evaluator)
            and stats.attempts == 1 and not handle.procs,
            f"session {index} output equals eval_plain without retries",
        )
        if result is None:
            return {"wall": wall, "seconds": wall / factor, "ok": False}
        # wall, run_s and queue_s are raw; seconds, run and first nominal.
        record = {"wall": wall, "ok": True, "seconds": wall / factor,
                  "run_s": stats.run_s, "queue_s": stats.queue_wait_s,
                  "run": stats.run_s / factor, "first": stats.first_level_s / factor,
                  "bytes": result.total_bytes,
                  "inputs": digest(garbler, evaluator, session_seed),
                  "outputs": digest(result.output_bits)}
        if self.traced_unit:
            # The parties run in workers; a solo in-process session of
            # the same inputs gives the gc split and the overhead base.
            self.tracer.request = f"solo{index}"
            _, solo_s, solo_factor = run_session(
                circuit, garbler, evaluator, session_seed, self.host
            )
            record["solo_s"] = solo_s
            record["wall"] += solo_s
            record["seconds"] += solo_s / solo_factor
        return record

    def finish(self, state, records):
        done = [r for r in records if r["ok"]]
        stats = state["supervisor"].service_stats()
        self.ledger.record(
            stats.retries == 0 and stats.worker_restarts == 0,
            "no supervisor retries or worker restarts",
        )
        self.ledger.record(no_children(), "supervisor left no child process")
        self.exact["gc.wire_bytes"] = done[0]["bytes"]
        self.exact["first_inputs"] = records[0].get("inputs")
        self.exact["first_outputs"] = records[0].get("outputs")
        return session_metrics(
            [r["run"] for r in done], [r["first"] for r in done],
            [r["seconds"] for r in done], state["and_gates"],
        )

    def layer_extras(self, state, records):
        done = [r for r in records if r["ok"]]
        stats = state["supervisor"].service_stats()
        run_p50 = percentile([r["run_s"] for r in done], 50.0)
        extras = {
            "serve.run_s_p50": run_p50,
            "serve.queue_wait_s_p50": percentile([r["queue_s"] for r in done], 50.0),
            "serve.retries": stats.retries,
            "serve.worker_restarts": stats.worker_restarts,
            "gc.wire_bytes": statistics.median(r["bytes"] for r in done),
        }
        solos = [r["solo_s"] for r in done if "solo_s" in r]
        if solos:
            extras["serve.overhead_s_p50"] = run_p50 - percentile(solos, 50.0)
        return extras


def no_children() -> bool:
    """No live multiprocessing child and no unreaped child process."""
    if multiprocessing.active_children():
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


WORKLOADS = {cls.name: cls for cls in (CompileCold, SweepWarm, SessionAes128, ServeSmall)}


# --------------------------------------------------------------------------
# Tracing: the names callers look up
# --------------------------------------------------------------------------


def _step_phase(args, before):
    driver = args[0]
    if before is None:
        return (driver.levels_total, driver.levels_evaluated)
    levels_total, evaluated = before
    if levels_total is None:
        return "gc.handshake"
    if driver.done:
        return "gc.finish"
    if driver.levels_evaluated > evaluated:
        return "gc.eval"
    return "gc.garble"


def install_wrappers(tracer: Tracer) -> None:
    for attr in ("assemble", "depth_first_order", "full_reorder", "segment_reorder",
                 "rename", "eliminate_spent_wires", "generate_streams", "dep_graph"):
        name = {
            "depth_first_order": "core.reorder", "full_reorder": "core.reorder",
            "segment_reorder": "core.reorder", "eliminate_spent_wires": "core.esw",
            "generate_streams": "core.streams", "dep_graph": "core.depgraph",
        }.get(attr, f"core.{attr}")
        tracer.wrap(compiler, attr, name)
    tracer.wrap(compiler, "compile_key", "core.progcache_key")
    tracer.wrap(HaacProgram, "from_netlist", "core.from_netlist")
    tracer.wrap(ProgramCache, "get", "core.progcache_get")
    tracer.wrap(ProgramCache, "put", "core.progcache_put")
    tracer.wrap(timing, "simulate", "sim.replay")
    tracer.wrap(timing, "simulate_batch", "sim.replay")
    tracer.wrap(coupled, "coupled_runtime_batch", "sim.coupled")
    for cls, methods in ((OtSender, ("encrypt", "encrypt_batch")),
                         (OtReceiver, ("choose", "choose_batch", "decrypt", "decrypt_batch"))):
        for method in methods:
            tracer.wrap(cls, method, "gc.ot")
    tracer.wrap(FramedChannel, "send_message", "gc.channel")
    tracer.wrap(FramedChannel, "recv_message", "gc.channel")
    tracer.wrap(NumpyLabelHashBackend, "hash_labels", "gc.hash",
                count=lambda args: len(args[1]))
    for method in ("hash_with_schedules", "hash_fixed_key_blocks", "hash_schedule_rows"):
        tracer.wrap(NumpyLabelHashBackend, method, "gc.hash")
    tracer.wrap(StreamedDriver, "step", "gc.step", classify=_step_phase)
    tracer.wrap(TwoPartySession, "__init__", "gc.session_init")
    tracer.wrap(StreamedDriver, "__init__", "gc.session_init")
    tracer.wrap(Supervisor, "submit", "serve.submit")
    tracer.wrap(Supervisor, "run_until_complete", "serve.run")


def install_checkpoints(host: HostSpeed, patches: Tracer) -> None:
    """Checkpoint the host after each compiler pass, lookup, replay and step.

    ``patches`` only holds the wrappers (its spans stay off); restore
    it to take them out.
    """
    for attr in ("assemble", "depth_first_order", "full_reorder", "segment_reorder",
                 "rename", "eliminate_spent_wires", "generate_streams", "dep_graph"):
        patches.wrap(compiler, attr, "checkpoint", after=host.checkpoint)
    for owner, attr in ((HaacProgram, "from_netlist"), (ProgramCache, "get"),
                        (timing, "simulate"), (timing, "simulate_batch"),
                        (coupled, "coupled_runtime_batch"), (StreamedDriver, "step")):
        patches.wrap(owner, attr, "checkpoint", after=host.checkpoint)


def layer_metrics(tracer: Tracer, units: int, traced_wall: float, overhead: float,
                  setups: int) -> Dict[str, float]:
    """Per-layer numbers from the traced spans, per unit (set-up for set-up ones).

    ``traced_wall`` is raw, like the spans; ``overhead`` compares
    nominal times, so a change of host speed between the untraced and
    the traced loop does not show as overhead.
    """
    run = [s for s in tracer.spans if s["phase"] == "run"]
    by_name = self_time_by_name(tracer.spans, "run")
    setup = self_time_by_name(tracer.spans, "setup")
    per = lambda key: by_name.get(key, 0.0) / units  # noqa: E731
    metrics = {name: 0.0 for name in PER_LAYER}
    for key in ("assemble", "reorder", "rename", "from_netlist", "esw", "streams",
                "progcache_key", "progcache_get"):
        metrics[f"core.{key}_s"] = per(f"core.{key}")
    metrics["circuits.build_s"] = setup.get("circuits.build", 0.0) / setups
    metrics["core.progcache_put_s"] = setup.get("core.progcache_put", 0.0) / setups
    metrics["sim.replay_s"] = per("sim.replay")
    metrics["sim.coupled_s"] = per("sim.coupled")
    for key in ("session_init", "handshake", "ot", "garble", "eval", "hash", "channel",
                "finish"):
        metrics[f"gc.{key}_s"] = per(f"gc.{key}")
    metrics["gc.hash_calls"] = tracer.counters.get("gc.hash", 0) / units
    # Plumbing: the garble and eval steps' full durations minus the
    # hash time inside them.
    steps = {s["id"]: s for s in run if s["name"] in ("gc.garble", "gc.eval")}
    step_time = sum(s["end"] - s["start"] for s in steps.values())
    hash_in_steps = sum(
        s["end"] - s["start"] for s in run
        if s["name"] == "gc.hash" and s["parent"] in steps
    )
    metrics["gc.plumbing_s"] = (step_time - hash_in_steps) / units
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, seconds in by_name.items():
        layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + seconds
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / units
    covered = covered_time(run)
    metrics["trace.wall_s"] = traced_wall / units
    metrics["trace.uncovered_share"] = max(0.0, traced_wall - covered) / traced_wall
    metrics["trace.overhead"] = overhead
    metrics["trace.units"] = units
    return metrics


# --------------------------------------------------------------------------
# The harness
# --------------------------------------------------------------------------


def loop(workload: Workload, state, budget: float, first_index: int,
         units: Optional[int] = None) -> List[dict]:
    """Closed loop of units: a fixed count, or until ``budget`` seconds.

    Probe and kernel samples between units do not count against the
    budget.
    """
    records: List[dict] = []
    workload.loop_start = time.perf_counter()
    workload.loop_aside = workload.aside()
    while True:
        before, aside = time.perf_counter(), workload.aside()
        records.append(workload.unit(state, first_index + len(records)))
        workload.between()
        last = time.perf_counter() - before - (workload.aside() - aside)
        if units is not None:
            if len(records) >= units:
                break
        elif workload.loop_work() + last > budget:
            break
    return records


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + PARTIES * children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: str) -> dict:
    """Run one workload; returns the result object (metrics by mode)."""
    tracer = Tracer()
    workload = WORKLOADS[name](seed, tracer, scratch)
    checkpoints = Tracer()
    if trace:
        install_wrappers(tracer)
        tracer.enabled = True
    else:
        install_checkpoints(workload.host, checkpoints)
    setups, setup_times, state = [], [], None
    try:
        for _ in range(workload.setups):
            if state is not None:
                workload.teardown(state)
            state, raw, factor = workload.host.timed(workload.setup)
            setup_times.append(raw / factor)
            setups.append(state)
        tracer.restore()
        tracer.enabled = False
        if not trace:
            workload.probe = Probe(seed, workload.ledger, workload.host, workload.probe_parts)
            records = loop(workload, state, seconds, 0)
            metrics = {"setup_s": statistics.median(setup_times)}
            metrics.update(workload.setup_metrics(setups))
            metrics.update(workload.finish(state, records))
            metrics.update(workload.probe.metrics())
            metrics["peak_rss_mb"] = peak_rss_mb()
            missing = set(END_TO_END) - set(metrics)
            if missing:
                raise RuntimeError(f"{name} produced no {sorted(missing)}")
            reported = {key: metrics[key] for key in END_TO_END}
            units = UNITS
            scaled = reported  # every host time is nominal already
        else:
            workload.traced_unit = True
            plain = loop(workload, state, seconds, 0)
            install_wrappers(tracer)
            tracer.enabled = True
            tracer.phase = "run"
            tracer.counters.clear()
            traced = loop(workload, state, 0.0, len(plain), units=len(plain))
            tracer.restore()
            tracer.enabled = False
            records = plain + traced
            workload.finish(state, records)
            reported = layer_metrics(
                tracer, len(traced), sum(r["wall"] for r in traced),
                sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in plain) - 1.0,
                workload.setups,
            )
            reported.update(workload.layer_extras(state, traced))
            units = PER_LAYER
            # Span times are raw: scale them by the run's mean factor.
            scaled = {
                key: value / workload.host.factor() if units[key] == "s" else value
                for key, value in reported.items()
            }
    finally:
        tracer.restore()
        checkpoints.restore()
        if state is not None:
            workload.teardown(state)
    return {
        "correct": workload.ledger.failed == 0,
        "attempted": workload.ledger.attempted,
        "failed": workload.ledger.failed,
        "metrics": {key: {"value": scaled[key], "unit": units[key]} for key in units},
        "exact": workload.exact,
        "host_factor": workload.host.factor(),
        "host_samples": len(workload.host.samples),
        "records": len(records),
        "setup_times": setup_times,
        "tracer": tracer,
    }
