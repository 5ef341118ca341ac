"""Chaos matrix: every fault class against real two-party sessions.

The robustness invariant under test: with any deterministic fault plan
armed, a streamed session either completes with output and transcript
bit-identical to the fault-free run, or raises a typed
:class:`repro.faults.ProtocolFault` promptly -- it never hangs and never
returns corrupt output.  Identical fault seeds must reproduce identical
injected-fault and recovery-event sequences.

Run with ``pytest -m chaos``; every test carries a tight wall-clock
budget (pytest-timeout in CI, the SIGALRM shim in conftest.py locally)
because "terminates" is part of the contract being verified.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.faults import (
    FRAME_FAULTS,
    FaultPlan,
    FrameTimeout,
    ProtocolFault,
    RecoveryLog,
    TranscriptMismatch,
    install,
    parse_fault_spec,
)
from repro.gc.protocol import StreamedDriver, TwoPartySession, run_two_party

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]

#: Injection rate per fault class for the survivable matrix: high enough
#: to fire many times per session, low enough that the bounded
#: retransmit budget recovers (tamper is the exception -- it is designed
#: to slip past recovery and trip the transcript digest instead).
_MATRIX_RATES = {
    "drop": 0.08,
    "corrupt": 0.12,
    "truncate": 0.12,
    "tamper": 0.15,
    "duplicate": 0.3,
    "delay": 0.3,
    "reorder": 0.3,
}

_CIRCUITS = ["tiny_circuit", "adder_circuit", "mixed_circuit"]


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _baseline(circuit):
    g, e = _bits(circuit)
    return run_two_party(circuit, g, e)


def _chaos_run(circuit, spec):
    """One fault-injected streamed session; returns (result, error)."""
    g, e = _bits(circuit)
    try:
        return run_two_party(circuit, g, e, faults=spec), None
    except ProtocolFault as exc:
        return None, exc


class TestChaosMatrix:
    @pytest.mark.parametrize("kind", FRAME_FAULTS)
    @pytest.mark.parametrize("fixture", _CIRCUITS)
    def test_fault_class_never_corrupts(self, request, fixture, kind):
        circuit = request.getfixturevalue(fixture)
        clean = _baseline(circuit)
        spec = f"{kind}:{_MATRIX_RATES[kind]},seed=13"
        result, error = _chaos_run(circuit, spec)
        if error is not None:
            # Termination with a *typed* fault is an allowed outcome;
            # silent corruption or a hang is not.
            assert isinstance(error, ProtocolFault)
            return
        assert result.output_bits == clean.output_bits
        assert result.transcript_digest == clean.transcript_digest
        g, e = _bits(circuit)
        assert result.output_bits == circuit.eval_plain(g, e)

    @pytest.mark.parametrize("fixture", _CIRCUITS)
    def test_combined_faults(self, request, fixture):
        circuit = request.getfixturevalue(fixture)
        clean = _baseline(circuit)
        spec = "drop:0.04,corrupt:0.04,duplicate:0.1,delay:0.1,reorder:0.1,seed=99"
        result, error = _chaos_run(circuit, spec)
        if error is not None:
            assert isinstance(error, ProtocolFault)
            return
        assert result.output_bits == clean.output_bits
        assert result.transcript_digest == clean.transcript_digest

    def test_total_loss_times_out_promptly(self, adder_circuit):
        _, error = _chaos_run(adder_circuit, "drop:1.0,seed=1")
        assert isinstance(error, FrameTimeout)

    def test_pervasive_tamper_trips_transcript_digest(self, adder_circuit):
        result, error = _chaos_run(adder_circuit, "tamper:1.0,seed=1")
        assert result is None
        assert isinstance(error, TranscriptMismatch)

    def test_seeded_runs_reproduce_event_sequences(self, mixed_circuit):
        spec = "drop:0.05,corrupt:0.05,duplicate:0.2,seed=7"
        g, e = _bits(mixed_circuit)

        def one_run():
            plan = parse_fault_spec(spec)
            try:
                result = run_two_party(
                    mixed_circuit, g, e, faults=plan
                )
            except ProtocolFault as exc:
                fault_sig = [(ev.site, ev.kind) for ev in plan.injected]
                return ("fault", type(exc).__name__, str(exc), fault_sig)
            recovery_sig = [
                (ev.layer, ev.kind, ev.detail) for ev in result.recovery_events
            ]
            fault_sig = [(ev.site, ev.kind) for ev in result.fault_events]
            return (
                "ok",
                result.output_bits,
                result.transcript_digest,
                recovery_sig,
                fault_sig,
            )

        first = one_run()
        assert one_run() == first
        assert one_run() == first

    def test_different_seeds_differ(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        signatures = []
        for seed in (1, 2):
            try:
                result = run_two_party(
                    mixed_circuit,
                    g,
                    e,
                    faults=f"drop:0.05,duplicate:0.2,seed={seed}",
                )
                signatures.append([(f.site, f.kind) for f in result.fault_events])
            except ProtocolFault:
                signatures.append(("fault", seed))
        assert signatures[0] != signatures[1]


#: (spec, window) -> (error, injected faults, digest of their (site,
#: kind) signature, recovery events, digest of their (layer, kind,
#: detail) signature) for mixed8 at seed 7 over 64-byte chunks; window
#: ``None`` is unbounded (every level garbled before any is evaluated).
#: All frame faults of a plan draw from one RNG at push time, so these
#: pin the global order of the two parties' channel operations.
_GOLDEN_FAULT_SCHEDULES = {
    ("drop:0.1,seed=13", 1): ("FrameTimeout", 11, "68f8d537866ed88a", 10, "e07de49fc3c2a36f"),
    ("drop:0.1,seed=13", None): (None, 20, "ad4e909797b088d5", 20, "947a736687483843"),
    ("tamper:0.05,seed=13", 1): ("TranscriptMismatch", 1, "562b10154d2bebd1", 0, "4f53cda18c2baa0c"),
    ("tamper:0.05,seed=13", None): ("TranscriptMismatch", 1, "562b10154d2bebd1", 0, "4f53cda18c2baa0c"),
    ("delay:0.3,seed=13", 1): (None, 27, "28860020da4d07e1", 0, "4f53cda18c2baa0c"),
    ("delay:0.3,seed=13", None): (None, 27, "28860020da4d07e1", 0, "4f53cda18c2baa0c"),
    ("reorder:0.3,seed=13", 1): (None, 23, "9c24c5aeea8bcce4", 0, "4f53cda18c2baa0c"),
    ("reorder:0.3,seed=13", None): (None, 23, "9c24c5aeea8bcce4", 0, "4f53cda18c2baa0c"),
    ("drop:0.05,delay:0.2,reorder:0.2,duplicate:0.2,seed=99", 1): (None, 54, "d9307f878b5a8942", 22, "fcfc616f8f56f42d"),
    ("drop:0.05,delay:0.2,reorder:0.2,duplicate:0.2,seed=99", None): (None, 54, "f9937f1027ca32d9", 22, "c07986f37d7a9a19"),
}


class TestGoldenFaultSchedules:
    @pytest.mark.parametrize("spec, window", list(_GOLDEN_FAULT_SCHEDULES))
    def test_same_faults_and_recoveries(self, mixed_circuit, spec, window):
        g, e = _bits(mixed_circuit)
        levels = len(mixed_circuit.and_level_schedule())
        driver = StreamedDriver(
            TwoPartySession(
                mixed_circuit, seed=7, faults=parse_fault_spec(spec),
                chunk_bytes=64,
            ),
            g, e, max_inflight_levels=window or levels,
        )
        error = None
        while not driver.done:
            try:
                driver.step()
            except ProtocolFault as exc:
                error = type(exc).__name__
        faults = [[event.site, event.kind] for event in driver.plan.injected]
        recovery = [list(event) for event in driver.log.signature()]

        def digest(items):
            return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]

        assert (
            error, len(faults), digest(faults), len(recovery), digest(recovery)
        ) == _GOLDEN_FAULT_SCHEDULES[(spec, window)]


class TestProcessChaos:
    @pytest.mark.timeout(300)
    def test_worker_kill_recovers_bitwise(self, adder_circuit):
        """SIGKILL a pool worker mid-dispatch: the pool-rebuild retry
        (or, second time around, the serial fallback) must still produce
        the exact fault-free transcript."""
        parallel = pytest.importorskip("repro.gc.backends.parallel")
        backend = parallel.ParallelLabelHashBackend(workers=2, min_batch=1)
        g, e = _bits(adder_circuit)
        clean = run_two_party(adder_circuit, g, e)
        with warnings.catch_warnings():
            # Whether the kill ends in pool rebuilds or a permanent
            # serial fallback (with its RuntimeWarning) depends on when
            # the executor notices the dead worker; both are valid
            # recoveries, and both must yield the clean transcript.
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_two_party(
                adder_circuit,
                g,
                e,
                backend=backend,
                faults="kill_worker:1.0,seed=5",
            )
        assert result.output_bits == clean.output_bits
        assert result.transcript_digest == clean.transcript_digest
        assert any(event.site == "pool" for event in result.fault_events)
        assert any(event.layer == "pool" for event in result.recovery_events)

    def test_cache_tear_recovers_by_recompile(self, tmp_path):
        from repro.core.progcache import ProgramCache

        store = ProgramCache(tmp_path, memory=False)
        payload = {"compiled": list(range(64))}
        store.put("k" * 64, payload)
        assert store.get("k" * 64) == payload

        plan = FaultPlan({"tear_cache": 1.0}, seed=0)
        log = RecoveryLog()
        with install(plan, log):
            assert store.get("k" * 64) is None
        assert store.stats.corrupt == 1
        assert log.count("cache", "entry_recovered") == 1
        assert [(e.site[:6], e.kind) for e in plan.injected] == [
            ("cache:", "tear_cache")
        ]

        # The torn entry was dropped: a recompile-and-put round trip
        # restores service with no stale bytes left behind.
        store.put("k" * 64, payload)
        assert store.get("k" * 64) == payload
