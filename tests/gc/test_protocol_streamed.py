"""Two-party session: correctness, edge cases, degradation ledger."""

from __future__ import annotations

import pytest

from repro.circuits.netlist import Circuit, Gate, GateOp
from repro.gc.backends import get_backend
from repro.gc.channel import make_framed_pair
from repro.gc.garble import garble_circuit
from repro.gc.protocol import StreamedDriver, TwoPartySession, run_two_party
from repro.sim.config import HaacConfig


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


class TestStreamedEquivalence:
    @pytest.mark.parametrize("fixture", ["tiny_circuit", "adder_circuit", "mixed_circuit"])
    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_matches_plain_eval(self, request, fixture, backend):
        circuit = request.getfixturevalue(fixture)
        g, e = _bits(circuit)
        result = run_two_party(circuit, g, e, backend=backend)
        and_gates = sum(1 for gate in circuit.gates if gate.op is GateOp.AND)
        assert result.output_bits == circuit.eval_plain(g, e)
        assert result.and_gates == and_gates
        # The Half-Gate evaluator hashes each AND gate's two input labels.
        assert result.hash_calls_evaluator == 2 * and_gates
        assert result.transcript_digest
        assert result.recovery_events == []
        assert result.fault_events == []

    def test_streams_one_block_per_and_level(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        result = run_two_party(mixed_circuit, g, e)
        and_levels = sum(
            1
            for and_positions, _ in mixed_circuit.and_level_schedule()
            if and_positions
        )
        assert result.streamed_levels == and_levels
        assert result.first_level_s is not None and result.first_level_s > 0

    def test_backend_choice_is_transcript_invariant(self, adder_circuit):
        g, e = _bits(adder_circuit)
        reference = run_two_party(adder_circuit, g, e)
        batched = run_two_party(adder_circuit, g, e, backend="auto")
        assert batched.output_bits == reference.output_bits
        assert batched.transcript_digest == reference.transcript_digest

    def test_exhaustive_tiny(self, tiny_circuit):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(tiny_circuit, [a], [b])
                assert result.output_bits == [(a & b) ^ (1 - a)]

    def test_seed_changes_digest_not_outputs(self, adder_circuit):
        g, e = _bits(adder_circuit)
        one = run_two_party(adder_circuit, g, e, seed=1)
        two = run_two_party(adder_circuit, g, e, seed=2)
        assert one.output_bits == two.output_bits
        assert one.transcript_digest != two.transcript_digest


class TestGarblerRoleMatchesAuditedGarbler:
    @pytest.mark.parametrize("fixture", ["tiny_circuit", "adder_circuit", "mixed_circuit"])
    @pytest.mark.parametrize("backend", [None, "auto"])
    def test_tables_and_decode_bits(self, request, fixture, backend):
        """The garbler role ships exactly the audited garble_circuit's
        tables, reordered by the AND-level schedule, and decode bits."""
        circuit = request.getfixturevalue(fixture)
        g, e = _bits(circuit)
        pair = make_framed_pair()
        sent = []
        send = pair.to_evaluator.send_message

        def recording_send(kind, payload):
            sent.append((kind, payload))
            send(kind, payload)

        pair.to_evaluator.send_message = recording_send
        driver = StreamedDriver(
            TwoPartySession(circuit, seed=5, backend=backend), g, e, pair=pair
        )
        while not driver.done:
            driver.step()

        reference = garble_circuit(circuit, seed=5).garbled
        and_index = {
            position: index
            for index, position in enumerate(
                p for p, gate in enumerate(circuit.gates) if gate.op is GateOp.AND
            )
        }
        expected_blocks = [
            b"".join(reference.tables[and_index[p]].to_bytes() for p in ands)
            for ands, _ in circuit.and_level_schedule()
            if ands
        ]
        assert [p for kind, p in sent if kind == "tables"] == expected_blocks
        (decode,) = [p for kind, p in sent if kind == "decode"]
        assert [
            (decode[i // 8] >> (i % 8)) & 1 for i in range(len(circuit.outputs))
        ] == reference.decode_bits


class TestZeroLengthEdges:
    """Degenerate shapes must work (the serializers see zero-byte
    payloads here)."""

    @pytest.fixture
    def no_evaluator_inputs(self):
        gates = [
            Gate(GateOp.AND, 0, 1, 2),
            Gate(GateOp.XOR, 0, 2, 3),
        ]
        return Circuit.from_gates(2, 0, gates, [3], "no-eval-inputs")

    @pytest.fixture
    def xor_only(self):
        gates = [
            Gate(GateOp.XOR, 0, 1, 2),
            Gate(GateOp.INV, 2, -1, 3),
        ]
        return Circuit.from_gates(1, 1, gates, [3], "xor-only")

    @pytest.fixture
    def single_level(self):
        gates = [Gate(GateOp.AND, 0, 1, 2)]
        return Circuit.from_gates(1, 1, gates, [2], "one-and")

    def test_no_evaluator_inputs(self, no_evaluator_inputs):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(no_evaluator_inputs, [a, b], [])
                assert result.output_bits == [a ^ (a & b)]

    def test_no_and_gates(self, xor_only):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(xor_only, [a], [b])
                assert result.output_bits == [1 ^ a ^ b]
                assert result.and_gates == 0
                assert result.streamed_levels == 0
                assert result.first_level_s is None

    def test_single_and_level(self, single_level):
        for a in (0, 1):
            for b in (0, 1):
                result = run_two_party(single_level, [a], [b])
                assert result.output_bits == [a & b]
                assert result.streamed_levels == 1

    def test_wrong_input_counts_rejected(self, single_level):
        with pytest.raises(ValueError, match="garbler input bits"):
            run_two_party(single_level, [0, 1], [0])
        with pytest.raises(ValueError, match="evaluator input bits"):
            run_two_party(single_level, [0], [])


class TestConfigWiring:
    def test_config_supplies_fault_spec(self, tiny_circuit):
        config = HaacConfig().with_fault_spec("duplicate:1.0,seed=3")
        result = run_two_party(tiny_circuit, [1], [1], config=config)
        assert result.output_bits == [(1 & 1) ^ 0]
        assert any(event.kind == "duplicate" for event in result.fault_events)

    def test_explicit_faults_beat_config(self, tiny_circuit):
        config = HaacConfig().with_fault_spec("drop:1.0,seed=3")
        result = run_two_party(
            tiny_circuit, [1], [0], config=config, faults="seed=1"
        )
        assert result.fault_events == []

    def test_env_spec_consulted(self, tiny_circuit, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "duplicate:1.0,seed=2")
        result = run_two_party(tiny_circuit, [0], [1])
        assert any(event.kind == "duplicate" for event in result.fault_events)


class TestDegradationSurfacing:
    def test_backend_fallback_reason_lands_in_recovery_events(self, tiny_circuit):
        backend = get_backend("scalar")
        backend.auto_fallback_reason = "numpy backend unavailable: (test)"
        result = run_two_party(tiny_circuit, [1], [1], backend=backend)
        assert [
            (event.layer, event.kind)
            for event in result.recovery_events
        ] == [("backend", "scalar_fallback")]

    def test_pool_disabled_reason_lands_in_recovery_events(self, tiny_circuit):
        backend = get_backend("scalar")
        backend.pool_disabled_reason = "BrokenProcessPool: (test)"
        result = run_two_party(tiny_circuit, [1], [1], backend=backend)
        assert ("pool", "pool_disabled") in [
            (event.layer, event.kind) for event in result.recovery_events
        ]

    def test_auto_fallback_note_warns_once(self):
        from repro.gc.backends import base

        base.reset_warn_once()
        backend = get_backend("scalar")
        with pytest.warns(RuntimeWarning, match="degraded to 'scalar'"):
            base._note_auto_fallback(backend, "numpy backend unavailable: x")
        assert backend.auto_fallback_reason == "numpy backend unavailable: x"
        # Second note: reason still stamped, but no second warning.
        other = get_backend("scalar")
        base._note_auto_fallback(other, "again")
        assert other.auto_fallback_reason == "again"
        # reset_warn_once re-arms the warning (the conftest autouse
        # fixture relies on this for test isolation).
        base.reset_warn_once()
        with pytest.warns(RuntimeWarning, match="degraded to 'scalar'"):
            base._note_auto_fallback(backend, "rearmed")
