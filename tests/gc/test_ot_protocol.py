"""Oblivious transfer and the end-to-end two-party protocol."""

import random

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import less_than
from repro.gc.channel import FRAME_OVERHEAD
from repro.gc.ot import OtReceiver, OtSender, run_ot, run_ot_batch
from repro.gc.protocol import run_two_party
from repro.gc.rng import LabelPrg


class TestOt:
    @pytest.mark.parametrize("choice", [0, 1])
    def test_receiver_gets_chosen_message(self, choice):
        m0, m1 = 0xAAAA, 0xBBBB
        assert run_ot(m0, m1, choice, seed=7) == (m1 if choice else m0)

    def test_batch(self):
        rng = random.Random(5)
        pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(16)]
        choices = [rng.randint(0, 1) for _ in range(16)]
        received = run_ot_batch(pairs, choices, seed=11)
        for (m0, m1), c, got in zip(pairs, choices, received):
            assert got == (m1 if c else m0)

    def test_receiver_cannot_get_other_message(self):
        """Decrypting the unchosen ciphertext yields garbage, not m_other."""
        sender = OtSender(LabelPrg(1))
        receiver = OtReceiver(LabelPrg(2), sender.public)
        m0, m1 = 123, 456
        point, secret = receiver.choose(0)
        c0, c1 = sender.encrypt(0, point, m0, m1)
        assert receiver.decrypt(0, 0, secret, c0, c1) == m0
        # Using the same secret against the other slot must not reveal m1.
        pad = receiver.decrypt(0, 1, secret, c0, c1)
        assert pad != m1

    def test_invalid_point_rejected(self):
        sender = OtSender(LabelPrg(1))
        with pytest.raises(ValueError):
            sender.encrypt(0, 0, 1, 2)

    def test_invalid_choice_rejected(self):
        sender = OtSender(LabelPrg(1))
        receiver = OtReceiver(LabelPrg(2), sender.public)
        with pytest.raises(ValueError):
            receiver.choose(2)


class TestBatchedReceiver:
    """The batched fixed-base path must be transcript-identical to the
    per-bit reference path: same PRG draws, same points, same secrets,
    same decrypted messages."""

    def _setup(self, n=24, seed=17):
        rng = random.Random(seed)
        choices = [rng.randint(0, 1) for _ in range(n)]
        pairs = [
            (rng.getrandbits(128), rng.getrandbits(128)) for _ in range(n)
        ]
        sender = OtSender(LabelPrg(seed))
        return sender, choices, pairs

    def test_choose_batch_matches_per_bit_transcript(self):
        sender, choices, _ = self._setup()
        per_bit = OtReceiver(LabelPrg(99), sender.public)
        batched = OtReceiver(LabelPrg(99), sender.public)
        reference = [per_bit.choose(choice) for choice in choices]
        assert batched.choose_batch(choices) == reference

    def test_decrypt_batch_matches_per_bit(self):
        sender, choices, pairs = self._setup()
        receiver = OtReceiver(LabelPrg(7), sender.public)
        points_and_secrets = receiver.choose_batch(choices)
        ciphers = [
            sender.encrypt(index, point, m0, m1)
            for index, ((point, _), (m0, m1)) in enumerate(
                zip(points_and_secrets, pairs)
            )
        ]
        secrets = [secret for _, secret in points_and_secrets]
        batched = receiver.decrypt_batch(choices, secrets, ciphers)
        per_bit = [
            receiver.decrypt(index, choice, secret, c0, c1)
            for index, (choice, secret, (c0, c1)) in enumerate(
                zip(choices, secrets, ciphers)
            )
        ]
        assert batched == per_bit
        assert batched == [
            m1 if choice else m0
            for (m0, m1), choice in zip(pairs, choices)
        ]

    def test_decrypt_batch_start_index(self):
        """Offset batches use the same per-OT KDF tweaks as the
        equivalent per-bit calls."""
        sender, choices, pairs = self._setup(n=6)
        receiver = OtReceiver(LabelPrg(7), sender.public)
        points_and_secrets = receiver.choose_batch(choices)
        secrets = [secret for _, secret in points_and_secrets]
        ciphers = [
            sender.encrypt(3 + index, point, m0, m1)
            for index, ((point, _), (m0, m1)) in enumerate(
                zip(points_and_secrets, pairs)
            )
        ]
        batched = receiver.decrypt_batch(choices, secrets, ciphers, start_index=3)
        assert batched == [
            m1 if choice else m0
            for (m0, m1), choice in zip(pairs, choices)
        ]

    def test_choose_batch_rejects_non_bits(self):
        sender, _, _ = self._setup()
        receiver = OtReceiver(LabelPrg(7), sender.public)
        with pytest.raises(ValueError):
            receiver.choose_batch([0, 1, 2])

    def test_decrypt_batch_rejects_misaligned(self):
        sender, _, _ = self._setup()
        receiver = OtReceiver(LabelPrg(7), sender.public)
        with pytest.raises(ValueError):
            receiver.decrypt_batch([0, 1], [5], [(1, 2), (3, 4)])

    def test_protocol_transcript_unchanged_by_batching(self, mixed_circuit, monkeypatch):
        """The two-party session (now on the batched path) must emit the
        byte-identical transcript the per-bit path produced: same
        messages, same per-stream byte accounting, same outputs."""
        garbler_bits = [1, 0] * 4
        evaluator_bits = [0, 1] * 4
        batched = run_two_party(mixed_circuit, garbler_bits, evaluator_bits, seed=12)

        # Re-run with the receiver forced onto the per-bit reference
        # path; everything observable must be identical.
        monkeypatch.setattr(
            OtReceiver,
            "choose_batch",
            lambda self, choices: [self.choose(choice) for choice in choices],
        )
        monkeypatch.setattr(
            OtReceiver,
            "decrypt_batch",
            lambda self, choices, secrets, pairs, start_index=0: [
                self.decrypt(start_index + i, c, s, c0, c1)
                for i, (c, s, (c0, c1)) in enumerate(zip(choices, secrets, pairs))
            ],
        )
        per_bit = run_two_party(mixed_circuit, garbler_bits, evaluator_bits, seed=12)

        assert batched.output_bits == per_bit.output_bits
        assert batched.traffic == per_bit.traffic
        assert batched.total_bytes == per_bit.total_bytes
        assert batched.output_bits == mixed_circuit.eval_plain(
            garbler_bits, evaluator_bits
        )


class TestTwoPartySession:
    def _millionaires(self, width=8):
        builder = CircuitBuilder()
        alice = builder.add_garbler_inputs(width)
        bob = builder.add_evaluator_inputs(width)
        builder.mark_outputs([less_than(builder, bob, alice)])
        return builder.build("millionaires")

    def test_millionaires_problem(self):
        circuit = self._millionaires()
        for alice_wealth, bob_wealth in [(5, 3), (3, 5), (7, 7), (255, 0)]:
            a_bits = [(alice_wealth >> i) & 1 for i in range(8)]
            b_bits = [(bob_wealth >> i) & 1 for i in range(8)]
            result = run_two_party(circuit, a_bits, b_bits, seed=3)
            assert result.output_bits == [int(bob_wealth < alice_wealth)]

    def test_matches_plain_eval(self, mixed_circuit, rng):
        garbler_bits = [rng.randint(0, 1) for _ in range(mixed_circuit.n_garbler_inputs)]
        evaluator_bits = [
            rng.randint(0, 1) for _ in range(mixed_circuit.n_evaluator_inputs)
        ]
        result = run_two_party(mixed_circuit, garbler_bits, evaluator_bits, seed=4)
        assert result.output_bits == mixed_circuit.eval_plain(
            garbler_bits, evaluator_bits
        )

    def test_traffic_includes_tables(self, mixed_circuit):
        result = run_two_party(
            mixed_circuit,
            [0] * mixed_circuit.n_garbler_inputs,
            [0] * mixed_circuit.n_evaluator_inputs,
            seed=4,
        )
        # One 32-byte table per AND gate, framed per AND level in
        # 4096-byte chunks that each carry a header, the kind and a CRC.
        frames = sum(
            -(-32 * len(ands) // 4096)
            for ands, _ in mixed_circuit.and_level_schedule()
            if ands
        )
        assert result.traffic["garbler->evaluator:tables"] == (
            32 * result.and_gates + frames * (FRAME_OVERHEAD + len("tables"))
        )
        assert result.total_bytes > 32 * result.and_gates

    def test_wrong_input_count(self, tiny_circuit):
        with pytest.raises(ValueError):
            run_two_party(tiny_circuit, [0, 1], [0], seed=0)
