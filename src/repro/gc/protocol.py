"""Two-party GC session: each party written once, driven three ways.

The protocol of paper section 2.1, level-streamed over the framed
transport of :mod:`repro.gc.channel`:

1. *Handshake*: Alice (Garbler) draws R and the input labels, sends
   her own input labels directly and Bob's by oblivious transfer, so
   she never sees his bits.
2. *Streaming*: Alice garbles along :meth:`Circuit.and_level_schedule`
   and ships each AND level's table block as soon as it is computed;
   Bob evaluates level ``L`` while Alice garbles ``L+1`` instead of
   waiting for the whole circuit.
3. *Output*: Bob decodes with Alice's decode bits (both-learn variant)
   and returns the output bits.
4. *Transcript check*: both sides exchange SHA-256 transcript digests
   *before* any result is built, so a tampered frame that slipped past
   the per-frame CRC raises :class:`~repro.faults.TranscriptMismatch`.

Each party is one generator role -- :func:`garbler_role` and
:func:`evaluator_role` -- that sends and receives on its own
:class:`~repro.gc.channel.FramedChannel` objects, yields at every pause
(the receiving channel just before each receive, :data:`HANDSHAKE`
after the handshake, a :class:`Level` after each AND level) and returns
a :class:`RoleReport`.  Three drivers run the roles:

* :class:`StreamedDriver` runs both roles in process over one framed
  pair, one step at a time (:meth:`TwoPartySession.run` loops it; the
  :class:`~repro.serve.SessionMultiplexer` interleaves many drivers);
* a worker process of :mod:`repro.serve.procs` runs one role over its
  end of a kernel socket;
* :func:`session_result` builds the :class:`SessionResult` from the two
  reports, for the driver and for the :class:`~repro.serve.Supervisor`.

Faults injected by a :class:`repro.faults.FaultPlan` either leave the
result bit-identical to the fault-free run or raise a typed
:class:`repro.faults.ProtocolFault`; the survived degradations are on
``SessionResult.recovery_events``.  The HAAC accelerator replaces the
software garbling and evaluation inside the roles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Generator, List, NamedTuple, Optional, Sequence, Union

from .. import faults as faults_mod
from ..circuits.netlist import Circuit, GateOp
from ..faults import (
    FaultEvent,
    FaultPlan,
    ProtocolFault,
    RecoveryEvent,
    RecoveryLog,
    SessionAborted,
    TranscriptMismatch,
    resolve_fault_plan,
)
from .channel import DIGEST_KIND, FramedChannel, FramedPair, make_framed_pair
from .halfgate import GarbledTable, eval_and, garble_and
from .hashing import GateHasher
from .labels import lsb
from .ot import GROUP_P, OtReceiver, OtSender
from .rng import LabelPrg

__all__ = [
    "HANDSHAKE",
    "Level",
    "RoleReport",
    "SessionResult",
    "StreamedDriver",
    "TwoPartySession",
    "evaluator_role",
    "garbler_role",
    "run_two_party",
    "session_result",
]

_LABEL_BYTES = 16
_TABLE_BYTES = 32
# Wire width of a serialized group element.
_POINT_BYTES = (GROUP_P.bit_length() + 7) // 8


@dataclass
class SessionResult:
    """Outcome of a two-party run.

    ``recovery_events`` lists every survived degradation (transport
    retransmits, pool shard retries, cache recoveries, backend
    fallbacks), ``fault_events`` what the active
    :class:`~repro.faults.FaultPlan` injected, ``transcript_digest`` the
    hex SHA-256 of the garbler->evaluator message transcript as verified
    by both sides, and ``first_level_s`` the latency until the first AND
    level's tables were delivered *and evaluated* (``None`` without AND
    gates).
    """

    output_bits: List[int]
    traffic: Dict[str, int]
    total_bytes: int
    and_gates: int
    hash_calls_evaluator: int
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    fault_events: List[FaultEvent] = field(default_factory=list)
    transcript_digest: Optional[str] = None
    streamed_levels: int = 0
    first_level_s: Optional[float] = None


# --------------------------------------------------------------------------
# Wire serialization helpers.  The framed transport carries raw bytes,
# so every message is serialized explicitly; damaged payload structure
# surfaces as SessionAborted, not a random exception.
# --------------------------------------------------------------------------


def _ints_to_bytes(values: Sequence[int], width: int) -> bytes:
    return b"".join(value.to_bytes(width, "big") for value in values)


def _bytes_to_ints(data: bytes, width: int, what: str) -> List[int]:
    if len(data) % width:
        raise SessionAborted(
            f"{what}: payload length {len(data)} is not a multiple of {width}"
        )
    return [
        int.from_bytes(data[i : i + width], "big")
        for i in range(0, len(data), width)
    ]


def _pack_bits(bits: Sequence[int]) -> bytes:
    out = bytearray((len(bits) + 7) // 8)
    for index, bit in enumerate(bits):
        if bit:
            out[index // 8] |= 1 << (index % 8)
    return bytes(out)


def _unpack_bits(data: bytes, n_bits: int, what: str) -> List[int]:
    if len(data) != (n_bits + 7) // 8:
        raise SessionAborted(
            f"{what}: expected {(n_bits + 7) // 8} packed bytes for "
            f"{n_bits} bits, got {len(data)}"
        )
    return [(data[index // 8] >> (index % 8)) & 1 for index in range(n_bits)]


# --------------------------------------------------------------------------
# Party state: labels and per-level garbling / evaluation
# --------------------------------------------------------------------------


class _StreamingGarbler:
    """Garbler state for level-streamed delivery.

    Labels are drawn exactly as in :func:`repro.gc.garble.garble_circuit`
    (same PRG order: R, then one label per input wire), so input labels,
    tables and decode bits are bit-identical to that audited reference
    -- only the table *stream order* follows the AND-level schedule
    instead of netlist order.
    """

    def __init__(self, circuit: Circuit, seed: int, rekeyed: bool, backend) -> None:
        prg = LabelPrg(seed)
        self.circuit = circuit
        self.r = prg.next_odd_block()
        self.rekeyed = rekeyed
        self.backend = backend
        self.hasher = GateHasher(rekeyed=rekeyed)
        self.zero: List[int] = [
            prg.next_block() for _ in range(circuit.n_inputs)
        ] + [0] * len(circuit.gates)

    def input_label(self, wire: int, bit: int) -> int:
        if wire >= self.circuit.n_inputs:
            raise ValueError(f"wire {wire} is not a primary input")
        return self.zero[wire] ^ (self.r if bit else 0)

    def garble_phase(
        self, and_positions: List[int], free_groups: List[List[int]]
    ) -> bytes:
        """Garble one AND level; returns its serialized table block."""
        gates = self.circuit.gates
        zero = self.zero
        r = self.r
        parts: List[bytes] = []
        if and_positions and self.backend is None:
            for position in and_positions:
                gate = gates[position]
                out_zero, table = garble_and(
                    zero[gate.a], zero[gate.b], r, position, self.hasher
                )
                zero[gate.out] = out_zero
                parts.append(table.to_bytes())
        elif and_positions:
            labels: List[int] = []
            tweaks: List[int] = []
            for position in and_positions:
                gate = gates[position]
                wa0 = zero[gate.a]
                wb0 = zero[gate.b]
                j_g = 2 * position
                labels.extend((wa0, wa0 ^ r, wb0, wb0 ^ r))
                tweaks.extend((j_g, j_g, j_g + 1, j_g + 1))
            hashes = self.backend.hash_labels(labels, tweaks, self.rekeyed)
            self.hasher.record_batch(len(labels))
            for index, position in enumerate(and_positions):
                h_a0, h_a1, h_b0, h_b1 = hashes[4 * index : 4 * index + 4]
                gate = gates[position]
                wa0 = zero[gate.a]
                wb0 = zero[gate.b]
                t_g = h_a0 ^ h_a1 ^ (r if wb0 & 1 else 0)
                w_g0 = h_a0 ^ (t_g if wa0 & 1 else 0)
                t_e = h_b0 ^ h_b1 ^ wa0
                w_e0 = h_b0 ^ ((t_e ^ wa0) if wb0 & 1 else 0)
                zero[gate.out] = w_g0 ^ w_e0
                parts.append(GarbledTable(t_g, t_e).to_bytes())
        for group in free_groups:
            for position in group:
                gate = gates[position]
                if gate.op is GateOp.XOR:
                    zero[gate.out] = zero[gate.a] ^ zero[gate.b]
                else:  # INV
                    zero[gate.out] = zero[gate.a] ^ r
        return b"".join(parts)

    def decode_bits(self) -> List[int]:
        return [lsb(self.zero[w]) for w in self.circuit.outputs]


class _StreamingEvaluator:
    """Evaluator state consuming one table block per AND level."""

    def __init__(
        self, circuit: Circuit, input_labels: Sequence[int], rekeyed: bool, backend
    ) -> None:
        if len(input_labels) != circuit.n_inputs:
            raise SessionAborted(
                f"expected {circuit.n_inputs} input labels, got {len(input_labels)}"
            )
        self.circuit = circuit
        self.rekeyed = rekeyed
        self.backend = backend
        self.hasher = GateHasher(rekeyed=rekeyed)
        self.labels: List[int] = list(input_labels) + [0] * len(circuit.gates)

    def eval_phase(
        self,
        and_positions: List[int],
        free_groups: List[List[int]],
        block: bytes,
    ) -> None:
        gates = self.circuit.gates
        labels = self.labels
        if len(block) != _TABLE_BYTES * len(and_positions):
            raise SessionAborted(
                f"table block mismatch: {len(and_positions)} AND gates need "
                f"{_TABLE_BYTES * len(and_positions)} bytes, got {len(block)}"
            )
        if and_positions:
            tables = [
                GarbledTable.from_bytes(
                    block[_TABLE_BYTES * i : _TABLE_BYTES * (i + 1)]
                )
                for i in range(len(and_positions))
            ]
            if self.backend is None:
                for table, position in zip(tables, and_positions):
                    gate = gates[position]
                    labels[gate.out] = eval_and(
                        labels[gate.a], labels[gate.b], table, position, self.hasher
                    )
            else:
                batch: List[int] = []
                tweaks: List[int] = []
                for position in and_positions:
                    gate = gates[position]
                    batch.extend((labels[gate.a], labels[gate.b]))
                    tweaks.extend((2 * position, 2 * position + 1))
                hashes = self.backend.hash_labels(batch, tweaks, self.rekeyed)
                self.hasher.record_batch(len(batch))
                for index, position in enumerate(and_positions):
                    h_a, h_b = hashes[2 * index], hashes[2 * index + 1]
                    gate = gates[position]
                    wa = labels[gate.a]
                    wb = labels[gate.b]
                    table = tables[index]
                    w_g = h_a ^ (table.generator_row if wa & 1 else 0)
                    w_e = h_b ^ ((table.evaluator_row ^ wa) if wb & 1 else 0)
                    labels[gate.out] = w_g ^ w_e
        for group in free_groups:
            for position in group:
                gate = gates[position]
                if gate.op is GateOp.XOR:
                    labels[gate.out] = labels[gate.a] ^ labels[gate.b]
                else:  # INV forwards the label unchanged
                    labels[gate.out] = labels[gate.a]

    def decode(self, decode_bits: Sequence[int]) -> List[int]:
        output_labels = [self.labels[w] for w in self.circuit.outputs]
        return [
            lsb(label) ^ decode
            for label, decode in zip(output_labels, decode_bits)
        ]


# --------------------------------------------------------------------------
# The two roles
# --------------------------------------------------------------------------

#: Marker a role yields once its half of the handshake is done.
HANDSHAKE = "handshake"


class Level(NamedTuple):
    """Marker a role yields after each AND level of the schedule."""

    index: int
    #: AND levels whose tables this role has sent or received so far.
    streamed_levels: int
    #: Evaluator only: seconds from ``t_start`` until the first AND
    #: level was evaluated (``None`` before that, and for the garbler).
    first_level_s: Optional[float]


@dataclass
class RoleReport:
    """What a role returns when its half of the session finishes."""

    output_bits: List[int]
    #: Hex SHA-256 of the garbler->evaluator transcript: as sent (the
    #: garbler) or as delivered and verified (the evaluator).
    transcript_digest: str
    #: Per-kind wire bytes of the channel this role sends on.  It is
    #: that channel's live counter: in process the receiver's
    #: retransmits still land on it until the peer finishes.
    sent_bytes: Dict[str, int]
    levels: int
    streamed_levels: int
    first_level_s: Optional[float]
    and_gates: int
    hash_calls: int


#: What a role yields: the channel it receives on next, or a marker.
Pause = Union[FramedChannel, str, Level]


def _recv(channel: FramedChannel, kind: str) -> Generator[Pause, None, bytes]:
    """Pause just before receiving, then receive (``yield from`` it)."""
    yield channel
    return channel.recv_message(kind)


def _verify_transcript(channel: FramedChannel, claimed: bytes) -> bytes:
    """Check the sender's claimed digest against what was delivered."""
    delivered = channel.recv_digest()
    if claimed != delivered:
        raise TranscriptMismatch(
            f"{channel.name} transcript diverged: sender "
            f"{claimed.hex()[:16]}..., receiver {delivered.hex()[:16]}..."
        )
    return delivered


def garbler_role(
    circuit: Circuit,
    seed: int,
    rekeyed: bool,
    backend,
    garbler_bits: Sequence[int],
    down: FramedChannel,
    up: FramedChannel,
) -> Generator[Pause, None, RoleReport]:
    """Alice: OT sender, garbles and streams tables on ``down``."""
    alice = _StreamingGarbler(circuit, seed, rekeyed, backend)
    sender = OtSender(LabelPrg(seed + 0x0F))
    down.send_message("ot_public", sender.public.to_bytes(_POINT_BYTES, "big"))
    points = _bytes_to_ints(
        (yield from _recv(up, "ot_points")), _POINT_BYTES, "ot_points"
    )
    label_pairs = [
        (alice.input_label(wire, 0), alice.input_label(wire, 1))
        for wire in circuit.evaluator_input_wires
    ]
    cipher_pairs = sender.encrypt_batch(points, label_pairs)
    down.send_message(
        "ot_ciphers",
        _ints_to_bytes([c for pair in cipher_pairs for c in pair], _LABEL_BYTES),
    )
    alice_labels = [
        alice.input_label(wire, bit)
        for wire, bit in zip(circuit.garbler_input_wires, garbler_bits)
    ]
    down.send_message("garbler_labels", _ints_to_bytes(alice_labels, _LABEL_BYTES))
    yield HANDSHAKE

    schedule = circuit.and_level_schedule()
    streamed = 0
    for index, (and_positions, free_groups) in enumerate(schedule):
        block = alice.garble_phase(and_positions, free_groups)
        if and_positions:
            down.send_message("tables", block)
            streamed += 1
        yield Level(index, streamed, None)

    down.send_message("decode", _pack_bits(alice.decode_bits()))
    output_bits = _unpack_bits(
        (yield from _recv(up, "outputs")), len(circuit.outputs), "outputs"
    )
    down.send_message(DIGEST_KIND, down.send_digest())
    _verify_transcript(up, (yield from _recv(up, DIGEST_KIND)))
    return RoleReport(
        output_bits=output_bits,
        transcript_digest=down.send_digest().hex(),
        sent_bytes=down.bytes_by_class,
        levels=len(schedule),
        streamed_levels=streamed,
        first_level_s=None,
        and_gates=sum(len(ands) for ands, _ in schedule),
        hash_calls=alice.hasher.calls,
    )


def evaluator_role(
    circuit: Circuit,
    seed: int,
    rekeyed: bool,
    backend,
    evaluator_bits: Sequence[int],
    down: FramedChannel,
    up: FramedChannel,
    t_start: Optional[float] = None,
) -> Generator[Pause, None, RoleReport]:
    """Bob: OT receiver, evaluates each AND level as its tables arrive.

    ``t_start`` is the ``time.perf_counter()`` origin of
    ``first_level_s``; ``None`` means the role's own start.
    """
    if t_start is None:
        t_start = time.perf_counter()
    receiver = OtReceiver(
        LabelPrg(seed + 0xB0B),
        int.from_bytes((yield from _recv(down, "ot_public")), "big"),
    )
    points_and_secrets = receiver.choose_batch(evaluator_bits)
    up.send_message(
        "ot_points",
        _ints_to_bytes([p for p, _ in points_and_secrets], _POINT_BYTES),
    )
    flat_ciphers = _bytes_to_ints(
        (yield from _recv(down, "ot_ciphers")), _LABEL_BYTES, "ot_ciphers"
    )
    alice_labels = _bytes_to_ints(
        (yield from _recv(down, "garbler_labels")), _LABEL_BYTES, "garbler_labels"
    )
    if len(alice_labels) != circuit.n_garbler_inputs:
        raise SessionAborted(
            f"garbler_labels: expected {circuit.n_garbler_inputs} labels, "
            f"got {len(alice_labels)}"
        )
    bob_labels = receiver.decrypt_batch(
        evaluator_bits,
        [secret for _, secret in points_and_secrets],
        list(zip(flat_ciphers[0::2], flat_ciphers[1::2])),
    )
    bob = _StreamingEvaluator(circuit, alice_labels + bob_labels, rekeyed, backend)
    yield HANDSHAKE

    schedule = circuit.and_level_schedule()
    streamed = 0
    first_level_s: Optional[float] = None
    for index, (and_positions, free_groups) in enumerate(schedule):
        block = b""
        if and_positions:
            block = yield from _recv(down, "tables")
            streamed += 1
        bob.eval_phase(and_positions, free_groups, block)
        if and_positions and first_level_s is None:
            first_level_s = time.perf_counter() - t_start
        yield Level(index, streamed, first_level_s)

    decode_bits = _unpack_bits(
        (yield from _recv(down, "decode")), len(circuit.outputs), "decode"
    )
    output_bits = bob.decode(decode_bits)
    up.send_message("outputs", _pack_bits(output_bits))
    delivered = _verify_transcript(down, (yield from _recv(down, DIGEST_KIND)))
    up.send_message(DIGEST_KIND, up.send_digest())
    return RoleReport(
        output_bits=output_bits,
        transcript_digest=delivered.hex(),
        sent_bytes=up.bytes_by_class,
        levels=len(schedule),
        streamed_levels=streamed,
        first_level_s=first_level_s,
        and_gates=sum(len(ands) for ands, _ in schedule),
        hash_calls=bob.hasher.calls,
    )


def session_result(
    garbler: RoleReport,
    evaluator: RoleReport,
    *,
    recovery_events: Sequence[RecoveryEvent],
    fault_events: Sequence[FaultEvent],
) -> SessionResult:
    """The :class:`SessionResult` of a session whose roles both finished.

    Raises :class:`~repro.faults.TranscriptMismatch` if the two parties
    decoded different output bits.
    """
    if garbler.output_bits != evaluator.output_bits:
        raise TranscriptMismatch("parties decoded different output bits")
    traffic: Dict[str, int] = {}
    for direction, report in (
        ("garbler->evaluator", garbler),
        ("evaluator->garbler", evaluator),
    ):
        for kind, size in report.sent_bytes.items():
            traffic[f"{direction}:{kind}"] = size
    return SessionResult(
        output_bits=list(evaluator.output_bits),
        traffic=traffic,
        total_bytes=sum(traffic.values()),
        and_gates=evaluator.and_gates,
        hash_calls_evaluator=evaluator.hash_calls,
        recovery_events=list(recovery_events),
        fault_events=list(fault_events),
        transcript_digest=evaluator.transcript_digest,
        streamed_levels=evaluator.streamed_levels,
        first_level_s=evaluator.first_level_s,
    )


# --------------------------------------------------------------------------
# In-process drive
# --------------------------------------------------------------------------


class TwoPartySession:
    """One two-party session's parameters; :meth:`run` drives it.

    The two parties only interact through the framed channels; neither
    reads the other's state.  ``seed`` fixes all randomness (labels, OT
    ephemerals) for reproducibility.
    """

    def __init__(
        self,
        circuit: Circuit,
        seed: int = 0,
        rekeyed: bool = True,
        backend: Optional[Union[str, object]] = None,
        faults: Optional[Union[str, FaultPlan]] = None,
        config=None,
        chunk_bytes: int = 4096,
        max_retries: int = 8,
    ) -> None:
        """``backend`` selects the batched garbling/evaluation substrate.

        ``None`` keeps the audited per-gate reference path; a backend
        name/instance (or ``"auto"``) runs both parties through the
        level-batched engines of :mod:`repro.gc.backends` -- producing
        bitwise-identical traffic either way.

        ``faults`` arms deterministic fault injection: a spec string
        (``"drop:0.05,seed=7"``), a prebuilt
        :class:`~repro.faults.FaultPlan`, or ``None`` to defer to
        ``config.fault_spec`` and then the ``REPRO_FAULTS`` environment
        variable.  ``config`` (a :class:`~repro.sim.config.HaacConfig`)
        also supplies the backend spec when ``backend`` is ``None``.
        """
        circuit.validate()
        self.circuit = circuit
        self.seed = seed
        self.rekeyed = rekeyed
        if config is not None:
            if backend is None:
                backend = config.gc_backend_spec()
            if faults is None:
                faults = getattr(config, "fault_spec", None)
        self.backend = backend
        self.faults = faults
        self.chunk_bytes = chunk_bytes
        self.max_retries = max_retries

    def _resolved_backend(self):
        if self.backend is None:
            return None
        from .backends import resolve_backend

        return resolve_backend(self.backend)

    def run(
        self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]
    ) -> SessionResult:
        """Drive the session to completion over the in-memory framed pair.

        Under an armed fault plan the session either completes with
        output and transcript identical to the fault-free run or raises
        a typed :class:`~repro.faults.ProtocolFault` -- it never hangs
        (bounded retransmits) and never returns corrupt output (the
        transcript-digest exchange runs *before* the result is built).
        """
        driver = StreamedDriver(self, garbler_bits, evaluator_bits)
        while not driver.done:
            driver.step()
        return driver.result


class _Party:
    """One role generator as the in-process drive resumes it."""

    def __init__(self, role: Generator[Pause, None, RoleReport]) -> None:
        self.role = role
        self.waiting_on: Optional[FramedChannel] = None
        self.mark: Optional[Union[str, Level]] = None
        self.report: Optional[RoleReport] = None

    def advance(self) -> bool:
        """Resume to the next marker or the end of the role.

        Returns ``False`` instead while the role waits to receive a
        message its peer has not sent yet.
        """
        while True:
            if self.waiting_on is not None:
                if not self.waiting_on.has_message():
                    return False
                self.waiting_on = None
            try:
                pause = next(self.role)
            except StopIteration as stop:
                self.report = stop.value
                return True
            if isinstance(pause, FramedChannel):
                self.waiting_on = pause
            else:
                self.mark = pause
                return True


def _advance_all(*parties: _Party) -> None:
    """Advance parties in turn until each reached its next marker."""
    pending = list(parties)
    while pending:
        pending = [party for party in pending if not party.advance()]
        if pending and not any(p.waiting_on.has_message() for p in pending):
            raise SessionAborted(
                "parties deadlocked: each waits on a message the other "
                "never sent"
            )


class StreamedDriver:
    """Step-wise in-process drive of both roles of one session.

    :meth:`TwoPartySession.run` loops :meth:`step` to completion; the
    session multiplexer (:mod:`repro.serve`) instead interleaves
    ``step()`` calls from many drivers on one scheduler, so one step is
    the fairness quantum.  Each step runs under the session's *own*
    ``faults.install`` scope -- installed on entry, popped on exit -- so
    one session's fault plan and recovery ledger never leak into
    whichever session the scheduler steps next.

    A role paused before a receive is resumed only once its peer sent
    that message, so the two roles' channel operations run in one
    deterministic global order (the order fault plans draw in).

    ``max_inflight_levels`` bounds how many garbled-but-not-yet-evaluated
    AND levels may sit on the wire before the driver switches to
    evaluating (per-session backpressure against the retransmit-buffer
    and reassembly-window growth).  Any window produces bit-identical
    transcripts: the per-direction message order is the same as the
    window-1 lockstep drive, only the interleaving across directions
    shifts.

    The steps are: the whole ``handshake``, then one AND level garbled
    or evaluated per step, then ``finish`` (decode, output exchange,
    transcript-digest verification, result build).  After a raised
    fault the driver is ``done`` with ``result`` still ``None``.
    """

    def __init__(
        self,
        session: "TwoPartySession",
        garbler_bits: Sequence[int],
        evaluator_bits: Sequence[int],
        *,
        max_inflight_levels: int = 1,
        pair: Optional[FramedPair] = None,
    ) -> None:
        circuit = session.circuit
        if len(garbler_bits) != circuit.n_garbler_inputs:
            raise ValueError("wrong number of garbler input bits")
        if len(evaluator_bits) != circuit.n_evaluator_inputs:
            raise ValueError("wrong number of evaluator input bits")
        if max_inflight_levels < 1:
            raise ValueError("max_inflight_levels must be >= 1")
        self.session = session
        self.circuit = circuit
        self.garbler_bits = list(garbler_bits)
        self.evaluator_bits = list(evaluator_bits)
        self.max_inflight_levels = max_inflight_levels
        self.log = RecoveryLog()
        self.plan = resolve_fault_plan(session.faults)
        if self.plan is not None:
            self.plan.reset()
        if pair is None:
            pair = make_framed_pair(
                plan=self.plan,
                log=self.log,
                chunk_bytes=session.chunk_bytes,
                max_retries=session.max_retries,
            )
        else:
            if self.plan is not None:
                raise ValueError(
                    "fault plans are applied by LossyWire; a session with "
                    "a fault spec cannot ride a pre-built custom wire "
                    "(e.g. a socket transport)"
                )
            # Pre-built transports (e.g. socket-backed) carry their own
            # wires; attach this session's ledger so transport
            # recoveries land in its recovery_events.
            pair.to_evaluator.log = self.log
            pair.to_garbler.log = self.log
        self.pair = pair
        self.resolved = session._resolved_backend()
        self.done = False
        self.result: Optional[SessionResult] = None
        self._garbler: Optional[_Party] = None
        self._evaluator: Optional[_Party] = None
        self._levels: Optional[int] = None
        self._garbled = 0
        self._evaluated = 0
        self._progress = Level(-1, 0, None)  # the evaluator's last Level

    # -- scheduling hooks ----------------------------------------------

    @property
    def levels_total(self) -> Optional[int]:
        """AND-level count, known once the handshake ran."""
        return self._levels

    @property
    def levels_evaluated(self) -> int:
        return self._evaluated

    @property
    def streamed_levels(self) -> int:
        """AND levels whose tables were delivered over the wire so far."""
        return self._progress.streamed_levels

    @property
    def first_level_s(self) -> Optional[float]:
        """Latency from the first step to the first evaluated AND level."""
        return self._progress.first_level_s

    def step(self) -> bool:
        """Advance the session by one quantum; returns ``done``.

        Typed :class:`~repro.faults.ProtocolFault` subclasses pass
        through, anything else is normalised to
        :class:`~repro.faults.SessionAborted` with the original as
        ``__cause__``.  Either way the driver is finished -- a faulted
        session never half-steps again.
        """
        if self.done:
            return True
        try:
            with faults_mod.install(self.plan, self.log):
                self._step_inner()
        except ProtocolFault:
            self.done = True
            raise
        except Exception as exc:
            # An injected fault that corrupted a payload can surface as
            # an arbitrary error deep in OT/decode arithmetic; normalise
            # to the typed hierarchy (original kept as __cause__).
            self.done = True
            raise SessionAborted(f"streamed session aborted: {exc}") from exc
        return self.done

    def _step_inner(self) -> None:
        if self._garbler is None:
            self._handshake()
            return
        can_garble = self._garbled < self._levels
        can_eval = self._evaluated < self._garbled
        in_flight = self._garbled - self._evaluated
        if can_garble and (in_flight < self.max_inflight_levels or not can_eval):
            _advance_all(self._garbler)
            self._garbled += 1
        elif can_eval:
            _advance_all(self._evaluator)
            self._evaluated += 1
            self._progress = self._evaluator.mark
        else:
            self._finish()

    def _handshake(self) -> None:
        t_start = time.perf_counter()
        session = self.session
        common = (self.circuit, session.seed, session.rekeyed, self.resolved)
        down, up = self.pair.to_evaluator, self.pair.to_garbler
        self._garbler = _Party(garbler_role(*common, self.garbler_bits, down, up))
        self._evaluator = _Party(
            evaluator_role(*common, self.evaluator_bits, down, up, t_start=t_start)
        )
        _advance_all(self._garbler, self._evaluator)
        self._levels = len(self.circuit.and_level_schedule())

    def _finish(self) -> None:
        _advance_all(self._garbler, self._evaluator)
        self._surface_backend_events()
        self.result = session_result(
            self._garbler.report,
            self._evaluator.report,
            recovery_events=self.log.events,
            fault_events=self.plan.injected if self.plan is not None else [],
        )
        self.done = True

    def _surface_backend_events(self) -> None:
        """Fold silent backend degradations into the recovery ledger."""
        resolved, log = self.resolved, self.log
        if resolved is None:
            return
        reason = getattr(resolved, "auto_fallback_reason", None)
        if reason and not log.count("backend", "scalar_fallback"):
            log.record("backend", "scalar_fallback", reason)
        pool_reason = getattr(resolved, "pool_disabled_reason", None)
        if pool_reason and not log.count("pool"):
            log.record("pool", "pool_disabled", pool_reason)


def run_two_party(
    circuit: Circuit,
    garbler_bits: Sequence[int],
    evaluator_bits: Sequence[int],
    seed: int = 0,
    rekeyed: bool = True,
    backend: Optional[Union[str, object]] = None,
    faults: Optional[Union[str, FaultPlan]] = None,
    config=None,
) -> SessionResult:
    """One-call convenience wrapper around :class:`TwoPartySession`."""
    return TwoPartySession(
        circuit,
        seed=seed,
        rekeyed=rekeyed,
        backend=backend,
        faults=faults,
        config=config,
    ).run(garbler_bits, evaluator_bits)
