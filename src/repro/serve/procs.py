"""Out-of-process party workers for the two-party protocol.

Each party of a session runs in its own OS process: the garbler
garbles AND level ``L+1`` while the evaluator is still hashing level
``L`` -- the true two-party parallelism the paper's accelerator
argument assumes, instead of the single cooperative loop the in-process
multiplexer interleaves.

The pieces here are the *worker side* of the supervision tree
(:mod:`repro.serve.supervisor` owns the parent side):

* :class:`PeerSocketWire` -- a blocking framed pipe over one end of a
  connected socket.  Unlike :class:`~repro.serve.sockets.SocketWire`
  (which owns both ends of a ``socketpair`` in one process), each
  worker holds exactly one endpoint; ``pop`` blocks until a full frame
  arrives and surfaces peer death as typed
  :class:`~repro.faults.PeerDisconnected` and no-progress as
  :class:`~repro.faults.FrameTimeout` -- it never returns ``None``, so
  the :class:`~repro.gc.channel.FramedChannel` retransmit path (which
  only works when sender and receiver share one object) is never taken.
* :func:`party_process_main` -- the ``multiprocessing`` entry point:
  closes inherited peer descriptors, starts the heartbeat thread, runs
  one role of :mod:`repro.gc.protocol` -- the same
  :func:`~repro.gc.protocol.garbler_role` or
  :func:`~repro.gc.protocol.evaluator_role` code the in-process
  :class:`~repro.gc.protocol.StreamedDriver` runs, so outputs *and*
  transcript digests are bit-identical to it -- and reports
  ``("result", role, report, recovered)`` or
  ``("error", role, type, detail)`` on the control pipe.  A worker that
  dies without reporting is the supervisor's problem (process sentinel
  -> :class:`~repro.faults.WorkerCrashed`).
* :class:`ChaosDirective` -- the mechanical execution of a
  supervisor-drawn process fault (``kill_party`` / ``sever`` /
  ``stall``) at a deterministic AND-level trigger.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..faults import (
    FrameTimeout,
    PeerDisconnected,
    ProtocolFault,
    RecoveryLog,
)
from ..gc.channel import FramedChannel
from ..gc.protocol import Level, evaluator_role, garbler_role
from .sockets import _PEER_GONE_ERRNOS

__all__ = [
    "GARBLER",
    "EVALUATOR",
    "ROLES",
    "PeerSocketWire",
    "ChaosDirective",
    "make_party_channels",
    "party_process_main",
]

GARBLER = "garbler"
EVALUATOR = "evaluator"
ROLES = (GARBLER, EVALUATOR)

_LEN_PREFIX = 4
_IO_CHUNK = 65536

#: How long a stalled party sleeps.  Far past any sane deadline: the
#: supervisor's watchdog must kill the session, the sleep never ends on
#: its own.
STALL_SLEEP_S = 600.0


class PeerSocketWire:
    """Blocking, loss-free frame pipe over one end of a socket pair.

    The wire is shared by both of a party's directional
    :class:`~repro.gc.channel.FramedChannel` objects: the outgoing
    channel only ever calls :meth:`push`, the incoming one only
    :meth:`pop`.  ``io_timeout_s`` bounds *progress*, not the whole
    transfer -- each blocked send/recv waits at most that long for the
    socket to become ready, so a live-but-slow peer is fine while a
    stuck one surfaces as :class:`~repro.faults.FrameTimeout`.
    """

    def __init__(
        self, sock: socket.socket, direction: str, io_timeout_s: float = 30.0
    ) -> None:
        self.direction = direction
        self.io_timeout_s = io_timeout_s
        self._sock = sock
        sock.setblocking(False)
        self._inbox = bytearray()
        self._closed = False
        # Stats parity with the in-process wires.
        self.pushed = 0
        self.dropped = 0

    # -- FramedChannel wire interface ---------------------------------

    def push(self, data: bytes, seq: int) -> None:
        if self._closed:
            raise PeerDisconnected(
                f"PeerSocketWire {self.direction!r} is closed"
            )
        self.pushed += 1
        view = memoryview(
            len(data).to_bytes(_LEN_PREFIX, "little") + data
        )
        while view:
            try:
                sent = self._sock.send(view[:_IO_CHUNK])
            except BlockingIOError:
                if not self._wait(writable=True):
                    raise FrameTimeout(
                        f"PeerSocketWire {self.direction!r}: peer made no "
                        f"receive progress for {self.io_timeout_s:g}s "
                        f"({len(view)} bytes unsent)"
                    )
                continue
            except OSError as exc:
                raise self._peer_gone(exc, "send") from exc
            view = view[sent:]

    def pop(self) -> bytes:
        """Block until one full frame is available (never ``None``)."""
        while True:
            frame = self._extract_frame()
            if frame is not None:
                return frame
            try:
                chunk = self._sock.recv(_IO_CHUNK)
            except BlockingIOError:
                if not self._wait(writable=False):
                    raise FrameTimeout(
                        f"PeerSocketWire {self.direction!r}: no frame for "
                        f"{self.io_timeout_s:g}s "
                        f"({len(self._inbox)} bytes buffered)"
                    )
                continue
            except OSError as exc:
                raise self._peer_gone(exc, "recv") from exc
            if not chunk:
                raise PeerDisconnected(
                    f"PeerSocketWire {self.direction!r}: peer closed the "
                    f"connection ({len(self._inbox)} bytes buffered)"
                )
            self._inbox += chunk

    def pending(self) -> int:
        return 0  # frames are consumed as they complete

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    # -- internals ----------------------------------------------------

    def _extract_frame(self) -> Optional[bytes]:
        if len(self._inbox) < _LEN_PREFIX:
            return None
        size = int.from_bytes(self._inbox[:_LEN_PREFIX], "little")
        if len(self._inbox) < _LEN_PREFIX + size:
            return None
        frame = bytes(self._inbox[_LEN_PREFIX : _LEN_PREFIX + size])
        del self._inbox[: _LEN_PREFIX + size]
        return frame

    def _wait(self, writable: bool) -> bool:
        try:
            if writable:
                _, ready, _ = select.select(
                    [], [self._sock], [], self.io_timeout_s
                )
            else:
                ready, _, _ = select.select(
                    [self._sock], [], [], self.io_timeout_s
                )
        except OSError as exc:
            raise self._peer_gone(exc, "select") from exc
        return bool(ready)

    def _peer_gone(self, exc: OSError, during: str) -> ProtocolFault:
        if exc.errno in _PEER_GONE_ERRNOS:
            return PeerDisconnected(
                f"PeerSocketWire {self.direction!r}: peer endpoint gone "
                f"during {during}: {exc}"
            )
        return PeerDisconnected(
            f"PeerSocketWire {self.direction!r}: transport failed during "
            f"{during}: {exc}"
        )


def make_party_channels(
    wire: PeerSocketWire,
    log: Optional[RecoveryLog] = None,
    chunk_bytes: int = 4096,
) -> Tuple[FramedChannel, FramedChannel]:
    """(down, up) channels for one party over its shared wire.

    Each party only exercises one half of each channel (the garbler
    sends on ``down`` and receives on ``up``; the evaluator mirrors),
    and the blocking wire is loss-free, so the sender-side retransmit
    buffer is disabled -- it could never be consulted anyway.
    """
    down = FramedChannel(
        "garbler->evaluator",
        log=log,
        chunk_bytes=chunk_bytes,
        wire=wire,
        keep_retransmit=False,
    )
    up = FramedChannel(
        "evaluator->garbler",
        log=log,
        chunk_bytes=chunk_bytes,
        wire=wire,
        keep_retransmit=False,
    )
    return down, up


# --------------------------------------------------------------------------
# Chaos directives (mechanically executed; the supervisor draws them)
# --------------------------------------------------------------------------


@dataclass
class ChaosDirective:
    """One process fault this worker must inject on itself.

    ``level`` is the AND-level index after which the fault fires; the
    supervisor clamps it to the schedule length, so every armed
    directive fires exactly once per attempt.
    """

    kind: str  # "kill_party" | "sever" | "stall"
    level: int
    stall_s: float = STALL_SLEEP_S

    def maybe_fire(self, level_index: int, sock: socket.socket) -> None:
        if level_index != self.level:
            return
        if self.kind == "kill_party":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.kind == "sever":
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        elif self.kind == "stall":
            time.sleep(self.stall_s)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "level": self.level,
            "stall_s": self.stall_s,
        }


class _NoChaos:
    def maybe_fire(self, level_index: int, sock: socket.socket) -> None:
        return None


class _Progress:
    """Levels-completed counter shared with the heartbeat thread."""

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


def _drive_role(role, sock: socket.socket, progress: _Progress, chaos):
    """Run one role over its blocking wire; returns its report.

    Receives simply block, so only the level markers need handling:
    each bumps the heartbeat progress and may fire the chaos directive.
    """
    while True:
        try:
            pause = next(role)
        except StopIteration as stop:
            return stop.value
        if isinstance(pause, Level):
            progress.bump()
            chaos.maybe_fire(pause.index, sock)


def _heartbeat_loop(conn, lock, role, progress, interval, stop) -> None:
    while not stop.wait(interval):
        try:
            with lock:
                conn.send(("hb", role, progress.value))
        except (OSError, ValueError, BrokenPipeError):
            return


def party_process_main(role, payload, sock, conn, close_first) -> None:
    """Worker process body: run one party, report on the control pipe.

    ``close_first`` lists descriptors this child inherited but must not
    hold (the peer's socket end, the peer's control pipe, the parent's
    receive ends) -- keeping them open would mask the peer's death from
    both the kernel (no socket EOF) and the supervisor.  With the
    ``fork`` start method the full fd table is inherited, so this close
    pass is what makes :class:`~repro.faults.PeerDisconnected` prompt.
    """
    for other in close_first:
        try:
            other.close()
        except (OSError, ValueError):
            pass

    log = RecoveryLog()
    wire = PeerSocketWire(
        sock, f"{role} endpoint", io_timeout_s=payload["io_timeout_s"]
    )
    down, up = make_party_channels(
        wire, log=log, chunk_bytes=payload["chunk_bytes"]
    )
    progress = _Progress()
    lock = threading.Lock()
    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, lock, role, progress, payload["heartbeat_s"], stop),
        daemon=True,
    )
    heartbeat.start()

    chaos_dict = payload.get("chaos")
    chaos = (
        ChaosDirective(**chaos_dict) if chaos_dict is not None else _NoChaos()
    )

    backend = None
    if payload.get("backend") is not None:
        from ..gc.backends import resolve_backend

        backend = resolve_backend(payload["backend"])

    role_fn = garbler_role if role == GARBLER else evaluator_role
    try:
        report = _drive_role(
            role_fn(
                payload["circuit"],
                payload["seed"],
                payload["rekeyed"],
                backend,
                payload["bits"],
                down,
                up,
            ),
            sock,
            progress,
            chaos,
        )
        with lock:
            conn.send(("result", role, report, log.signature()))
    except ProtocolFault as exc:
        try:
            with lock:
                conn.send(("error", role, type(exc).__name__, str(exc)))
        except (OSError, ValueError):
            pass
    except BaseException as exc:  # normalised like StreamedDriver.step
        try:
            with lock:
                conn.send((
                    "error",
                    role,
                    "SessionAborted",
                    f"{role} worker aborted: {exc!r}",
                ))
        except (OSError, ValueError):
            pass
    finally:
        stop.set()
        try:
            conn.close()
        except (OSError, ValueError):
            pass
        wire.close()
