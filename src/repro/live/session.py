"""One sequenced session and one frame server, both ends.

The daemon's ``DATA_SEQ`` frames and the fleet's ``SNAPSHOT`` frames
share one exactly-once discipline: a publisher numbers its frames 1, 2,
3, ... on a session that survives reconnects, and the receiver answers
a retry of the last frame with that frame's cached ack instead of
handling it twice.  The receiving end is :class:`SessionTable`, held by
:class:`~repro.live.server.LiveStatsServer` and
:class:`~repro.fleet.aggregator.FleetAggregator`, behind one
:class:`FrameServer` connection loop (which the cluster coordinator's
control endpoint uses too); the sending end is :func:`write_frame`,
:func:`read_response`, :func:`round_trip`, :func:`rpc` and
:class:`Backoff`, behind :class:`~repro.live.client.LiveStatsClient`,
:class:`~repro.fleet.uplink.FleetUplink`, ``fleet_rpc`` and the cluster
coordinator and its workers.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from collections import OrderedDict
from itertools import islice
from typing import Callable, Dict, Optional, Tuple

from ..faults import fire
from .protocol import (
    FRAME_ERROR,
    FRAME_OK,
    FRAME_TEXT,
    ProtocolError,
    pack_control,
    pack_error,
    read_frame,
    read_frame_view,
)

__all__ = [
    "Backoff",
    "FrameServer",
    "LiveConnectionError",
    "LiveError",
    "SessionTable",
    "close_listener",
    "read_response",
    "round_trip",
    "rpc",
    "write_frame",
]

#: Sessions a receiver remembers, least recently used evicted first.
#: Each entry is one publisher's last frame (its cached ack), so the
#: table is "every publisher seen lately"; an in-flight entry is never
#: evicted.
MAX_SESSIONS = 4096

#: How long a retried frame waits for its still-in-flight original
#: (the order of a worst-case blocked ingest queue).
DUPLICATE_WAIT_SECONDS = 30.0

#: Default sender backoff: the first sleep (doubling per retry), its
#: cap, and the share of each sleep randomized away — publishers
#: knocked over by one shared event must not retry in lockstep waves.
DEFAULT_RETRY_BACKOFF = 0.05
DEFAULT_RETRY_BACKOFF_CAP = 2.0
DEFAULT_RETRY_JITTER = 0.5

#: Listen backlog of every listener: the frame servers' and the
#: cluster's fd-passing public one.
LISTEN_BACKLOG = 128

#: How long ``FrameServer.close()`` waits for each connection handler;
#: a handler mid-request finishes it first (its reply then fails).
_HANDLER_JOIN_SECONDS = 10.0


class LiveError(RuntimeError):
    """An ``ERROR`` response from the daemon, or a failed publish.

    ``partial`` (when set) carries the ``{"records", "frames",
    "accepted", "dropped", "ignored", "retried"}`` totals accumulated
    before a mid-stream failure, so a publisher can resume from the
    first unacknowledged frame instead of restarting blind.

    ``redirect`` (when set) is the ``[host, port]`` of the cluster
    worker that owns the frame's disk; the data plane follows it
    automatically, so callers only see it on control-plane errors.
    """

    def __init__(self, message: str, partial: Optional[Dict] = None,
                 redirect=None):
        super().__init__(message)
        self.partial = partial
        self.redirect = redirect


class LiveConnectionError(LiveError, ConnectionError):
    """The transport died before a response arrived.

    Both a :class:`LiveError` (it ends a live operation) and a
    :class:`ConnectionError` (it is retried like one): the data plane's
    retry loop catches it as ``OSError``.
    """


class _Entry:
    """One session's last frame: its seq, its cached ack (``None``
    while in flight), the frames handled on the session, last-seen
    clocks and, while in flight, the entry it replaced."""

    # ``last_unix`` is display-only; idle ages come from ``last_mono``
    # so a wall-clock step cannot age (or rejuvenate) a session.
    __slots__ = ("seq", "response", "frames", "previous", "last_unix",
                 "last_mono")

    def __init__(self, seq: int, response: Optional[bytes] = None,
                 frames: int = 0, previous: Optional["_Entry"] = None):
        self.seq = seq
        self.response = response
        self.frames = frames
        self.previous = previous
        self.touch()

    def touch(self) -> None:
        self.last_unix = time.time()
        self.last_mono = time.monotonic()


class SessionTable:
    """Receiver-side ``(session, seq)`` state under one LRU bound.

    A frame ``seq`` on a session whose last frame is ``last``:

    * ``seq == last`` — a retry, answered with the cached ack (after
      waiting up to :data:`DUPLICATE_WAIT_SECONDS` if the original is
      still in flight);
    * ``seq < last`` (stale), ``seq > last + 1`` (a gap), or ``last +
      1`` while ``last`` is in flight — refused;
    * on an unknown session, anything but ``seq == 1`` — refused, with
      a hint naming ``hello_op``, the op by which a reconnecting
      publisher declares its watermark (:meth:`hello`).  The op name is
      the table's only per-server input.

    A refusal is a :class:`~repro.live.protocol.ProtocolError` and
    changes nothing; so does a frame whose handling raises.
    """

    def __init__(self, hello_op: str):
        self.hello_op = hello_op
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._entries)

    def serve(self, session: str, seq: int,
              handle: Callable[[], bytes]) -> Tuple[bytes, bool]:
        """``(cached ack, False)`` for a duplicate, else ``(handle(),
        True)`` with that response cached as the frame's ack."""
        cached = self.admit(session, seq)
        if cached is not None:
            return cached, False
        try:
            response = handle()
        except BaseException:
            self.abort(session, seq)
            raise
        self.complete(session, seq, response)
        return response, True

    def admit(self, session: str, seq: int) -> Optional[bytes]:
        """Reserve ``(session, seq)`` and return ``None``, or return a
        duplicate's cached ack; a refused frame raises."""
        with self._cond:
            entry = self._entries.get(session)
            if entry is None:
                if seq != 1:
                    raise ProtocolError(
                        f"unknown session {session!r} must start at "
                        f"sequence 1, got {seq} (send {self.hello_op} "
                        f"after a reconnect)")
            elif seq == entry.seq:
                self._entries.move_to_end(session)
                if not self._cond.wait_for(
                        lambda: entry.response is not None
                        or self._entries.get(session) is not entry,
                        timeout=DUPLICATE_WAIT_SECONDS):
                    raise ProtocolError(
                        f"retried seq {seq} for session {session!r} is "
                        f"still in flight")
                if entry.response is None:
                    raise ProtocolError(
                        f"seq {seq} for session {session!r} was aborted "
                        f"before its ack; resend it")
                entry.touch()
                return entry.response
            elif seq < entry.seq:
                raise ProtocolError(
                    f"stale seq {seq} for session {session!r} (last "
                    f"processed {entry.seq})")
            elif seq > entry.seq + 1:
                raise ProtocolError(
                    f"seq gap for session {session!r}: got {seq}, "
                    f"expected {entry.seq + 1}")
            elif entry.response is None:
                raise ProtocolError(
                    f"seq {seq} for session {session!r} while seq "
                    f"{entry.seq} is still in flight")
            self._store(session, _Entry(
                seq, frames=entry.frames if entry else 0, previous=entry))
            return None

    def complete(self, session: str, seq: int, response: bytes) -> None:
        """Cache ``response`` as the ack of admitted ``(session, seq)``."""
        with self._cond:
            entry = self._entries[session]
            entry.response = response
            entry.frames += 1
            entry.previous = None
            entry.touch()
            self._cond.notify_all()

    def abort(self, session: str, seq: int) -> None:
        """Forget admitted ``(session, seq)``: the session's previous
        entry (or none) is back, and a retry waiting on it is refused."""
        with self._cond:
            entry = self._entries[session]
            if entry.previous is None:
                del self._entries[session]
            else:
                self._entries[session] = entry.previous
            self._cond.notify_all()

    def hello(self, op: Dict, ack: Callable[[int], bytes]) -> Dict:
        """Answer a hello op ``{"session" (or "node"), "seq": n}``:
        frames up to ``n`` are already acknowledged.

        A publisher sends it on reconnect, before any replay, so a
        receiver that never saw those acks (a restarted one, or a
        cluster worker that inherited the session) learns the watermark
        instead of handling a replay twice.  An unknown session is
        seeded at ``n``; a completed one below ``n`` is advanced to it
        (``SO_REUSEPORT`` may hand a reconnect back to a worker with an
        older watermark).  ``ack(n)`` becomes the cached ack of ``n``.
        An in-flight or higher entry is left alone.  Returns
        ``{"session", "seq"}`` with the watermark now held.
        """
        session = op.get("session") or op.get("node")
        seq = op.get("seq", 0)
        if not isinstance(session, str) or not session:
            raise ProtocolError(f"{self.hello_op} needs a non-empty "
                                f"session id")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise ProtocolError(f"{self.hello_op} seq must be an integer "
                                f">= 0")
        with self._cond:
            entry = self._entries.get(session)
            if seq > 0 and (entry is None or (entry.response is not None
                                              and entry.seq < seq)):
                entry = _Entry(seq, ack(seq),
                               frames=entry.frames if entry else 0)
                self._store(session, entry)
            return {"session": session,
                    "seq": entry.seq if entry is not None else 0}

    def describe(self, count: str = "frames") -> Dict[str, Dict]:
        """Per session ``{"seq", count, "last_unix", "idle_seconds"}``,
        ``count`` naming the frames-handled counter."""
        now = time.monotonic()
        with self._cond:
            return {session: {"seq": entry.seq, count: entry.frames,
                              "last_unix": entry.last_unix,
                              "idle_seconds":
                                  max(0.0, now - entry.last_mono)}
                    for session, entry in self._entries.items()}

    def _store(self, session: str, entry: _Entry) -> None:
        self._entries[session] = entry
        self._entries.move_to_end(session)
        excess = len(self._entries) - MAX_SESSIONS
        if excess > 0:
            idle = (name for name, held in self._entries.items()
                    if held.response is not None)
            for name in list(islice(idle, excess)):
                del self._entries[name]


def write_frame(wfile, frame: bytes, action=None) -> None:
    """Write and flush one frame.  ``action`` is what the caller's fault
    site fired: a ``partial`` writes only its fraction of the frame,
    then fails the way a dying TCP connection would."""
    if action is not None and action.kind == "partial":
        wfile.write(frame[:max(1, int(len(frame) * action.fraction))])
        wfile.flush()
        raise ConnectionResetError("injected short frame write")
    wfile.write(frame)
    wfile.flush()


def _read_reply(rfile) -> Tuple[int, bytes]:
    frame = read_frame(rfile)
    if frame is None:
        raise LiveConnectionError("connection closed before a response")
    return frame


def _decode_response(ftype: int, payload: bytes):
    if ftype == FRAME_OK:
        return json.loads(payload.decode("utf-8"))
    if ftype == FRAME_TEXT:
        return payload.decode("utf-8")
    if ftype == FRAME_ERROR:
        redirect = None
        try:
            document = json.loads(payload.decode("utf-8"))
            message = document["error"]
            redirect = document.get("redirect")
        except Exception:  # pragma: no cover - defensive
            message = payload.decode("utf-8", "replace")
        raise LiveError(message, redirect=redirect)
    raise ProtocolError(f"unexpected response type 0x{ftype:02x}")


def read_response(rfile):
    """Read one response: ``OK`` → its JSON document, ``TEXT`` → its
    text; ``ERROR`` raises :class:`LiveError` (with any ``redirect``),
    EOF :class:`LiveConnectionError`, any other frame type
    :class:`~repro.live.protocol.ProtocolError`."""
    return _decode_response(*_read_reply(rfile))


def round_trip(address: Tuple[str, int], frame: bytes,
               timeout: float = 30.0) -> Tuple[int, bytes]:
    """One request ``frame`` out on a fresh connection, the ``(type,
    payload)`` of the answer back; EOF raises
    :class:`LiveConnectionError`."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(frame)
        return _read_reply(sock.makefile("rb"))


def rpc(address: Tuple[str, int], op: Dict, timeout: float = 30.0):
    """One control round-trip: ``op`` out, the :func:`read_response`
    of the answer back."""
    return _decode_response(*round_trip(address, pack_control(op), timeout))


def close_listener(listener: socket.socket, address) -> None:
    """Close a listening socket and wake the thread blocked in its
    ``accept()``, which closing it from another thread does not
    reliably do.  ``shutdown()`` wakes it on Linux; elsewhere it raises
    and a loopback connect does — but not on a port shared through
    ``SO_REUSEPORT``, where the kernel may hand that connect to a
    sibling's listener."""
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        pass
    try:
        listener.close()
    except OSError:  # pragma: no cover
        pass


class FrameServer:
    """The receiving end of the frame protocol: listeners, one thread
    per connection, and one loop — read a frame, dispatch it on its
    type, write the reply.

    ``handlers`` maps a request frame type to ``callable(payload) ->
    response frame bytes``; the payload is a :class:`memoryview` over
    the received body (:func:`~repro.live.protocol.read_frame_view`).
    One rule for every server that hands it a table:

    * a handler's ``ValueError`` (a ``ProtocolError`` included) is
      answered ``ERROR``, counted in :attr:`rejected_frames_total`, and
      the connection stays open;
    * an unknown frame type is answered ``unknown frame type 0x..``
      the same way;
    * a framing error (torn or oversized frame) is answered ``ERROR``,
      counted, and the connection closes — a byte stream with a corrupt
      length prefix cannot be resynchronized;
    * EOF, an idle timeout or a failed reply write ends the connection.

    The ``live.server.recv`` and ``live.server.send`` fault sites fire
    before each frame read and each reply write.
    """

    def __init__(self, handlers: Dict[int, Callable], idle_timeout,
                 name: str):
        self.handlers = handlers
        self.idle_timeout = idle_timeout
        self.name = name
        self.connections_total = 0
        self.rejected_frames_total = 0
        self._listeners = []   # (socket, address, accept thread)
        self._conns: Dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._closed = False

    @property
    def connections_open(self) -> int:
        with self._lock:
            return len(self._conns)

    def listen(self, host: str, port: int,
               reuse_port: bool = False) -> Tuple[str, int]:
        """Bind a listener (``port=0``: ephemeral; ``reuse_port``:
        ``SO_REUSEPORT``, so sibling processes share the port) and
        accept on it; the bound ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        listener.bind((host, port))
        listener.listen(LISTEN_BACKLOG)
        address = (host, listener.getsockname()[1])
        thread = threading.Thread(target=self._accept, args=(listener,),
                                  name=f"{self.name}-accept", daemon=True)
        self._listeners.append((listener, address, thread))
        thread.start()
        return address

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed
            self.adopt(conn)

    def adopt(self, conn: socket.socket) -> None:
        """Serve a connected socket — an accepted one, or one handed
        over by the cluster's fd-passing fallback; a closed server
        closes it."""
        with self._lock:
            if self._closed:
                conn.close()
                return
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      name=f"{self.name}-conn",
                                      daemon=True)
            self._conns[conn] = thread
            self.connections_total += 1
        thread.start()

    def count_rejected(self) -> None:
        """Count a frame rejected inside a handler that still replied
        (a rejection cached as a sequenced frame's ack)."""
        with self._lock:
            self.rejected_frames_total += 1

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.idle_timeout)
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            # One preallocated length-prefix scratch per connection:
            # the frame reader fills it in place instead of
            # allocating a 4-byte object per frame.
            head = bytearray(4)
            while not self._closed:
                try:
                    fire("live.server.recv")
                    frame = read_frame_view(rfile, head)
                except ProtocolError as exc:
                    self.count_rejected()
                    write_frame(wfile, pack_error(str(exc)),
                                fire("live.server.send"))
                    return
                if frame is None:
                    return  # clean EOF
                ftype, payload = frame
                handler = self.handlers.get(ftype)
                try:
                    if handler is None:
                        raise ProtocolError(
                            f"unknown frame type 0x{ftype:02x}")
                    response = handler(payload)
                except ValueError as exc:
                    self.count_rejected()
                    response = pack_error(str(exc))
                write_frame(wfile, response, fire("live.server.send"))
        except (OSError, ValueError):
            return  # idle timeout, or the connection torn down
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            with self._lock:
                self._conns.pop(conn, None)

    def close(self) -> None:
        """Close every listener, shut every connection down (a handler
        blocked reading an idle client wakes) and join every handler."""
        with self._lock:
            self._closed = True
            listeners, self._listeners = self._listeners, []
        for listener, address, thread in listeners:
            close_listener(listener, address)
            thread.join(timeout=5.0)
        with self._lock:
            conns = dict(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in conns.values():
            if thread is not threading.current_thread():
                thread.join(timeout=_HANDLER_JOIN_SECONDS)


class Backoff:
    """Jittered exponential backoff: retry ``attempt`` (from 0) sleeps
    ``base * 2**attempt`` capped at ``cap``, less a random share of up
    to ``jitter`` of it (``0`` keeps the exact schedule).  The jitter
    stream is seeded — reproducible per publisher, decorrelated across
    publishers seeded apart."""

    def __init__(self, base: float, cap: float, jitter: float, seed):
        if base < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {base}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"retry_jitter must be in [0, 1], got {jitter}")
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self.rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        delay = min(self.base * 2 ** attempt, self.cap)
        if delay > 0 and self.jitter > 0:
            delay *= 1.0 - self.jitter * self.rng.random()
        return delay
