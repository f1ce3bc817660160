"""``FleetUplink`` — one node's store-and-forward edge to its parent.

An uplink owns a background sender thread and a FIFO outbox of encoded
snapshots.  ``on_seal`` plugs straight into a
:class:`~repro.live.server.LiveStatsServer` or
:class:`~repro.live.cluster.ClusterServer` ``on_seal`` hook: sealing an
epoch encodes it (:func:`~repro.fleet.protocol.encode_host_snapshot`)
and enqueues it; the sender delivers in order with the ``(session,
seq)`` exactly-once discipline and bounded-backoff reconnect.

Delivery semantics, in layers:

* **Retry** — a transport failure closes the connection and resends
  the same ``(session, seq)`` after a jittered exponential backoff;
  the parent's ack cache answers an already-processed frame without
  re-merging.  The jitter is seeded per-uplink (decorrelated across a
  fleet), so ten thousand leaves knocked over by the same parent
  restart do not thundering-herd it on the same schedule.
* **Re-parent** — after ``failover_attempts`` consecutive failures the
  uplink rotates to the next parent in its list (or re-syncs with the
  same one, if it is the only one), bumps its session generation and
  replays *everything* it has ever sent: acked history first, then
  the outbox.  The new parent may have seen none, some or all of it —
  the per-``(host, epoch)`` watermarks upstream make the replay
  idempotent, so a parent crash loses nothing and a duplicate replay
  double-counts nothing.  Every acked snapshot is kept for that
  replay, so an uplink's memory grows with the epochs it has sealed.
* **Fault site** — every send attempt passes through the
  ``fleet.uplink`` site, so seeded
  :class:`~repro.faults.FaultPlan` schedules can reset/delay/truncate
  any send and chaos tests can pin byte-identical global state under
  any schedule.
"""

from __future__ import annotations

import socket
import threading
import uuid
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..faults import fire
from ..live.protocol import pack_control
from ..live.session import (
    DEFAULT_RETRY_BACKOFF,
    DEFAULT_RETRY_BACKOFF_CAP,
    DEFAULT_RETRY_JITTER,
    Backoff,
    LiveError,
    read_response,
    write_frame,
)
from .protocol import encode_host_snapshot, pack_snapshot, parse_parents

__all__ = ["FleetUplink"]

DEFAULT_FAILOVER_ATTEMPTS = 3

#: Socket timeout of a parent connection: the connect, each send and
#: each ack read.
_TIMEOUT = 10.0


class _Pending:
    __slots__ = ("header", "payload", "seq")

    def __init__(self, header: Dict, payload: bytes):
        self.header = header
        self.payload = payload
        #: Seq assigned for the current session generation, or None.
        self.seq: Optional[int] = None


class FleetUplink:
    """Forward sealed epoch snapshots to one of ``parents``.

    ``parents`` is an ordered failover list (``"host:port,..."`` or
    structured pairs); ``host`` names this publisher in every snapshot
    header (defaults to a generated id).  ``jitter_seed`` pins the
    backoff jitter stream for deterministic tests; by default it is
    derived from the node id, so every uplink in a fleet jitters
    differently but reproducibly.
    """

    def __init__(self, parents, host: Optional[str] = None,
                 node: Optional[str] = None,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 retry_backoff_cap: float = DEFAULT_RETRY_BACKOFF_CAP,
                 retry_jitter: float = DEFAULT_RETRY_JITTER,
                 jitter_seed=None,
                 failover_attempts: int = DEFAULT_FAILOVER_ATTEMPTS):
        self.parents = parse_parents(parents)
        self.node = node or uuid.uuid4().hex[:12]
        self.host = host or f"host-{self.node}"
        if failover_attempts < 1:
            raise ValueError(
                f"failover_attempts must be >= 1, got {failover_attempts}")
        self.failover_attempts = failover_attempts
        self._backoff = Backoff(
            retry_backoff, retry_backoff_cap, retry_jitter,
            jitter_seed if jitter_seed is not None else self.node)

        self._parent_index = 0
        #: Session generation: bumped on every re-parent, so the new
        #: link starts a fresh gapless sequence stream.
        self._generation = 0
        self._next_seq = 0
        self._last_acked = 0

        self._outbox: Deque[_Pending] = deque()
        #: Every acked snapshot, kept for the full replay after a
        #: re-parent.
        self._acked: List[_Pending] = []
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._failures = 0

        self.forwarded_total = 0
        self.duplicate_acks_total = 0
        self.retries_total = 0
        self.reconnects_total = 0
        self.reparents_total = 0
        self.send_errors: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetUplink":
        if self._thread is not None:
            raise RuntimeError("uplink already started")
        self._thread = threading.Thread(target=self._sender_loop,
                                        name=f"fleet-uplink-{self.node}",
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._drop_connection()

    def __enter__(self) -> "FleetUplink":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def on_seal(self, epoch) -> None:
        """``LiveStatsServer``/``ClusterServer`` ``on_seal`` hook."""
        header, payload = encode_host_snapshot(self.host, epoch)
        self.enqueue(header, payload)

    def enqueue(self, header: Dict, payload: bytes) -> None:
        """Queue one already-encoded snapshot (relay path)."""
        with self._cond:
            self._outbox.append(_Pending(header, bytes(payload)))
            self._cond.notify_all()

    def pending(self) -> int:
        with self._cond:
            return len(self._outbox)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the outbox is empty; ``False`` on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._outbox,
                                       timeout=timeout)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    @property
    def parent(self) -> Tuple[str, int]:
        return self.parents[self._parent_index]

    @property
    def session(self) -> str:
        host, port = self.parent
        return f"{self.node}/{self._generation}@{host}:{port}"

    def re_parent(self, index: Optional[int] = None) -> Tuple[str, int]:
        """Switch parents (default: next in the list) and schedule a
        full replay.

        Bumps the session generation — the new link gets a fresh
        gapless sequence stream — and re-enqueues every acked snapshot
        ahead of the outbox, preserving per-host epoch order.  Safe to
        call with one parent: it becomes a same-parent re-sync, the
        recovery path for a parent that restarted and lost its ack
        cache.
        """
        with self._cond:
            self._reparent_locked(index)
            self._cond.notify_all()
        return self.parent

    def _reparent_locked(self, index: Optional[int] = None) -> None:
        if index is None:
            index = (self._parent_index + 1) % len(self.parents)
        if not 0 <= index < len(self.parents):
            raise ValueError(f"no parent {index} (have {self.parents})")
        self._parent_index = index
        self._generation += 1
        self._next_seq = 0
        self._last_acked = 0
        self._failures = 0
        self.reparents_total += 1
        replay = self._acked
        self._acked = []
        for item in replay + list(self._outbox):
            item.seq = None
        self._outbox.extendleft(reversed(replay))
        self._drop_connection()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sock = None
        self._rfile = None
        self._wfile = None

    def _ensure_connection(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(self.parent, timeout=_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self.reconnects_total += 1
        if self._last_acked > 0:
            # Declare the ack watermark before any replay, so a parent
            # that restarted (empty ack cache) learns it instead of
            # racing the replayed frames.
            write_frame(self._wfile, pack_control(
                {"op": "fleet-hello", "node": self.session,
                 "seq": self._last_acked}))
            read_response(self._rfile)

    def _send_one(self, item: _Pending, session: str) -> Dict:
        self._ensure_connection()
        if item.seq is None:
            self._next_seq += 1
            item.seq = self._next_seq
        action = fire("fleet.uplink", node=self.node,
                      host=item.header.get("host"),
                      epoch=item.header.get("epoch"), point="send")
        write_frame(self._wfile, pack_snapshot(
            session, item.seq, item.header, item.payload), action)
        return read_response(self._rfile)

    # ------------------------------------------------------------------
    # Sender loop
    # ------------------------------------------------------------------
    def _sender_loop(self) -> None:
        while True:
            with self._cond:
                while not self._outbox and not self._stop.is_set():
                    self._cond.wait()
                if self._stop.is_set() and not self._outbox:
                    return
                item = self._outbox[0]
                session = self.session
            try:
                ack = self._send_one(item, session)
            except (OSError, ValueError, LiveError) as exc:
                # LiveError covers semantic rejections (a stale/gap seq
                # after a divergence): treated like a transport fault —
                # enough of them trigger a generation-bumped re-sync,
                # which always converges.
                self._drop_connection()
                if self._stop.is_set():
                    return
                self.retries_total += 1
                self._failures += 1
                if len(self.send_errors) < 64:
                    self.send_errors.append(f"{type(exc).__name__}: {exc}")
                if self._failures >= self.failover_attempts:
                    with self._cond:
                        self._reparent_locked()
                self._stop.wait(
                    self._backoff.delay(max(0, self._failures - 1)))
                continue
            with self._cond:
                self._failures = 0
                if self._outbox and self._outbox[0] is item:
                    self._outbox.popleft()
                self._acked.append(item)
                self._last_acked = max(self._last_acked, item.seq or 0)
                self.forwarded_total += 1
                if not ack.get("applied", True):
                    self.duplicate_acks_total += 1
                self._cond.notify_all()

    # ------------------------------------------------------------------
    def info(self) -> Dict:
        with self._cond:
            return {
                "node": self.node,
                "host": self.host,
                "parent": list(self.parent),
                "parents": [list(p) for p in self.parents],
                "generation": self._generation,
                "pending": len(self._outbox),
                "acked_retained": len(self._acked),
                "forwarded_total": self.forwarded_total,
                "duplicate_acks_total": self.duplicate_acks_total,
                "retries_total": self.retries_total,
                "reconnects_total": self.reconnects_total,
                "reparents_total": self.reparents_total,
            }
