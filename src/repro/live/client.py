"""Client for the live characterization daemon.

:class:`LiveStatsClient` wraps one TCP connection in the frame protocol
of :mod:`repro.live.protocol`.  Publishing chunks a command stream into
sequenced ``DATA_SEQ`` frames (each a raw run of 40-byte ``VSCSITR1``
records) and waits for the per-frame ack, which doubles as flow control
against the server's bounded shard queues.  Control methods
(:meth:`rotate`, :meth:`snapshot`, :meth:`enable`, :meth:`disable`,
:meth:`metrics`, :meth:`info`) mirror the daemon's control plane one to
one.

Resilience
----------
A failed round-trip (``OSError``, reset, truncated response) *always*
closes and discards the socket — a connection that may hold a
half-written request or half-read response is never reused; the next
call reconnects.

Data frames additionally retry with bounded exponential backoff.  Each
frame carries the client's session id and a monotone sequence number;
the server remembers the last ``(session, seq)`` it processed and the
exact ack bytes it produced, so a retry of a frame whose ack was lost
in transit is answered from that cache instead of being ingested twice.
The result: under connection faults, every acknowledged record is
counted exactly once and the merged histograms are byte-identical to a
fault-free run (pinned by ``tests/test_faults.py``).

Control operations are *not* retried — ``rotate`` is not idempotent —
so a transport failure there surfaces to the caller, who knows whether
repeating the op is safe.

Cluster awareness
-----------------
Against a :mod:`repro.live.cluster` edge, a data frame for a disk this
worker does not own is answered with a redirect error naming the
owner's direct address.  The client follows it transparently: it keeps
an independent ``(session, seq)`` stream per destination (each
worker's ack cache sees a gapless sequence), reconnects to the owner
and re-sends there.  On every reconnect to a peer it has published to
before, it first re-sends a session ``hello`` declaring the last
acknowledged sequence number — so a brand-new server process (a
worker that just inherited the session after a crash, or a restarted
daemon) learns the watermark *before* unacked frames are replayed,
instead of racing the empty ack cache.

A server-side error arrives as an ``ERROR`` frame and is raised as
:class:`LiveError`; the connection stays usable unless the transport
itself failed.  A mid-publish failure attaches the totals accumulated
so far as ``LiveError.partial``.
"""

from __future__ import annotations

import socket
import time
import uuid
from typing import Dict, Optional

from ..faults import fire
from ..parallel.trace_io import TraceColumns
from .protocol import (
    RECORD_BYTES,
    ProtocolError,
    columns_to_bytes,
    pack_control,
    pack_data_seq,
    sort_columns_for_stream,
)
from .session import (
    DEFAULT_RETRY_BACKOFF,
    DEFAULT_RETRY_BACKOFF_CAP,
    DEFAULT_RETRY_JITTER,
    Backoff,
    LiveConnectionError,
    LiveError,
    read_response,
    write_frame,
)

__all__ = [
    "DEFAULT_FRAME_RECORDS",
    "DEFAULT_RETRIES",
    "DEFAULT_RETRY_JITTER",
    "LiveConnectionError",
    "LiveError",
    "LiveStatsClient",
]

#: Default records per data frame — big enough to amortize the ack
#: round-trip and land in the numpy batch kernels, small enough to
#: bound per-frame latency and memory.
DEFAULT_FRAME_RECORDS = 32_768

#: Default data-frame retry budget (attempts beyond the first).
DEFAULT_RETRIES = 4

#: Redirect hops (and dead-route fallbacks) tolerated per data chunk
#: before giving up — bounds a routing loop during a cluster
#: generation change.
_MAX_REDIRECTS = 8


class _PeerState:
    """Retry identity against one destination address.

    Each cluster worker runs its own ack cache, so the gapless
    ``(session, seq)`` contract must hold *per destination*: one
    session id and one monotone counter per peer, derived from the
    client's base session so the streams never collide.
    """

    __slots__ = ("session", "seq", "last_acked")

    def __init__(self, session: str):
        self.session = session
        self.seq = 0
        self.last_acked = 0


class LiveStatsClient:
    """One connection to a :class:`~repro.live.server.LiveStatsServer`.

    ``retries``/``retry_backoff``/``retry_backoff_cap`` bound the
    data-plane retry loop: up to ``retries`` resends per frame,
    sleeping ``retry_backoff * 2**attempt`` (capped) between attempts.
    ``retries=0`` disables retry entirely.  ``retry_jitter`` randomizes
    each sleep downward by up to that fraction (``0`` reproduces the
    exact exponential schedule); the jitter stream is seeded from
    ``jitter_seed`` when given, else from this client's session id —
    deterministic per client, decorrelated across a fleet of them.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: Optional[float] = 30.0,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 retry_backoff_cap: float = DEFAULT_RETRY_BACKOFF_CAP,
                 retry_jitter: float = DEFAULT_RETRY_JITTER,
                 jitter_seed=None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        #: Lifetime count of data-frame resends (for tests/telemetry).
        self.retries_total = 0
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._connected_to: Optional[tuple] = None
        # Retry identity: one base session per client object; each
        # destination address gets its own derived session id and
        # monotone frame counter (see _PeerState).  Session ids
        # survive reconnects — that is the point.
        self._session = uuid.uuid4().hex
        self._backoff = Backoff(
            retry_backoff, retry_backoff_cap, retry_jitter,
            jitter_seed if jitter_seed is not None else self._session)
        self._peers: Dict[tuple, _PeerState] = {}
        # Disk -> owning worker address, learned from redirects.
        self._routes: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    @property
    def _advertised(self) -> tuple:
        return (self.host, self.port)

    def _peer_state(self, addr: tuple) -> _PeerState:
        state = self._peers.get(addr)
        if state is None:
            session = (self._session if addr == self._advertised
                       else f"{self._session}@{addr[0]}:{addr[1]}")
            state = _PeerState(session)
            self._peers[addr] = state
        return state

    def connect(self) -> "LiveStatsClient":
        """Open the connection (idempotent)."""
        self._ensure_peer(self._advertised)
        return self

    def _ensure_peer(self, addr: tuple) -> None:
        """Connect to ``addr``, reusing a live connection to it.

        A (re)connect to a peer this client has already published to
        first re-sends the session hello declaring the last
        acknowledged seq, *before* any frame replay — the reconnect
        half of the ack-cache contract.
        """
        if self._sock is not None:
            if self._connected_to == addr:
                return
            self.close()
        sock = socket.create_connection(addr, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._connected_to = addr
        state = self._peers.get(addr)
        if state is not None and state.seq > 0:
            # Written straight to the new socket: no reconnect
            # recursion, no data-plane fault sites.  A failure discards
            # the connection; a transport one propagates as the
            # OSError the data plane's retry loop already handles.
            try:
                write_frame(self._wfile, pack_control(
                    {"op": "hello", "session": state.session,
                     "seq": state.last_acked}))
                read_response(self._rfile)
            except (OSError, ValueError, LiveError):
                self.close()
                raise

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._rfile = None
                self._wfile = None
                self._connected_to = None

    def __enter__(self) -> "LiveStatsClient":
        return self.connect()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _roundtrip(self, frame: bytes, addr: Optional[tuple] = None):
        self._ensure_peer(addr if addr is not None else self._advertised)
        try:
            write_frame(self._wfile, frame, fire("live.client.send"))
            fire("live.client.recv")
            return read_response(self._rfile)
        except (OSError, ValueError):
            # The transport failed mid-round-trip (a truncated or
            # unreadable response included).  The connection may hold
            # a half-written request or half-read response, so it must
            # never be reused — discard it; the next call reconnects.
            self.close()
            raise

    def _data_roundtrip(self, frame: bytes, addr: Optional[tuple] = None):
        """Round-trip one sequenced data frame with bounded retry.

        Retries transport failures only (``OSError`` including
        :class:`LiveConnectionError`, and :class:`ProtocolError` from
        a response truncated by a dying connection); a semantic
        ``ERROR`` response raises immediately.  Safe because the frame
        carries ``(session, seq)``: the server answers a retry of an
        already-processed frame from its ack cache.
        """
        attempt = 0
        while True:
            try:
                return self._roundtrip(frame, addr)
            except (ProtocolError, OSError):
                if attempt >= self.retries:
                    raise
                self.retries_total += 1
                delay = self._backoff.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1

    def _control(self, op: str, **fields) -> Dict:
        body = {"op": op}
        body.update({k: v for k, v in fields.items() if v is not None})
        return self._roundtrip(pack_control(body))

    def _publish_chunk(self, vm: str, vdisk: str, chunk: bytes) -> Dict:
        """Send one data chunk to whichever worker owns the disk.

        Seq numbers are assigned once per ``(chunk, peer)``: a
        transport retry to the same peer re-sends the same seq (the
        server's ack cache deduplicates), while a redirect releases
        the slot — the refusing worker never reserved it — and the
        chunk restarts on the owner's own sequence stream.  A routed
        peer that died is dropped from the route cache and the chunk
        falls back to the advertised address, which knows the new
        owner.
        """
        key = (vm, vdisk)
        hops = 0
        assigned: Dict[tuple, int] = {}
        while True:
            addr = self._routes.get(key, self._advertised)
            state = self._peer_state(addr)
            seq = assigned.get(addr)
            if seq is None:
                state.seq += 1
                seq = state.seq
                assigned[addr] = seq
            frame = pack_data_seq(state.session, seq, vm, vdisk, chunk)
            try:
                ack = self._data_roundtrip(frame, addr)
            except LiveError as exc:
                if exc.redirect is not None and hops < _MAX_REDIRECTS:
                    hops += 1
                    # The redirecting worker never touched the
                    # session: release the slot if it is still the
                    # newest one on that peer.
                    if assigned.pop(addr, None) == state.seq:
                        state.seq -= 1
                    self._routes[key] = (str(exc.redirect[0]),
                                         int(exc.redirect[1]))
                    continue
                raise
            except (ProtocolError, OSError):
                if addr != self._advertised and hops < _MAX_REDIRECTS:
                    # The owning worker is unreachable (crashed or
                    # handed off): fall back to the advertised
                    # address for a fresh redirect.  The seq slot
                    # stays assigned — if routing leads back to this
                    # peer, the frame is retried with the same seq
                    # and deduplicated server-side.
                    hops += 1
                    self._routes.pop(key, None)
                    continue
                raise
            state.last_acked = max(state.last_acked, seq)
            return ack

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def publish_columns(self, vm: str, vdisk: str, columns: TraceColumns,
                        frame_records: int = DEFAULT_FRAME_RECORDS,
                        sort: bool = True) -> Dict:
        """Stream columns to the daemon as chunked data frames.

        ``sort=True`` (default) orders the whole stream by ``(issue,
        serial)`` first — required unless the caller guarantees stream
        order.  Returns ``{"records", "frames", "accepted", "dropped",
        "ignored", "retried"}`` totals.  Empty input returns
        zero totals without touching the wire.  On failure the raised
        :class:`LiveError` carries the totals accumulated so far as
        ``.partial``.
        """
        if frame_records < 1:
            raise ValueError(
                f"frame_records must be >= 1, got {frame_records}"
            )
        if sort:
            columns = sort_columns_for_stream(columns)
        body = columns_to_bytes(columns)
        total = {"records": len(columns), "frames": 0, "accepted": 0,
                 "dropped": 0, "ignored": 0, "retried": 0}
        if not body:
            return total
        step = frame_records * RECORD_BYTES
        start_retries = self.retries_total
        try:
            for offset in range(0, len(body), step):
                chunk = body[offset:offset + step]
                ack = self._publish_chunk(vm, vdisk, chunk)
                total["frames"] += 1
                total["accepted"] += ack.get("accepted", 0)
                total["dropped"] += ack.get("dropped", 0)
                total["ignored"] += ack.get("ignored", 0)
                total["retried"] = self.retries_total - start_retries
        except LiveError as exc:
            total["retried"] = self.retries_total - start_retries
            exc.partial = dict(total)
            raise
        except (ProtocolError, OSError) as exc:
            total["retried"] = self.retries_total - start_retries
            raise LiveError(
                f"publish failed after {total['frames']} acked frames: "
                f"{exc}", partial=dict(total)
            ) from exc
        total["retried"] = self.retries_total - start_retries
        return total

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def ping(self) -> Dict:
        return self._control("ping")

    def rotate(self) -> Dict:
        """Seal the current epoch; returns ``{"epoch", "records", ...}``."""
        return self._control("rotate")

    def snapshot(self, scope: str = "all", epoch: Optional[int] = None,
                 aggregate: bool = False) -> Dict:
        """Fetch a snapshot document (see the server's op table)."""
        return self._control("snapshot", scope=scope, epoch=epoch,
                             aggregate=aggregate or None)

    def enable(self, vm: Optional[str] = None,
               vdisk: Optional[str] = None) -> Dict:
        return self._control("enable", vm=vm, vdisk=vdisk)

    def disable(self, vm: Optional[str] = None,
                vdisk: Optional[str] = None) -> Dict:
        return self._control("disable", vm=vm, vdisk=vdisk)

    def metrics(self) -> str:
        """The OpenMetrics text exposition."""
        return self._control("metrics")

    def info(self) -> Dict:
        return self._control("info")

    def verdicts(self) -> Dict:
        """The online analysis stage's rolling drift verdicts.

        Returns ``{"online": false}`` when the daemon runs without the
        analyzer; otherwise the analyzer's full document (per-disk
        latest :class:`~repro.analysis.online.EpochVerdict` dicts plus
        counters).  Cluster workers forward this to the coordinator,
        which owns the merged-epoch analysis.
        """
        return self._control("verdicts")

    def route(self) -> Dict:
        """The cluster worker table (single-server: one entry)."""
        return self._control("route")

    def hello(self) -> Dict:
        """Explicitly declare this client's ack watermark, and number
        the next frame right after it.

        Normally implicit — every reconnect to a previously published
        peer sends it — but exposed for manual recovery: a publisher
        whose session the daemon evicted is refused ("unknown
        session"), calls this, then publishes again from
        ``LiveError.partial``.  A frame past the watermark that the
        daemon did handle is answered from its ack cache.
        """
        state = self._peer_state(self._advertised)
        state.seq = state.last_acked
        return self._control("hello", session=state.session,
                             seq=state.last_acked)
