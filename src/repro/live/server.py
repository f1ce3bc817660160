"""``repro.live`` — the online streaming characterization daemon.

:class:`LiveStatsServer` is the live analogue of running ``vscsiStats``
inside the hypervisor: a long-running service that characterizes I/O
*while it happens* instead of replaying finished traces.  Clients speak
the length-prefixed frame protocol of :mod:`repro.live.protocol` over
TCP:

* ``DATA_SEQ`` frames carry raw 40-byte ``VSCSITR1`` records for one
  ``(vm, vdisk)``; the connection handler views the body as numpy
  columns (zero per-record parsing) and routes it to the shard worker
  that owns that disk.
* ``CONTROL`` frames drive the query/control plane: ``snapshot``,
  ``rotate``, ``enable``/``disable``, ``metrics`` (OpenMetrics text),
  ``info``, ``ping``, ``reset``.

Architecture::

    client conns (1 thread each)          shard workers (N threads)
    ───────────────────────────           ──────────────────────────
    read frame → decode/validate  ──put→  bounded queue → DiskStream
    ← ack / error                          (per-disk collectors)

Disks are hashed to shard workers (crc32, stable), so each disk's
stream is mutated by exactly one thread — the same whole-stream
ownership rule the parallel replay driver uses.  Queues are bounded;
``backpressure="block"`` makes producers wait (acks double as flow
control), ``backpressure="drop"`` sheds the batch and counts the
dropped records, surfaced in ``info`` and the exposition.

``rotate()`` seals the current epoch **atomically**: every worker is
parked at a barrier, each disk's collector is taken out and replaced
by a lazily-created continuation collector (:mod:`repro.live.stream`),
then the workers resume and the epoch ledger encodes and persists the
taken collectors.  The swap is O(m) per disk — bins, not commands —
so rotation stalls ingestion for microseconds to milliseconds
regardless of traffic, and never for the store's fsync.

Shutdown drains: pending queue items are processed, then the partial
epoch is flushed into the ledger so no acked command is ever lost.

Resilience: ``DATA_SEQ`` frames are deduplicated per client
session (a retry of a frame whose ack was lost is answered from a
cached ack, never ingested twice — the client side of this contract
lives in :mod:`repro.live.client`), and a store that fails mid-seal
degrades instead of crashing: the epoch is quarantined to a JSON
sidecar, ``info``/``metrics`` flip a visible ``degraded`` flag, and
ingestion continues (see :class:`repro.live.epochs.EpochLedger`).
"""

from __future__ import annotations

import json
import socket
import threading
import zlib
from queue import Full, Queue
from typing import Dict, List, Optional, Tuple

from ..core.collector import DEFAULT_TIME_SLOT_NS, VscsiStatsCollector
from ..core.service import DiskKey, HistogramService
from ..core.window import DEFAULT_WINDOW_SIZE
from ..faults import fire
from .epochs import Epoch, EpochLedger
from .exposition import render_openmetrics
from .protocol import (
    FRAME_CONTROL,
    FRAME_DATA_SEQ,
    ProtocolError,
    bytes_to_columns,
    pack_error,
    pack_ok,
    pack_redirect,
    pack_text,
    unpack_control,
    unpack_data_seq,
)
from .session import FrameServer, SessionTable
from .stream import DiskStream

__all__ = ["LiveStatsServer"]

_SHUTDOWN = object()

#: The cached ack of a ``hello``-seeded watermark: a replay of an
#: already-acknowledged frame is answered without ingesting (its
#: records were counted when originally acked).
_SEEDED_ACK = pack_ok({"accepted": 0, "deduplicated": True})

#: Control ops with cluster-wide meaning.  A cluster worker does not
#: answer these from its own partial view — it relays them to the
#: coordinator (``forward_control``), which owns the merged history,
#: the durable store and the canonical exposition.
_CLUSTER_FORWARDED_OPS = frozenset(
    {"rotate", "snapshot", "metrics", "info", "enable", "disable",
     "verdicts"}
)


# ----------------------------------------------------------------------
# Plumbing shared by the daemon, the cluster coordinator and the fleet
# aggregator
# ----------------------------------------------------------------------
def open_store(store) -> Tuple[object, bool]:
    """A ``store=`` argument as ``(store, owned)``: a directory path is
    opened (or created) and owned — its server checkpoints and closes
    it; an already-open store, or ``None``, stays the caller's."""
    if store is None or hasattr(store, "append"):
        return store, False
    from ..store import HistogramStore
    return HistogramStore.open_or_create(store), True


def close_store(store, note) -> None:
    """Checkpoint and close an owned store.  A failure of either step
    goes to ``note`` (the server degrades, as for a failed seal) and
    the close still runs, so the flock is released; the WAL keeps
    whatever the checkpoint could not seal into a segment."""
    for step, what in ((store.checkpoint, "checkpoint on close"),
                       (store.close, "store close")):
        try:
            step()
        except (OSError, ValueError) as exc:
            note(f"{what}: {exc}")


def store_info(store, owned: bool) -> Dict:
    """The ``store`` section of a server's ``info`` document."""
    entry = {"path": str(store.path), "owned": owned,
             "closed": store.closed}
    if not store.closed:
        entry["records"] = len(store)
        entry["epochs"] = store.epochs
    return entry


def build_analyzer(online):
    """The online stage an ``online=`` argument asks for: ``True`` the
    default :class:`~repro.analysis.online.OnlineAnalyzer`, a
    ``DriftConfig`` a tuned one, an analyzer itself (shared); falsy
    ``None``."""
    if not online:
        return None
    if hasattr(online, "observe_epoch"):
        return online
    from ..analysis.online import DriftConfig, OnlineAnalyzer
    return OnlineAnalyzer(online if isinstance(online, DriftConfig)
                          else None)


def fire_on_seal(server, hook, epoch: Epoch) -> None:
    """A sealed epoch's side effects; neither may kill rotation.

    The server's online stage reads the epoch first (an injected
    ``analysis.drift`` error degrades to ``analysis_errors_total``
    instead of failing the rotate), then ``hook`` — a cluster worker's
    fan-in pipe, an uplink.  A failing hook is swallowed: its far end
    is being torn down, and the epoch stays sealed in the ledger
    either way.
    """
    if server.analyzer is not None:
        try:
            server.analyzer.observe_epoch(epoch)
        except (OSError, ValueError):
            server.analysis_errors_total += 1
    if hook is not None:
        try:
            hook(epoch)
        except (OSError, ValueError):
            pass


def online_info(server) -> Optional[Dict]:
    """The ``online`` section of a server's ``info`` document (``None``
    without an analyzer)."""
    if server.analyzer is None:
        return None
    return {"epochs_seen": server.analyzer.epochs_seen,
            "verdicts_total": server.analyzer.verdicts_total,
            "drift_events_total": server.analyzer.drift_events_total,
            "analysis_errors_total": server.analysis_errors_total}


def online_metrics(server, daemon: Dict):
    """Add the online stage's counters to an exposition's ``daemon``
    block; the verdicts to render (``None`` without an analyzer)."""
    if server.analyzer is None:
        return None
    daemon["analysis_epochs_total"] = server.analyzer.epochs_seen
    daemon["analysis_errors_total"] = server.analysis_errors_total
    return server.analyzer.verdicts()


def verdicts_doc(server) -> Dict:
    """The ``verdicts`` control op: the online stage's rolling state, or
    ``{"online": false}`` without an analyzer."""
    if server.analyzer is None:
        return {"online": False}
    document = server.analyzer.to_dict()
    document["online"] = True
    document["analysis_errors_total"] = server.analysis_errors_total
    return document


def snapshot_document(ledger: EpochLedger, scope: str,
                      epoch: Optional[int], aggregate: bool,
                      capture) -> Dict:
    """The ``snapshot`` control op's document over an epoch ledger.

    ``scope="current"`` — the live (unsealed) epoch only;
    ``scope="epoch"`` — one sealed epoch (by index, default last);
    ``scope="all"`` — exact merge of every epoch plus the live one.
    ``capture()`` returns the ledger's history and the live
    ``(key, collector)`` pairs, taken together.  ``aggregate=True``
    adds a host-wide merge across disks.
    """
    if scope == "epoch":
        if not len(ledger) and epoch is None:
            raise ProtocolError("no sealed epochs yet")
        if epoch is None:
            target = ledger.last
        else:
            try:
                target = ledger.epoch(epoch)
            except KeyError as exc:
                raise ProtocolError(str(exc)) from None
        service = target.service
        meta: Dict = {"scope": "epoch", "epoch": target.index,
                      "records": target.records}
    elif scope == "current":
        service = ledger.service_of(capture()[1])
        meta = {"scope": "current", "epoch": len(ledger)}
    elif scope == "all":
        service = ledger.merged(*capture())
        meta = {"scope": "all", "epochs": len(ledger)}
    else:
        raise ProtocolError(f"unknown snapshot scope {scope!r}")
    meta["disks"] = {f"{vm}/{vdisk}": collector.to_dict()
                     for (vm, vdisk), collector in service.collectors()}
    if aggregate:
        meta["aggregate"] = service.aggregate().to_dict()
    return meta


def history_op(server, op: Dict) -> bytes:
    """The control ops the daemon and the cluster coordinator answer
    alike — rotation and the reads of their epoch ledger."""
    name = op["op"]
    if name == "rotate":
        epoch = server.rotate()
        return pack_ok({"epoch": epoch.index,
                        "records": epoch.records,
                        "disks": len(epoch.disks)})
    if name == "snapshot":
        return pack_ok(server.snapshot_dict(
            scope=op.get("scope", "all"),
            epoch=op.get("epoch"),
            aggregate=bool(op.get("aggregate", False))))
    if name == "metrics":
        return pack_text(server.openmetrics())
    if name == "info":
        return pack_ok(server.info())
    if name == "verdicts":
        return pack_ok(server.verdicts_dict())
    raise ProtocolError(f"unknown control op {name!r}")


class RotationTimer:
    """The ``rotate_every`` chain: ``rotate()`` every ``period``
    seconds until :meth:`stop`.  A rotation that raises ``ValueError``
    (its server closed concurrently) is skipped."""

    def __init__(self, period: float, rotate):
        self.period = period
        self.timer: Optional[threading.Timer] = None
        self._rotate = rotate
        self._stopped = threading.Event()

    def start(self) -> None:
        if self._stopped.is_set():
            return
        timer = threading.Timer(self.period, self._fire)
        timer.daemon = True
        self.timer = timer
        timer.start()

    def _fire(self) -> None:
        if self._stopped.is_set():
            return
        try:
            self._rotate()
        except ValueError:
            return
        finally:
            self.start()

    def stop(self) -> None:
        """End the chain.  ``Timer.cancel()`` does not stop a callback
        that already fired, so wait the in-flight rotation out (it may
        have re-armed once meanwhile — loop until the chain is dead;
        :meth:`start` never arms after a stop)."""
        self._stopped.set()
        while True:
            timer = self.timer
            if timer is None:
                break
            timer.cancel()
            if timer is not threading.current_thread():
                timer.join(timeout=10.0)
            if self.timer is timer:
                break


class _DataItem:
    """One enqueued ingest batch, acked after processing."""

    __slots__ = ("key", "columns", "done", "accepted", "error")

    def __init__(self, key: DiskKey, columns):
        self.key = key
        self.columns = columns
        self.done = threading.Event()
        self.accepted = 0
        self.error: Optional[str] = None


class _Barrier:
    """Parks a worker until the control plane finishes a swap."""

    __slots__ = ("paused", "resume")

    def __init__(self):
        self.paused = threading.Event()
        self.resume = threading.Event()


class _ShardWorker(threading.Thread):
    """Owns the disk streams hashed to one shard."""

    def __init__(self, index: int, server: "LiveStatsServer",
                 queue_depth: int):
        super().__init__(name=f"live-shard-{index}", daemon=True)
        self.index = index
        self.server = server
        self.queue: "Queue" = Queue(maxsize=queue_depth)
        self.streams: Dict[DiskKey, DiskStream] = {}

    def stream_for(self, key: DiskKey) -> DiskStream:
        stream = self.streams.get(key)
        if stream is None:
            stream = DiskStream(window_size=self.server.window_size,
                                time_slot_ns=self.server.time_slot_ns)
            self.streams[key] = stream
        return stream

    def run(self) -> None:
        while True:
            item = self.queue.get()
            if item is _SHUTDOWN:
                return
            if isinstance(item, _Barrier):
                item.paused.set()
                item.resume.wait()
                continue
            try:
                item.accepted = self.stream_for(item.key).ingest(item.columns)
            except ProtocolError as exc:
                item.error = str(exc)
            except Exception as exc:  # never kill the worker thread
                item.error = f"internal error: {exc!r}"
            finally:
                item.done.set()


class LiveStatsServer:
    """Long-running network characterization daemon.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    shards:
        Shard worker threads; each ``(vm, vdisk)`` is owned by one.
    queue_depth:
        Bounded depth of each shard's ingest queue (in batches).
    backpressure:
        ``"block"`` — a full queue makes the producing connection wait
        (acks provide flow control).  ``"drop"`` — the batch is shed
        and its records counted in ``dropped_records_total``.
    idle_timeout:
        Seconds a connection may sit silent before it is closed.
    rotate_every:
        Optional period in seconds for automatic epoch rotation.
    max_epochs:
        Sealed epochs to retain individually (older ones fold their
        records into the retired pile, keeping lifetime totals exact).
    start_enabled:
        The daemon's reason to exist is ingestion, so unlike the
        in-hypervisor service it starts enabled; pass ``False`` to
        require an explicit ``enable``.
    store:
        Optional durable history: a directory path (opened or created
        as a :class:`~repro.store.HistogramStore`) or an already-open
        store.  Every sealed epoch is appended to it, so rotation
        doubles as persistence and ``repro store query`` can read the
        daemon's history after it exits.  A path-opened store is owned
        (checkpointed and closed) by the server; a passed-in instance
        is the caller's to close.
    reuse_port:
        Bind the listener with ``SO_REUSEPORT`` so several worker
        processes can share one public port (the cluster mode of
        :mod:`repro.live.cluster`); the kernel load-balances accepted
        connections across them.  Such a daemon also binds an
        ephemeral direct listener (:attr:`direct_address`) serving the
        same protocol: a cluster worker's private address, which
        redirects and coordinator commands name unambiguously even
        though every worker shares the public port.
    on_seal:
        Optional callback invoked with each sealed
        :class:`~repro.live.epochs.Epoch` (rotation and the final
        drain-on-close seal), under the control lock.  The cluster
        worker's fan-in forwarding hangs off this hook.
    online:
        The online fingerprint/drift stage
        (:class:`repro.analysis.online.OnlineAnalyzer`).  ``True``
        (default) analyzes every sealed epoch with the default
        :class:`~repro.analysis.online.DriftConfig`; pass a
        ``DriftConfig`` to tune it, an analyzer instance to share one,
        or ``False`` to disable.  With an attached store the analyzer
        seeds its baselines from the store's existing history, so a
        restarted daemon compares against everything recorded, not
        just its own uptime.  Cluster *workers* run with the stage off
        — the coordinator analyzes the merged epochs instead.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 shards: int = 2, queue_depth: int = 64,
                 backpressure: str = "block",
                 idle_timeout: Optional[float] = 60.0,
                 window_size: int = DEFAULT_WINDOW_SIZE,
                 time_slot_ns: int = DEFAULT_TIME_SLOT_NS,
                 rotate_every: Optional[float] = None,
                 max_epochs: Optional[int] = None,
                 start_enabled: bool = True,
                 store=None,
                 reuse_port: bool = False,
                 on_seal=None,
                 online=True):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if backpressure not in ("block", "drop"):
            raise ValueError(
                f'backpressure must be "block" or "drop", '
                f"got {backpressure!r}"
            )
        if reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError(
                "SO_REUSEPORT is not available on this platform"
            )
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        #: ``(host, port)`` of the direct listener of a ``reuse_port``
        #: daemon once started.
        self.direct_address: Optional[Tuple[str, int]] = None
        #: Cluster routing: an object with ``redirect_for(vm, vdisk)``
        #: returning the owning worker's ``(host, port)`` (or ``None``
        #: when this worker owns the disk / no table is installed).
        self.router = None
        #: Cluster relay: ``callable(payload) -> response frame
        #: bytes`` for control ops with cluster-wide meaning.
        self.forward_control = None
        #: Extension control ops (``{"op-name": callable(op) ->
        #: dict}``) — the cluster worker registers its ``worker-*``
        #: handlers here instead of subclassing.
        self.control_handlers: Dict[str, "object"] = {}
        self._on_seal = on_seal
        self.backpressure = backpressure
        self.window_size = window_size
        self.time_slot_ns = time_slot_ns
        self._rotation = (RotationTimer(rotate_every, self.rotate)
                          if rotate_every else None)

        self.store, self._owns_store = open_store(store)
        self.ledger = EpochLedger(window_size=window_size,
                                  time_slot_ns=time_slot_ns,
                                  max_epochs=max_epochs,
                                  store=self.store)

        #: Streaming fingerprint/drift stage fed by every seal.
        self.analyzer = build_analyzer(online)
        self.analysis_errors_total = 0
        if self.analyzer is not None and self.store is not None:
            # Baselines start from the recorded history; a fresh store
            # seeds nothing.  Failures leave the analyzer unseeded
            # rather than blocking startup.
            try:
                self.analyzer.seed_from_store(self.store)
            except (OSError, ValueError):
                pass
        # The enable/disable registry is a HistogramService used purely
        # for its gating semantics (global flag + per-disk overrides),
        # so the daemon's surface matches the in-hypervisor tool's.
        self._gate = HistogramService(window_size=window_size,
                                      time_slot_ns=time_slot_ns)
        self._gate.enabled = start_enabled

        self._workers = [
            _ShardWorker(index, self, queue_depth) for index in range(shards)
        ]
        self.frame_server = FrameServer(
            {FRAME_DATA_SEQ: self._handle_data_seq,
             FRAME_CONTROL: self._handle_control}, idle_timeout, "live")
        self._started = False
        self._closed = False

        # Reentrant: _capture holds it across live_pairs.
        self._control_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._sessions = SessionTable("hello")
        self.duplicate_frames_total = 0  # retries answered from cache
        self.redirected_frames_total = 0  # non-owned disks bounced
        self.frames_total = 0
        self.records_total = 0
        self.ignored_records_total = 0   # disabled-disk data frames
        self.dropped_records_total = 0   # backpressure sheds

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LiveStatsServer":
        """Bind, listen and start worker/acceptor threads."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.port = self.frame_server.listen(self.host, self.port,
                                       self.reuse_port)[1]
        if self.reuse_port:
            self.direct_address = self.frame_server.listen(self.host, 0)
        for worker in self._workers:
            worker.start()
        if self._rotation is not None:
            self._rotation.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    def __enter__(self) -> "LiveStatsServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the daemon.

        Every queued batch is processed and the partial epoch is
        flushed into the ledger before workers exit, so all acked data
        remains queryable in-process (:meth:`snapshot_dict`,
        :meth:`merged_service`).
        """
        if self._closed:
            return
        self._closed = True
        if self._rotation is not None:
            self._rotation.stop()
        # Connection handlers go first, while the shard workers still
        # run: a frame mid-ingest gets its ack (or a connection error)
        # instead of leaving its handler parked on the item.
        self.frame_server.close()
        for worker in self._workers:
            if worker.is_alive():
                worker.queue.put(_SHUTDOWN)
                worker.join(timeout=10.0)
        # The control lock serializes this final seal and the store
        # shutdown against any straggling rotate() (timer or client):
        # no double-seal of the same collectors, no append to a closed
        # store.
        with self._control_lock:
            # Flush the partial epoch so acked commands stay queryable.
            pairs = self._seal_all_streams()
            if pairs:
                fire_on_seal(self, self._on_seal, self.ledger.seal(pairs))
            if self.store is not None and self._owns_store:
                close_store(self.store, self.ledger.note_store_failure)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _worker_for(self, key: DiskKey) -> _ShardWorker:
        digest = zlib.crc32(f"{key[0]}\x00{key[1]}".encode("utf-8"))
        return self._workers[digest % len(self._workers)]

    def _redirect_for(self, vm: str, vdisk: str) -> Optional[bytes]:
        """A redirect response when another cluster worker owns the
        disk, else ``None``.  Checked *before* any session-state
        mutation, so a bounced frame leaves no trace here — the owner
        sees the untouched ``(session, seq)`` stream."""
        if self.router is None:
            return None
        target = self.router.redirect_for(vm, vdisk)
        if target is None:
            return None
        with self._stats_lock:
            self.redirected_frames_total += 1
        host, port = target
        return pack_redirect(
            f"disk {vm}/{vdisk} is owned by worker at {host}:{port}",
            host, port,
        )

    def _handle_data_seq(self, payload: bytes) -> bytes:
        """A sequenced data frame: ingest once, answer retries from
        cache (the session table's admission rule).

        Cached responses include ``ERROR`` answers — a retry of a
        semantically rejected frame is rejected identically, keeping
        the client's view consistent.
        """
        session, seq, vm, vdisk, body = unpack_data_seq(payload)
        redirect = self._redirect_for(vm, vdisk)
        if redirect is not None:
            return redirect

        def ingest() -> bytes:
            try:
                return self._ingest(vm, vdisk, body)
            except ProtocolError as exc:
                self.frame_server.count_rejected()
                return pack_error(str(exc))

        response, fresh = self._sessions.serve(session, seq, ingest)
        if not fresh:
            with self._stats_lock:
                self.duplicate_frames_total += 1
        return response

    def _ingest(self, vm: str, vdisk: str, body: bytes) -> bytes:
        columns = bytes_to_columns(body)
        n = len(columns)
        with self._stats_lock:
            self.frames_total += 1
        if not n:
            return pack_ok({"accepted": 0})
        if not self._gate.is_enabled_for(vm, vdisk):
            with self._stats_lock:
                self.ignored_records_total += n
            return pack_ok({"accepted": 0, "ignored": n,
                            "reason": "disabled"})
        item = _DataItem((vm, vdisk), columns)
        worker = self._worker_for(item.key)
        if self.backpressure == "drop":
            try:
                worker.queue.put_nowait(item)
            except Full:
                with self._stats_lock:
                    self.dropped_records_total += n
                return pack_ok({"accepted": 0, "dropped": n,
                                "reason": "backpressure"})
        else:
            worker.queue.put(item)
        item.done.wait()
        if item.error is not None:
            raise ProtocolError(item.error)
        with self._stats_lock:
            self.records_total += item.accepted
        return pack_ok({"accepted": item.accepted})

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _handle_control(self, payload: bytes) -> bytes:
        op = unpack_control(payload)
        name = op["op"]
        if self.forward_control is not None \
                and name in _CLUSTER_FORWARDED_OPS:
            # Cluster-wide op landing on one worker: relay to the
            # coordinator and pass its response frame through.
            try:
                return self.forward_control(bytes(payload))
            except (OSError, ValueError) as exc:
                raise ProtocolError(
                    f"cluster coordinator unreachable: {exc}"
                ) from None
        handler = self.control_handlers.get(name)
        if handler is not None:
            return pack_ok(handler(op))
        if name == "ping":
            return pack_ok({"pong": True, "version": 1})
        if name == "hello":
            return pack_ok(self._sessions.hello(op, lambda _seq: _SEEDED_ACK))
        if name == "route":
            if self.router is not None:
                return pack_ok(self.router.route_info())
            return pack_ok({"workers": [list(self.address)],
                            "generation": 0})
        if name == "enable":
            self._gate.enable(op.get("vm"), op.get("vdisk"))
            return pack_ok({"enabled": True})
        if name == "disable":
            self._gate.disable(op.get("vm"), op.get("vdisk"))
            return pack_ok({"enabled": False})
        return history_op(self, op)

    # ------------------------------------------------------------------
    # Atomic swap machinery
    # ------------------------------------------------------------------
    def _pause_workers(self) -> List[_Barrier]:
        barriers = []
        for worker in self._workers:
            if not worker.is_alive():
                continue
            barrier = _Barrier()
            worker.queue.put(barrier)
            barriers.append(barrier)
        for barrier in barriers:
            barrier.paused.wait()
        return barriers

    @staticmethod
    def _resume_workers(barriers: List[_Barrier]) -> None:
        for barrier in barriers:
            barrier.resume.set()

    def _seal_all_streams(self) -> List[Tuple[DiskKey, VscsiStatsCollector]]:
        pairs = []
        for worker in self._workers:
            for key, stream in worker.streams.items():
                collector = stream.seal()
                if collector is not None:
                    pairs.append((key, collector))
        return pairs

    def rotate(self) -> Epoch:
        """Seal the current epoch and swap in continuation collectors.

        Workers are parked at a barrier for the O(bins) swap only, so
        clients querying sealed epochs never see a torn snapshot and
        ingestion resumes before the epoch is encoded and persisted.
        """
        with self._control_lock:
            if self._closed:
                # A racing close() already sealed the final epoch (and
                # may have closed an owned store) — a late rotation
                # would double-count or write after close.
                raise ValueError("server is closed")
            barriers = self._pause_workers()
            try:
                pairs = self._seal_all_streams()
            finally:
                self._resume_workers(barriers)
            epoch = self.ledger.seal(pairs)
            fire_on_seal(self, self._on_seal, epoch)
            return epoch

    # ------------------------------------------------------------------
    # Queries (also usable in-process, e.g. after close())
    # ------------------------------------------------------------------
    def live_pairs(self) -> List[Tuple[DiskKey, VscsiStatsCollector]]:
        """``((vm, vdisk), collector copy)`` for the live (unsealed)
        epoch, taken with every running shard worker parked."""
        with self._control_lock:
            running = self._started and not self._closed
            barriers = self._pause_workers() if running else []
            try:
                return [(key, stream.collector.copy())
                        for worker in self._workers
                        for key, stream in worker.streams.items()
                        if stream.collector is not None]
            finally:
                self._resume_workers(barriers)

    def snapshot_dict(self, scope: str = "all",
                      epoch: Optional[int] = None,
                      aggregate: bool = False) -> Dict:
        """JSON-ready snapshot document (:func:`snapshot_document`)."""
        return snapshot_document(self.ledger, scope, epoch, aggregate,
                                 self._capture)

    def _capture(self):
        """The sealed history and a copy of the live epoch, taken in one
        hold of the control lock, so no rotation seals the copied
        collectors into the history in between; the merge runs after
        the lock is released, so a scrape delays a rotation only by the
        copy."""
        with self._control_lock:
            return self.ledger.history(), self.live_pairs()

    def merged_service(self) -> HistogramService:
        """Lifetime merge: every sealed epoch plus the live one."""
        return self.ledger.merged(*self._capture())

    def verdicts_dict(self) -> Dict:
        """Rolling online-analysis state (the ``verdicts`` control op)."""
        return verdicts_doc(self)

    def openmetrics(self) -> str:
        """OpenMetrics text over the lifetime merge + daemon counters."""
        service = self.merged_service()
        with self._stats_lock:
            daemon = {
                "epochs_sealed_total": len(self.ledger),
                "ingest_frames_total": self.frames_total,
                "ingest_records_total": self.records_total,
                "ignored_records_total": self.ignored_records_total,
                "dropped_records_total": self.dropped_records_total,
                "rejected_frames_total":
                    self.frame_server.rejected_frames_total,
                "duplicate_frames_total": self.duplicate_frames_total,
                "redirected_frames_total": self.redirected_frames_total,
                "persist_failures_total": len(self.ledger.persist_errors),
                "degraded": 1 if self.ledger.degraded else 0,
                "connections_open": self.frame_server.connections_open,
                "connections_total": self.frame_server.connections_total,
            }
        return render_openmetrics(service.collectors(), daemon,
                                  verdicts=online_metrics(self, daemon))

    def info(self) -> Dict:
        """Operational counters and configuration."""
        with self._stats_lock:
            info = {
                "address": list(self.address),
                "direct_address": (list(self.direct_address)
                                   if self.direct_address else None),
                "shards": len(self._workers),
                "backpressure": self.backpressure,
                "enabled": self._gate.enabled,
                "epochs_sealed": len(self.ledger),
                "epoch_records": self.ledger.records,
                "frames_total": self.frames_total,
                "records_total": self.records_total,
                "ignored_records_total": self.ignored_records_total,
                "dropped_records_total": self.dropped_records_total,
                "rejected_frames_total":
                    self.frame_server.rejected_frames_total,
                "duplicate_frames_total": self.duplicate_frames_total,
                "redirected_frames_total": self.redirected_frames_total,
                "connections_open": self.frame_server.connections_open,
                "connections_total": self.frame_server.connections_total,
                "queue_depths": [w.queue.qsize() for w in self._workers],
                "sessions": len(self._sessions),
                "degraded": self.ledger.degraded,
                "persist_errors": list(self.ledger.persist_errors),
            }
        if self.analyzer is not None:
            info["online"] = online_info(self)
        info["ledger"] = self.ledger.to_dict()
        if self.store is not None:
            info["store"] = store_info(self.store, self._owns_store)
        return info

    def export_json(self) -> str:
        """Lifetime per-disk snapshot as a JSON document."""
        return json.dumps(self.snapshot_dict(scope="all"), indent=2,
                          sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            "running" if self._started else "new")
        return (f"<LiveStatsServer {state} {self.host}:{self.port} "
                f"epochs={len(self.ledger)}>")
