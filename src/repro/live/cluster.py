"""``repro.live.cluster`` — the multi-process ingest edge.

One :class:`~repro.live.server.LiveStatsServer` tops out around one
core: frame decode, shard queues and the batch kernels all run in a
single interpreter.  The cluster spreads the *ingest* edge across N
worker **processes** while keeping everything the paper's tool promises
— exact histograms, epoch rotation, one durable store, one OpenMetrics
endpoint — byte-identical to a one-process run.

Topology::

                   shared port (SO_REUSEPORT)
    publishers ──┬───────────────┬───────────────┐
                 ▼               ▼               ▼
           worker 0        worker 1   ...   worker N-1      (processes)
           LiveStatsServer (unchanged shard loop, 1 ledger epoch)
                 │ epoch SNAPSHOT frames (RPHCOL2, over a pipe)
                 ▼               ▼               ▼
           ──────────────── fan-in pipes ────────────────
                            coordinator                      (this process)
                 merged history · durable store · /metrics

* Every worker binds the same public ``(host, port)`` with
  ``SO_REUSEPORT``; the kernel load-balances accepted connections.
  Where the option does not exist (or ``force_fd_passing`` is set) the
  coordinator accepts on a single listener and round-robins the
  connected sockets to workers over ``SCM_RIGHTS`` fd-passing.
* Disk ownership is decided by a consistent-hash ring over ``(vm,
  vdisk)`` — the whole-stream ownership rule that makes DATA_SEQ
  ordering and ack-cache dedup per-worker correct.  A frame landing on
  the wrong worker is *redirected* (an ``ERROR`` frame naming the
  owner's private address) before any session state is touched;
  :class:`~repro.live.client.LiveStatsClient` follows redirects and
  caches the route.
* Workers seal epochs locally (coordinator-driven ``worker-rotate``)
  and push the sealed snapshot down a private pipe as the fleet's own
  ``SNAPSHOT`` frame — per-disk ``RPHCOL2`` collector records behind a
  JSON extent header, on the worker's ``worker-<i>`` session.  The
  coordinator merges each round's records per disk
  (:func:`merge_snapshots`, one vectorized reduce per disk), seals the
  result into its own :class:`~repro.live.epochs.EpochLedger` — the
  daemon's ledger — and alone owns the durable store writer and the
  exposition.
* The live (unsealed) epoch crosses the same pipes in the same
  format: a scrape (``snapshot``, ``metrics``) asks every worker for
  its live epoch (``worker-current``), each answers with a snapshot
  frame marked ``current``, and the coordinator merges those exactly
  as it merges a sealed round.  Names travel in the extents, never
  inside a record, so any ``vm``/``vdisk`` name is carried exactly.
* A dead worker (pipe EOF without a ``worker-bye``) bumps the route
  generation:
  the ring is rebuilt over the survivors and broadcast, publishers get
  redirected to the new owners and replay unacked ``DATA_SEQ`` frames
  there.  Acked-but-unsealed records on the dead worker are lost —
  the cluster trades replication for exactness of everything that
  reached a seal, and says so in ``worker_deaths_total``.

Byte-identity contract: the ``vscsi_*`` exposition block, snapshot
documents and store contents equal a one-process run fed the same
records (pinned by the partition-invariance tests in
``tests/test_live_cluster.py``); the ``live_*`` daemon counters
describe the daemon itself and legitimately differ across topologies.
"""

from __future__ import annotations

import bisect
import itertools
import json
import multiprocessing
import os
import socket
import threading
import time
import zlib
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..core.collector import DEFAULT_TIME_SLOT_NS, VscsiStatsCollector
from ..core.service import DiskKey, HistogramService
from ..core.window import DEFAULT_WINDOW_SIZE
from ..faults import activate_from_env, fire
from .epochs import Epoch, EpochLedger, merge_records
from .exposition import render_openmetrics
from .protocol import (
    FRAME_CONTROL,
    FRAME_SNAPSHOT,
    ProtocolError,
    encode_extents,
    encode_host_snapshot,
    pack_control,
    pack_frame,
    pack_ok,
    pack_snapshot,
    read_frame_view,
    snapshot_extents,
    unpack_control,
    unpack_snapshot,
)
from .server import (
    LiveStatsServer,
    RotationTimer,
    build_analyzer,
    close_store,
    fire_on_seal,
    history_op,
    online_info,
    online_metrics,
    open_store,
    snapshot_document,
    store_info,
    verdicts_doc,
)
from .session import (
    LISTEN_BACKLOG,
    FrameServer,
    LiveError,
    close_listener,
    round_trip,
    rpc,
    write_frame,
)

__all__ = [
    "ClusterServer",
    "HashRing",
    "WorkerRouter",
    "merge_snapshots",
]

#: Virtual nodes per worker on the hash ring.  Enough that removing a
#: worker spreads its ranges across every survivor instead of dumping
#: them on one neighbour.
DEFAULT_RING_REPLICAS = 64

_ROUND_TIMEOUT = 30.0   #: seconds to wait for one rotation's snapshots
_HELLO_TIMEOUT = 30.0   #: seconds to wait for worker startup
_RPC_TIMEOUT = 30.0     #: a relayed control op's round-trip timeout

_now = time.monotonic


def merge_snapshots(snapshots) -> List[Tuple[DiskKey, VscsiStatsCollector]]:
    """Per-disk exact merge of ``(header, payload)`` fan-in snapshots
    (usually one record per disk; several when a reassignment made two
    workers see the same disk in one round — the merge is exact either
    way)."""
    return merge_records(pair for header, payload in snapshots
                         for pair in snapshot_extents(header, payload))


# ---------------------------------------------------------------------------
# Consistent-hash routing
# ---------------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring of worker indices.

    Each worker contributes ``replicas`` virtual tokens (crc32 of
    ``worker-<i>/<r>``); a disk hashes (crc32 of ``vm\\x00vdisk`` —
    the same digest the in-process shard hash uses) to the first token
    clockwise.  Removing a worker moves only the ranges it owned.
    """

    __slots__ = ("_hashes", "_owners")

    def __init__(self, indices, replicas: int = DEFAULT_RING_REPLICAS):
        tokens = []
        for index in indices:
            for replica in range(replicas):
                digest = zlib.crc32(f"worker-{index}/{replica}".encode())
                tokens.append((digest, index))
        tokens.sort()
        self._hashes = [digest for digest, _ in tokens]
        self._owners = [index for _, index in tokens]

    def owner(self, vm: str, vdisk: str) -> int:
        if not self._hashes:
            raise ValueError("hash ring has no workers")
        digest = zlib.crc32(f"{vm}\x00{vdisk}".encode("utf-8"))
        slot = bisect.bisect_right(self._hashes, digest) % len(self._hashes)
        return self._owners[slot]


class WorkerRouter:
    """One worker's view of the routing table.

    Installed as ``LiveStatsServer.router``: the data plane asks
    :meth:`redirect_for` before touching any session state.  Updates
    carry a generation; a stale broadcast (reordered during a
    reassignment storm) never rolls the table back.
    """

    def __init__(self, index: int, replicas: int = DEFAULT_RING_REPLICAS):
        self.index = index
        self.replicas = replicas
        self.generation = 0
        self._lock = threading.Lock()
        self._table: Dict[int, Tuple[str, int]] = {}
        self._ring: Optional[HashRing] = None

    def update(self, workers, generation: int) -> bool:
        """Install ``[[index, host, port], ...]`` if newer."""
        with self._lock:
            if self._ring is not None and generation <= self.generation:
                return False
            self._table = {int(i): (str(host), int(port))
                           for i, host, port in workers}
            self._ring = HashRing(sorted(self._table), self.replicas)
            self.generation = generation
            return True

    def redirect_for(self, vm: str, vdisk: str) -> Optional[Tuple[str, int]]:
        with self._lock:
            ring = self._ring
            table = self._table
        if ring is None:
            return None  # no table yet: accept everything
        owner = ring.owner(vm, vdisk)
        if owner == self.index:
            return None
        return table[owner]

    def route_info(self) -> Dict:
        with self._lock:
            return {
                "generation": self.generation,
                "replicas": self.replicas,
                "workers": [[index, host, port]
                            for index, (host, port)
                            in sorted(self._table.items())],
            }


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _fd_receive_loop(channel: socket.socket, server: LiveStatsServer) -> None:
    """fd-passing fallback: adopt connections the coordinator sends."""
    while True:
        try:
            _msg, fds, _flags, _addr = socket.recv_fds(channel, 1, 4)
        except OSError:
            return
        if not fds:
            if not _msg:
                return  # EOF: coordinator is gone
            continue
        for fd in fds:
            try:
                conn = socket.socket(fileno=fd)
            except OSError:
                os.close(fd)
                continue
            server.frame_server.adopt(conn)


def _worker_main(index: int, config: Dict, fanin_wfd: int,
                 fdpass_fd: Optional[int], close_fds) -> None:
    """Entry point of one worker process.

    Forked children inherit every sibling's pipe ends; ``close_fds``
    lists the ones this worker must drop so that a sibling's death
    actually EOFs its pipe at the coordinator.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    activate_from_env()

    fanin = os.fdopen(fanin_wfd, "wb")
    fanin_lock = threading.Lock()
    session = f"worker-{index}"
    seqs = itertools.count(1)
    stop = threading.Event()

    def send_op(op: Dict) -> None:
        with fanin_lock:
            write_frame(fanin, pack_control(op))

    def send_epoch(header: Dict, payload: bytes) -> None:
        with fanin_lock:
            write_frame(fanin, pack_snapshot(session, next(seqs), header,
                                             payload))

    def on_seal(epoch: Epoch) -> None:
        send_epoch(*encode_host_snapshot(session, epoch))

    reuse_port = bool(config["reuse_port"])
    server = LiveStatsServer(
        host=config["host"],
        port=int(config["port"]) if reuse_port else 0,
        shards=int(config["shards"]),
        queue_depth=int(config["queue_depth"]),
        backpressure=config["backpressure"],
        idle_timeout=config["idle_timeout"],
        window_size=int(config["window_size"]),
        time_slot_ns=int(config["time_slot_ns"]),
        rotate_every=None,          # the coordinator drives rotation
        max_epochs=1,               # history lives at the coordinator
        start_enabled=bool(config["start_enabled"]),
        store=None,                 # the coordinator owns the store
        reuse_port=reuse_port,
        on_seal=on_seal,
        online=False,               # the coordinator analyzes merged epochs
    )
    router = WorkerRouter(index, replicas=int(config["replicas"]))
    server.router = router
    coordinator = (config["control"][0], int(config["control"][1]))
    # Cluster-wide ops are relayed to the coordinator; its response
    # frame goes back to the client verbatim.
    server.forward_control = lambda payload: pack_frame(*round_trip(
        coordinator, pack_frame(FRAME_CONTROL, payload), _RPC_TIMEOUT))

    def op_rotate(op: Dict) -> Dict:
        fire("live.cluster.worker", crashable=True, worker_index=index,
             point="rotate")
        epoch = server.rotate()
        return {"worker": index, "epoch": epoch.index,
                "records": epoch.records}

    def op_stop(op: Dict) -> Dict:
        stop.set()
        return {"worker": index, "stopping": True}

    def op_route(op: Dict) -> Dict:
        installed = router.update(op["workers"], int(op["generation"]))
        return {"worker": index, "generation": router.generation,
                "installed": installed}

    def op_current(op: Dict) -> Dict:
        pairs = server.live_pairs()
        disks, payload = encode_extents(pairs)
        send_epoch({"host": session, "epoch": len(server.ledger),
                    "records": sum(c.commands for _, c in pairs),
                    "disks": disks, "current": op["scrape"]}, payload)
        return {"worker": index, "disks": len(pairs)}

    def op_info(op: Dict) -> Dict:
        return server.info()

    def op_enable(op: Dict) -> Dict:
        server._gate.enable(op.get("vm"), op.get("vdisk"))
        return {"worker": index, "enabled": True}

    def op_disable(op: Dict) -> Dict:
        server._gate.disable(op.get("vm"), op.get("vdisk"))
        return {"worker": index, "enabled": False}

    server.control_handlers.update({
        "worker-rotate": op_rotate,
        "worker-stop": op_stop,
        "worker-route": op_route,
        "worker-current": op_current,
        "worker-info": op_info,
        "worker-enable": op_enable,
        "worker-disable": op_disable,
    })

    fd_channel = None
    try:
        server.start()
        address = server.direct_address if reuse_port else server.address
        send_op({"op": "worker-hello", "worker": index,
                 "pid": os.getpid(), "host": address[0],
                 "port": address[1]})
        fire("live.cluster.worker", crashable=True, worker_index=index,
             point="start")
        if fdpass_fd is not None:
            fd_channel = socket.socket(fileno=fdpass_fd)
            threading.Thread(target=_fd_receive_loop,
                             args=(fd_channel, server),
                             name=f"live-fdpass-{index}",
                             daemon=True).start()
        stop.wait()
    finally:
        try:
            server.close()  # final partial epoch → on_seal
        finally:
            if fd_channel is not None:
                try:
                    fd_channel.close()
                except OSError:
                    pass
            try:
                send_op({"op": "worker-bye", "worker": index,
                         "pid": os.getpid()})
                fanin.close()
            except (OSError, ValueError):
                pass


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
class ClusterServer:
    """N-process ingest edge behind one public address.

    The coordinator is not on the data path: records flow from
    publishers straight into workers; only sealed epoch snapshots and
    control traffic reach this process.  It owns the durable store,
    the merged history and the canonical exposition, and it is the
    only rotation driver — workers never rotate on their own.

    Parameters mirror :class:`~repro.live.server.LiveStatsServer`
    where they mean the same thing; ``workers`` is the process count
    and ``shards`` the shard-thread count *per worker* (the default of
    one thread per process is the multi-core sweet spot — parallelism
    comes from processes here, not threads).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, shards: int = 1,
                 queue_depth: int = 64, backpressure: str = "block",
                 idle_timeout: Optional[float] = 60.0,
                 window_size: int = DEFAULT_WINDOW_SIZE,
                 time_slot_ns: int = DEFAULT_TIME_SLOT_NS,
                 rotate_every: Optional[float] = None,
                 start_enabled: bool = True,
                 store=None,
                 force_fd_passing: bool = False,
                 ring_replicas: int = DEFAULT_RING_REPLICAS,
                 on_seal=None,
                 online=True):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "cluster mode needs the fork start method (worker "
                "processes inherit pipe and listener descriptors)"
            )
        self.host = host
        self.port = port
        self.workers = workers
        self.fd_passing = (force_fd_passing
                           or not hasattr(socket, "SO_REUSEPORT"))
        self.ring_replicas = ring_replicas
        self._rotation = (RotationTimer(rotate_every, self.rotate)
                          if rotate_every else None)
        self.frame_server = FrameServer(
            {FRAME_CONTROL: self._handle_control}, idle_timeout,
            "live-cluster-control")
        self._worker_config = {
            "host": host, "port": 0,  # filled in start()
            "reuse_port": not self.fd_passing,
            "shards": shards, "queue_depth": queue_depth,
            "backpressure": backpressure, "idle_timeout": idle_timeout,
            "window_size": window_size, "time_slot_ns": time_slot_ns,
            "start_enabled": start_enabled, "replicas": ring_replicas,
            "control": None,
        }

        self.store, self._owns_store = open_store(store)
        self.ledger = EpochLedger(window_size=window_size,
                                  time_slot_ns=time_slot_ns,
                                  store=self.store)

        #: Called with each sealed merged :class:`Epoch` (rotation and
        #: drain-on-close) — the fleet tier's uplink attach point,
        #: mirroring :class:`LiveStatsServer`'s hook.
        self.on_seal = on_seal

        #: Online fingerprint/drift stage over the *merged* cluster
        #: epochs (workers run with the stage off — a per-worker view
        #: would double-count and misread partial streams).  Same
        #: ``online`` contract as :class:`LiveStatsServer`.
        self.analyzer = build_analyzer(online)
        self.analysis_errors_total = 0
        if self.analyzer is not None and self.store is not None:
            try:
                self.analyzer.seed_from_store(self.store)
            except (OSError, ValueError):
                pass

        self.control_address: Optional[Tuple[str, int]] = None
        self.worker_deaths = 0
        #: Per-worker wall-clock time of the last fan-in snapshot
        #: (display only) and its monotonic mirror — ages are computed
        #: from the monotonic clock so an NTP step cannot yield
        #: negative or inflated ``worker_snapshot_age`` readings.
        self._last_snapshot_unix: Dict[int, float] = {}
        self._last_snapshot_mono: Dict[int, float] = {}
        self._generation = 0
        self._procs: List = []
        self._worker_addrs: Dict[int, Tuple[str, int]] = {}
        self._alive: set = set()
        self._clean: set = set()
        self._inbox: Dict[int, deque] = {}       # sealed snapshots
        self._live_inbox: Dict[int, deque] = {}  # scrape answers
        self._scrapes = 0
        self._inbox_cond = threading.Condition()
        self._reader_threads: List[threading.Thread] = []
        self._route_lock = threading.Lock()
        self._control_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        self._closed = False
        self._reserve: Optional[socket.socket] = None
        self._public_listener: Optional[socket.socket] = None
        self._fdpass_socks: Dict[int, socket.socket] = {}
        self._fdpass_rr = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterServer":
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True

        self.control_address = self.frame_server.listen(self.host, 0)
        self._worker_config["control"] = list(self.control_address)

        if self.fd_passing:
            # Single listener: the coordinator accepts and deals the
            # connected sockets to workers over SCM_RIGHTS.
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(LISTEN_BACKLOG)
            self._public_listener = listener
            self.port = listener.getsockname()[1]
        else:
            # SO_REUSEPORT group: reserve the port number (bound, never
            # listening — a closed-state socket takes no connections)
            # so an ephemeral choice is pinned before any worker binds.
            reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            reserve.bind((self.host, self.port))
            self._reserve = reserve
            self.port = reserve.getsockname()[1]
        self._worker_config["port"] = self.port

        ctx = multiprocessing.get_context("fork")
        pipes = [os.pipe() for _ in range(self.workers)]
        channels = ([socket.socketpair() for _ in range(self.workers)]
                    if self.fd_passing else None)
        for index in range(self.workers):
            self._inbox[index] = deque()
            self._live_inbox[index] = deque()
            self._alive.add(index)
        for index in range(self.workers):
            rfd, wfd = pipes[index]
            close_fds = [r for r, _ in pipes]
            close_fds += [w for j, (_, w) in enumerate(pipes) if j != index]
            child_fd = None
            if channels is not None:
                child_fd = channels[index][1].fileno()
                close_fds += [pair[0].fileno() for pair in channels]
                close_fds += [pair[1].fileno()
                              for j, pair in enumerate(channels)
                              if j != index]
            proc = ctx.Process(
                target=_worker_main,
                args=(index, dict(self._worker_config), wfd, child_fd,
                      close_fds),
                name=f"live-cluster-w{index}", daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        for index, (rfd, wfd) in enumerate(pipes):
            os.close(wfd)  # the worker holds the only write end now
            rfile = os.fdopen(rfd, "rb")
            thread = threading.Thread(target=self._fanin_reader,
                                      args=(index, rfile),
                                      name=f"live-fanin-{index}",
                                      daemon=True)
            thread.start()
            self._reader_threads.append(thread)
        if channels is not None:
            for index, (parent, child) in enumerate(channels):
                child.close()
                self._fdpass_socks[index] = parent

        self._await_hellos()
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        self._rebuild_routes()
        if self.fd_passing:
            threading.Thread(target=self._deal_connections,
                             name="live-cluster-accept",
                             daemon=True).start()
        if self._rotation is not None:
            self._rotation.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The shared public ingest ``(host, port)``."""
        return (self.host, self.port)

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    def _await_hellos(self) -> None:
        """Wait for every worker to announce (or die trying).

        A worker crashing during startup — the ``live.cluster.worker``
        fault site fires right after ``worker-hello`` — is survivable:
        the ring simply starts without it.  Only a full wipe-out fails
        start.
        """
        deadline = _now() + _HELLO_TIMEOUT
        stragglers: List[int] = []
        with self._inbox_cond:
            while True:
                pending = [i for i in range(self.workers)
                           if i not in self._worker_addrs
                           and i in self._alive]
                if not pending:
                    break
                remaining = deadline - _now()
                if remaining <= 0:
                    stragglers = pending
                    break
                self._inbox_cond.wait(timeout=min(remaining, 0.5))
            announced = bool(self._alive & set(self._worker_addrs))
        if stragglers:
            self.close(drain=False)
            raise RuntimeError(
                f"workers {stragglers} never announced within "
                f"{_HELLO_TIMEOUT}s")
        if not announced:
            self.close(drain=False)
            raise RuntimeError("every cluster worker died on startup")

    def close(self, drain: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        if self._rotation is not None:
            self._rotation.stop()
        self.frame_server.close()
        if self._public_listener is not None:
            close_listener(self._public_listener, self.address)
        with self._control_lock:
            for _index, addr in self._alive_targets():
                try:
                    rpc(addr, {"op": "worker-stop"}, timeout=10.0)
                except (OSError, ValueError, LiveError, ProtocolError):
                    pass  # already dead, or died while answering
            for proc in self._procs:
                proc.join(timeout=15.0)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=5.0)
            for thread in self._reader_threads:
                thread.join(timeout=5.0)
            if drain:
                # Workers drain on close and forward their final
                # partial epochs; seal whatever arrived as the
                # cluster's own final epoch.
                with self._inbox_cond:
                    leftovers = []
                    for queue in self._inbox.values():
                        while queue:
                            leftovers.append(queue.popleft())
                if leftovers:
                    fire_on_seal(self, self.on_seal, self.ledger.seal(
                        merge_snapshots(leftovers)))
            for sock in self._fdpass_socks.values():
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
            if self._reserve is not None:
                try:
                    self._reserve.close()
                except OSError:  # pragma: no cover
                    pass
                self._reserve = None
            if self.store is not None and self._owns_store:
                close_store(self.store, self.ledger.note_store_failure)

    # ------------------------------------------------------------------
    # Fan-in / worker liveness
    # ------------------------------------------------------------------
    def _fanin_reader(self, index: int, rfile) -> None:
        head = bytearray(4)
        try:
            while True:
                frame = read_frame_view(rfile, head)
                if frame is None:
                    break
                ftype, body = frame
                if ftype == FRAME_SNAPSHOT:
                    _session, _seq, header, payload = unpack_snapshot(body)
                    snapshot = (header, bytes(payload))
                    with self._inbox_cond:
                        if "current" in header:
                            self._live_inbox[index].append(snapshot)
                        else:
                            self._inbox[index].append(snapshot)
                            self._last_snapshot_unix[index] = time.time()
                            self._last_snapshot_mono[index] = \
                                time.monotonic()
                        self._inbox_cond.notify_all()
                elif ftype == FRAME_CONTROL:
                    op = unpack_control(body)
                    with self._inbox_cond:
                        if op["op"] == "worker-hello":
                            self._worker_addrs[index] = (op["host"],
                                                         int(op["port"]))
                            self._inbox_cond.notify_all()
                        elif op["op"] == "worker-bye":
                            self._clean.add(index)
                else:
                    raise ProtocolError(
                        f"unknown fan-in frame type 0x{ftype:02x}")
        except (OSError, ValueError):
            pass  # a torn or malformed frame: the worker died mid-write
        finally:
            try:
                rfile.close()
            except OSError:  # pragma: no cover
                pass
            self._worker_gone(index)

    def _worker_gone(self, index: int) -> None:
        with self._inbox_cond:
            if index not in self._alive:
                return
            self._alive.discard(index)
            crashed = index not in self._clean
            self._inbox_cond.notify_all()
        if crashed and not self._stopping.is_set():
            self.worker_deaths += 1
            self._rebuild_routes()

    def _rebuild_routes(self) -> None:
        """Recompute the ring over the survivors and broadcast it."""
        with self._route_lock:
            self._generation += 1
            generation = self._generation
            with self._inbox_cond:
                table = [[i, *self._worker_addrs[i]]
                         for i in sorted(self._alive)
                         if i in self._worker_addrs]
        op = {"op": "worker-route", "workers": table,
              "generation": generation}
        for index, host, port in table:
            try:
                rpc((host, port), op, timeout=10.0)
            except (OSError, ValueError, LiveError, ProtocolError):
                pass  # its reader thread will notice the death

    # ------------------------------------------------------------------
    # Worker RPC
    # ------------------------------------------------------------------
    def _alive_targets(self) -> List[Tuple[int, Tuple[str, int]]]:
        with self._inbox_cond:
            return [(i, self._worker_addrs[i])
                    for i in sorted(self._alive)
                    if i in self._worker_addrs]

    def _broadcast(self, op: Dict) -> Dict[int, Dict]:
        results: Dict[int, Dict] = {}
        for index, addr in self._alive_targets():
            try:
                results[index] = rpc(addr, op)
            except (OSError, ValueError, LiveError, ProtocolError):
                pass  # dead worker: liveness handled by its reader
        return results

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def rotate(self) -> Epoch:
        """Rotate every worker and seal one merged cluster epoch.

        Each alive worker seals locally and pushes its snapshot down
        the fan-in; this collects exactly one snapshot per worker that
        survived the round and merges them vectorized.  A worker that
        dies mid-round contributes nothing — its acked-but-unsealed
        records are lost with it (the documented crash contract).
        """
        with self._control_lock:
            if self._closed:
                raise ValueError("cluster is closed")
            targets = self._alive_targets()
            for _index, addr in targets:
                try:
                    rpc(addr, {"op": "worker-rotate"})
                except (OSError, ValueError, LiveError, ProtocolError):
                    pass  # died before sealing; handled below
            snapshots = self._collect(self._inbox, [i for i, _ in targets])
            epoch = self.ledger.seal(merge_snapshots(snapshots))
            fire_on_seal(self, self.on_seal, epoch)
            return epoch

    def _collect(self, inbox, indices,
                 scrape: Optional[int] = None) -> List[Tuple[Dict, bytes]]:
        """One snapshot from each of ``indices`` out of ``inbox``.

        ``scrape`` names the live-epoch request being answered; an
        answer to an earlier scrape that timed out is dropped.
        """
        deadline = _now() + _ROUND_TIMEOUT
        collected: List[Tuple[Dict, bytes]] = []
        pending = set(indices)
        with self._inbox_cond:
            while pending:
                for index in sorted(pending):
                    queue = inbox[index]
                    while queue and queue[0][0].get("current") != scrape:
                        queue.popleft()
                    if queue:
                        collected.append(queue.popleft())
                        pending.discard(index)
                    elif index not in self._alive:
                        pending.discard(index)  # died without a snapshot
                if not pending:
                    break
                remaining = deadline - _now()
                if remaining <= 0:
                    break  # stragglers: their snapshot joins the next round
                self._inbox_cond.wait(timeout=min(remaining, 0.5))
        return collected

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _capture(self):
        """The sealed history and every alive worker's live (unsealed)
        epoch, taken in one hold of the control lock — so the scrape
        sees no rotation half done and no other scrape's answers — and
        merged after it is released, so a scrape delays a rotation only
        by its worker round."""
        with self._control_lock:
            history = self.ledger.history()
            self._scrapes += 1
            answered = self._broadcast({"op": "worker-current",
                                        "scrape": self._scrapes})
            live = self._collect(self._live_inbox, answered,
                                 scrape=self._scrapes)
        return history, merge_snapshots(live)

    def merged_service(self) -> HistogramService:
        """Lifetime merge: sealed history plus every worker's live
        epoch — the cluster analogue of
        :meth:`LiveStatsServer.merged_service`."""
        return self.ledger.merged(*self._capture())

    def snapshot_dict(self, scope: str = "all",
                      epoch: Optional[int] = None,
                      aggregate: bool = False) -> Dict:
        """JSON-ready snapshot document, same shape as the
        single-process server's (:func:`snapshot_document`)."""
        return snapshot_document(self.ledger, scope, epoch, aggregate,
                                 self._capture)

    def openmetrics(self) -> str:
        """Canonical exposition: the lifetime merge plus summed worker
        counters and cluster liveness gauges."""
        service = self.merged_service()
        infos = self._broadcast({"op": "worker-info"})

        def total(field: str) -> int:
            return sum(info.get(field, 0) for info in infos.values())

        daemon = {
            "epochs_sealed_total": len(self.ledger),
            "ingest_frames_total": total("frames_total"),
            "ingest_records_total": total("records_total"),
            "ignored_records_total": total("ignored_records_total"),
            "dropped_records_total": total("dropped_records_total"),
            "rejected_frames_total": total("rejected_frames_total"),
            "duplicate_frames_total": total("duplicate_frames_total"),
            "redirected_frames_total": total("redirected_frames_total"),
            "persist_failures_total": len(self.ledger.persist_errors),
            "degraded": 1 if self.ledger.degraded else 0,
            "connections_open": total("connections_open"),
            "connections_total": total("connections_total"),
            "cluster_workers": self.workers,
            "cluster_workers_alive": len(infos),
            "cluster_worker_deaths_total": self.worker_deaths,
            "cluster_route_generation": self._generation,
        }
        return render_openmetrics(service.collectors(), daemon,
                                  verdicts=online_metrics(self, daemon))

    def verdicts_dict(self) -> Dict:
        """Rolling online-analysis state (the ``verdicts`` control
        op), over the merged cluster epochs."""
        return verdicts_doc(self)

    def route_info(self) -> Dict:
        with self._route_lock:
            generation = self._generation
        with self._inbox_cond:
            table = [[i, *self._worker_addrs[i]]
                     for i in sorted(self._alive)
                     if i in self._worker_addrs]
        return {"generation": generation, "replicas": self.ring_replicas,
                "workers": table}

    def info(self) -> Dict:
        workers = self._broadcast({"op": "worker-info"})
        now = time.monotonic()
        with self._inbox_cond:
            last_snapshot = dict(self._last_snapshot_mono)
        info = {
            "cluster": True,
            "address": list(self.address),
            "control_address": list(self.control_address),
            "fd_passing": self.fd_passing,
            "workers": self.workers,
            "workers_alive": sorted(
                int(i) for i in workers),
            "worker_deaths_total": self.worker_deaths,
            # Per-worker health without a second probe: open ingest
            # sessions (from the worker's own info doc) and seconds
            # since its last fan-in snapshot (None before the first
            # rotation) — what a fleet tier polls to judge a host.
            "worker_sessions": {str(i): doc.get("sessions", 0)
                                for i, doc in workers.items()},
            "worker_snapshot_age": {
                str(i): (max(0.0, now - last_snapshot[i])
                         if i in last_snapshot else None)
                for i in workers
            },
            "route_generation": self._generation,
            "epochs_sealed": len(self.ledger),
            "epoch_records": self.ledger.records,
            "degraded": self.ledger.degraded,
            "online": online_info(self),
            "persist_errors": list(self.ledger.persist_errors),
            "worker_info": {str(i): doc for i, doc in workers.items()},
        }
        info["ledger"] = self.ledger.to_dict()
        if self.store is not None:
            info["store"] = store_info(self.store, self._owns_store)
        return info

    def export_json(self) -> str:
        return json.dumps(self.snapshot_dict(scope="all"), indent=2,
                          sort_keys=True)

    def enable(self, vm: Optional[str] = None,
               vdisk: Optional[str] = None) -> None:
        self._broadcast({"op": "worker-enable", "vm": vm, "vdisk": vdisk})

    def disable(self, vm: Optional[str] = None,
                vdisk: Optional[str] = None) -> None:
        self._broadcast({"op": "worker-disable", "vm": vm, "vdisk": vdisk})

    # ------------------------------------------------------------------
    # Control endpoint (the address `repro serve --workers` publishes
    # for rotate/metrics/snapshot; workers relay public ops here)
    # ------------------------------------------------------------------
    def _handle_control(self, payload) -> bytes:
        op = unpack_control(payload)
        name = op["op"]
        if name == "ping":
            return pack_ok({"pong": True, "version": 1, "cluster": True,
                            "workers": self.workers,
                            "workers_alive": len(self._alive)})
        if name == "route":
            return pack_ok(self.route_info())
        if name == "enable":
            self.enable(op.get("vm"), op.get("vdisk"))
            return pack_ok({"enabled": True})
        if name == "disable":
            self.disable(op.get("vm"), op.get("vdisk"))
            return pack_ok({"enabled": False})
        return history_op(self, op)

    # ------------------------------------------------------------------
    # fd-passing fallback data path
    # ------------------------------------------------------------------
    def _deal_connections(self) -> None:
        """Accept on the public listener and deal each connection to
        the next alive worker over ``SCM_RIGHTS``."""
        while not self._stopping.is_set():
            try:
                conn, _addr = self._public_listener.accept()
            except OSError:
                return
            targets = sorted(self._fdpass_socks.keys() & self._alive)
            if targets:
                index = targets[self._fdpass_rr % len(targets)]
                self._fdpass_rr += 1
                try:
                    socket.send_fds(self._fdpass_socks[index], [b"c"],
                                    [conn.fileno()])
                except OSError:
                    pass
            # SCM_RIGHTS dup'd the descriptor into the worker; this
            # process's copy is closed either way.
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            "running" if self._started else "new")
        return (f"<ClusterServer {state} {self.host}:{self.port} "
                f"workers={len(self._alive)}/{self.workers}>")
