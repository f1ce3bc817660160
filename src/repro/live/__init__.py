"""Online streaming characterization — ``vscsiStats`` as a daemon.

The paper's tool characterizes I/O *while workloads run*; this package
is that layer for the reproduction: a TCP daemon
(:class:`~repro.live.server.LiveStatsServer`) ingesting columnar
``VSCSITR1`` command streams into the batch histogram kernels, with
epoch-rotated snapshots, an enable/disable control plane and an
OpenMetrics exposition; a client
(:class:`~repro.live.client.LiveStatsClient`); and publishers that turn
any existing trace or simulated workload into live traffic
(:mod:`repro.live.publish`).
"""

from .client import (
    DEFAULT_FRAME_RECORDS,
    DEFAULT_RETRIES,
    LiveConnectionError,
    LiveError,
    LiveStatsClient,
)
from .cluster import ClusterServer, HashRing, WorkerRouter
from .epochs import Epoch, EpochLedger
from .exposition import render_openmetrics
from .protocol import ProtocolError
from .publish import (
    capture_pattern,
    capture_workload,
    publish_pattern,
    publish_shard_dir,
    publish_source,
    publish_trace_file,
    publish_workload,
)
from .server import LiveStatsServer
from .stream import DiskStream

__all__ = [
    "ClusterServer",
    "DEFAULT_FRAME_RECORDS",
    "DEFAULT_RETRIES",
    "DiskStream",
    "HashRing",
    "WorkerRouter",
    "Epoch",
    "EpochLedger",
    "LiveConnectionError",
    "LiveError",
    "LiveStatsClient",
    "LiveStatsServer",
    "ProtocolError",
    "capture_pattern",
    "capture_workload",
    "publish_pattern",
    "publish_shard_dir",
    "publish_source",
    "publish_trace_file",
    "publish_workload",
    "render_openmetrics",
]
