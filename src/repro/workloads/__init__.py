"""Workload substrate: the generators the paper's evaluation runs."""

from .base import Workload
from .dbt2 import Dbt2Config, Dbt2Workload, TRANSACTION_MIX
from .filebench import (
    AppendFlow,
    BatchWriteFlow,
    FilebenchWorkload,
    FlowOp,
    Personality,
    ReadFlow,
    ThinkFlow,
    ThreadSpec,
    WholeFileReadFlow,
    WriteFlow,
    fileserver_personality,
    oltp_personality,
    varmail_personality,
    webserver_personality,
)
from .external import ExternalInitiator
from .filecopy import FileCopyWorkload
from .iometer import (
    AccessSpec,
    IometerWorkload,
    SPEC_4K_SEQ_READ,
    SPEC_8K_RANDOM_READ,
    SPEC_8K_SEQ_READ,
)
from .patterns import (
    ALIBABA_BURSTY_WRITER,
    ALIBABA_LOG_APPEND,
    ALIBABA_READ_HOT,
    CHARACTERIZATION_SUITE,
    PATTERN_KINDS,
    PatternSpec,
    PatternWorkload,
    SEQUENTIAL_READ,
    SEQUENTIAL_WRITE,
    STRIDED_READ,
    UNIFORM_RANDOM_RW,
    ZIPFIAN_WRITE,
)
from .postgres import PAGE_BYTES, PostgresConfig, PostgresEngine
from .replay import TraceReplayWorkload

__all__ = [
    "Workload",
    "Dbt2Config",
    "Dbt2Workload",
    "TRANSACTION_MIX",
    "AppendFlow",
    "BatchWriteFlow",
    "FilebenchWorkload",
    "FlowOp",
    "Personality",
    "ReadFlow",
    "ThinkFlow",
    "ThreadSpec",
    "WholeFileReadFlow",
    "WriteFlow",
    "fileserver_personality",
    "oltp_personality",
    "varmail_personality",
    "webserver_personality",
    "ExternalInitiator",
    "FileCopyWorkload",
    "AccessSpec",
    "IometerWorkload",
    "SPEC_4K_SEQ_READ",
    "SPEC_8K_RANDOM_READ",
    "SPEC_8K_SEQ_READ",
    "ALIBABA_BURSTY_WRITER",
    "ALIBABA_LOG_APPEND",
    "ALIBABA_READ_HOT",
    "CHARACTERIZATION_SUITE",
    "PATTERN_KINDS",
    "PatternSpec",
    "PatternWorkload",
    "SEQUENTIAL_READ",
    "SEQUENTIAL_WRITE",
    "STRIDED_READ",
    "UNIFORM_RANDOM_RW",
    "ZIPFIAN_WRITE",
    "PAGE_BYTES",
    "PostgresConfig",
    "PostgresEngine",
    "TraceReplayWorkload",
]
