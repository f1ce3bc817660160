"""``vscsistats`` — the command-line surface of the reproduction.

Subcommands:

* ``list`` — enumerate the reproducible paper artifacts.
* ``run <experiment>`` — regenerate one figure/table and print it in
  the paper's layout (``--quick`` for scaled-down parameters); or
  ``run --all [--jobs N]`` to regenerate the whole registry, fanned
  out over worker processes.  ``--output json`` prints a machine-
  readable document instead of rendered panels.
* ``demo`` — the 30-second tour: a small mixed workload, its
  histograms, and its characterization.
* ``serve`` — run the live characterization daemon
  (:mod:`repro.live`): network ingestion, epoch rotation, OpenMetrics.
* ``publish`` — stream an existing trace file, sharded trace
  directory, or a freshly simulated workload (``demo``) to a running
  daemon as live traffic.
* ``watch`` — tail the rolling workload verdicts of the online
  fingerprint/drift stage (:mod:`repro.analysis.online`): against a
  running daemon it polls the ``verdicts`` control op; against a store
  directory it replays the recorded epochs through a local analyzer
  and keeps tailing for new ones.
* ``store`` — operate on a durable histogram store
  (:mod:`repro.store`): ``query`` a time range, ``compact`` into
  coarser tiers, ``inspect`` segments and spans.
* ``fleet`` — the hierarchical aggregation tier (:mod:`repro.fleet`):
  ``serve`` an aggregator node (root or regional), ``attach`` a
  simulated leaf publisher, and query the tree with ``topk``,
  ``percentile`` and ``status``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional

from .core.report import render_histogram
from .experiments.runner import EXPERIMENTS, run_experiment
from .experiments.table2 import Table2Result, render_table2

__all__ = ["main"]


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The document lands in a same-directory temp file and is renamed
    into place, so readers (and a killed CLI) never observe a
    partially written export.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fileobj:
            fileobj.write(text)
            fileobj.flush()
            os.fsync(fileobj.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(e.exp_id) for e in EXPERIMENTS)
    for experiment in EXPERIMENTS:
        print(f"{experiment.exp_id.ljust(width)}  {experiment.title}")
    return 0


def _result_fields(result: object):
    """``(attr, value)`` pairs of a result object, slots or dict."""
    try:
        items = vars(result).items()
    except TypeError:  # __slots__-only result objects
        items = (
            (attr, getattr(result, attr))
            for attr in getattr(type(result), "__slots__", ())
        )
    return [(attr, value) for attr, value in items
            if not attr.startswith("_")]


def _print_result(exp_id: str, result: object) -> None:
    """Render a result: histograms as panels, everything else as
    labelled lines — no field is silently skipped."""
    if isinstance(result, Table2Result):
        print(render_table2(result))
        return
    from .experiments.ssd_vs_disk import SsdVsDiskResult

    if isinstance(result, SsdVsDiskResult):
        print(result.report())
        return
    from .core.collector import VscsiStatsCollector
    from .core.histogram import Histogram
    from .core.histogram2d import TimeSeriesHistogram

    for attr, value in _result_fields(result):
        if isinstance(value, Histogram):
            print(render_histogram(value, title=f"{exp_id}: {attr}"))
            print()
        elif isinstance(value, TimeSeriesHistogram):
            print(f"{exp_id}: {attr} = <time series {value.name!r}: "
                  f"{value.num_slots} slots, {value.count} observations>")
        elif isinstance(value, VscsiStatsCollector):
            print(f"{exp_id}: {attr} = <collector: {value.commands} commands, "
                  f"{value.read_commands}R/{value.write_commands}W, "
                  f"{value.total_bytes} bytes>")
        elif isinstance(value, (int, float, str, bool)) or value is None:
            print(f"{exp_id}: {attr} = {value}")
        elif isinstance(value, (list, tuple, set, frozenset, dict)):
            print(f"{exp_id}: {attr} = <{type(value).__name__} of "
                  f"{len(value)} items>")
        else:
            print(f"{exp_id}: {attr} = {value!r}")


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    if args.all and args.experiment is not None:
        print("run: give either one experiment id or --all, not both",
              file=sys.stderr)
        return 2
    if not args.all and args.experiment is None:
        print("run: an experiment id (or --all) is required",
              file=sys.stderr)
        return 2

    if args.all:
        from .experiments.runner import run_all_experiments

        results = run_all_experiments(quick=args.quick, jobs=args.jobs)
    else:
        results = {args.experiment: run_experiment(args.experiment,
                                                   quick=args.quick)}

    if args.output == "json":
        payload = {exp_id: _result_payload(exp_id, result)
                   for exp_id, result in results.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for index, (exp_id, result) in enumerate(results.items()):
            if index:
                print()
            _print_result(exp_id, result)
    if args.export is not None:
        payload = {exp_id: _result_payload(exp_id, result)
                   for exp_id, result in results.items()}
        if not args.all:
            payload = payload[args.experiment]
        _atomic_write_text(
            args.export,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        if args.output != "json":
            print(f"\nwrote {args.export}")
    return 0


def _jsonable(value: object):
    """Recursively convert a result value to JSON-encodable form.

    Anything exporting ``to_dict`` uses it; dataclasses and containers
    recurse (so a dict of collectors serializes, unlike a plain
    ``dataclasses.asdict``); everything else degrades to ``repr`` —
    no field is ever dropped from the document.
    """
    import dataclasses

    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    return repr(value)


def _result_payload(exp_id: str, result: object) -> dict:
    """JSON-exportable form of every field a result carries."""
    return {
        "experiment": exp_id,
        "fields": {attr: _jsonable(value)
                   for attr, value in _result_fields(result)},
    }


def _cmd_demo(_args: argparse.Namespace) -> int:
    from .experiments.setups import reference_testbed
    from .sim.engine import seconds
    from .workloads.iometer import AccessSpec, IometerWorkload

    bed = reference_testbed("cx3")
    vm = bed.esx.create_vm("demo-vm")
    device = bed.esx.create_vdisk(vm, "scsi0:0", bed.array, 2 * 1024**3)
    bed.esx.stats.enable()
    spec = AccessSpec("demo mixed", io_bytes=8192, read_fraction=0.7,
                      random_fraction=0.6, outstanding=8)
    IometerWorkload(bed.engine, device, spec).start()
    bed.engine.run(until=seconds(5))
    collector = bed.esx.collector_for("demo-vm", "scsi0:0")
    assert collector is not None
    print(render_histogram(collector.io_length.all, title="I/O Length"))
    print()
    print(render_histogram(collector.seek_distance.all,
                           title="Seek Distance"))
    print()
    print(render_histogram(collector.latency_us.all, title="Latency (us)"))
    print()
    from .analysis.summary import workload_report

    print(workload_report(collector, heading="demo-vm/scsi0:0",
                          panels=False))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import socket as socket_module
    import time

    uplink = None
    if args.uplink is not None:
        from .faults import activate_from_env
        from .fleet import FleetUplink, parse_parents

        activate_from_env()
        host_id = args.host_id or socket_module.gethostname()
        uplink = FleetUplink(parse_parents(args.uplink), host=host_id)
    on_seal = uplink.on_seal if uplink is not None else None

    if args.workers > 1:
        from .live import ClusterServer

        server = ClusterServer(
            host=args.host, port=args.port, workers=args.workers,
            shards=args.shards, queue_depth=args.queue_depth,
            backpressure=args.backpressure,
            idle_timeout=args.idle_timeout,
            rotate_every=args.rotate_every, store=args.store,
            on_seal=on_seal,
        )
    else:
        from .live import LiveStatsServer

        server = LiveStatsServer(
            host=args.host, port=args.port, shards=args.shards,
            queue_depth=args.queue_depth, backpressure=args.backpressure,
            idle_timeout=args.idle_timeout, rotate_every=args.rotate_every,
            store=args.store, on_seal=on_seal,
        )
    if uplink is not None:
        uplink.start()
    server.start()
    host, port = server.address
    if args.workers > 1:
        mode = ("fd-passing fallback" if server.fd_passing
                else "SO_REUSEPORT")
        chost, cport = server.control_address
        print(f"repro.live: cluster of {args.workers} workers sharing "
              f"{host}:{port} via {mode} "
              f"(shards={args.shards}/worker, "
              f"backpressure={args.backpressure})", flush=True)
        print(f"repro.live: coordinator control endpoint on "
              f"{chost}:{cport}", flush=True)
    else:
        print(f"repro.live: listening on {host}:{port} "
              f"(shards={args.shards}, backpressure={args.backpressure})",
              flush=True)
    if args.store is not None:
        print(f"repro.live: persisting sealed epochs to {args.store}",
              flush=True)
    if uplink is not None:
        print(f"repro.live: forwarding sealed epochs as host "
              f"{uplink.host} to fleet parents {args.uplink}", flush=True)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive mode
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    finally:
        server.close()
        if uplink is not None:
            uplink.drain(timeout=30.0)
            uplink.close()
            up = uplink.info()
            print(f"repro.live: uplink forwarded "
                  f"{up['forwarded_total']} epoch snapshots "
                  f"({up['retries_total']} retries, "
                  f"{up['reparents_total']} re-parents, "
                  f"{up['pending']} unsent)", flush=True)
        info = server.info()
        if args.workers > 1:
            print(f"repro.live: drained; {info['epoch_records']} records "
                  f"in {info['epochs_sealed']} epochs "
                  f"({info['worker_deaths_total']} worker deaths)",
                  flush=True)
        else:
            print(f"repro.live: drained; {info['records_total']} records "
                  f"in {info['epochs_sealed']} epochs "
                  f"({info['dropped_records_total']} dropped, "
                  f"{info['rejected_frames_total']} rejected frames)",
                  flush=True)
        if info["degraded"]:
            errors = "; ".join(e["error"] for e in info["persist_errors"])
            print(f"repro.live: DEGRADED — store persistence failed "
                  f"({errors}); quarantined epoch snapshots, if any, "
                  f"are under <store>/quarantine/", flush=True)
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from .live import (
        DEFAULT_FRAME_RECORDS,
        LiveError,
        LiveStatsClient,
        publish_source,
    )

    frame_records = args.frame_records or DEFAULT_FRAME_RECORDS
    try:
        with LiveStatsClient(args.host, args.port, timeout=args.timeout,
                             retries=args.retries) as client:
            result = publish_source(
                client, args.source, vm=args.vm, vdisk=args.vdisk,
                frame_records=frame_records,
                demo_seconds=args.demo_seconds,
            )
            retried = result.get("retried", 0)
            retry_note = f", {retried} frames retried" if retried else ""
            print(f"published {result['accepted']}/{result['records']} "
                  f"records in {result['frames']} frames "
                  f"(dropped {result['dropped']}, "
                  f"ignored {result['ignored']}{retry_note})")
            if args.rotate:
                rotated = client.rotate()
                print(f"rotated: epoch {rotated['epoch']} sealed with "
                      f"{rotated['records']} records over "
                      f"{rotated['disks']} disks")
            if args.metrics:
                print(client.metrics(), end="")
    except (LiveError, ValueError, OSError) as exc:
        print(f"publish: {exc}", file=sys.stderr)
        return 1
    return 0


def _emit_verdict(verdict, as_json: bool) -> None:
    import json

    from .analysis.online import format_verdict

    if as_json:
        print(json.dumps(verdict.to_dict(), sort_keys=True), flush=True)
    else:
        print(format_verdict(verdict), flush=True)


def _watch_daemon(args: argparse.Namespace, host: str, port: int) -> int:
    import time

    from .analysis.online import EpochVerdict
    from .live import LiveError, LiveStatsClient

    seen = {}
    deadline = (None if args.duration is None
                else time.monotonic() + args.duration)
    try:
        with LiveStatsClient(host, port, timeout=args.timeout) as client:
            while True:
                doc = client.verdicts()
                if not doc.get("online"):
                    print("watch: the daemon is running with the online "
                          "analyzer disabled", file=sys.stderr)
                    return 1
                disks = doc.get("disks", {})
                for key in sorted(disks):
                    vdoc = disks[key]
                    if seen.get(key) == vdoc["epoch"]:
                        continue  # already shown this epoch's verdict
                    seen[key] = vdoc["epoch"]
                    _emit_verdict(EpochVerdict.from_dict(vdoc), args.json)
                if args.once or (deadline is not None
                                 and time.monotonic() >= deadline):
                    print(f"watch: {doc['epochs_seen']} epochs, "
                          f"{doc['verdicts_total']} verdicts, "
                          f"{doc['drift_events_total']} drift events",
                          file=sys.stderr)
                    return 0
                time.sleep(args.interval)
    except (LiveError, OSError, ValueError) as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 1


def _drain_epoch_groups(pending: list, final: bool):
    """Split tailed records into complete epoch groups + held-back tail.

    Records of one sealed epoch share ``(start_ns, end_ns)`` and are
    appended consecutively, so grouping consecutive items by span
    recovers the epoch structure.  The newest span is held back until a
    later span proves it complete (a poll can catch an epoch's records
    mid-append) — unless ``final``, which flushes everything.
    """
    groups, current_span, current = [], None, []
    for item in pending:
        span = item[0]
        if span != current_span:
            if current:
                groups.append(current)
            current_span, current = span, [item]
        else:
            current.append(item)
    if current:
        groups.append(current)
    if final or not groups:
        return groups, []
    return groups[:-1], groups[-1]


def _watch_store(args: argparse.Namespace) -> int:
    import time

    from .analysis.online import DriftConfig, OnlineAnalyzer
    from .store import HistogramStore

    try:
        config = DriftConfig(threshold=args.threshold,
                             hysteresis_k=args.hysteresis,
                             min_commands=args.min_commands)
    except ValueError as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 2
    analyzer = OnlineAnalyzer(config)
    watermark = -1
    pending: list = []
    epoch_index = 0
    deadline = (None if args.duration is None
                else time.monotonic() + args.duration)
    while True:
        try:
            store = HistogramStore.open(args.target, readonly=True)
        except ValueError as exc:
            print(f"watch: {exc}", file=sys.stderr)
            return 1
        try:
            # Materialize collectors before closing: the records view
            # borrows the store's segment mmaps.
            for record in store.tail(watermark):
                watermark = record.seq
                if record.tier != 0:
                    continue  # compacted granule, not a raw epoch
                pending.append(((record.start_ns, record.end_ns),
                                (record.vm, record.vdisk), record.load()))
        finally:
            store.close()
        final = args.once or (deadline is not None
                              and time.monotonic() >= deadline)
        groups, pending = _drain_epoch_groups(pending, final)
        for group in groups:
            pairs = [(key, collector) for _span, key, collector in group]
            for verdict in analyzer.observe_epoch(pairs, index=epoch_index):
                _emit_verdict(verdict, args.json)
            epoch_index += 1
        if final:
            break
        time.sleep(args.interval)
    print(f"watch: {analyzer.epochs_seen} epochs, "
          f"{analyzer.verdicts_total} verdicts, "
          f"{analyzer.drift_events_total} drift events", file=sys.stderr)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    if os.path.isdir(args.target):
        return _watch_store(args)
    host, _sep, port_text = args.target.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"watch: {args.target!r} is neither a store directory "
              f"nor a HOST:PORT address", file=sys.stderr)
        return 2
    return _watch_daemon(args, host or "127.0.0.1", port)


_NS_PER_SECOND = 1_000_000_000


def _unix_to_ns(seconds: Optional[float]) -> Optional[int]:
    return None if seconds is None else int(seconds * _NS_PER_SECOND)


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from .store import HistogramStore

    # Reads open without the writer lock (and without destructive
    # recovery), so query/inspect work against a store a live
    # ``serve --store`` daemon is writing; compact needs the lock.
    readonly = args.store_command in ("query", "inspect")
    try:
        store = HistogramStore.open(args.directory, readonly=readonly)
    except ValueError as exc:
        print(f"store: {exc}", file=sys.stderr)
        return 1
    try:
        if args.store_command == "inspect":
            print(json.dumps(store.inspect(), indent=2, sort_keys=True))
            return 0

        if args.store_command == "compact":
            summary = {}
            if args.retire_before is not None:
                # Retire whole aged segments before the rewrite below
                # collapses everything into a single segment (after
                # which only a fully aged-out store could retire).
                summary["segments_retired"] = store.retire_segments(
                    _unix_to_ns(args.retire_before)
                )
            retain_before = _unix_to_ns(args.retain_before)
            summary.update(store.compact(retain_before_ns=retain_before))
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0

        # query
        start_ns = _unix_to_ns(args.start)
        end_ns = _unix_to_ns(args.end)
        if start_ns is None or end_ns is None:
            info = store.inspect()
            if info["records"] == 0:
                print("store: nothing stored yet, nothing to query",
                      file=sys.stderr)
                return 1
            if start_ns is None:
                start_ns = info["start_ns"]
            if end_ns is None:
                end_ns = info["end_ns"] - 1  # half-open -> inclusive
        try:
            result = store.query(start_ns, end_ns, vm=args.vm,
                                 vdisk=args.vdisk)
        except ValueError as exc:
            print(f"store: {exc}", file=sys.stderr)
            return 1
        if args.output == "openmetrics":
            from .live.exposition import render_openmetrics

            text = render_openmetrics(
                result.service.collectors(),
                {"query_records": result.records,
                 "query_epochs": result.epochs},
            )
        else:
            text = json.dumps(result.to_dict(), indent=2,
                              sort_keys=True) + "\n"
        if args.export is not None:
            _atomic_write_text(args.export, text)
            print(f"wrote {args.export}")
        else:
            print(text, end="")
        return 0
    finally:
        store.close()


def _fleet_address(spec: str):
    from .fleet import parse_parents

    parents = parse_parents(spec)
    if len(parents) != 1:
        raise ValueError(f"expected one HOST:PORT address, got {spec!r}")
    return parents[0]


def _fleet_source_columns(args: argparse.Namespace):
    """Load the attach source as trace columns (demo or VSCSITR1 file)."""
    from pathlib import Path

    if args.source == "demo":
        from .live import capture_workload

        return capture_workload(seconds=args.demo_seconds, vm=args.vm,
                                vdisk=args.vdisk)
    path = Path(args.source)
    if not path.is_file():
        raise ValueError(f"no such trace source: {path}")
    from .parallel.trace_io import read_binary_columns

    return read_binary_columns(path)


def _fleet_epoch_chunks(columns, epochs: int):
    """Split columns into ``epochs`` contiguous-in-time chunks.

    Rows are ordered by ``(issue_ns, serial)`` first so each chunk's
    span abuts the next — the order ``DiskStream``'s watermark needs.
    """
    from .live.protocol import sort_columns_for_stream
    from .parallel.trace_io import TraceColumns

    total = len(columns)
    if total == 0:
        return []
    ordered = sort_columns_for_stream(columns).columns()
    epochs = max(1, min(epochs, total))
    base, extra = divmod(total, epochs)
    chunks, start = [], 0
    for i in range(epochs):
        size = base + (1 if i < extra else 0)
        chunks.append(TraceColumns(*(col[start:start + size]
                                     for col in ordered)))
        start += size
    return chunks


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import time

    from .faults import activate_from_env
    from .fleet import FleetAggregator, parse_parents

    activate_from_env()
    parents = parse_parents(args.parents) if args.parents else None
    aggregator = FleetAggregator(
        host=args.host, port=args.port, node=args.node, parents=parents,
        store=args.store, idle_timeout=args.idle_timeout,
    )
    aggregator.start()
    host, port = aggregator.address
    print(f"repro.fleet: {aggregator.role} node {aggregator.node} "
          f"listening on {host}:{port}", flush=True)
    if parents is not None:
        print(f"repro.fleet: relaying applied snapshots to {args.parents}",
              flush=True)
    if args.store is not None:
        print(f"repro.fleet: persisting applied snapshots to {args.store}",
              flush=True)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive mode
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    finally:
        aggregator.close()
        info = aggregator.info()
        stale = info["staleness"]
        p99 = stale.get("p99")
        stale_note = (f", staleness p99 {p99:.3f}s"
                      if p99 is not None else "")
        print(f"repro.fleet: drained; applied "
              f"{info['epochs_applied_total']} epochs from "
              f"{info['hosts']} hosts "
              f"({info['duplicate_snapshots_total']} duplicates, "
              f"{info['rejected_frames_total']} rejected frames"
              f"{stale_note})", flush=True)
        if info["degraded"]:
            errors = "; ".join(e["error"] for e in info["persist_errors"])
            print(f"repro.fleet: DEGRADED — store persistence failed "
                  f"({errors})", flush=True)
    return 0


def _cmd_fleet_attach(args: argparse.Namespace) -> int:
    from .faults import activate_from_env
    from .fleet import FleetUplink, parse_parents
    from .live import EpochLedger
    from .live.stream import DiskStream

    activate_from_env()
    try:
        columns = _fleet_source_columns(args)
        chunks = _fleet_epoch_chunks(columns, args.epochs)
    except (OSError, ValueError) as exc:
        print(f"fleet attach: {exc}", file=sys.stderr)
        return 1
    uplink = FleetUplink(parse_parents(args.parents), host=args.host_id,
                         jitter_seed=args.jitter_seed)
    stream = DiskStream()
    ledger = EpochLedger()
    key = (args.vm, args.vdisk)
    uplink.start()
    try:
        for chunk in chunks:
            stream.ingest(chunk)
            collector = stream.seal()
            if collector is None:
                continue
            epoch = ledger.seal([(key, collector)])
            uplink.on_seal(epoch)
        drained = uplink.drain(timeout=args.timeout)
    finally:
        uplink.close()
        info = uplink.info()
        print(f"repro.fleet: host {uplink.host} forwarded "
              f"{info['forwarded_total']}/{len(ledger)} epochs "
              f"({len(columns)} records) to {args.parents} "
              f"({info['retries_total']} retries, "
              f"{info['reconnects_total']} reconnects, "
              f"{info['reparents_total']} re-parents)", flush=True)
    if not drained or info["pending"]:
        print(f"fleet attach: {info['pending']} snapshots unsent after "
              f"{args.timeout:.0f}s", file=sys.stderr)
        return 1
    return 0


def _fleet_query(address: str, op, timeout: float):
    from .fleet import fleet_rpc

    return fleet_rpc(_fleet_address(address), op, timeout=timeout)


def _cmd_fleet_topk(args: argparse.Namespace) -> int:
    from .live import LiveError

    try:
        doc = _fleet_query(args.address,
                           {"op": "topk", "metric": args.metric,
                            "k": args.k}, args.timeout)
    except (LiveError, ValueError, OSError) as exc:
        print(f"fleet topk: {exc}", file=sys.stderr)
        return 1
    print(f"top {len(doc['top'])} of {doc['disks']} disks "
          f"by {doc['metric']}:")
    for rank, row in enumerate(doc["top"], start=1):
        print(f"  {rank:2d}. {row['vm']}/{row['vdisk']}  "
              f"{row['value']:g}")
    return 0


def _cmd_fleet_percentile(args: argparse.Namespace) -> int:
    from .live import LiveError

    try:
        doc = _fleet_query(args.address,
                           {"op": "percentile", "family": args.family,
                            "q": args.q, "io": args.io}, args.timeout)
    except (LiveError, ValueError, OSError) as exc:
        print(f"fleet percentile: {exc}", file=sys.stderr)
        return 1
    estimate = doc["estimate"]
    shown = "overflow" if estimate is None else f"<= {estimate:g}"
    unit = f" {doc['unit']}" if doc.get("unit") else ""
    print(f"fleet p{doc['q'] * 100:g} {doc['family']}.{doc['op']}: "
          f"{shown}{unit} ({doc['count']} samples)")
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json

    from .live import LiveError

    op = {"op": "metrics"} if args.metrics else {"op": "status"}
    try:
        doc = _fleet_query(args.address, op, args.timeout)
    except (LiveError, ValueError, OSError) as exc:
        print(f"fleet status: {exc}", file=sys.stderr)
        return 1
    if args.metrics:
        print(doc, end="")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    handlers = {"serve": _cmd_fleet_serve, "attach": _cmd_fleet_attach,
                "topk": _cmd_fleet_topk,
                "percentile": _cmd_fleet_percentile,
                "status": _cmd_fleet_status}
    return handlers[args.fleet_command](args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vscsistats",
        description="Reproduction of the IISWC 2007 vSCSI workload "
        "characterization paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible artifacts")

    run_parser = subparsers.add_parser(
        "run", help="run one experiment (or --all)"
    )
    run_parser.add_argument(
        "experiment", nargs="?", default=None,
        choices=[e.exp_id for e in EXPERIMENTS],
    )
    run_parser.add_argument(
        "--all", action="store_true",
        help="run every experiment in the registry",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="with --all: fan experiments out over N worker processes",
    )
    run_parser.add_argument(
        "--quick", action="store_true",
        help="scaled-down parameters (seconds instead of minutes)",
    )
    run_parser.add_argument(
        "--output", choices=["text", "json"], default="text",
        help="print rendered panels (text) or a JSON document (json)",
    )
    run_parser.add_argument(
        "--export", metavar="FILE", default=None,
        help="write the result's histograms to FILE as JSON",
    )

    subparsers.add_parser("demo", help="30-second live demo")

    serve_parser = subparsers.add_parser(
        "serve", help="run the live characterization daemon"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=7077,
        help="TCP port (0 picks a free port and prints it)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="ingest worker processes sharing the port via SO_REUSEPORT "
        "(N > 1 runs the multi-process cluster; 1 runs the classic "
        "single-process daemon)",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shard worker threads (disks hash to shards; per worker "
        "process in cluster mode)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="bounded per-shard queue depth",
    )
    serve_parser.add_argument(
        "--backpressure", choices=["block", "drop"], default="block",
        help="full-queue policy: stall the sender or shed the frame",
    )
    serve_parser.add_argument(
        "--idle-timeout", type=float, default=60.0, metavar="SECONDS",
        help="disconnect clients silent for this long",
    )
    serve_parser.add_argument(
        "--rotate-every", type=float, default=None, metavar="SECONDS",
        help="seal an epoch automatically on this wall-clock period",
    )
    serve_parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for a fixed time then drain and exit "
        "(default: run until interrupted)",
    )
    serve_parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="persist every sealed epoch to a durable histogram store "
        "at DIR (created if missing)",
    )
    serve_parser.add_argument(
        "--uplink", metavar="HOST:PORT[,HOST:PORT...]", default=None,
        help="forward every sealed epoch snapshot to these fleet "
        "aggregator parents (first is primary, rest are failovers)",
    )
    serve_parser.add_argument(
        "--host-id", default=None, metavar="NAME",
        help="host identity stamped on forwarded snapshots "
        "(default: the machine hostname)",
    )

    publish_parser = subparsers.add_parser(
        "publish", help="stream a trace source to a running daemon"
    )
    publish_parser.add_argument(
        "source",
        help="a VSCSITR1 trace file, a sharded trace directory, 'demo' "
        "to synthesize a short simulated workload, or "
        "'pattern:<name>[@seed]' to drive a named LBA-pattern preset "
        "(seq-read-64k, zipf-write-4k, ...)",
    )
    publish_parser.add_argument("--host", default="127.0.0.1")
    publish_parser.add_argument("--port", type=int, default=7077)
    publish_parser.add_argument(
        "--vm", default=None, help="VM label for single-file sources"
    )
    publish_parser.add_argument(
        "--vdisk", default=None,
        help="virtual disk label for single-file sources",
    )
    publish_parser.add_argument(
        "--frame-records", type=int, default=None, metavar="N",
        help="records per data frame",
    )
    publish_parser.add_argument(
        "--demo-seconds", type=float, default=2.0, metavar="SECONDS",
        help="simulated duration for the 'demo' source",
    )
    publish_parser.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="socket timeout",
    )
    publish_parser.add_argument(
        "--retries", type=int, default=4, metavar="N",
        help="data-frame retry budget on connection failures "
             "(retried frames are deduplicated server-side; 0 disables)",
    )
    publish_parser.add_argument(
        "--rotate", action="store_true",
        help="seal an epoch after publishing",
    )
    publish_parser.add_argument(
        "--metrics", action="store_true",
        help="print the OpenMetrics exposition afterwards",
    )

    watch_parser = subparsers.add_parser(
        "watch",
        help="tail rolling workload verdicts and drift events",
    )
    watch_parser.add_argument(
        "target", metavar="HOST:PORT|STORE_DIR",
        help="a running daemon's address, or a histogram store "
        "directory to replay and tail",
    )
    watch_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll period",
    )
    watch_parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="watch this long, then print a summary and exit "
        "(default: run until interrupted)",
    )
    watch_parser.add_argument(
        "--once", action="store_true",
        help="process everything currently visible, then exit",
    )
    watch_parser.add_argument(
        "--json", action="store_true",
        help="print verdicts as JSON lines instead of the rolling text",
    )
    watch_parser.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="daemon mode: socket timeout",
    )
    watch_parser.add_argument(
        "--threshold", type=float, default=0.35,
        help="store mode: TV-distance drift threshold",
    )
    watch_parser.add_argument(
        "--hysteresis", type=int, default=3, metavar="K",
        help="store mode: consecutive drifting epochs to fire an event",
    )
    watch_parser.add_argument(
        "--min-commands", type=int, default=100, metavar="N",
        help="store mode: epochs with fewer commands count as idle",
    )

    store_parser = subparsers.add_parser(
        "store", help="operate on a durable histogram store"
    )
    store_sub = store_parser.add_subparsers(dest="store_command",
                                            required=True)

    store_query = store_sub.add_parser(
        "query", help="merge the epochs overlapping a time range"
    )
    store_query.add_argument("directory", help="store directory")
    store_query.add_argument(
        "--start", type=float, default=None, metavar="UNIX_SECONDS",
        help="range start (default: earliest stored)",
    )
    store_query.add_argument(
        "--end", type=float, default=None, metavar="UNIX_SECONDS",
        help="range end, inclusive (default: latest stored)",
    )
    store_query.add_argument("--vm", default=None,
                             help="restrict to one VM")
    store_query.add_argument("--vdisk", default=None,
                             help="restrict to one virtual disk")
    store_query.add_argument(
        "--output", choices=["json", "openmetrics"], default="json",
        help="document format",
    )
    store_query.add_argument(
        "--export", metavar="FILE", default=None,
        help="write the document to FILE (atomic) instead of stdout",
    )

    store_compact = store_sub.add_parser(
        "compact", help="fold epochs into coarser tiers"
    )
    store_compact.add_argument("directory", help="store directory")
    store_compact.add_argument(
        "--retain-before", type=float, default=None,
        metavar="UNIX_SECONDS",
        help="drop records wholly before this time during the rewrite",
    )
    store_compact.add_argument(
        "--retire-before", type=float, default=None,
        metavar="UNIX_SECONDS",
        help="first unlink whole segments older than this time "
        "(whole-segment granularity; --retain-before drops exact "
        "records during the rewrite)",
    )

    store_inspect = store_sub.add_parser(
        "inspect", help="print segments, spans and WAL state"
    )
    store_inspect.add_argument("directory", help="store directory")

    fleet_parser = subparsers.add_parser(
        "fleet", help="hierarchical fleet-wide snapshot aggregation"
    )
    fleet_sub = fleet_parser.add_subparsers(dest="fleet_command",
                                            required=True)

    fleet_serve = fleet_sub.add_parser(
        "serve", help="run an aggregator node (root or regional)"
    )
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument(
        "--port", type=int, default=7401,
        help="TCP port (0 picks a free port and prints it)",
    )
    fleet_serve.add_argument(
        "--node", default=None, metavar="NAME",
        help="node name shown in status documents",
    )
    fleet_serve.add_argument(
        "--parents", metavar="HOST:PORT[,HOST:PORT...]", default=None,
        help="relay applied snapshots upward to these parents "
        "(omit to run as the root)",
    )
    fleet_serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="persist every applied snapshot to a durable histogram "
        "store at DIR (root nodes typically set this)",
    )
    fleet_serve.add_argument(
        "--idle-timeout", type=float, default=60.0, metavar="SECONDS",
        help="disconnect children silent for this long",
    )
    fleet_serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for a fixed time then drain and exit "
        "(default: run until interrupted)",
    )

    fleet_attach = fleet_sub.add_parser(
        "attach",
        help="publish a source as one leaf host's epoch snapshots",
    )
    fleet_attach.add_argument(
        "parents", metavar="HOST:PORT[,HOST:PORT...]",
        help="aggregator parents (first is primary, rest failovers)",
    )
    fleet_attach.add_argument(
        "source",
        help="a VSCSITR1 trace file or 'demo' to synthesize a workload",
    )
    fleet_attach.add_argument(
        "--host-id", default=None, metavar="NAME",
        help="host identity stamped on snapshots (default: generated)",
    )
    fleet_attach.add_argument("--vm", default="live-demo")
    fleet_attach.add_argument("--vdisk", default="scsi0:0")
    fleet_attach.add_argument(
        "--epochs", type=int, default=4, metavar="N",
        help="split the source into N contiguous epoch snapshots",
    )
    fleet_attach.add_argument(
        "--demo-seconds", type=float, default=2.0, metavar="SECONDS",
        help="simulated duration for the 'demo' source",
    )
    fleet_attach.add_argument(
        "--jitter-seed", type=int, default=None, metavar="SEED",
        help="seed the retry-backoff jitter (reproducible schedules)",
    )
    fleet_attach.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for every snapshot to be acked",
    )

    fleet_topk = fleet_sub.add_parser(
        "topk", help="fleet-wide hottest disks by a metric"
    )
    fleet_topk.add_argument("address", metavar="HOST:PORT",
                            help="any aggregator node")
    fleet_topk.add_argument(
        "--metric", default="commands",
        help="a scalar (commands, bytes, ...) or "
        "<family>[.<op>][.<stat>] spec, e.g. latency_us.read.mean",
    )
    fleet_topk.add_argument("--k", type=int, default=10)
    fleet_topk.add_argument("--timeout", type=float, default=30.0)

    fleet_pct = fleet_sub.add_parser(
        "percentile", help="fleet-wide percentile from merged bins"
    )
    fleet_pct.add_argument("address", metavar="HOST:PORT")
    fleet_pct.add_argument("--family", default="latency_us")
    fleet_pct.add_argument("--q", type=float, default=0.99)
    fleet_pct.add_argument("--io", choices=["read", "write", "all"],
                           default="all")
    fleet_pct.add_argument("--timeout", type=float, default=30.0)

    fleet_status = fleet_sub.add_parser(
        "status", help="print a node's status document"
    )
    fleet_status.add_argument("address", metavar="HOST:PORT")
    fleet_status.add_argument(
        "--metrics", action="store_true",
        help="print the OpenMetrics exposition instead",
    )
    fleet_status.add_argument("--timeout", type=float, default=30.0)

    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "demo": _cmd_demo,
                "serve": _cmd_serve, "publish": _cmd_publish,
                "watch": _cmd_watch, "store": _cmd_store,
                "fleet": _cmd_fleet}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
