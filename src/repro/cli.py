"""Command-line interface: ``python -m repro <command>``.

A small operational surface over the library so the reproduction can be
driven without writing Python:

============  ========================================================
command       does
============  ========================================================
load          generate TPC-D data into a catalog directory (+ Q1 SMAs)
define        build SMAs from a ``define sma`` script (file or inline)
query         run one SELECT against a catalog, print rows + both clocks
explain       plan one SELECT without running it, print the full plan
              (against a sharded root: the routing + per-shard plans)
trace         run one SELECT with tracing on, print the span tree
info          list tables, SMA sets and sizes of a catalog
bench         run the paper experiments (all, or a subset)
serve         replay a concurrent workload through the query service;
              with ``--shards N`` scatter-gather across worker processes
shard-init    partition a catalog into N shard catalogs + manifest
shard-worker  serve one shard catalog over a local socket
verify        check page checksums + SMA contents; --repair rebuilds SMAs
============  ========================================================

Examples::

    python -m repro load --db ./db --sf 0.01 --clustering sorted
    python -m repro query --db ./db "SELECT COUNT(*) AS n FROM LINEITEM \
        WHERE L_SHIPDATE <= DATE '1998-09-02'"
    python -m repro explain --db ./db "SELECT COUNT(*) AS n FROM LINEITEM \
        WHERE L_SHIPDATE <= DATE '1998-09-02'"
    python -m repro define --db ./db --set bounds \
        --sql "define sma lo select min(L_SHIPDATE) from LINEITEM"
    python -m repro bench --only E4,F5
    python -m repro serve --db ./db --workers 4 --clients 8 --report
    python -m repro verify --db ./db --repair
    python -m repro serve --db ./db --faults "transient:path=.heap,p=0.05"
    python -m repro shard-init --db ./db --out ./db-sharded --shards 4
    python -m repro serve --db ./db-sharded --shards 4 --clients 16 --report
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.query.session import Session
from repro.storage.catalog import Catalog
from repro.textfmt import human_bytes, human_seconds


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1: a bad value is
    a usage error, not a traceback from the engine's own check."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type for a scale, rate or duration that must exceed 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _open_catalog(path: str, buffer_pages: int) -> Catalog:
    return Catalog.discover(path, buffer_pages=buffer_pages)


def _open_session(args: argparse.Namespace, **kwargs) -> tuple[Catalog, Session]:
    """The catalog at ``--db`` and a session with the ``--scan-*`` knobs."""
    catalog = _open_catalog(args.db, args.buffer_pages)
    return catalog, Session(catalog, scan_workers=args.scan_workers,
                            scan_backend=args.scan_backend, **kwargs)


@contextlib.contextmanager
def _event_log(path: str | None):
    """An :class:`EventLog` writing JSONL to *path*, flushed and closed on
    exit; None when no path was given."""
    if not path:
        yield None
        return
    from repro.obs import EventLog

    with contextlib.closing(EventLog(path)) as log:
        yield log


def cmd_load(args: argparse.Namespace) -> int:
    from repro.tpcd.loader import load_lineitem, load_tpcd

    catalog = _open_catalog(args.db, args.buffer_pages)
    if catalog.has_table("LINEITEM"):
        print("error: catalog already contains LINEITEM", file=sys.stderr)
        return 1
    if args.tables:
        names = tuple(t.strip().upper() for t in args.tables.split(","))
        loaded = load_tpcd(
            catalog, scale_factor=args.sf, tables=names,
            clustering=args.clustering, seed=args.seed,
        )
        for name, table in loaded.items():
            print(f"loaded {name}: {table.num_records} tuples, "
                  f"{table.num_buckets} buckets")
    else:
        loaded = load_lineitem(
            catalog, scale_factor=args.sf, clustering=args.clustering,
            seed=args.seed, build_smas=not args.no_smas,
        )
        print(f"loaded LINEITEM: {loaded.table.num_records} tuples, "
              f"{loaded.table.num_buckets} buckets, "
              f"{human_bytes(loaded.table.size_bytes)}")
        if loaded.sma_set is not None:
            print(f"built SMA set 'q1': {loaded.sma_set.num_files} files, "
                  f"{human_bytes(loaded.sma_set.total_bytes)} "
                  f"({loaded.sma_set.total_bytes / loaded.table.size_bytes:.1%} "
                  f"of the relation)")
    catalog.close()
    return 0


def cmd_define(args: argparse.Namespace) -> int:
    if bool(args.sql) == bool(args.file):
        print("error: pass exactly one of --sql or --file", file=sys.stderr)
        return 1
    script = args.sql
    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            script = f.read()
    catalog = _open_catalog(args.db, args.buffer_pages)
    session = Session(catalog)
    sma_set, reports = session.define_smas(script, set_name=args.set)
    for report in reports:
        print(f"built sma {report.definition_name}: {report.num_files} "
              f"file(s), {report.pages} page(s), "
              f"{human_seconds(report.wall_seconds)} wall")
    print(f"set {sma_set.name!r}: {sma_set.num_files} SMA-files, "
          f"{human_bytes(sma_set.total_bytes)}")
    catalog.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    catalog, session = _open_session(args)
    result = session.sql(args.sql, mode=args.mode, cold=args.cold)
    print(result)
    print()
    print(result.plan)
    print(f"stats: {result.stats.page_reads} page reads "
          f"({result.stats.sequential_page_reads} seq / "
          f"{result.stats.skip_page_reads} skip / "
          f"{result.stats.random_page_reads} rnd), "
          f"{result.stats.buffer_hits} hits, "
          f"{result.stats.tuples_scanned} tuples scanned, "
          f"{result.stats.sma_entries_read} SMA entries")
    catalog.close()
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.errors import ParseError
    from repro.query.query import AggregateQuery, ExplainQuery, ScanQuery
    from repro.sql.parser import parse_statement

    try:
        statement = parse_statement(args.sql)
    except ParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if isinstance(statement, ExplainQuery):  # "EXPLAIN SELECT ..." also works
        statement = statement.query
    if not isinstance(statement, (AggregateQuery, ScanQuery)):
        print("error: explain takes a SELECT statement", file=sys.stderr)
        return 1
    from repro.shard.manifest import ShardManifest

    if ShardManifest.exists(args.db):
        from repro.shard.explain import render_routing

        print(render_routing(
            args.db, statement, mode=args.mode, sma_set=args.sma_set,
            scan_workers=args.scan_workers, buffer_pages=args.buffer_pages,
        ))
        return 0
    catalog, session = _open_session(args)
    explanation = session.explain(
        statement, mode=args.mode, sma_set=args.sma_set
    )
    print(explanation.render())
    catalog.close()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, render_span_tree

    if args.distributed:
        return _trace_distributed(args)
    tracer = Tracer()
    catalog, session = _open_session(args, tracer=tracer)
    result = session.sql(
        args.sql, mode=args.mode, sma_set=args.sma_set, cold=args.cold
    )
    root = tracer.last_trace()
    if root is None:
        print("error: no trace captured", file=sys.stderr)
        catalog.close()
        return 1
    print(render_span_tree(root))
    print()
    print(f"rows: {len(result.rows)}; "
          f"wall {human_seconds(result.wall_seconds)}; "
          f"simulated {human_seconds(result.simulated_seconds)}; "
          f"strategy {result.plan.strategy}")
    # Acceptance check: io-carrying leaf spans never nest and cover every
    # charge site, so their deltas must sum exactly to the query totals.
    leaf = root.io_total()
    total = result.stats
    exact = (
        leaf.page_reads == total.page_reads
        and leaf.buffer_hits == total.buffer_hits
        and leaf.tuples_scanned == total.tuples_scanned
        and leaf.buckets_skipped == total.buckets_skipped
    )
    print(f"io reconciliation: leaf spans {leaf.page_reads} reads / "
          f"{leaf.buffer_hits} hits / {leaf.tuples_scanned} tuples / "
          f"{leaf.buckets_skipped} skipped buckets; query totals "
          f"{total.page_reads} / {total.buffer_hits} / "
          f"{total.tuples_scanned} / {total.buckets_skipped} "
          f"-> {'exact' if exact else 'MISMATCH'}")
    catalog.close()
    return 0 if exact else 1


def _trace_distributed(args: argparse.Namespace) -> int:
    """``repro trace --distributed``: one merged tree across router +
    shard workers (+ scan-pool processes), reconciled byte-exactly.

    Launches one worker subprocess per shard of the sharded root, routes
    the query through a traced :class:`~repro.shard.router.ShardRouter`,
    prints the merged span tree and the per-counter reconciliation of
    remote leaf-span I/O against router-side query totals, and emits the
    per-query resource ledger.  Exits non-zero unless every counter
    matches exactly.
    """
    import json

    from repro.obs import Tracer, render_span_tree
    from repro.obs.collect import build_ledger, reconcile
    from repro.shard.manifest import ShardManifest
    from repro.shard.router import (
        ShardRouter,
        launch_local_shards,
        stop_local_shards,
    )

    if not ShardManifest.exists(args.db):
        print(f"error: {args.db} is not a sharded root; "
              f"run `repro shard-init` first (or drop --distributed)",
              file=sys.stderr)
        return 1
    manifest = ShardManifest.load(args.db)
    tracer = Tracer()
    processes = launch_local_shards(
        args.db,
        manifest=manifest,
        scan_workers=args.scan_workers,
        scan_backend=args.scan_backend,
        buffer_pages=args.buffer_pages,
    )
    # The router emits the query_ledger + trace events itself; leaving
    # the block flushes them.
    try:
        with _event_log(args.events) as events, ShardRouter(
            [handle.endpoint for handle in processes],
            manifest=manifest,
            tracer=tracer,
            events=events,
        ) as router:
            result = router.execute(
                args.sql, mode=args.mode, sma_set=args.sma_set
            )
    finally:
        stop_local_shards(processes)
    root = tracer.last_trace()
    if root is None:
        print("error: no trace captured", file=sys.stderr)
        return 1
    print(render_span_tree(root))
    print()
    print(f"rows: {len(result.rows)}; "
          f"wall {human_seconds(result.wall_seconds)}; "
          f"strategy {result.plan.strategy}; "
          f"shards {manifest.num_shards}; "
          f"scan backend {args.scan_backend}")
    report = reconcile(root, result.stats)
    print(report.render())
    ledger = build_ledger(root)
    print(f"ledger: fan_out={ledger['fan_out']} "
          f"queue_wait={human_seconds(ledger['queue_wait_s'])} "
          f"spans={ledger['spans']}")
    for table, io in ledger["tables"].items():
        print(f"  {table}: {io['page_reads']} reads "
              f"({io['sma_page_reads']} sma / {io['heap_page_reads']} heap), "
              f"{io['buffer_hits']} hits, {io['tuples_scanned']} tuples")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "trace": root.to_dict(),
                    "ledger": ledger,
                    "reconciliation": report.as_dict(),
                },
                handle,
                indent=2,
                sort_keys=True,
            )
        print(f"merged trace -> {args.json_out}")
    return 0 if report.exact else 1


def cmd_info(args: argparse.Namespace) -> int:
    catalog = _open_catalog(args.db, args.buffer_pages)
    for table in catalog.tables():
        print(f"table {table.name}: {table.num_records} tuples, "
              f"{table.num_buckets} buckets, {human_bytes(table.size_bytes)}"
              + (f", clustered on {table.clustered_on}"
                 if table.clustered_on else ""))
        for sma_set in catalog.sma_sets(table.name):
            print(f"  sma set {sma_set.name!r}: "
                  f"{len(sma_set.definitions)} definitions, "
                  f"{sma_set.num_files} files, "
                  f"{human_bytes(sma_set.total_bytes)}")
            for definition in sma_set.definitions.values():
                print(f"    {definition}")
    catalog.close()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.verify import verify_catalog

    with _open_catalog(args.db, args.buffer_pages) as catalog, \
            _event_log(args.events) as events:
        report = verify_catalog(catalog, repair=args.repair, events=events)
    print(report.render())
    return 0 if report.ok else 1


def _build_injector(args: argparse.Namespace):
    """A FaultInjector from --faults/--fault-seed, or None."""
    if not args.faults:
        return None
    from repro.storage.faults import FaultInjector, parse_fault_specs

    specs = parse_fault_specs(args.faults)
    return FaultInjector(seed=args.fault_seed, specs=specs)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS

    wanted = list(ALL_EXPERIMENTS)
    if args.only:
        wanted = [piece.strip().upper() for piece in args.only.split(",")]
        unknown = [exp_id for exp_id in wanted if exp_id not in ALL_EXPERIMENTS]
        if unknown:
            print(f"error: no experiment matches {', '.join(unknown)}; "
                  f"ids: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 1
    renderings: list[str] = []
    for exp_id, experiment in ALL_EXPERIMENTS.items():
        if exp_id not in wanted:
            continue
        rendered = experiment().render()
        renderings.append(rendered)
        print()
        print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n\n".join(renderings) + "\n")
        print(f"\nwrote {len(renderings)} experiment table(s) to {args.out}")
    return 0


def cmd_shard_init(args: argparse.Namespace) -> int:
    from repro.shard.partitioner import shard_init

    manifest = shard_init(
        args.db, args.out, args.shards, buffer_pages=args.buffer_pages
    )
    print(f"sharded {args.db} -> {args.out}: {manifest.num_shards} shards")
    for table, spans in sorted(manifest.tables.items()):
        ranges = ", ".join(f"[{lo}, {hi})" for lo, hi in spans)
        print(f"  {table}: {ranges}")
    return 0


def cmd_shard_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.shard.worker import ShardWorker, run_worker_forever

    with _event_log(args.events) as events:
        worker = ShardWorker(
            args.shard_id,
            args.db,
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue,
            scan_workers=args.scan_workers,
            scan_backend=args.scan_backend,
            buffer_pages=args.buffer_pages,
            fault_injector=_build_injector(args),
            events=events,
        )
        # Graceful drain on SIGTERM (how launch_local_shards stops
        # workers): close() finishes in-flight queries; leaving the
        # block flushes the event log.
        signal.signal(signal.SIGTERM, lambda _sig, _frm: worker.close())
        run_worker_forever(worker)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Replay the default mix through one serving tier — a
    :class:`QueryService` over ``--db``, or with ``--shards`` a
    :class:`ShardRouter` over local worker processes: build the tier →
    optional metrics endpoint → workload → linger → snapshot → close."""
    import time

    from repro.obs import MetricsServer, Tracer
    from repro.server import (
        QueryService,
        WorkloadDriver,
        default_mix,
        render_metrics,
        render_workload,
    )

    if args.shards:
        # Shard workers have no slow-query setting; their fault
        # injectors are in other processes. Refuse, don't drop.
        refused = [flag for flag, given in (
            ("--slow-ms", args.slow_ms is not None),
            ("--fault-events", args.fault_events),
        ) if given]
        if refused:
            print(f"error: {', '.join(refused)} cannot be combined with "
                  f"--shards (the sharded tier has no such setting)",
                  file=sys.stderr)
            return 1
    injector = None
    with contextlib.ExitStack() as stack:
        event_log = stack.enter_context(_event_log(args.trace_file))
        common = dict(
            workers=args.workers,
            queue_depth=args.queue,
            default_timeout_s=args.timeout,
            tracer=Tracer() if event_log is not None else None,
            events=event_log,
            result_cache=args.result_cache,
            cache_entries=args.cache_entries,
        )
        if args.shards:
            from repro.shard import ShardManifest, ShardRouter, launch_local_shards
            from repro.shard.router import stop_local_shards

            manifest = ShardManifest.load(args.db)
            if args.shards != manifest.num_shards:
                print(f"error: sharded root {args.db} holds "
                      f"{manifest.num_shards} shard(s), not {args.shards}; "
                      f"re-run `repro shard-init`", file=sys.stderr)
                return 1
            processes = launch_local_shards(
                args.db,
                manifest=manifest,
                workers=args.workers,
                scan_workers=args.scan_workers,
                scan_backend=args.scan_backend,
                queue_depth=args.queue,
                buffer_pages=args.buffer_pages,
                events_dir=args.shard_events,
                faults=args.faults,
                fault_seed=args.fault_seed,
            )
            stack.callback(stop_local_shards, processes)
            tier = stack.enter_context(ShardRouter(
                [handle.endpoint for handle in processes],
                manifest=manifest, **common,
            ))
            for shard_id, info in sorted(tier.health().items()):
                state = "up" if info.get("up") else f"DOWN ({info.get('error')})"
                print(f"shard {shard_id}: {state}")
        else:
            catalog = stack.enter_context(
                _open_catalog(args.db, args.buffer_pages)
            )
            if not catalog.has_table("LINEITEM"):
                print("error: catalog has no LINEITEM table; run `repro load` "
                      "first", file=sys.stderr)
                return 1
            injector = _build_injector(args)
            if injector is not None:
                catalog.install_fault_injector(injector)
                if event_log is not None:
                    catalog.pool.on_retry = (
                        lambda file_id, page_no, attempt, exc: event_log.emit(
                            "read_retry",
                            file=str(file_id),
                            page=page_no,
                            attempt=attempt,
                            error=type(exc).__name__,
                        )
                    )
            tier = stack.enter_context(QueryService(
                catalog,
                scan_workers=args.scan_workers,
                scan_backend=args.scan_backend,
                slow_query_s=args.slow_ms / 1000.0 if args.slow_ms else None,
                **common,
            ))
        if args.metrics_port is not None:
            server = stack.enter_context(
                MetricsServer(tier.observed_snapshot, port=args.metrics_port)
            )
            print(f"metrics: {server.url}/metrics  (also /healthz, /snapshot)")
        driver = WorkloadDriver(tier, default_mix())
        if args.rate:
            result = driver.run_open_loop(rate_qps=args.rate, total=args.queries)
        else:
            result = driver.run_closed_loop(
                clients=args.clients,
                queries_per_client=max(1, args.queries // args.clients),
            )
        if args.metrics_port is not None and args.linger:
            print(f"lingering {args.linger:g}s so the metrics endpoint stays "
                  f"scrapeable ...")
            time.sleep(args.linger)
        # observed_snapshot, not metrics.snapshot: the tier's own sections
        # (result cache, shard scoreboard) belong in --report.
        snapshot = tier.observed_snapshot()
    if event_log is not None:
        stats = event_log.stats()
        print(f"trace events: {stats['written']} written "
              f"({stats['dropped']} dropped) -> {args.trace_file}")
    print(render_workload(result))
    if args.shards:
        fanout = snapshot["shard"]["fanout"]
        print(f"fan-out: {fanout['scatter_queries']} scattered, "
              f"{fanout['subqueries_sent']} subqueries, "
              f"{fanout['gather_merges']} partial-state merges")
    if args.report:
        print()
        print(render_metrics(snapshot))
    if injector is not None:
        print(f"faults: {injector.fired_count()} injected "
              f"({injector.describe()})")
        if args.fault_events:
            injector.write_jsonl(args.fault_events)
            print(f"fault events -> {args.fault_events}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Small Materialized Aggregates (VLDB 1998) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups: a flag several subcommands carry is declared once,
    # so its spelling, type, choices and help cannot drift between them.

    def add_db(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", required=True, help="catalog directory")
        p.add_argument("--buffer-pages", type=positive_int, default=2048)

    def add_scan(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scan-workers", type=positive_int, default=1,
                       help="morsel-scan threads per running query "
                       "(default 1: serial scans)")
        p.add_argument("--scan-backend", choices=("thread", "process"),
                       default="thread",
                       help="where morsels run: in-process threads or a "
                       "persistent worker-process pool (default thread)")

    def add_plan(p: argparse.ArgumentParser, *, sma_set: bool = True) -> None:
        p.add_argument("--mode", choices=("auto", "sma", "scan"), default="auto")
        if sma_set:
            p.add_argument("--sma-set", default=None,
                           help="restrict the planner to one SMA set")

    def add_pool(p: argparse.ArgumentParser, *, workers: int) -> None:
        p.add_argument("--workers", type=positive_int, default=workers,
                       help=f"query worker threads (default {workers})")
        p.add_argument("--queue", type=positive_int, default=32,
                       help="admission queue depth (default 32)")

    def add_events(p: argparse.ArgumentParser, what: str) -> None:
        p.add_argument("--events", help=f"write {what} as JSONL to this file")

    def add_faults(p: argparse.ArgumentParser) -> None:
        p.add_argument("--faults",
                       help="semicolon-separated fault specs injected into "
                       "the buffer pool, e.g. "
                       "'transient:path=.heap,p=0.05;bit_flip:path=.sma,"
                       "count=1' (kinds: transient, short_read, latency, "
                       "bit_flip, torn_write)")
        p.add_argument("--fault-seed", type=int, default=0,
                       help="deterministic fault schedule seed (default 0)")
        p.add_argument("--fault-events",
                       help="write every injected fault as JSONL to this file")

    p_load = sub.add_parser("load", help="generate and load TPC-D data")
    add_db(p_load)
    p_load.add_argument("--sf", type=positive_float, default=0.01, help="scale factor")
    p_load.add_argument(
        "--clustering", choices=("sorted", "toc", "uniform"), default="sorted"
    )
    p_load.add_argument("--seed", type=int, default=42)
    p_load.add_argument("--tables", help="comma-separated table list "
                        "(default: LINEITEM with Q1 SMAs)")
    p_load.add_argument("--no-smas", action="store_true")
    p_load.set_defaults(func=cmd_load)

    p_define = sub.add_parser("define", help="build SMAs from a script")
    add_db(p_define)
    p_define.add_argument("--set", default="default", help="SMA set name")
    p_define.add_argument("--sql", help="inline define sma script")
    p_define.add_argument("--file", help="path to a define sma script")
    p_define.set_defaults(func=cmd_define)

    p_query = sub.add_parser(
        "query", help="run one SQL statement (SELECT or INSERT/UPDATE/DELETE)"
    )
    add_db(p_query)
    p_query.add_argument("sql", help="SQL statement")
    add_plan(p_query, sma_set=False)
    p_query.add_argument("--cold", action="store_true")
    add_scan(p_query)
    p_query.set_defaults(func=cmd_query)

    p_explain = sub.add_parser(
        "explain", help="plan one SELECT without running it"
    )
    add_db(p_explain)
    p_explain.add_argument("sql", help="SELECT statement (an EXPLAIN prefix "
                           "is accepted and ignored)")
    add_plan(p_explain)
    add_scan(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_trace = sub.add_parser(
        "trace", help="run one SELECT with tracing on, print the span tree"
    )
    add_db(p_trace)
    p_trace.add_argument("sql", help="SELECT statement")
    add_plan(p_trace)
    p_trace.add_argument("--cold", action="store_true")
    add_scan(p_trace)
    p_trace.add_argument("--distributed", action="store_true",
                         help="treat --db as a sharded root: launch its "
                         "shard workers, route the query, merge the remote "
                         "span trees into one tree and reconcile remote "
                         "leaf-span I/O against router-side totals")
    p_trace.add_argument("--json-out",
                         help="with --distributed: write the merged trace, "
                         "ledger and reconciliation report as JSON here")
    add_events(p_trace, "(with --distributed) the router's events, incl. "
               "query_ledger and trace records,")
    p_trace.set_defaults(func=cmd_trace)

    p_info = sub.add_parser("info", help="describe a catalog")
    add_db(p_info)
    p_info.set_defaults(func=cmd_info)

    p_bench = sub.add_parser("bench", help="run the paper experiments")
    p_bench.add_argument("--only", help="comma-separated experiment ids "
                         "(e.g. E4,F5)")
    p_bench.add_argument("--out", help="also write the result tables to a file")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="replay a concurrent workload through the query service"
    )
    add_db(p_serve)
    add_pool(p_serve, workers=4)
    p_serve.add_argument("--clients", type=positive_int, default=8,
                         help="closed-loop client threads (default 8)")
    p_serve.add_argument("--queries", type=positive_int, default=64,
                         help="total queries to replay (default 64)")
    p_serve.add_argument("--rate", type=positive_float, default=None,
                         help="open-loop arrival rate in queries/s "
                         "(default: closed loop)")
    add_scan(p_serve)
    p_serve.add_argument("--result-cache", action="store_true",
                         help="cache finalized results by plan fingerprint "
                         "(invalidated on ingest epoch advance and SMA "
                         "quarantine)")
    p_serve.add_argument("--cache-entries", type=positive_int, default=256,
                         help="result cache capacity in entries (default 256)")
    p_serve.add_argument("--timeout", type=positive_float, default=None,
                         help="per-query timeout in seconds (default: none)")
    p_serve.add_argument("--report", action="store_true",
                         help="print the full metrics report")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="serve /metrics, /healthz and /snapshot on "
                         "this port while the workload runs (0 picks a "
                         "free port)")
    p_serve.add_argument("--trace-file",
                         help="write structured JSONL events (query "
                         "start/finish, span trees, query ledgers, slow "
                         "queries) to this file; with --shards these are "
                         "the router's events and merged span trees")
    p_serve.add_argument("--slow-ms", type=float, default=None,
                         help="log a slow_query event with captured EXPLAIN "
                         "for queries slower than this many milliseconds")
    p_serve.add_argument("--linger", type=float, default=0.0,
                         help="keep the metrics endpoint up this many "
                         "seconds after the workload finishes")
    p_serve.add_argument("--shards", type=positive_int, default=None,
                         help="treat --db as a sharded root (from `repro "
                         "shard-init`): launch this many local shard worker "
                         "processes and scatter-gather through the router; "
                         "the pool, scan and fault options go to every "
                         "worker, --slow-ms and --fault-events are "
                         "refused")
    p_serve.add_argument("--shard-events",
                         help="with --shards: directory for per-shard JSONL "
                         "event logs (shard-<k>.jsonl)")
    add_faults(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_shard_init = sub.add_parser(
        "shard-init",
        help="partition a catalog into N shard catalogs + manifest",
    )
    add_db(p_shard_init)
    p_shard_init.add_argument("--out", required=True,
                              help="sharded root directory to create")
    p_shard_init.add_argument("--shards", type=positive_int, required=True,
                              help="number of shards")
    p_shard_init.set_defaults(func=cmd_shard_init)

    p_shard_worker = sub.add_parser(
        "shard-worker",
        help="serve one shard catalog over a local socket (router backend)",
    )
    add_db(p_shard_worker)
    p_shard_worker.add_argument("--shard-id", type=int, required=True)
    p_shard_worker.add_argument("--host", default="127.0.0.1")
    p_shard_worker.add_argument("--port", type=int, default=0,
                                help="listen port (default 0: pick a free "
                                "port; the bound address is announced on "
                                "stdout)")
    add_pool(p_shard_worker, workers=2)
    add_scan(p_shard_worker)
    add_events(p_shard_worker, "this shard's events")
    add_faults(p_shard_worker)
    p_shard_worker.set_defaults(func=cmd_shard_worker)

    p_verify = sub.add_parser(
        "verify", help="check heap page checksums and SMA contents "
        "against a fresh recompute"
    )
    add_db(p_verify)
    p_verify.add_argument("--repair", action="store_true",
                          help="rebuild damaged SMAs from the heap (a table "
                          "with a damaged heap page is left untouched: heap "
                          "pages are ground truth and cannot be rebuilt)")
    add_events(p_verify, "verify_issue/verify_repair events")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
