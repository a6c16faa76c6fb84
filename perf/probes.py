"""The probe table: which public callables the traced run wraps.

One row per probe: where the callable is looked up at call time, the
layer (a module of this repo) its time is charged to, and its public
dotted name.  A function imported ``from x import f`` at the top of
module ``m`` is looked up in ``m``, so that is where it has to be
wrapped; methods are looked up on their class.

Per-bucket callables are wrapped; the per-SMA-entry ``advance_*``
methods (10^5 calls per query) are not — wrapping them would measure
the wrapper.  The qualifying-bucket fold is read as the self time of
``SmaGAggr.collect_state`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    #: ``module:attribute.path`` — where the callable is looked up and wrapped
    site: str
    layer: str
    #: the callable's public dotted name, when it differs from the site
    public_name: str | None = None
    #: also wrap every subclass that overrides the method
    subclasses: bool = False
    #: on a thread that is serving someone else's operation, tells from
    #: the call's arguments whether it is a read or a write
    classify: Callable[..., str] | None = None

    @property
    def name(self) -> str:
        return self.public_name or self.site.replace(":", ".")


def _is_write_statement(_session, statement, *_args, **_kwargs) -> str:
    if isinstance(statement, str):
        return "write" if statement.lstrip()[:6].upper() == "INSERT" else "read"
    return "write" if type(statement).__name__.endswith("Statement") else "read"


PROBES: tuple[Probe, ...] = (
    # set-up
    Probe("repro.tpcd.loader:generate_tables", "tpcd.dbgen",
          "repro.tpcd.dbgen.generate_tables"),
    Probe("repro.tpcd.loader:physical_order", "tpcd.dbgen",
          "repro.tpcd.distributions.physical_order"),
    Probe("repro.tpcd.loader:load_table", "storage.heapfile"),
    Probe("repro.tpcd.loader:build_sma_set", "core.builder",
          "repro.core.builder.build_sma_set"),
    Probe("perf.workloads:shard_init", "shard.partitioner",
          "repro.shard.partitioner.shard_init"),
    Probe("perf.workloads:launch_local_shards", "shard.router",
          "repro.shard.router.launch_local_shards"),
    # the read path, top down
    Probe("repro.server.service:QueryService.execute", "server.service"),
    Probe("repro.query.session:Session.sql", "query.session",
          classify=_is_write_statement),
    Probe("repro.query.session:Session.execute", "query.session",
          classify=_is_write_statement),
    Probe("repro.query.session:Session.execute_partial", "query.session"),
    Probe("repro.sql.parser:parse_statement", "sql.parser"),
    Probe("repro.query.planner:Planner.plan", "query.planner"),
    Probe("repro.core.sma_set:SmaSet.partition", "core.grade"),
    Probe("repro.core.sma_file:SmaFile.values", "core.sma_file"),
    Probe("repro.core.sma_file:SmaFile.valid_mask", "core.sma_file"),
    Probe("repro.core.sma_file:SmaFile.read_range", "core.sma_file"),
    Probe("repro.query.sma_gaggr:SmaGAggr.collect_state", "query.sma_gaggr"),
    Probe("repro.query.gaggr:GAggr.collect_state", "query.gaggr"),
    Probe("repro.query.iterators:Operator.rows", "query.iterators"),
    Probe("repro.storage.heapfile:HeapFile.read_bucket", "storage.heapfile"),
    Probe("repro.storage.buffer:BufferPool.read_page", "storage.buffer"),
    Probe("repro.lang.predicate:Predicate.evaluate", "lang.predicate",
          subclasses=True),
    Probe("repro.query.aggregation:AggregationState.consume_batch",
          "query.aggregation"),
    Probe("repro.query.aggregation:AggregationState.merge", "query.aggregation"),
    Probe("repro.query.aggregation:AggregationState.finalize", "query.aggregation"),
    # the write path
    Probe("repro.core.ingest:apply_dml", "core.ingest"),
    Probe("repro.core.maintenance:SmaMaintainer.insert", "core.maintenance"),
    Probe("repro.core.ingest:write_intent", "storage.intents",
          "repro.storage.intents.write_intent"),
    Probe("repro.core.ingest:retire_intent", "storage.intents",
          "repro.storage.intents.retire_intent"),
    # the router side of a scatter-gather
    Probe("repro.shard.router:ShardClient.request", "shard.router"),
    Probe("repro.shard.router:recv_message", "shard.protocol",
          "repro.shard.protocol.recv_message"),
    Probe("repro.shard.router:state_from_wire", "shard.state_serde",
          "repro.shard.state_serde.state_from_wire"),
)
