"""Per-operator execution metrics.

Each executed plan node records the tuple counts of its cost-bearing
components.  Metered CPU is the dot product of those counts with the
:class:`~repro.cost.constants.CostConstants` weights — the same model
the optimizer estimates against, evaluated on actual counts.

Flat execution counters (rows copied, morsels pruned, filter builds,
...) are declared once, in :data:`COUNTERS`; every copy of them — the
worker merge, the service record and stats, EXPLAIN ANALYZE — is
generated from or iterates that table.
"""

from __future__ import annotations

import dataclasses

from repro.cost.constants import CostConstants, DEFAULT_COSTS

_COMPONENTS = (
    "scan",
    "build",
    "probe",
    "output",
    "filter_check",
    "filter_insert",
    "aggregate",
    "topk",
)

# Operator classes for the Figure 9 breakdown.
OPERATOR_KIND_LEAF = "leaf"
OPERATOR_KIND_JOIN = "join"
OPERATOR_KIND_OTHER = "other"


@dataclasses.dataclass
class NodeMetrics:
    """Metrics for one plan node."""

    node_id: int
    label: str
    kind: str
    rows_out: int = 0
    components: dict[str, float] = dataclasses.field(
        default_factory=lambda: {name: 0.0 for name in _COMPONENTS}
    )
    # Inclusive wall-clock seconds spent producing this node's output
    # (children included).  Only filled while a tracer is armed — the
    # disarmed path never reads a clock per node.
    wall_seconds: float = 0.0

    def add(self, component: str, count: float) -> None:
        self.components[component] += count

    def cpu(self, constants: CostConstants = DEFAULT_COSTS) -> float:
        return (
            self.components["scan"] * constants.scan
            + self.components["build"] * constants.build
            + self.components["probe"] * constants.probe
            + self.components["output"] * constants.output
            + self.components["filter_check"] * constants.filter_check
            + self.components["filter_insert"] * constants.filter_insert
            + self.components["aggregate"] * constants.aggregate
            + self.components["topk"] * constants.topk
        )


@dataclasses.dataclass(frozen=True)
class Counter:
    """One flat execution counter, declared once in :data:`COUNTERS`.

    ``merge`` is how values combine — across morsel workers
    (:meth:`ExecutionMetrics.merge_counters`) and across queries
    (:meth:`repro.service.metrics.ServiceStats.fold`): ``"sum"`` adds,
    ``"last"`` keeps the newest value (a point-in-time gauge).
    ``stats_name`` is the :class:`~repro.service.metrics.ServiceStats`
    attribute; it defaults to ``total_<name>`` for sums.  Counters in
    seconds (unit ``"s"``) are floats, all others ints.
    """

    name: str
    unit: str
    doc: str
    merge: str = "sum"
    stats_name: str = ""

    def __post_init__(self) -> None:
        if not self.stats_name:
            stats_name = (
                f"total_{self.name}" if self.merge == "sum" else self.name
            )
            object.__setattr__(self, "stats_name", stats_name)

    @property
    def zero(self) -> int | float:
        return 0.0 if self.unit == "s" else 0

    def combine(self, current, value):
        return value if self.merge == "last" else current + value

    def render(self, value) -> str:
        return f"{value:.6f}" if self.unit == "s" else str(value)


# Every flat execution counter.  ExecutionMetrics, ServiceMetrics and
# ServiceStats get one attribute per row, and worker merges, the
# service record, the stats fold and EXPLAIN ANALYZE all iterate this
# table — a new counter is one new row here.
COUNTERS: tuple[Counter, ...] = (
    Counter("filter_cache_hits", "filters",
            "join filters served by the cross-query filter cache",
            stats_name="filter_cache_hits"),
    Counter("filter_cache_misses", "filters",
            "cacheable join filters that had to be built",
            stats_name="filter_cache_misses"),
    Counter("rows_copied", "rows",
            "rows gathered into materialized columns"),
    Counter("bytes_gathered", "B",
            "bytes gathered into materialized columns"),
    Counter("dictionary_hits", "keys",
            "join keys encoded through table-resident dictionaries",
            stats_name="dictionary_hits"),
    Counter("dictionary_misses", "keys",
            "join keys that fell back to joint factorization",
            stats_name="dictionary_misses"),
    Counter("morsels_pruned", "morsels",
            "morsels zone maps proved non-qualifying, skipped unread"),
    Counter("rows_skipped", "rows",
            "rows no kernel evaluated (pruned, short-circuited, band-searched)"),
    Counter("morsels_short_circuited", "morsels",
            "morsels zone maps proved all-qualifying, kept unevaluated"),
    Counter("morsels_band_searched", "morsels",
            "morsels answered by binary search over a sorted column"),
    Counter("selection_bytes", "B",
            "selection state created by row filters"),
    Counter("selection_bytes_dense", "B",
            "int64 positions the same selections would have held"),
    Counter("filter_builds_parallel", "filters",
            "filters built partition-then-merge on the morsel pool"),
    Counter("filter_partials_built", "partials",
            "per-morsel partial filters those builds merged"),
    Counter("filter_build_seconds", "s",
            "wall-clock spent building filters (cache hits excluded)"),
    Counter("filter_bytes_resident", "B",
            "shared filter cache footprint after the query", merge="last"),
)


def counter_values(source) -> dict[str, int | float]:
    """Every declared counter of ``source``, keyed by counter name."""
    return {counter.name: getattr(source, counter.name) for counter in COUNTERS}


def counter_fields(stats: bool = False):
    """Class decorator adding one zero-defaulted attribute per
    :data:`COUNTERS` row (named ``stats_name`` when ``stats``); on a
    dataclass, apply it beneath ``@dataclasses.dataclass`` so each
    becomes a field."""

    def add(cls):
        for counter in COUNTERS:
            name = counter.stats_name if stats else counter.name
            cls.__annotations__[name] = type(counter.zero).__name__
            setattr(cls, name, counter.zero)
        return cls

    return add


def format_counters(source) -> list[str]:
    """One ``name=value unit  (doc)`` line per declared counter."""
    return [
        f"{counter.name}={counter.render(getattr(source, counter.name))} "
        f"{counter.unit}  ({counter.doc})"
        for counter in COUNTERS
    ]


@counter_fields()
class ExecutionMetrics:
    """Aggregated metrics for one plan execution.

    Carries one attribute per :data:`COUNTERS` row (see each row's
    doc), plus the per-node records behind metered CPU.  The zero
    values live on the class, so the per-query and per-morsel
    instances cost nothing per counter to create.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, NodeMetrics] = {}
        # Per-query resilience context (repro.engine.context), attached
        # by the executor at the top of execute(): the metrics object is
        # the per-execution state every operator already sees.  None
        # (the default, and for worker metrics) keeps every checkpoint
        # a single None test.
        self.context = None
        # Optional repro.obs.Tracer, attached by the executor when the
        # caller opted into tracing.  Same pattern as context: every
        # instrumented site is guarded by `metrics.tracer is not None`,
        # so the disarmed path costs one attribute load.  Worker
        # metrics stay None; morsel spans are opened by the task
        # wrapper with an explicit parent id instead.
        self.tracer = None

    def count_copy(self, rows: int, nbytes: int) -> None:
        """Record one column materialization (called by Relation)."""
        self.rows_copied += int(rows)
        self.bytes_gathered += int(nbytes)

    def count_selection(self, nbytes: int, dense_nbytes: int) -> None:
        """Record one selection structure creation (called by Relation).

        ``nbytes`` is what the chosen representation holds resident
        (packed words for bitmaps, the index array otherwise);
        ``dense_nbytes`` is the int64 position vector equivalent.
        """
        self.selection_bytes += int(nbytes)
        self.selection_bytes_dense += int(dense_nbytes)

    def merge_counters(self, worker: "ExecutionMetrics") -> None:
        """Fold one morsel worker's flat counters into this metrics.

        Parallel regions hand each worker a private ``ExecutionMetrics``
        so counter updates never race; the executor merges them on the
        main thread after the barrier.  Only the flat counters move —
        per-node component counts are recorded by the main thread, which
        sees whole-relation row counts regardless of morsel shape.
        """
        for counter in COUNTERS:
            name = counter.name
            setattr(
                self, name,
                counter.combine(getattr(self, name), getattr(worker, name)),
            )

    def add_wall(self, node_id: int, seconds: float) -> None:
        """Accumulate inclusive wall time on a node (tracer-armed only)."""
        record = self._nodes.get(node_id)
        if record is not None:
            record.wall_seconds += seconds

    def node(self, node_id: int, label: str, kind: str) -> NodeMetrics:
        metrics = self._nodes.get(node_id)
        if metrics is None:
            metrics = NodeMetrics(node_id=node_id, label=label, kind=kind)
            self._nodes[node_id] = metrics
        return metrics

    @property
    def nodes(self) -> list[NodeMetrics]:
        return list(self._nodes.values())

    def rows_out(self, node_id: int) -> int:
        return self._nodes[node_id].rows_out

    def metered_cpu(self, constants: CostConstants = DEFAULT_COSTS) -> float:
        """Total metered CPU across all operators."""
        return sum(node.cpu(constants) for node in self._nodes.values())

    def tuples_by_kind(self) -> dict[str, int]:
        """Total tuples output per operator class (Figure 9's quantity)."""
        totals = {
            OPERATOR_KIND_LEAF: 0,
            OPERATOR_KIND_JOIN: 0,
            OPERATOR_KIND_OTHER: 0,
        }
        for node in self._nodes.values():
            totals[node.kind] += node.rows_out
        return totals

    def total_tuples(self) -> int:
        return sum(node.rows_out for node in self._nodes.values())

    def component_totals(self) -> dict[str, float]:
        totals = {name: 0.0 for name in _COMPONENTS}
        for node in self._nodes.values():
            for name, value in node.components.items():
                totals[name] += value
        return totals

    def cardinality_annotations(self) -> dict[int, str]:
        """Node annotations for :func:`repro.plan.display.format_plan`."""
        return {
            node.node_id: f"{node.rows_out} rows / cpu {node.cpu():.0f}"
            for node in self._nodes.values()
        }
