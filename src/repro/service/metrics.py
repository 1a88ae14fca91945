"""Per-query and service-level metrics for :class:`QueryService`.

Every served query produces a :class:`ServiceMetrics` record; the
service folds them into a running :class:`ServiceStats` aggregate
(thread-safe — the fold happens under the service's lock).  Both carry
one field per :data:`repro.engine.metrics.COUNTERS` row, generated
from that table.
"""

from __future__ import annotations

import dataclasses

from repro.engine.metrics import COUNTERS, counter_fields


@dataclasses.dataclass(frozen=True)
@counter_fields()
class ServiceMetrics:
    """What one query cost the service.

    ``optimize_seconds`` is the full optimize-path latency of this call:
    fingerprinting plus — on a plan-cache miss — parsing, binding, and
    optimization.  On a hit it collapses to fingerprint + lookup +
    parameter substitution, which is the speedup the plan cache buys.
    """

    query: str
    fingerprint: str
    pipeline: str
    plan_cache_hit: bool
    optimize_seconds: float
    execute_seconds: float
    metered_cpu: float
    output_rows: int
    # Wall-clock for the whole service call, end to end: optimize +
    # execute + (for run_many slots) every retry attempt.  Carried on
    # every record — including the error records batch isolation builds
    # — so batch telemetry never needs re-timing by callers.
    wall_seconds: float = 0.0
    # Resilience accounting (repro.engine.context).  ``degraded`` marks
    # a query whose parallel run breached its ResourceBudget and was
    # re-run on the serial fallback executor; ``retries`` counts the
    # extra attempts the batch retry policy spent before this answer;
    # ``error`` is ``"TypeName: message"`` for a query that failed (set
    # only on the error records run_many builds for isolated failures).
    degraded: bool = False
    retries: int = 0
    error: str | None = None


@dataclasses.dataclass
@counter_fields(stats=True)
class ServiceStats:
    """Running aggregate over every query the service has answered."""

    queries: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    invalidations: int = 0
    total_optimize_seconds: float = 0.0
    total_execute_seconds: float = 0.0
    total_wall_seconds: float = 0.0
    total_metered_cpu: float = 0.0
    # Resilience aggregates.  ``failures`` / ``timeouts`` are counted
    # by the service when an execution raises (no ServiceMetrics is
    # folded for those); ``degradations`` and ``retries`` fold from the
    # per-query records of answers that did come back.
    failures: int = 0
    timeouts: int = 0
    degradations: int = 0
    retries: int = 0
    # Latency/row histogram snapshots (repro.obs.ServiceTelemetry),
    # attached by QueryService.stats() at snapshot time — never folded,
    # the telemetry registry is the live aggregate.
    telemetry: dict = dataclasses.field(default_factory=dict)

    def fold(self, metrics: ServiceMetrics) -> None:
        self.queries += 1
        if metrics.plan_cache_hit:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
        self.total_optimize_seconds += metrics.optimize_seconds
        self.total_execute_seconds += metrics.execute_seconds
        self.total_wall_seconds += metrics.wall_seconds
        self.total_metered_cpu += metrics.metered_cpu
        for counter in COUNTERS:
            name = counter.stats_name
            setattr(
                self, name,
                counter.combine(
                    getattr(self, name), getattr(metrics, counter.name)
                ),
            )
        if metrics.degraded:
            self.degradations += 1
        self.retries += metrics.retries

    @property
    def plan_cache_hit_rate(self) -> float:
        if not self.queries:
            return 0.0
        return self.plan_cache_hits / self.queries

    def snapshot(self) -> "ServiceStats":
        return dataclasses.replace(self)
