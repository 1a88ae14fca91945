"""The execution counter table reaches every copy of every counter.

Each :data:`repro.engine.metrics.COUNTERS` row must arrive, with its
value intact, at the worker merge, the per-query service record, the
service-wide stats fold and the EXPLAIN ANALYZE header.  The tests
iterate the table, so a new row is covered without touching them, and
a counter dropped by any copy fails here.
"""

from __future__ import annotations

import pytest

import repro.engine.executor as executor_module
from repro.engine.metrics import (
    COUNTERS,
    ExecutionMetrics,
    counter_values,
    format_counters,
)
from repro.service import QueryService
from repro.service.metrics import ServiceMetrics, ServiceStats

_JOIN_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < 5"
)


def _distinct_values() -> dict[str, int | float]:
    return {
        counter.name: type(counter.zero)(index + 1)
        for index, counter in enumerate(COUNTERS)
    }


def _record(execution: ExecutionMetrics) -> ServiceMetrics:
    return ServiceMetrics(
        query="q", fingerprint="f", pipeline="bqo", plan_cache_hit=False,
        optimize_seconds=0.0, execute_seconds=0.0, metered_cpu=0.0,
        output_rows=0, **counter_values(execution),
    )


def test_counter_names_are_unique():
    names = [counter.name for counter in COUNTERS]
    stats_names = [counter.stats_name for counter in COUNTERS]
    assert len(set(names)) == len(names)
    assert len(set(stats_names)) == len(stats_names)
    assert {counter.merge for counter in COUNTERS} <= {"sum", "last"}


@pytest.mark.parametrize("counter", COUNTERS, ids=lambda c: c.name)
def test_counter_arrives_at_every_step(counter):
    value = _distinct_values()[counter.name]
    worker = ExecutionMetrics()
    setattr(worker, counter.name, value)
    main = ExecutionMetrics()
    main.merge_counters(worker)
    assert getattr(main, counter.name) == value

    record = _record(main)
    assert getattr(record, counter.name) == value

    stats = ServiceStats()
    stats.fold(record)
    assert getattr(stats, counter.stats_name) == value
    stats.fold(record)
    folded_twice = value if counter.merge == "last" else value + value
    assert getattr(stats, counter.stats_name) == folded_twice

    rendered = "\n".join(format_counters(record))
    assert f"{counter.name}={counter.render(value)} {counter.unit}" in rendered


def test_all_counters_travel_together():
    """Distinct values for every counter at once: no copy mixes two up."""
    values = _distinct_values()
    worker = ExecutionMetrics()
    for name, value in values.items():
        setattr(worker, name, value)
    main = ExecutionMetrics()
    main.merge_counters(worker)
    record = _record(main)
    assert counter_values(record) == values
    stats = ServiceStats()
    stats.fold(record)
    assert {
        counter.name: getattr(stats, counter.stats_name)
        for counter in COUNTERS
    } == values


def test_service_carries_every_counter_end_to_end(star_db, monkeypatch):
    """The real service path: an execution reporting a distinct value
    for every counter reaches the query record, the stats and EXPLAIN
    ANALYZE unchanged (the filter-cache gauge is set by the service)."""
    service = QueryService(star_db)
    values = _distinct_values()
    execute = service._executor.execute

    def execute_with_distinct_counters(*args, **kwargs):
        result = execute(*args, **kwargs)
        for name, value in values.items():
            setattr(result.metrics, name, value)
        return result

    monkeypatch.setattr(
        service._executor, "execute", execute_with_distinct_counters
    )
    outcome = service.execute(_JOIN_SQL)
    expected = dict(
        values, filter_bytes_resident=service.filter_cache.resident_bytes()
    )
    assert counter_values(outcome.metrics) == expected
    stats = service.stats()
    assert {
        counter.name: getattr(stats, counter.stats_name)
        for counter in COUNTERS
    } == expected
    rendered = service.explain_analyze(_JOIN_SQL)
    for counter in COUNTERS:
        value = expected[counter.name]
        assert f"{counter.name}={counter.render(value)} " in rendered


def test_parallel_service_reports_partial_builds(star_db, monkeypatch):
    """A partitioned build's partial count reaches the query's metrics,
    the service stats and the parallel explain header."""
    # The filtered dim1 build side holds ~50 rows: lower the pool
    # threshold so it splits into one partial per worker.
    monkeypatch.setattr(executor_module, "_MIN_PARALLEL_ROWS", 16)
    service = QueryService(star_db, parallelism=4)
    outcome = service.execute(_JOIN_SQL)
    assert outcome.metrics.filter_builds_parallel >= 1
    assert outcome.metrics.filter_partials_built >= 2
    stats = service.stats()
    assert stats.total_filter_partials_built >= 2
    assert (
        f"from {stats.total_filter_partials_built} partials"
        in service.explain(_JOIN_SQL)
    )
