"""Answer oracle: every served answer against a serial no-bitvector run.

The reference plan comes from the ``dp_nobv`` pipeline (exact dynamic
programming up to 10 relations, greedy beyond, with bitvector filtering
disabled) and runs on a fresh serial :class:`repro.Executor`, so it
shares neither the served plan, its join-ordering algorithm nor the
filter cache with the run under test.  ``dp_nobv`` rather than
``original_nobv``: on 13-30 join snowflakes the latter's optimizer
costs about 98 ms a query against 13 ms, which alone would take about
a third of a ``snowflake_adhoc`` run.

Group keys and other non-float values must match exactly; floats
within the tolerance the experiment harness uses between pipelines.
"""

from __future__ import annotations

import numpy as np

from repro import Executor, optimize_query, parse_query

PIPELINE = "dp_nobv"
RTOL = 1e-9
ATOL = 1e-6


def answer_of(result):
    """What to keep of a served result: the cheap reference, no copying."""
    if result.aggregates is not None:
        return result.aggregates
    return result.relation


def _columns(answer, spec) -> list[np.ndarray]:
    if isinstance(answer, dict):
        return [np.asarray(answer[label]) for label in sorted(answer)]
    return [
        np.asarray(answer.column(ref.alias, ref.column))
        for ref in spec.select_columns
    ]


def _sort_key(value):
    if isinstance(value, float):
        return (1, value != value, 0.0 if value != value else value)
    return (0, False, repr(value))


def _rows(columns: list[np.ndarray]) -> tuple[list[tuple], int]:
    """Rows in a canonical order, exact-typed values first, then floats;
    plus the number of exact-typed leading values per row."""
    exact = [i for i, c in enumerate(columns) if c.dtype.kind != "f"]
    floats = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    rows = zip(*(columns[i].tolist() for i in exact + floats))
    ordered = sorted(rows, key=lambda row: tuple(map(_sort_key, row)))
    return ordered, len(exact)


def _mismatch(served: list[np.ndarray], reference: list[np.ndarray]) -> str | None:
    if len(served) != len(reference):
        return f"{len(served)} columns, expected {len(reference)}"
    served_rows, num_exact = _rows(served)
    reference_rows, _ = _rows(reference)
    if len(served_rows) != len(reference_rows):
        return f"{len(served_rows)} rows, expected {len(reference_rows)}"
    for got, want in zip(served_rows, reference_rows):
        if got[:num_exact] != want[:num_exact]:
            return f"row {got!r}, expected {want!r}"
        if not np.allclose(got[num_exact:], want[num_exact:], rtol=RTOL,
                           atol=ATOL, equal_nan=True):
            return f"row {got!r}, expected {want!r}"
    return None


class Oracle:
    """Reference answers per distinct SQL text, computed on demand."""

    def __init__(self, database) -> None:
        self._database = database
        self._executor = Executor(database)
        self._cache: dict[str, tuple] = {}

    def check(self, sql: str, answer) -> str | None:
        """``None`` when ``answer`` is right, else what differs."""
        entry = self._cache.get(sql)
        if entry is None:
            spec = parse_query(self._database, sql, "oracle")
            plan = optimize_query(self._database, spec, PIPELINE).plan
            entry = (spec, _columns(answer_of(self._executor.execute(plan)), spec))
            self._cache[sql] = entry
        spec, reference = entry
        return _mismatch(_columns(answer, spec), reference)
