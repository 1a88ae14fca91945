"""Seeded request streams for the three benchmark workloads.

Each workload is a sequence of *passes*.  A pass has a fixed
composition that does not depend on the seed (the same templates or
join counts in the same proportions); the seed only decides the
constants, the branch choice and the order.  Runs on different seeds
therefore serve statistically identical traffic, which is what keeps
their figures comparable, while the same seed always yields the same
SQL sequence.

The program under test only ever sees the generated SQL text.
"""

from __future__ import annotations

import random

from repro.sql import fingerprint_sql

#: Join counts of one snowflake pass: one query per count.  Stratifying
#: by join count keeps the optimizer's work per pass the same on every
#: seed (its candidate search grows with the number of relations).
SNOWFLAKE_JOINS = tuple(range(13, 31))
#: The fewest branches an ad-hoc snowflake query joins.
SNOWFLAKE_MIN_BRANCHES = 6
#: Requests of each star template in one pass.
STAR_PER_TEMPLATE = 16
#: Distinct constant sets per star template in one run.
STAR_POOL = 32


def stream_rng(seed: int, label: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{label}")


# ----------------------------------------------------------------------
# tpcds_warm: seeded shuffles of the fixed 32-query set
# ----------------------------------------------------------------------


def tpcds_passes(queries: list[tuple[str, str]], seed: int):
    """Endless whole passes over ``queries``, each in a seeded order."""
    rng = stream_rng(seed, "tpcds")
    while True:
        order = list(queries)
        rng.shuffle(order)
        yield order


# ----------------------------------------------------------------------
# snowflake_adhoc: a new join shape per request, read from the catalog
# ----------------------------------------------------------------------


class SnowflakeSchema:
    """Fact table, branch chains and filterable columns, from the catalog.

    The fact is the table with the most outgoing foreign keys; each of
    its foreign keys starts a branch, followed parent to parent down
    the chain of single outgoing foreign keys.
    """

    def __init__(self, database) -> None:
        catalog = database.catalog
        outgoing: dict[str, list] = {}
        for foreign_key in catalog.foreign_keys:
            outgoing.setdefault(foreign_key.child_table, []).append(foreign_key)
        self.fact = max(sorted(outgoing), key=lambda name: len(outgoing[name]))
        self.branches: list[list] = []
        for first in sorted(outgoing[self.fact], key=lambda fk: fk.child_columns):
            chain = [first]
            while len(outgoing.get(chain[-1].parent_table, ())) == 1:
                chain.append(outgoing[chain[-1].parent_table][0])
            self.branches.append(chain)
        # Range-filterable columns: integer, neither key nor foreign key;
        # the fact's first float column is the summed measure.
        self.measure: str | None = None
        linked = {
            (fk.child_table, column)
            for fk in catalog.foreign_keys
            for column in fk.child_columns
        }
        self.ranges: dict[str, list[tuple[str, int, int]]] = {}
        for name in [self.fact] + [fk.parent_table for c in self.branches for fk in c]:
            schema = catalog.schema(name)
            table = database.table(name)
            columns = []
            for column in schema.column_names:
                values = table.column(column)
                if (
                    column in schema.key
                    or (name, column) in linked
                ):
                    continue
                if values.dtype.kind == "f" and name == self.fact:
                    self.measure = self.measure or column
                if values.dtype.kind not in "iu":
                    continue
                columns.append((column, int(values.min()), int(values.max())))
            self.ranges[name] = columns
        if sum(len(chain) for chain in self.branches) < max(SNOWFLAKE_JOINS):
            raise ValueError("schema has too few snowflake joins")


def _snowflake_sql(schema: SnowflakeSchema, depths: dict[int, int],
                   rng: random.Random) -> str:
    relations = [f"{schema.fact} f"]
    joins: list[str] = []
    predicates: list[str] = []

    def range_predicate(alias: str, table: str) -> None:
        column, low, high = rng.choice(schema.ranges[table])
        span = high - low
        if rng.random() < 0.5:
            bound = rng.randint(low + span // 10, high)
            predicates.append(f"{alias}.{column} < {bound}")
        else:
            start = rng.randint(low, low + span // 2)
            width = rng.randint(span // 4, span // 2)
            predicates.append(
                f"{alias}.{column} BETWEEN {start} AND {start + width}"
            )

    for branch in sorted(depths):
        parent = "f"
        for level, foreign_key in enumerate(schema.branches[branch][: depths[branch]]):
            alias = f"b{branch:02d}_{level}"
            relations.append(f"{foreign_key.parent_table} {alias}")
            joins.append(
                f"{parent}.{foreign_key.child_columns[0]} = "
                f"{alias}.{foreign_key.parent_columns[0]}"
            )
            if schema.ranges[foreign_key.parent_table] and rng.random() < 0.45:
                range_predicate(alias, foreign_key.parent_table)
            parent = alias
    if schema.ranges[schema.fact] and rng.random() < 0.3:
        range_predicate("f", schema.fact)
    select = "COUNT(*) AS cnt"
    if schema.measure is not None:
        select += f", SUM(f.{schema.measure}) AS total"
    return (
        f"SELECT {select} FROM {', '.join(relations)} "
        f"WHERE {' AND '.join(joins + predicates)}"
    )


def _snowflake_depths(schema: SnowflakeSchema, joins: int,
                      rng: random.Random) -> dict[int, int]:
    """Branch → joined chain length, totalling exactly ``joins``.

    Starts from every branch at full depth and trims random chain tips
    until the join count is reached, never dropping below the minimum
    number of branches.
    """
    depths = {i: len(chain) for i, chain in enumerate(schema.branches)}
    while sum(depths.values()) > joins:
        candidates = [
            branch for branch, depth in depths.items()
            if depth > 1 or len(depths) > SNOWFLAKE_MIN_BRANCHES
        ]
        branch = rng.choice(candidates)
        depths[branch] -= 1
        if depths[branch] == 0:
            del depths[branch]
    return depths


def snowflake_passes(schema: SnowflakeSchema, seed: int, label: str = "timed",
                     seen: set[str] | None = None):
    """Endless passes of never-repeating snowflake shapes.

    ``seen`` holds the fingerprints already issued (share it between
    the warm-up and the timed stream so neither repeats the other); a
    drawn shape whose fingerprint was seen is redrawn.
    """
    rng = stream_rng(seed, f"snowflake:{label}")
    seen = set() if seen is None else seen
    while True:
        order = list(SNOWFLAKE_JOINS)
        rng.shuffle(order)
        batch = []
        for joins in order:
            while True:
                sql = _snowflake_sql(
                    schema, _snowflake_depths(schema, joins, rng), rng
                )
                text = fingerprint_sql(sql).text
                if text not in seen:
                    seen.add(text)
                    break
            batch.append((f"sf_j{joins}", sql))
        yield batch


# ----------------------------------------------------------------------
# star_probe: three SSB-shaped templates, seeded constants
# ----------------------------------------------------------------------

_NATIONS = [f"NATION{i:02d}" for i in range(25)]
_BRANDS = [f"BRAND#{i:02d}" for i in range(1, 41)]
_REGIONS = ["AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDDLE EAST"]
_YEARS = list(range(1992, 1996))
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]

STAR_TEMPLATES = {
    "star_nations": (
        "SELECT SUM(lo.lo_revenue) AS revenue, COUNT(*) AS orders "
        "FROM lineorder lo, customer c, supplier s, date_dim d "
        "WHERE lo.lo_custkey = c.c_custkey AND lo.lo_suppkey = s.s_suppkey "
        "AND lo.lo_orderdate = d.d_datekey "
        "AND c.c_nation = '{c_nation}' AND s.s_nation = '{s_nation}' "
        "AND d.d_year BETWEEN {year} AND {year_end}"
    ),
    "star_brands": (
        "SELECT SUM(lo.lo_revenue) AS revenue "
        "FROM lineorder lo, part p, supplier s, date_dim d "
        "WHERE lo.lo_partkey = p.p_partkey AND lo.lo_suppkey = s.s_suppkey "
        "AND lo.lo_orderdate = d.d_datekey "
        "AND p.p_brand IN ('{brand_a}', '{brand_b}') "
        "AND s.s_region = '{region}'"
    ),
    "star_months": (
        "SELECT c.c_region, SUM(lo.lo_revenue) AS revenue "
        "FROM lineorder lo, customer c, date_dim d "
        "WHERE lo.lo_custkey = c.c_custkey AND lo.lo_orderdate = d.d_datekey "
        "AND d.d_year = {year} AND d.d_month BETWEEN {month} AND {month_end} "
        "AND c.c_mktsegment <> '{segment}' "
        "GROUP BY c.c_region"
    ),
}


def star_constants(template: str, rng: random.Random) -> dict:
    if template == "star_nations":
        year = rng.choice(_YEARS[:-1])
        return dict(
            c_nation=rng.choice(_NATIONS), s_nation=rng.choice(_NATIONS),
            year=year, year_end=year + 1,
        )
    if template == "star_brands":
        first = rng.randrange(len(_BRANDS))
        second = (first + rng.randint(1, 4)) % len(_BRANDS)
        return dict(
            brand_a=_BRANDS[first], brand_b=_BRANDS[second],
            region=rng.choice(_REGIONS),
        )
    month = rng.randint(1, 10)
    return dict(
        year=rng.choice(_YEARS), month=month,
        month_end=month + rng.randint(0, 2),
        segment=rng.choice(_SEGMENTS),
    )


def star_pool(seed: int) -> list[tuple[str, list[str]]]:
    """Per template, ``STAR_POOL`` distinct SQL texts drawn from the seed.

    The pool bounds the distinct statements a run serves (and the
    oracle must recompute), while its dimension predicates — well over
    the filter cache's 64 entries — keep the filter working set larger
    than the cache.
    """
    rng = stream_rng(seed, "star:pool")
    pool = []
    for template, text in STAR_TEMPLATES.items():
        sqls: dict[str, None] = {}
        while len(sqls) < STAR_POOL:
            sqls[text.format(**star_constants(template, rng))] = None
        pool.append((template, list(sqls)))
    return pool


def star_passes(seed: int, label: str = "timed"):
    """Endless passes: each template ``STAR_PER_TEMPLATE`` times, shuffled."""
    pool = star_pool(seed)
    rng = stream_rng(seed, f"star:{label}")
    while True:
        batch = [
            (template, rng.choice(sqls))
            for template, sqls in pool
            for _ in range(STAR_PER_TEMPLATE)
        ]
        rng.shuffle(batch)
        yield batch
