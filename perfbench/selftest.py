"""Self-test of the benchmark at a tiny scale (under a minute).

    python3 perfbench/selftest.py

Checks that the seeded traffic keeps the properties each workload was
chosen for, that every workload answers correctly and prints every
metric ``BENCHMARK.json`` names with its unit, that the deterministic
counter repeats exactly, that the run rewrites no file outside
``perfbench/out``, and that without the program the benchmark fails
without printing a result.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from repro import parse_query  # noqa: E402
from repro.sql import fingerprint_sql  # noqa: E402
from repro.workloads import customer_lite, star  # noqa: E402

import traffic  # noqa: E402

TINY = ["--scale", "0.05", "--requests", "8", "--seconds", "1"]
PLAN_CACHE_SIZE = 128
FILTER_CACHE_SIZE = 64


def _require(condition: bool, message) -> None:
    """Fail the self-test (an ``assert`` would vanish under ``-O``)."""
    if not condition:
        raise SystemExit(f"self-test FAILED: {message}")


def _sqls(passes, count: int) -> list[str]:
    return [sql for batch in itertools.islice(passes, count) for _, sql in batch]


def check_traffic() -> None:
    snowflake_db = customer_lite.build_database(scale=0.05)
    schema = traffic.SnowflakeSchema(snowflake_db)
    streams = {
        "snowflake_adhoc": lambda seed: traffic.snowflake_passes(schema, seed),
        "star_probe": lambda seed: traffic.star_passes(seed),
        "tpcds_warm": lambda seed: traffic.tpcds_passes(
            [(str(i), f"q{i}") for i in range(32)], seed),
    }
    for name, stream in streams.items():
        _require(_sqls(stream(7), 3) == _sqls(stream(7), 3), f"{name}: seed not reproducible")
        _require(_sqls(stream(7), 3) != _sqls(stream(8), 3), f"{name}: seed ignored")

    shapes = _sqls(traffic.snowflake_passes(schema, 7), 10)
    fingerprints = {fingerprint_sql(sql).text for sql in shapes}
    _require(len(fingerprints) == len(shapes) > PLAN_CACHE_SIZE,
             f"snowflake: {len(fingerprints)} fingerprints for {len(shapes)} shapes")
    joins = {sql.count(" = ") for sql in shapes}
    _require(joins == set(traffic.SNOWFLAKE_JOINS), f"snowflake join counts {joins}")

    star_db = star.build_database(scale=0.05)
    probes = _sqls(traffic.star_passes(7), 10)
    _require(len({fingerprint_sql(sql).text for sql in probes}) <= 3, "star: >3 fingerprints")
    dimension_predicates = set()
    for sql in set(probes):
        spec = parse_query(star_db, sql)
        for alias, predicate in spec.local_predicates.items():
            if spec.alias_tables[alias] != "lineorder":
                dimension_predicates.add((spec.alias_tables[alias], str(predicate)))
    _require(len(dimension_predicates) > FILTER_CACHE_SIZE,
             f"star: only {len(dimension_predicates)} distinct filter predicates")
    print(f"traffic ok: {len(shapes)} snowflake shapes, "
          f"{len(dimension_predicates)} star filter predicates")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    completed = _run(workload, trace)
    _require(completed.returncode == 0, completed.stderr)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        cpu = []
        for trace in (0, 0, 1):
            result = _result(workload, trace)
            _require(result["correct"] and result["failed"] == 0, (workload, result))
            _require(result["attempted"] == 8, (workload, result["attempted"]))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(units == expected[trace], (workload, trace, units))
            if trace == 0:
                _require(result["metrics"]["correct_fraction"]["value"] == 1.0, workload)
                cpu.append(result["metrics"]["metered_cpu_per_query"]["value"])
        _require(cpu[0] == cpu[1], f"{workload}: metered CPU {cpu}")
        print(f"{workload} ok: metered_cpu_per_query {cpu[0]:.1f} twice")


def check_without_program() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    completed = _run("tpcds_warm", 0, cwd=bare)
    shutil.rmtree(bare)
    _require(completed.returncode != 0 and not completed.stdout, completed)
    print("without the program: exit", completed.returncode, "and no result")


def _snapshot() -> dict:
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
    files = {}
    for directory, subdirs, names in os.walk(ROOT):
        here = Path(directory)
        subdirs[:] = [d for d in subdirs if d not in skip and here / d != OUT]
        for name in names:
            stat = (here / name).stat()
            files[str(here / name)] = (stat.st_size, stat.st_mtime_ns)
    return files


def main() -> int:
    before = _snapshot()
    check_traffic()
    check_runs()
    check_without_program()
    after = _snapshot()
    changed = sorted(set(before.items()) ^ set(after.items()))
    _require(not changed, f"files changed outside perfbench/out: {changed}")
    print("tree unchanged outside perfbench/out; self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
