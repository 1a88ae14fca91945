"""Repository benchmark: one closed-loop client on ``repro.QueryService``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpcds_warm --seed 1 --seconds 15 --trace 0

One process, one client: each request is sent only after the previous
answer returned.  A run sets the workload up three times (reporting the
median set-up time), serves whole passes of seeded traffic until
``--seconds`` have passed and at least ``MIN_REQUESTS`` were answered,
then checks every answer against a serial no-bitvector oracle outside
the timed window.  Timings are scaled to nominal machine speed by a
reference kernel timed between blocks of requests (``SpeedReference``).
The last stdout line is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` every other
request runs under a :class:`repro.obs.Tracer` and the per-layer
metrics are reported instead (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: At least this many requests per run, so the p95 has 10 samples above it.
MIN_REQUESTS = 200
SETUP_REPEATS = 3
#: Per-thread span ring of the traced run; sized so nothing is dropped.
TRACE_RING = 1 << 20
WORKLOADS = ("tpcds_warm", "snowflake_adhoc", "star_probe")
#: Requests between two samples of the machine-speed reference.
BLOCK = 8
#: The reference kernel's time at nominal machine speed (about its
#: median on the machine the README names); timings are reported as if
#: the kernel had taken exactly this long.
REFERENCE_SECONDS = 0.010


class SpeedReference:
    """A fixed CPU kernel timed between blocks of requests.

    The shared machine's speed swings by up to 1.7x within seconds and
    stays shifted for minutes (see README), so raw wall times of runs a
    few minutes apart differ by more than any usable regression bound.
    Each timing is therefore scaled by ``REFERENCE_SECONDS`` over the
    kernel's time measured around it: a change in the program moves the
    scaled figure in full, a change in machine speed mostly cancels.
    The kernel mixes interpreter work (dict updates) with NumPy sort
    and gather, like the program; it touches nothing of the program.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 1 << 30, 200_000)
        self._index = rng.integers(0, 200_000, 200_000)

    def _kernel(self) -> float:
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(30_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        np.sort(self._values)
        int(self._values[self._index].sum())
        return time.perf_counter() - started

    def sample(self) -> float:
        """Kernel seconds now: the median of three timings."""
        return statistics.median(self._kernel() for _ in range(3))


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))


def _workload(name: str, scale: float):
    """``(build, traffic)``: ``build()`` makes the database and
    ``traffic(db, seed)`` returns the warm-up requests and an endless
    iterator of timed passes, each a list of ``(name, sql)``."""
    from repro.workloads import customer_lite, star, tpcds_lite

    import traffic

    if name == "tpcds_warm":
        def tpcds_traffic(_database, seed):
            queries = tpcds_lite.query_sqls()
            return queries, traffic.tpcds_passes(queries, seed)

        return lambda: tpcds_lite.build_database(scale=1.0 * scale), tpcds_traffic
    if name == "snowflake_adhoc":
        def snowflake_traffic(database, seed):
            schema = traffic.SnowflakeSchema(database)
            seen: set[str] = set()
            warmup = next(traffic.snowflake_passes(schema, seed, "warmup", seen))
            return warmup, traffic.snowflake_passes(schema, seed, "timed", seen)

        return lambda: customer_lite.build_database(scale=1.0 * scale), snowflake_traffic

    def star_traffic(_database, seed):
        return next(traffic.star_passes(seed, "warmup")), traffic.star_passes(seed)

    return lambda: star.build_database(scale=4.0 * scale), star_traffic


def _setup(build, make_traffic, seed: int, reference: SpeedReference):
    """Set up ``SETUP_REPEATS`` times; keep the last service.

    Set-up time is ``build_database`` plus service construction plus
    warm-up, scaled by the speed reference sampled around it;
    generating the traffic is the benchmark's own work and is left out.
    """
    from repro import QueryService

    setup_seconds, build_seconds = [], []
    service = plan = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        database = service = None
        gc.collect()
        before = reference.sample()
        started = time.perf_counter()
        database = build()
        built = time.perf_counter()
        if plan is None:
            plan = make_traffic(database, seed)
        resumed = time.perf_counter()
        service = QueryService(database)
        for name, sql in plan[0]:
            service.execute(sql, name=name)
        finished = time.perf_counter()
        scale = 2 * REFERENCE_SECONDS / (before + reference.sample())
        build_seconds.append(built - started)
        setup_seconds.append((built - started + finished - resumed) * scale)
    return database, service, plan[1], setup_seconds, build_seconds


@dataclasses.dataclass(slots=True)
class Served:
    """One request of the timed window.  Only the answer is kept, not
    the engine's intermediate relations, so the benchmark's own memory
    stays out of ``peak_rss_mb``."""

    name: str
    sql: str
    seconds: float
    traced: bool
    #: ``seconds`` at nominal machine speed (see SpeedReference).
    scaled: float = 0.0
    answer: object = None
    metrics: object = None
    error: Exception | None = None


def _serve(service, passes, seconds: float, requests: int | None, tracer,
           reference: SpeedReference):
    """The timed window: whole passes until time and MIN_REQUESTS are met
    (or exactly ``requests`` requests).  With a tracer, odd requests
    run traced inside a benchmark-side ``request`` span.  Returns the
    requests and the reference samples taken between blocks."""
    from oracle import answer_of

    served: list[Served] = []
    samples = [reference.sample()]
    block_start = 0

    def close_block() -> None:
        nonlocal block_start
        samples.append(reference.sample())
        scale = 2 * REFERENCE_SECONDS / (samples[-2] + samples[-1])
        for request in served[block_start:]:
            request.scaled = request.seconds * scale
        block_start = len(served)

    # Generate ahead so traffic generation stays out of the window.
    ahead = list(itertools.islice(passes, int(2 * seconds) + 2))
    started = time.perf_counter()
    for batch in itertools.chain(ahead, passes):
        for name, sql in batch:
            traced = tracer is not None and len(served) % 2 == 1
            began = time.perf_counter()
            try:
                if traced:
                    with tracer.span("request", query=name):
                        outcome = service.execute(sql, name=name, tracer=tracer)
                else:
                    outcome = service.execute(sql, name=name)
                record = Served(name, sql, time.perf_counter() - began, traced,
                                answer=answer_of(outcome.result),
                                metrics=outcome.metrics)
            except Exception as exc:  # counted as failed, never aborts the run
                record = Served(name, sql, time.perf_counter() - began, traced,
                                error=exc)
            served.append(record)
            done = requests is not None and len(served) >= requests
            if len(served) % BLOCK == 0 or done:
                close_block()
            if done:
                return served, samples
        if requests is None and (
            time.perf_counter() - started >= seconds and len(served) >= MIN_REQUESTS
        ):
            if len(served) % BLOCK:
                close_block()
            return served, samples


def _check(database, served) -> list[bool]:
    """Per request: answered and equal to the oracle's answer."""
    from oracle import Oracle

    oracle = Oracle(database)
    verdicts = []
    for index, request in enumerate(served):
        error = request.error
        if error is None:
            try:
                error = oracle.check(request.sql, request.answer)
            except Exception as exc:
                error = exc
        if error is not None:
            print(f"FAILED request {index} ({request.name}): {error}\n  {request.sql}")
        verdicts.append(error is None)
    return verdicts


def _end_to_end(served, verdicts, setup_seconds, peak_rss_mb) -> dict:
    """Timings at nominal machine speed: a closed loop with one client
    answers ``1 / latency`` requests a second, so throughput is correct
    answers over the summed scaled latencies."""
    latencies_ms = sorted(request.scaled * 1e3 for request in served)
    answered = [request.metrics for request in served if request.error is None]
    return {
        "throughput_qps": (sum(verdicts) / sum(r.scaled for r in served), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p95_ms": (statistics.quantiles(latencies_ms, n=20)[-1], "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "correct_fraction": (sum(verdicts) / len(served), "fraction"),
        "metered_cpu_per_query": (
            statistics.fmean(m.metered_cpu for m in answered) if answered else 0.0,
            "cpu_units",
        ),
    }


def _per_layer(service, database, served, folded, dictionary_before,
               build_seconds) -> dict:
    import layers

    traced = [request for request in served if request.traced]
    plain = [request for request in served if not request.traced]
    metrics = [request.metrics for request in served if request.error is None]
    n = max(len(metrics), 1)

    def mean(field):
        return sum(getattr(m, field) for m in metrics) / n

    per_request = max(folded["requests"], 1)
    wall = folded["request_seconds"] or 1.0
    own = folded["self_seconds"]
    misses = sum(
        1 for request in traced
        if request.error is None and not request.metrics.plan_cache_hit
    )
    filter_hits = sum(m.filter_cache_hits for m in metrics)
    filter_lookups = filter_hits + sum(m.filter_cache_misses for m in metrics)
    dictionary = database.dictionary_cache_info()
    lookups = dictionary["lookups"] - dictionary_before["lookups"]
    builds = dictionary["builds"] - dictionary_before["builds"]
    out = {
        "trace.request_ms": (wall / per_request * 1e3, "ms"),
        "sql.parse_bind_ms": (own["sql"] / per_request * 1e3, "ms"),
        "service.plan_cache_hit_ratio": (mean("plan_cache_hit"), "ratio"),
        "service.self_ms": (own["service"] / per_request * 1e3, "ms"),
        "optimizer.optimize_ms": (
            own["optimizer"] / misses * 1e3 if misses else 0.0, "ms"),
        "filters.build_ms": (own["filters"] / per_request * 1e3, "ms"),
        "filters.builds": (mean("filter_cache_misses"), "count/query"),
        "filters.cache_hit_ratio": (
            filter_hits / filter_lookups if filter_lookups else 0.0, "ratio"),
        "filters.resident_bytes": (float(service.filter_cache.resident_bytes()), "B"),
        "engine.scan_ms": (own["engine.scan"] / per_request * 1e3, "ms"),
        "engine.join_ms": (own["engine.join"] / per_request * 1e3, "ms"),
        "engine.aggregate_ms": (own["engine.aggregate"] / per_request * 1e3, "ms"),
        "engine.rows_copied": (mean("rows_copied"), "count/query"),
        "engine.bytes_gathered": (mean("bytes_gathered"), "B/query"),
        "storage.build_s": (statistics.median(build_seconds), "s"),
        "storage.dictionary_hit_ratio": (
            (lookups - builds) / lookups if lookups else 0.0, "ratio"),
        "storage.rows_skipped": (mean("rows_skipped"), "count/query"),
        "storage.morsels_pruned": (mean("morsels_pruned"), "count/query"),
        "obs.trace_overhead": (
            statistics.fmean(r.seconds for r in traced)
            / statistics.fmean(r.seconds for r in plain) - 1.0,
            "ratio",
        ),
    }
    for layer in layers.LAYERS:
        out[f"{layer}.share"] = (own[layer] / wall, "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, requests: int | None = None) -> dict:
    """One benchmark run; returns the result object (not yet printed)."""
    _import_program()
    from repro.obs import Tracer

    import layers

    build, make_traffic = _workload(workload, scale)
    reference = SpeedReference()
    database, service, passes, setup_seconds, build_seconds = _setup(
        build, make_traffic, seed, reference)
    dictionary_before = database.dictionary_cache_info()
    tracer = Tracer(max_spans_per_thread=TRACE_RING) if trace else None
    started = time.perf_counter()
    served, samples = _serve(service, passes, seconds, requests, tracer, reference)
    elapsed = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = None
    else:
        if tracer.dropped:
            raise RuntimeError(f"trace ring overflowed: {tracer.dropped} spans dropped")
        folded = layers.fold(tracer.spans())
        metrics = _per_layer(service, database, served, folded, dictionary_before,
                             build_seconds)
        metrics["machine.reference_ms"] = (statistics.median(samples) * 1e3, "ms")
        OUT.mkdir(exist_ok=True)
        tracer.write_chrome(OUT / f"{workload}-seed{seed}.trace.json")
    checked = time.perf_counter()
    verdicts = _check(database, served)
    checked = time.perf_counter() - checked
    service.close()
    if metrics is None:
        metrics = _end_to_end(served, verdicts, setup_seconds, peak_rss_mb)
    raw_ms = sorted(request.seconds * 1e3 for request in served)
    print(f"# {workload} seed={seed} requests={len(served)} window={elapsed:.2f}s "
          f"oracle={checked:.2f}s trace={int(trace)}; unscaled: "
          f"{sum(verdicts) / sum(raw_ms) * 1e3:.2f} q/s, "
          f"p50 {statistics.median(raw_ms):.2f} ms; reference kernel "
          f"{statistics.median(samples) * 1e3:.2f} ms (nominal "
          f"{REFERENCE_SECONDS * 1e3:g})")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:14.6g} {unit}")
    return {
        "correct": all(verdicts),
        "attempted": len(served),
        "failed": len(verdicts) - sum(verdicts),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data scale factor (the self-test uses a tiny one)")
    parser.add_argument("--requests", type=int, default=None,
                        help="serve exactly this many requests instead of timing")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale, args.requests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
