"""Fold a traced run's spans into per-layer self times.

The program's own spans (``execute``, ``parse_bind``, ``optimize``,
``filter.build``, ``node``, ``aggregate``/``topk``) already mark every
layer boundary; the benchmark adds one ``request`` span around each
call.  A layer's time is the self time of its spans: the span's
duration minus the part its child spans cover.  Every workload serves
on one thread, so a span's children run one after another inside it.
"""

from __future__ import annotations

#: Reported layers, in the order of the request's data flow.
LAYERS = (
    "sql", "service", "optimizer", "filters",
    "engine.scan", "engine.join", "engine.aggregate",
)

_BY_NAME = {
    "request": "client",
    "execute": "service",
    "parse_bind": "sql",
    "optimize": "optimizer",
    "filter.build": "filters",
    "filter.cache.wait": "filters",
    "aggregate": "engine.aggregate",
    "topk": "engine.aggregate",
}


def layer_of(span) -> str:
    if span.name == "node":
        if span.attributes.get("label", "").startswith("HashJoin"):
            return "engine.join"
        # Scan: predicate, zone maps and bitvector probe; Filter: a
        # residual bitvector probe above a join.
        return "engine.scan"
    return _BY_NAME.get(span.name, "other")


def fold(spans) -> dict:
    """Per-layer totals over every traced request in ``spans``.

    Returns the number of ``requests``, their summed wall time
    (``request_seconds``) and ``self_seconds`` per layer; ``client`` is
    the benchmark's own time around each call and ``other`` any span
    this table does not name.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + span.duration
    self_seconds = dict.fromkeys(LAYERS + ("client", "other"), 0.0)
    for span in spans:
        if not span.is_event:
            own = span.duration - covered.get(span.span_id, 0.0)
            self_seconds[layer_of(span)] += own
    requests = [span for span in spans if span.name == "request"]
    return {
        "requests": len(requests),
        "request_seconds": sum(span.duration for span in requests),
        "self_seconds": self_seconds,
    }
