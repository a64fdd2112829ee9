"""Per-layer metrics from the traced run.

Times come from the spans :mod:`tracing` records; counts come from the
program's public results (``solver_stats``, ``engine_stats``, and the
response fields ``source`` / ``coalesced``).  A layer's *self time* is its
span's duration minus the part its child spans (same thread) cover.
Metrics ending in ``_s`` are summed self times over the traced window;
metrics ending in ``_ms`` are mean span durations per call.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from common import mean, metric, percentile


class LayerSummary:
    """Per-span-name call counts, total and self time, and summed attributes."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.solver: Dict[str, float] = defaultdict(float)
        self.engine: Dict[str, float] = defaultdict(float)
        self.clauses = 0
        #: server.handle durations by request path.
        self.handle_s: Dict[str, List[float]] = defaultdict(list)
        #: request_key -> span name -> durations, across handler, broker
        #: and worker threads.
        self.by_key: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.sources: Dict[str, str] = {}

    def add(self, spans: Iterable[dict]) -> "LayerSummary":
        for span in spans:
            self._walk(span)
        return self

    def _walk(self, span: dict) -> None:
        name = span["name"]
        duration = float(span["duration_s"])
        children = span.get("children") or ()
        attrs = span.get("attrs") or {}
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += max(
            0.0, duration - sum(float(child["duration_s"]) for child in children)
        )
        for key, value in (attrs.get("solver") or {}).items():
            self.solver[key] += value
        for key, value in (attrs.get("engine_stats") or {}).items():
            self.engine[key] += value
        self.clauses += int(attrs.get("clauses", 0))
        key = attrs.get("request_key")
        if name == "server.handle":
            self.handle_s[str(attrs.get("path"))].append(duration)
            key = next((
                (child.get("attrs") or {}).get("request_key") for child in children
                if child["name"] == "service.request"
            ), None)
        if key:
            self.by_key[key][name].append(duration)
            if attrs.get("source"):
                self.sources[key] = attrs["source"]
        for child in children:
            self._walk(child)

    def mean_ms(self, name: str) -> float:
        calls = self.calls[name]
        return 1e3 * self.total_s[name] / calls if calls else 0.0

    def slowest(self, count: int = 5) -> List[dict]:
        """The requests with the longest resolution, their spans joined by key."""
        def worst(name: str, spans: Dict[str, List[float]]) -> float:
            return round(1e3 * max(spans.get(name) or [0.0]), 3)

        ranked = sorted(
            self.by_key.items(),
            key=lambda item: -max(item[1].get("workers.resolve") or [0.0]),
        )
        return [
            {
                "request_key": key[:16],
                "source": self.sources.get(key, ""),
                "calls": len(spans.get("server.handle", [])),
                "handle_ms": worst("server.handle", spans),
                "broker_wait_ms": worst("broker.wait", spans),
                "resolve_ms": worst("workers.resolve", spans),
            }
            for key, spans in ranked[:count]
        ]


def _solver_and_core(summary: LayerSummary, counts: Dict[str, float]) -> dict:
    search_s = summary.self_s["solver.search"]
    return {
        "solver.calls": metric(counts["calls"], "count"),
        "solver.conflicts": metric(counts["conflicts"], "count"),
        "solver.propagations": metric(counts["propagations"], "count"),
        "solver.decisions": metric(counts["decisions"], "count"),
        "solver.unknowns": metric(counts["unknowns"], "count"),
        "solver.load_s": metric(summary.self_s["solver.load"], "s"),
        "solver.search_s": metric(search_s, "s"),
        "solver.props_per_s": metric(
            counts["propagations"] / search_s if search_s else 0.0, "1/s"
        ),
        "core.encode_s": metric(summary.self_s["core.encode"], "s"),
        "core.clauses": metric(summary.clauses, "count"),
        "core.decode_s": metric(summary.self_s["core.decode"], "s"),
        "core.verify_s": metric(summary.self_s["core.verify"], "s"),
        "core.pareto_s": metric(summary.self_s["core.pareto"], "s"),
    }


def _engine(summary: LayerSummary, engine: Dict[str, float]) -> dict:
    return {
        "engine.probes_issued": metric(engine["candidates_probed"], "count"),
        "engine.probes_pruned": metric(engine["probes_pruned"], "count"),
        "engine.probes_cut": metric(engine["probes_cut"], "count"),
        "engine.unknown_retries": metric(engine["unknown_retries"], "count"),
        "engine.cache_lookup_s": metric(summary.self_s["engine.cache_lookup"], "s"),
        "engine.cache_store_s": metric(summary.self_s["engine.cache_store"], "s"),
        "baselines.seed_s": metric(summary.self_s["baselines.seed"], "s"),
    }


def pareto_layers(records: List[dict], spans: List[dict]) -> dict:
    """One traced ``pareto_cold`` suite; counts from its public results."""
    summary = LayerSummary().add(spans)
    counts: Dict[str, float] = defaultdict(float)
    engine: Dict[str, float] = defaultdict(float)
    for record in records:
        for key, value in record["solver"].items():
            counts[key] += value
        for key, value in record["engine_stats"].items():
            engine[key] += value
    counts["calls"] = engine["solver_calls"]
    return {**_solver_and_core(summary, counts), **_engine(summary, engine)}


def serve_layers(window, spans: List[dict], *, churn: bool) -> Tuple[dict, List[dict]]:
    """One traced serve window: server spans plus the client's response fields."""
    summary = LayerSummary().add(spans)
    answered = [o for o in window.plans if o.response is not None]
    handled = summary.handle_s["/v1/plan"]
    per_request = max(1, len(handled))
    handle_ms = 1e3 * mean(handled)
    plans = [o for o in window.reads + window.churn if o.ok]

    def share(sources) -> float:
        return sum(1 for o in plans if o.response.source in sources) / max(1, len(plans))

    late = window.late_ms() if churn else [0.0]
    layers = {
        **_solver_and_core(summary, summary.solver),
        **_engine(summary, summary.engine),
        "server.handle_ms": metric(handle_ms, "ms"),
        "service.http_ms": metric(
            mean([1e3 * (o.end - o.start) for o in answered]) - handle_ms, "ms"
        ),
        "api.parse_ms": metric(summary.mean_ms("api.parse"), "ms"),
        "api.key_ms": metric(summary.mean_ms("api.key"), "ms"),
        "api.topology_parses": metric(
            summary.calls["api.topology_parse"] / per_request, "1/req"
        ),
        "interchange.plan_load_ms": metric(summary.mean_ms("interchange.plan_load"), "ms"),
        "telemetry.record_run_ms": metric(summary.mean_ms("telemetry.record_run"), "ms"),
        "telemetry.record_runs": metric(
            summary.calls["telemetry.record_run"] / per_request, "1/req"
        ),
        "broker.wait_ms": metric(summary.mean_ms("broker.wait"), "ms"),
        "broker.coalesced_share": metric(
            sum(1 for o in plans if o.response.coalesced) / max(1, len(plans)), "ratio"
        ),
        "workers.resolve_ms": metric(summary.mean_ms("workers.resolve"), "ms"),
        "workers.rung_share.cache": metric(share({"cache"}), "ratio"),
        "workers.rung_share.registry": metric(share({"registry"}), "ratio"),
        "workers.rung_share.synthesized": metric(share({"synthesized"}), "ratio"),
        "workers.rung_share.baseline": metric(share({"baseline"}), "ratio"),
        "registry.route_ms": metric(summary.mean_ms("registry.route"), "ms"),
        "registry.lookup_pinned_ms": metric(summary.mean_ms("registry.lookup_pinned"), "ms"),
        "registry.hit_share": metric(share({"cache", "registry"}), "ratio"),
        "registry.invalidate_ms": metric(summary.mean_ms("registry.invalidate"), "ms"),
        "registry.table_build_ms": metric(summary.mean_ms("registry.table_build"), "ms"),
        "runtime.simulate_ms": metric(summary.mean_ms("runtime.simulate"), "ms"),
        "faults.register_ms": metric(summary.mean_ms("faults.register"), "ms"),
        "loadgen.late_ms": metric(percentile(late, 99), "ms"),
    }
    return layers, summary.slowest()
