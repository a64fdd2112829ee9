"""Service-layer observability: the /v1/metrics endpoint, the engine
section of /v1/stats, /v1/stats as a view of the metrics registry, counter
survival across restarts, and reset().
"""

import threading
import time
import urllib.request

import pytest

from repro.engine import AlgorithmCache
from repro.faults import LinkDown
from repro.service import (
    Broker,
    FaultBoard,
    FaultRequest,
    PlanRegistry,
    PlanRequest,
    PlanningService,
    ServerThread,
    SynthesisResolver,
    fetch_metrics,
    fetch_stats,
    make_server,
)
from repro.telemetry import Metrics, get_metrics, set_metrics

PINNED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=3)
ROUTED = PlanRequest("Allgather", "ring:4", size_bytes=1 << 20, synchrony=1)
GATED = PlanRequest("Allgather", "ring:4", chunks=1, steps=2, rounds=4)
CRASH = PlanRequest("Allgather", "ring:4", chunks=1, steps=3, rounds=3)
QUEUED = PlanRequest("Allgather", "ring:4", chunks=2, steps=2, rounds=3)
DEGRADED = PlanRequest("Allgather", "ring:4", chunks=1, steps=3, rounds=4)

#: Every count under /v1/stats and the /v1/metrics series it must equal.
STATS_SERIES = (
    (("broker", "submitted"), "repro_broker_requests_total", {}),
    (("broker", "coalesced"), "repro_broker_requests_total", {"outcome": "coalesced"}),
    (("broker", "completed"), "repro_broker_jobs_total", {"outcome": "completed"}),
    (("broker", "failed"), "repro_broker_jobs_total", {"outcome": "failed"}),
    (("broker", "dropped_jobs"), "repro_broker_jobs_total", {"outcome": "dropped"}),
    (("broker", "cancelled"), "repro_broker_tickets_total", {"outcome": "cancelled"}),
    (("broker", "expired"), "repro_broker_tickets_total", {"outcome": "expired"}),
    (("broker", "resolver_crashes"), "repro_broker_resolver_crashes_total", {}),
    (("resolver", "solves"), "repro_resolver_solves_total", {}),
    (("resolver", "registry_hits"), "repro_resolver_registry_hits_total", {}),
    (("resolver", "replans"), "repro_resolver_replans_total", {}),
    (("resolver", "rungs", "cache"), "repro_resolver_rung_total", {"rung": "cache"}),
    (("resolver", "rungs", "registry"), "repro_resolver_rung_total", {"rung": "registry"}),
    (("resolver", "rungs", "synthesized"), "repro_resolver_rung_total",
     {"rung": "synthesized"}),
    (("registry", "route_hits"), "repro_registry_routes_total", {"outcome": "hit"}),
    (("registry", "route_misses"), "repro_registry_routes_total", {"outcome": "miss"}),
    (("registry", "cache", "hits"), "repro_cache_lookups_total", {"outcome": "hit"}),
    (("registry", "cache", "misses"), "repro_cache_lookups_total", {"outcome": "miss"}),
    (("engine", "cache", "hits"), "repro_cache_lookups_total", {"outcome": "hit"}),
    (("engine", "cache", "misses"), "repro_cache_lookups_total", {"outcome": "miss"}),
)


class ScriptedResolver(SynthesisResolver):
    """The real resolver, except that GATED waits for ``gate`` and CRASH raises."""

    def __init__(self, registry, gate, **kwargs):
        super().__init__(registry, **kwargs)
        self.gate = gate

    def __call__(self, request, remaining_s=None):
        if request == CRASH:
            raise RuntimeError("resolver bug")
        if request == GATED:
            assert self.gate.wait(30.0), "resolver gate never opened"
        return super().__call__(request, remaining_s)


def scraped(body, name, labels):
    """Sum of a Prometheus body's ``name`` samples whose labels include ``labels``."""
    total = 0.0
    for line in body.splitlines():
        if line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        family, _, rendered = series.partition("{")
        if family == name and all(f'{k}="{v}"' in rendered for k, v in labels.items()):
            total += float(value)
    return total


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@pytest.fixture
def metrics():
    fresh = Metrics()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


@pytest.fixture
def service(tmp_path, metrics):
    registry = PlanRegistry(
        cache=AlgorithmCache(tmp_path / "algorithms"),
        routes_dir=tmp_path / "routes",
    )
    with PlanningService(registry, num_workers=2) as svc:
        yield svc


@pytest.fixture
def server_url(service):
    with ServerThread(make_server(service, port=0)) as thread:
        yield thread.url


class TestMetricsEndpoint:
    def test_prometheus_exposition_after_a_request(self, service, server_url, metrics):
        assert service.request(PINNED, timeout=120.0).ok

        endpoint = server_url + "/v1/metrics"
        with urllib.request.urlopen(endpoint, timeout=5) as reply:
            assert reply.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            body = reply.read().decode("utf-8")
        assert "# TYPE repro_solver_calls_total counter" in body
        assert "repro_solver_calls_total" in body
        assert 'repro_broker_requests_total{outcome="enqueued"} 1' in body
        assert 'repro_broker_jobs_total{outcome="completed"} 1' in body
        assert 'repro_resolver_rung_total{rung="synthesized"} 1' in body
        assert "repro_metrics_since_timestamp_seconds" in body

        # The typed client helper returns the same payload.
        assert fetch_metrics(server_url) == body

    def test_metrics_match_stats_on_one_run(self, tmp_path, metrics):
        registry = PlanRegistry(
            cache=AlgorithmCache(tmp_path / "algorithms"),
            routes_dir=tmp_path / "routes",
        )
        board, gate = FaultBoard(), threading.Event()
        resolver = ScriptedResolver(registry, gate, fault_board=board)
        service = PlanningService(
            registry, num_workers=1, resolver=resolver, fault_board=board
        )
        with service, ServerThread(make_server(service, port=0)) as thread:
            # One worker busy on GATED: a second caller coalesces onto it
            # and gives up, a queued job loses its only caller and drops.
            first = service.submit(GATED)
            wait_until(lambda: service.broker.stats()["pending"] == 0)
            joined = service.submit(GATED)
            assert joined.coalesced
            assert joined.wait(0.01).status == "timeout"
            assert service.submit(QUEUED).cancel()
            gate.set()
            assert first.wait(120.0).ok
            assert service.request(CRASH, timeout=60.0).status == "error"
            # Synthesized, then answered from the cache.
            assert service.request(PINNED, timeout=120.0).ok
            assert service.request(PINNED, timeout=120.0).ok
            # A route miss (and a frontier build), then a route hit.
            assert service.request(ROUTED, timeout=120.0).source == "synthesized"
            assert service.request(ROUTED, timeout=120.0).source == "registry"
            down = FaultRequest("ring:4", "register", (LinkDown(0, 1).to_json(),))
            assert service.fault(down).ok
            assert service.request(DEGRADED, timeout=120.0).ok

            stats = fetch_stats(thread.url)
            body = fetch_metrics(thread.url)

        mismatches = {}
        for path, name, labels in STATS_SERIES:
            value = stats
            for key in path:
                value = value.get(key, 0)
            assert value > 0, f"{'.'.join(path)} was never driven"
            if value != scraped(body, name, labels):
                mismatches[".".join(path)] = (value, scraped(body, name, labels))
        assert mismatches == {}


class TestStatsEngineSection:
    def test_engine_counters_and_windows(self, service, server_url):
        assert service.request(PINNED, timeout=120.0).ok
        stats = fetch_stats(server_url)

        engine = stats["engine"]
        assert set(engine["bounds"]) == {"probed", "pruned", "cut"}
        cache = engine["cache"]
        assert 0.0 <= cache["hit_rate"] <= 1.0
        # A pinned first-time synthesis stores through the cache.
        assert cache["misses"] >= 1

        # Satellite 2: every counter snapshot dates its own window.
        assert stats["broker"]["since"] == pytest.approx(time.time(), abs=300.0)
        assert stats["broker"]["uptime_s"] >= 0.0
        assert stats["resolver"]["since"] == pytest.approx(time.time(), abs=300.0)
        assert stats["resolver"]["rungs"].get("synthesized") == 1


class TestCountersAcrossRestarts:
    def test_counters_survive_stop_start(self, tmp_path, metrics):
        registry = PlanRegistry(
            cache=AlgorithmCache(tmp_path / "algorithms"),
            routes_dir=tmp_path / "routes",
        )
        service = PlanningService(registry, num_workers=2)
        service.start()
        try:
            assert service.request(PINNED, timeout=120.0).ok
            before = service.broker.stats()
            service.stop()
            service.start()
            after = service.broker.stats()
            # A restart is not a counter reset: scrapers would read a
            # rate discontinuity as lost work.
            assert after["submitted"] == before["submitted"] == 1
            assert after["completed"] == before["completed"] == 1
            assert after["since"] == before["since"]
            assert service.resolver.stats()["solves"] == 1
        finally:
            service.stop()

    def test_reset_stats_is_explicit_and_restamps_since(self, tmp_path, metrics):
        registry = PlanRegistry(
            cache=AlgorithmCache(tmp_path / "algorithms"),
            routes_dir=tmp_path / "routes",
        )
        with PlanningService(registry, num_workers=2) as service:
            assert service.request(PINNED, timeout=120.0).ok
            old_since = service.broker.stats()["since"]
            time.sleep(0.01)
            service.reset_stats()
            broker = service.broker.stats()
            assert broker["submitted"] == 0 and broker["completed"] == 0
            assert broker["resolver_crashes"] == 0
            assert broker["since"] > old_since
            resolver = service.resolver.stats()
            assert resolver["solves"] == 0 and resolver["rungs"] == {}

    def test_reset_stats_leaves_the_prometheus_series(self, service, metrics):
        assert service.request(PINNED, timeout=120.0).ok
        counters = metrics.snapshot()["counters"]
        service.reset_stats()
        # The view reads zero; the series a scraper watches keep counting.
        assert metrics.snapshot()["counters"] == counters
        stats = service.stats()
        assert stats["broker"]["submitted"] == stats["broker"]["completed"] == 0
        assert stats["resolver"]["solves"] == 0
        assert stats["resolver"]["rungs"] == {}
        assert metrics.value("repro_broker_jobs_total", outcome="completed") == 1

    def test_second_service_starts_at_zero(self, service, tmp_path, metrics):
        assert service.request(PINNED, timeout=120.0).ok
        assert service.request(PINNED, timeout=120.0).ok
        second = PlanningService(
            PlanRegistry(
                cache=AlgorithmCache(tmp_path / "second" / "algorithms"),
                routes_dir=tmp_path / "second" / "routes",
            )
        )
        stats = second.stats()
        assert stats["broker"]["submitted"] == stats["broker"]["completed"] == 0
        assert stats["resolver"]["solves"] == stats["resolver"]["registry_hits"] == 0
        assert stats["resolver"]["rungs"] == {}
        assert stats["registry"]["cache"]["hits"] == 0
        assert stats["registry"]["cache"]["misses"] == 0
        assert service.stats()["broker"]["submitted"] == 2

    def test_view_never_negative_nor_reads_a_swapped_out_registry(self, metrics):
        broker = Broker()
        broker.submit(PINNED)
        assert broker.stats()["submitted"] == 1
        swapped_out = set_metrics(Metrics())
        try:
            # The fresh registry postdates the start point: read from zero,
            # and counts landing on the swapped-out registry stay unseen.
            assert broker.stats()["submitted"] == 0
            swapped_out.inc("repro_broker_requests_total", outcome="enqueued")
            assert broker.stats()["submitted"] == 0
            broker.submit(GATED)
            assert broker.stats()["submitted"] == 1
        finally:
            set_metrics(swapped_out)
        assert get_metrics() is metrics
        assert broker.stats()["submitted"] == 2
        # Series cleared after the start point restart below it: the view
        # reads the cleared registry from zero, never negative.
        metrics.reset()
        assert broker.stats()["submitted"] == 0
        metrics.inc("repro_broker_requests_total", outcome="enqueued")
        assert broker.stats()["submitted"] == 1
        broker.close()
