"""Tests for the candidate-sweep dispatchers, including the determinism
acceptance criterion: ``strategy="parallel"`` (the speculative pipeline with
lookahead 0) returns byte-identical Pareto frontiers to the serial path on
the small test topologies.
"""

import json

import pytest

from repro.core import pareto_synthesize
from repro.engine import (
    DispatchError,
    IncrementalDispatcher,
    SerialDispatcher,
    SpeculativeDispatcher,
    SweepRequest,
    make_dispatcher,
)
from repro.telemetry.archive import PerfArchive, set_archive
from repro.topology import fully_connected, line, ring, star


@pytest.fixture
def perf_archive(tmp_path):
    archive = PerfArchive(tmp_path / "perf")
    previous = set_archive(archive)
    try:
        yield archive
    finally:
        set_archive(previous)


def frontier_bytes(frontier) -> bytes:
    return json.dumps(frontier.to_dict(include_timing=False), sort_keys=True).encode()


class TestMakeDispatcher:
    def test_strategies(self):
        assert isinstance(make_dispatcher("serial"), SerialDispatcher)
        assert isinstance(make_dispatcher("incremental"), IncrementalDispatcher)
        parallel = make_dispatcher("parallel")
        assert isinstance(parallel, SpeculativeDispatcher)
        assert parallel.lookahead == 0
        assert parallel.name == "parallel"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DispatchError):
            make_dispatcher("quantum")

    def test_invalid_workers_rejected(self):
        with pytest.raises(DispatchError):
            make_dispatcher("parallel", max_workers=0)


class TestParallelDeterminism:
    """Acceptance criterion: byte-identical frontiers, serial vs parallel."""

    @pytest.mark.parametrize(
        "collective,topology,k,max_steps",
        [
            ("Allgather", ring(4), 0, 4),
            ("Allgather", ring(4), 1, 3),
            ("Gather", line(3), 0, 4),
            ("Broadcast", star(5), 0, 3),
            ("Alltoall", fully_connected(3), 0, 3),
            ("Allreduce", ring(4), 0, 3),
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_frontiers_byte_identical(
        self, collective, topology, k, max_steps, perf_archive
    ):
        serial = pareto_synthesize(
            collective, topology, k=k, max_steps=max_steps, strategy="serial"
        )
        parallel = pareto_synthesize(
            collective, topology, k=k, max_steps=max_steps,
            strategy="parallel", max_workers=2,
        )
        assert frontier_bytes(serial) == frontier_bytes(parallel)
        # The alias runs the speculative pipeline but keeps its own name in
        # the frontier and in the archive's sweep records.
        assert parallel.strategy == "parallel"
        assert {r.strategy for r in perf_archive.records(kind="sweep")} == {
            "serial", "parallel",
        }

    def test_parallel_sweep_replays_serial_rule(self):
        request = SweepRequest(
            collective="Allgather",
            topology=ring(6),
            steps=3,
            candidates=((3, 1), (4, 1), (5, 1)),
        )
        serial = SerialDispatcher().sweep(request)
        parallel = make_dispatcher("parallel", max_workers=2).sweep(request)
        assert [r.status for r in parallel.results] == [r.status for r in serial.results]
        assert len(parallel.results) == len(serial.results)

    def test_single_candidate_runs_inline(self):
        # No pool is spun up for a single candidate; outcome matches serial.
        request = SweepRequest(
            collective="Allgather",
            topology=ring(4),
            steps=2,
            candidates=((2, 1),),
        )
        outcome = make_dispatcher("parallel", max_workers=4).sweep(request)
        assert outcome.first_sat is not None


class TestParallelWithCustomBackend:
    def test_runtime_registered_backend_reaches_the_workers(self):
        # Worker processes start with a fresh registry; the dispatcher ships
        # the backend object along so runtime registrations still compose
        # with strategy="parallel".
        from repro.engine import register_backend, unregister_backend
        from engine_backend_helper import PickleableCountingBackend

        register_backend(PickleableCountingBackend(), replace=True)
        try:
            frontier = pareto_synthesize(
                "Allgather", ring(4), k=0, max_steps=3,
                strategy="parallel", max_workers=2, backend="pickle-counting",
            )
            assert frontier.points
            assert all(p.backend == "pickle-counting" for p in frontier.points)
        finally:
            unregister_backend("pickle-counting")


class TestIncrementalEquivalence:
    def test_incremental_matches_serial_signatures(self):
        # Incremental solving may find a different concrete schedule, but the
        # frontier's (C, S, R) signatures, statuses and optimality flags are
        # determined by satisfiability alone and must agree.
        serial = pareto_synthesize("Allgather", ring(6), k=1, max_steps=4, strategy="serial")
        incremental = pareto_synthesize(
            "Allgather", ring(6), k=1, max_steps=4, strategy="incremental"
        )
        assert [p.signature for p in incremental.points] == [
            p.signature for p in serial.points
        ]
        assert [p.optimality_label() for p in incremental.points] == [
            p.optimality_label() for p in serial.points
        ]
        for point in incremental.points:
            point.algorithm.verify()

    def test_naive_encoding_falls_back_to_serial(self):
        request = SweepRequest(
            collective="Allgather",
            topology=ring(4),
            steps=2,
            candidates=((2, 1), (3, 1)),
            encoding="naive",
        )
        outcome = IncrementalDispatcher().sweep(request)
        assert outcome.first_sat is not None
        assert outcome.stats.encode_calls >= 1


class TestEngineStatsOnFrontier:
    def test_frontier_records_engine_stats(self):
        frontier = pareto_synthesize("Allgather", ring(4), k=0, max_steps=3)
        stats = frontier.engine_stats
        assert stats["candidates_probed"] >= len(frontier.points)
        assert stats["encode_calls"] >= 1
        assert stats["cache_hits"] == 0
