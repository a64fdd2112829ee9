"""Candidate-sweep dispatchers for Pareto-Synthesize.

Algorithm 1 probes, for each step count ``S``, an ordered list of ``(R, C)``
candidates and keeps the first satisfiable one.  That loop is written once
here: :func:`_classify` decides each candidate's fate before any solver
work (dominance-pruned, answered by a monotone cut, replayed from the
cache, or probed), and :func:`_commit` replays the serial decision rule
over the verdicts in cost order — it counts :class:`SweepStats`, stops at
the first SAT, feeds the bounds ledger, persists cut verdicts, emits the
cache-hit probe events and publishes the sweep's telemetry exactly once.
The dispatchers differ only in *where* the probes run:

* :class:`SerialDispatcher` — the paper's loop: one cold encode+solve per
  candidate, in process, reached in cost order.
* :class:`IncrementalDispatcher` — in process, through a
  :class:`~repro.engine.session.SessionFamily`: one shared-prefix encoding
  per step count serves *every* ``(R, C)`` candidate via per-candidate
  assumption frames, and the reachability analysis is shared across step
  counts.
* :class:`SpeculativeDispatcher` — on a process pool: given the whole
  sweep sequence (:meth:`~SpeculativeDispatcher.sweep_many`) it keeps the
  pool fed with candidates from the next ``lookahead`` step counts while
  the current one is still in flight, cancels losers the moment a cheaper
  SAT lands, and commits strictly in cost order — so its frontier is
  byte-identical to the serial dispatcher's even though completion order
  is arbitrary.  ``strategy="parallel"`` is this dispatcher with
  ``lookahead=0`` (fan-out within one step count only).  An optional
  backend *portfolio* races several solver backends on each candidate and
  takes the first SAT/UNSAT verdict.

The process pool receives the shared sweep context (topology, limits,
backend objects) once per worker via its initializer; per-candidate task
payloads are just the ``(S, R, C, backend)`` tuple.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..core.instance import make_instance
from ..telemetry import Span, get_metrics, get_tracer
from ..topology import Topology
from .backends import QUARANTINE, BackendQuarantine, get_backend
from .bounds import CUT, PROBE, PRUNE, BoundsLedger, ProbePlan, cut_result
from .cache import AlgorithmCache, lookup_result, store_result
from .session import SessionFamily


class DispatchError(Exception):
    """Raised for invalid dispatcher configurations."""


@dataclass(frozen=True)
class SweepRequest:
    """One fixed-``S`` candidate sweep: the (R, C) list in probe order."""

    collective: str
    topology: Topology
    steps: int
    candidates: Tuple[Tuple[int, int], ...]  # (rounds, chunks) in cost order
    root: int = 0
    encoding: str = "sccl"
    prune: bool = True
    backend: Optional[str] = None
    time_limit: Optional[float] = None
    conflict_limit: Optional[int] = None
    stop_at_first_sat: bool = True
    #: Bound-seeded pruning: a shared :class:`~repro.engine.bounds.BoundsLedger`
    #: consulted before any solver work.  Candidates it classifies as
    #: dominance-pruned are skipped outright, candidates inside a recorded
    #: UNSAT's monotone shadow are answered with a synthetic cut result, and
    #: every committed verdict is fed back via ``observe`` so later sweeps
    #: prune harder.  ``None`` disables seeding (the pre-bounds behaviour).
    bounds: Optional[BoundsLedger] = None


@dataclass
class SweepStats:
    """Work accounting for one or more sweeps."""

    encode_calls: int = 0
    solver_calls: int = 0
    cache_hits: int = 0
    candidates_probed: int = 0
    unknown_retries: int = 0
    #: Candidates skipped outright by dominance pruning (no result emitted).
    probes_pruned: int = 0
    #: Candidates answered by a synthetic monotone-cut UNSAT (no solver call).
    probes_cut: int = 0

    def merge(self, other: "SweepStats") -> None:
        self.encode_calls += other.encode_calls
        self.solver_calls += other.solver_calls
        self.cache_hits += other.cache_hits
        self.candidates_probed += other.candidates_probed
        self.unknown_retries += other.unknown_retries
        self.probes_pruned += other.probes_pruned
        self.probes_cut += other.probes_cut

    def as_dict(self) -> Dict[str, int]:
        return {
            "encode_calls": self.encode_calls,
            "solver_calls": self.solver_calls,
            "cache_hits": self.cache_hits,
            "candidates_probed": self.candidates_probed,
            "unknown_retries": self.unknown_retries,
            "probes_pruned": self.probes_pruned,
            "probes_cut": self.probes_cut,
        }


@dataclass
class SweepOutcome:
    """Per-candidate results in probe order, truncated by the serial rule."""

    results: List = field(default_factory=list)  # List[SynthesisResult]
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def first_sat(self):
        for result in self.results:
            if result.is_sat:
                return result
        return None


def _publish_bounds_metrics(stats: SweepStats) -> None:
    """Mirror one sweep's bounds accounting into the metrics registry.

    Published once per *committed* sweep, straight from the stats the
    caller reports, so the ``repro_bounds_candidates_total`` series equals
    the SweepStats totals by construction — in particular, speculative
    ``_try_commit`` replays (which build and discard partial outcomes)
    never double-count.
    """
    metrics = get_metrics()
    if stats.candidates_probed:
        metrics.inc(
            "repro_bounds_candidates_total",
            value=float(stats.candidates_probed), action="probed",
        )
    if stats.probes_pruned:
        metrics.inc(
            "repro_bounds_candidates_total",
            value=float(stats.probes_pruned), action="pruned",
        )
    if stats.probes_cut:
        metrics.inc(
            "repro_bounds_candidates_total",
            value=float(stats.probes_cut), action="cut",
        )


def _commit_sweep_telemetry(
    strategy: str, request: SweepRequest, outcome: SweepOutcome
) -> None:
    """Publish one committed sweep: metrics registry + performance archive.

    Called exactly once per committed sweep by every dispatcher (the
    speculative path calls it from ``_try_commit``, whose discarded partial
    replays never reach here), so the archive's ``sweep`` records and the
    ``repro_bounds_candidates_total`` series agree by construction.
    """
    from ..telemetry import exact_quantiles, record_run

    _publish_bounds_metrics(outcome.stats)
    solved = [r for r in outcome.results if not r.cache_hit]
    first_sat = outcome.first_sat
    record_run(
        "sweep",
        name=f"{request.collective}/{request.topology.name}/S{request.steps}",
        features={
            "nodes": request.topology.num_nodes,
            "S": request.steps,
            "candidates": len(request.candidates),
        },
        strategy=strategy,
        backend=(
            outcome.results[0].backend if outcome.results
            else (request.backend or "")
        ),
        verdict=first_sat.status.value if first_sat is not None else "unsat",
        wall_s=sum(r.encode_time + r.solve_time + r.verify_time for r in solved),
        phases={
            "encode_s": round(sum(r.encode_time for r in solved), 6),
            "solve_s": round(sum(r.solve_time for r in solved), 6),
            "verify_s": round(sum(r.verify_time for r in solved), 6),
        },
        quantiles={
            f"solve_{key}": value
            for key, value in exact_quantiles(
                [r.solve_time for r in solved]
            ).items()
        },
        extra=outcome.stats.as_dict(),
    )


#: A candidate the plan keeps whose verdict was replayed from the cache.
HIT = "hit"
#: A probe the commit still waits for (a pool future in flight).
PENDING = "pending"


class _Verdict(NamedTuple):
    """One candidate's classified fate, in the form :func:`_commit` consumes.

    ``encodes``/``retries`` are the solver work a fresh probe cost (an
    exact-formula UNKNOWN retry is one more encode and solver call).
    """

    action: str  # PRUNE | CUT | HIT | PROBE | PENDING
    result: object = None  # Optional[SynthesisResult]
    encodes: int = 0
    retries: int = 0


def _plan_probes(request: SweepRequest) -> Optional[ProbePlan]:
    """The bounds ledger's verdict on this sweep's candidates (None unseeded).

    Planned *before* any cache lookup, so warm replays make the same
    probe/cut/prune decisions as the cold run that filled the cache.
    """
    if request.bounds is None:
        return None
    return request.bounds.plan(request.steps, request.candidates)


def _classify(
    request: SweepRequest, plan: Optional[ProbePlan], index: int,
    cache: Optional[AlgorithmCache],
) -> _Verdict:
    """Pruned, cut, cache hit or probe: one candidate before any solver work.

    Cuts carry their synthetic UNSAT and hits their replayed result; a
    ``PROBE`` verdict has no result yet.  With ``cache=None`` the cache is
    not consulted.
    """
    action = PROBE if plan is None else plan.actions[index]
    if action == PRUNE:
        return _Verdict(PRUNE)
    rounds, chunks = request.candidates[index]
    if action == CUT:
        return _Verdict(CUT, cut_result(
            request.collective, request.topology, request.steps, rounds, chunks,
            root=request.root, witness=plan.witnesses.get(index),
        ))
    if cache is not None:
        cached = lookup_result(
            cache,
            make_instance(
                request.collective, request.topology, chunks,
                request.steps, rounds, root=request.root,
            ),
            encoding=request.encoding, prune=request.prune,
        )
        if cached is not None:
            return _Verdict(HIT, cached)
    return _Verdict(PROBE)


def _commit(
    strategy: str,
    request: SweepRequest,
    verdicts: Iterable[_Verdict],
    cache: Optional[AlgorithmCache],
    span,
) -> Optional[SweepOutcome]:
    """Replay the serial decision rule over one sweep's verdicts, in cost order.

    ``verdicts`` yields one :class:`_Verdict` per candidate in candidate
    order; it may end early (probes past the first SAT that were never
    run or were cancelled).  A ``PENDING`` verdict means the decision
    still depends on an unfinished probe: the commit returns ``None`` with
    no side effects, so a pool dispatcher can simply try again later.
    Otherwise every side effect of a committed sweep happens here, once:
    ledger observations in cost order, cut verdicts persisted to
    ``cache``, a zero-duration probe event under ``span`` for each cache
    hit, and the sweep's metrics and archive record.
    """
    outcome = SweepOutcome()
    stats = outcome.stats
    actions: List[str] = []
    for verdict in verdicts:
        if verdict.action == PENDING:
            return None
        if verdict.action == PRUNE:
            stats.probes_pruned += 1
            continue
        actions.append(verdict.action)
        outcome.results.append(verdict.result)
        if verdict.action == CUT:
            stats.probes_cut += 1
            continue
        stats.candidates_probed += 1
        if verdict.result.cache_hit:  # replayed here or by a pool worker
            stats.cache_hits += 1
        else:
            stats.encode_calls += verdict.encodes
            stats.solver_calls += 1 + verdict.retries
            stats.unknown_retries += verdict.retries
        if verdict.result.is_sat and request.stop_at_first_sat:
            break

    tracer = get_tracer()
    for action, result in zip(actions, outcome.results):
        if action == CUT:
            if cache is not None:
                store_result(
                    cache, result, encoding=request.encoding, prune=request.prune
                )
            continue
        if request.bounds is not None:
            request.bounds.observe(result)
        if action == HIT and isinstance(span, Span):
            # No probe ran, so no probe span exists: record the replay as a
            # zero-duration event under the sweep span.
            note = Span("probe", {
                "collective": request.collective,
                "C": result.instance.chunks_per_node,
                "S": request.steps,
                "R": result.instance.rounds,
                "verdict": result.status.value,
                "cache_hit": True,
                "backend": result.backend,
            })
            note._open = False
            tracer._attach(note, [span])
    _commit_sweep_telemetry(strategy, request, outcome)
    return outcome


def _synthesize(request: SweepRequest, rounds: int, chunks: int):
    """Cold encode+solve of one candidate's exact formula (no cache)."""
    from ..core.synthesizer import synthesize

    return synthesize(
        make_instance(
            request.collective, request.topology, chunks,
            request.steps, rounds, root=request.root,
        ),
        encoding=request.encoding,
        prune=request.prune,
        time_limit=request.time_limit,
        conflict_limit=request.conflict_limit,
        backend=request.backend,
    )


def _serial_probe(request: SweepRequest) -> Callable[[int], _Verdict]:
    def probe(index: int) -> _Verdict:
        rounds, chunks = request.candidates[index]
        return _Verdict(PROBE, _synthesize(request, rounds, chunks), encodes=1)

    return probe


def _sweep_inline(
    strategy: str,
    request: SweepRequest,
    cache: Optional[AlgorithmCache],
    plan: Optional[ProbePlan],
    probe: Callable[[int], _Verdict],
) -> SweepOutcome:
    """Run one sweep in this process: classify and probe lazily in cost order.

    The commit stops pulling verdicts at the first SAT, so candidates past
    it are never looked up or solved.  Fresh SAT/UNSAT verdicts are
    written to the cache as they land.
    """
    get_backend(request.backend)  # fail fast, even on a fully warm cache

    def verdicts():
        for index in range(len(request.candidates)):
            verdict = _classify(request, plan, index, cache)
            if verdict.action == PROBE:
                verdict = probe(index)
                if cache is not None:
                    store_result(
                        cache, verdict.result,
                        encoding=request.encoding, prune=request.prune,
                    )
            yield verdict

    with get_tracer().span(
        "sweep", strategy=strategy, S=request.steps,
        collective=request.collective,
    ) as span:
        return _commit(strategy, request, verdicts(), cache, span)


class SerialDispatcher:
    """Cold encode+solve per candidate — the seed behaviour, cache-aware."""

    name = "serial"

    def sweep(self, request: SweepRequest, cache: Optional[AlgorithmCache] = None) -> SweepOutcome:
        return _sweep_inline(
            self.name, request, cache, _plan_probes(request), _serial_probe(request)
        )


class IncrementalDispatcher:
    """Assumption-based probing over shared-prefix family encodings.

    Each sweep is served by a :class:`SessionFamily` held across ``sweep``
    calls, so a whole Pareto run pays one encoding per step count — every
    ``(R, C)`` candidate is an assumption frame over it — and the
    reachability analysis behind variable pruning is computed once per
    (collective, topology).  Falls back to the serial dispatcher for the
    naive ablation encoding, which has no selector layers.

    The deterministic UNKNOWN policy: a family frame solves a *larger*
    shared formula under assumptions, so it can exhaust a per-probe budget
    where the standalone formula would not — and the other strategies,
    which solve standalone formulas, would then disagree with this one on
    the frontier.  So a frame that comes back UNKNOWN is retried on the
    exact standalone formula with the same budget before the lattice point
    is conceded; the family's SAT/UNSAT verdicts are sound and never
    retried.
    """

    name = "incremental"

    def __init__(self) -> None:
        self._families: Dict[tuple, SessionFamily] = {}

    def _family(self, request: SweepRequest) -> SessionFamily:
        key = (
            request.collective, id(request.topology), request.root,
            request.prune, request.backend or "",
        )
        family = self._families.get(key)
        if family is None:
            family = SessionFamily(
                request.collective,
                request.topology,
                root=request.root,
                prune=request.prune,
                backend=request.backend,
            )
            self._families[key] = family
        return family

    def sweep(self, request: SweepRequest, cache: Optional[AlgorithmCache] = None) -> SweepOutcome:
        if request.encoding != "sccl":
            return SerialDispatcher().sweep(request, cache)

        family = self._family(request)
        plan = _plan_probes(request)
        # Size-adaptive family budget: the chunk selector starts at the first
        # probed candidate's C and grows on demand (SessionFamily extends the
        # chunk layer in place), so a sweep whose large-C candidates were all
        # pruned never pays for their selector variables.  Rounds overflow
        # forces a rebuild, so the rounds budget is still sized up front —
        # but only over the candidates that will actually be probed.
        max_rounds = max(
            (
                r
                for index, (r, _) in enumerate(request.candidates)
                if plan is None or plan.actions[index] == PROBE
            ),
            default=request.steps,
        )

        def probe(index: int) -> _Verdict:
            rounds, chunks = request.candidates[index]
            before = family.encode_calls
            result = family.solve(
                request.steps,
                chunks,
                rounds,
                max_rounds=max_rounds,
                time_limit=request.time_limit,
                conflict_limit=request.conflict_limit,
            )
            encodes = family.encode_calls - before
            if not result.is_unknown:
                return _Verdict(PROBE, result, encodes)
            retry = _synthesize(request, rounds, chunks)
            return _Verdict(
                PROBE, result if retry.is_unknown else retry, encodes + 1, retries=1
            )

        return _sweep_inline(self.name, request, cache, plan, probe)


# ----------------------------------------------------------------------
# Process-pool workers
# ----------------------------------------------------------------------
#: Per-worker sweep context installed by the pool initializer, so the
#: request payload (topology object, limits, backend objects) is pickled
#: once per worker instead of once per candidate task.
_WORKER_SHARED: Optional[dict] = None


def _init_candidate_worker(shared: dict) -> None:
    """Pool initializer: install the shared sweep context in this worker.

    A worker process starts with a fresh registry (only the default and
    any import-time backends), so runtime-registered backends travel as
    pickled objects once per worker and are re-registered here.
    """
    global _WORKER_SHARED
    from .backends import register_backend

    for backend_obj in shared.get("backend_objs", ()):
        register_backend(backend_obj, replace=True)
    _WORKER_SHARED = shared


def _solve_candidate_worker(task: Tuple[int, int, int, Optional[str], bool]):
    """Solve one interned ``(steps, rounds, chunks, backend, store)`` task."""
    from ..core.synthesizer import synthesize

    shared = _WORKER_SHARED
    if shared is None:  # pragma: no cover - initializer contract
        raise DispatchError("worker used before _init_candidate_worker ran")
    steps, rounds, chunks, backend, store_cache = task
    cache = (
        AlgorithmCache(shared["cache_dir"])
        if shared["cache_dir"] and store_cache
        else None
    )
    instance = make_instance(
        shared["collective"], shared["topology"], chunks, steps, rounds,
        root=shared["root"],
    )
    kwargs = dict(
        encoding=shared["encoding"],
        prune=shared["prune"],
        time_limit=shared["time_limit"],
        conflict_limit=shared["conflict_limit"],
        backend=backend,
        cache=cache,
    )
    if not shared.get("trace"):
        return synthesize(instance, **kwargs)
    # The parent is tracing: record this probe with a private worker tracer
    # and ship the span forest back in the pickled result.  The parent
    # re-parents it under its sweep span, keeping this process's pid/tid.
    from ..telemetry import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        result = synthesize(instance, **kwargs)
    result.trace = tracer.export()
    return result


def _shared_payload(
    request: SweepRequest,
    cache: Optional[AlgorithmCache],
    backend_objs: Sequence[object],
) -> dict:
    return {
        "collective": request.collective,
        "topology": request.topology,
        "root": request.root,
        "encoding": request.encoding,
        "prune": request.prune,
        "time_limit": request.time_limit,
        "conflict_limit": request.conflict_limit,
        "cache_dir": str(cache.root) if cache is not None else None,
        "backend_objs": list(backend_objs),
        "trace": get_tracer().enabled,
    }


def _ingest_worker_result(result, span) -> None:
    """Fold one pool-worker result into the parent's telemetry.

    Worker processes run with their own (discarded) metrics registry, so
    the parent replays the per-result counters here — for *every* worker
    completion it consumes, including speculative losers: the solver time
    was honestly spent even when the replay rule later discards the
    result.  Worker-recorded spans are grafted under ``span`` with their
    original pid/tid so Perfetto renders one track per worker.
    """
    metrics = get_metrics()
    if result.cache_hit:
        metrics.inc("repro_cache_lookups_total", outcome="hit")
    else:
        metrics.inc("repro_solver_calls_total", backend=result.backend)
        metrics.observe(
            "repro_solve_seconds", result.solve_time, backend=result.backend
        )
        metrics.observe("repro_encode_seconds", result.encode_time)
    if result.trace:
        if isinstance(span, Span):
            span.adopt(result.trace)
        result.trace = None


# ----------------------------------------------------------------------
# Speculative cross-S pipeline
# ----------------------------------------------------------------------
@dataclass
class _SweepState:
    """In-flight bookkeeping for one request of a speculative batch."""

    request: SweepRequest
    results: List  # Optional[SynthesisResult] per candidate index
    inflight: Set[int] = field(default_factory=set)  # indices awaiting a verdict
    sat_bound: Optional[int] = None  # smallest index known SAT
    verdicts: Dict[int, List] = field(default_factory=dict)  # portfolio returns
    #: Free-floating "sweep" span for this step count (``tracer.open``) —
    #: several stay open at once while the pipeline speculates; closed with
    #: ``committed=True/False`` at commit / batch teardown.  ``NULL_SPAN``
    #: (not a :class:`Span`) when tracing is disabled.
    span: object = None
    #: Indices resolved from the parent's cache at prepare time; their
    #: probe events are synthesized at commit (workers never saw them).
    cached: Set[int] = field(default_factory=set)

    def note_sat(self, index: int) -> None:
        if self.sat_bound is None or index < self.sat_bound:
            self.sat_bound = index


class SpeculativeDispatcher:
    """Cross-``S`` speculative fan-out with deterministic cost-order commits.

    :meth:`sweep_many` receives the whole sweep sequence (one request per
    step count, in enumeration order) plus an optional ``stop`` predicate
    (Algorithm 1's bandwidth-optimality test).  Candidates are fanned over
    one process pool: the current step count's probes are submitted first
    and the next ``lookahead`` step counts are kept in flight behind them,
    so the pool never drains while a slow UNSAT proof blocks the frontier
    decision.  Completion order is arbitrary, but results are *committed*
    strictly in (step count, cost) order and each sweep is truncated by the
    serial first-SAT rule, so the observable outcome — and therefore the
    Pareto frontier — is byte-identical to running the serial dispatcher
    over the same sequence.  Losers are cancelled as soon as a cheaper SAT
    or a satisfied ``stop`` predicate makes them irrelevant; a cancelled
    sweep simply never produces an outcome (its slot stays ``None``).

    ``portfolio`` names several registered solver backends to race on every
    candidate: the first SAT/UNSAT verdict wins and the sibling runs are
    cancelled; UNKNOWN only wins when every backend returns it.  Racing
    keeps the *frontier signatures* deterministic (satisfiability does not
    depend on the winner) but the decoded schedules may vary run to run
    with which backend answers first, so the byte-identity contract holds
    only for the default single-backend configuration.  With a portfolio
    the dispatcher writes only committed winners back to the cache, so a
    warm replay serves exactly the schedules this run reported.
    """

    name = "speculative"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        lookahead: int = 1,
        portfolio: Optional[Sequence[str]] = None,
        quarantine: Optional[BackendQuarantine] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise DispatchError("max_workers must be at least 1")
        if lookahead < 0:
            raise DispatchError("lookahead must be non-negative")
        self.max_workers = max_workers
        self.lookahead = lookahead
        self.portfolio: Optional[Tuple[str, ...]] = (
            tuple(portfolio) if portfolio else None
        )
        if self.portfolio is not None and len(set(self.portfolio)) != len(self.portfolio):
            raise DispatchError("portfolio backends must be distinct")
        self.quarantine = quarantine if quarantine is not None else QUARANTINE

    # ------------------------------------------------------------------
    def sweep(self, request: SweepRequest, cache: Optional[AlgorithmCache] = None) -> SweepOutcome:
        if self.portfolio is None and (
            len(request.candidates) <= 1 or self.max_workers == 1
        ):
            # Nothing to fan out: solve in process instead of paying a pool.
            return _sweep_inline(
                self.name, request, cache, _plan_probes(request),
                _serial_probe(request),
            )
        outcome = self.sweep_many([request], cache=cache)[0]
        assert outcome is not None  # a single request is never skipped
        return outcome

    # ------------------------------------------------------------------
    def sweep_many(
        self,
        requests: Sequence[SweepRequest],
        cache: Optional[AlgorithmCache] = None,
        stop: Optional[Callable[[SweepOutcome], bool]] = None,
    ) -> List[Optional[SweepOutcome]]:
        """Execute the sweep sequence, speculating past undecided step counts.

        Returns one entry per request, in order: a :class:`SweepOutcome`
        for every sweep that was committed, then ``None`` for sweeps that
        were cancelled because ``stop`` accepted an earlier outcome.  The
        committed prefix is exactly the sequence of outcomes a serial loop
        calling ``sweep`` per request (and breaking when ``stop`` fires)
        would have produced.
        """
        requests = list(requests)
        if not requests:
            return []
        self._check_uniform(requests)
        backends = (
            list(self.portfolio)
            if self.portfolio is not None
            else [requests[0].backend]
        )
        # Fail fast on unknown backend names before spawning any workers.
        backend_objs = [get_backend(name) for name in backends]

        tracer = get_tracer()
        batch_ctx = tracer.span(
            "sweep_batch", strategy=self.name, sweeps=len(requests),
            collective=requests[0].collective,
        )
        with batch_ctx:
            return self._sweep_many_traced(requests, cache, stop, backends, backend_objs)

    def _sweep_many_traced(
        self,
        requests: List[SweepRequest],
        cache: Optional[AlgorithmCache],
        stop: Optional[Callable[[SweepOutcome], bool]],
        backends: List[Optional[str]],
        backend_objs: List[object],
    ) -> List[Optional[SweepOutcome]]:
        states = [self._prepare_state(request, cache) for request in requests]
        outcomes: List[Optional[SweepOutcome]] = [None] * len(requests)

        # Worker processes start on the first submit, so a batch whose every
        # candidate was cut, pruned or cached commits without spawning any.
        total_tasks = sum(len(state.inflight) for state in states)
        shared = _shared_payload(requests[0], cache, backend_objs)
        workers = min(
            self.max_workers or os.cpu_count() or 1,
            max(1, total_tasks * len(backends)),
        )
        futures: Dict[object, Tuple[int, int, str]] = {}
        candidate_futures: Dict[Tuple[int, int], List[object]] = {}
        decided = 0
        submitted = 0

        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_candidate_worker,
            initargs=(shared,),
        )
        try:
            def active_backends() -> List[Optional[str]]:
                """The portfolio minus quarantined members (never empty).

                Quarantine filtering happens at submit time, so a backend
                benched mid-batch stops receiving new candidates while its
                in-flight ones drain normally.  If *every* portfolio member
                is benched the full portfolio runs anyway — refusing to
                solve would be worse than racing flaky solvers.
                """
                if self.portfolio is None:
                    return list(backends)
                healthy = [
                    name for name in backends
                    if not self.quarantine.is_quarantined(name)
                ]
                return healthy or list(backends)

            def submit_request(index: int) -> None:
                state = states[index]
                if state.request.bounds is not None:
                    # Re-plan with everything committed so far: candidates
                    # that became dominance-pruned since prepare time are
                    # dropped before they ever reach the pool.  Pruning is
                    # monotone (the frontier cap only tightens), so a
                    # trimmed candidate stays pruned at commit time.
                    replanned = _plan_probes(state.request)
                    for cand in list(state.inflight):
                        if replanned.actions[cand] != PROBE:
                            state.inflight.discard(cand)
                store = self.portfolio is None
                racers = active_backends()
                for cand in sorted(state.inflight):
                    rounds, chunks = state.request.candidates[cand]
                    group = candidate_futures.setdefault((index, cand), [])
                    for backend in racers:
                        future = pool.submit(
                            _solve_candidate_worker,
                            (state.request.steps, rounds, chunks, backend, store),
                        )
                        futures[future] = (index, cand, backend)
                        group.append(future)

            def cancel_candidate(index: int, cand: int) -> None:
                state = states[index]
                for future in candidate_futures.get((index, cand), ()):
                    future.cancel()
                if state.results[cand] is None:
                    state.inflight.discard(cand)

            # Keep the current sweep plus `lookahead` speculative ones in
            # flight; FIFO pool order makes earlier step counts run first.
            while submitted < len(requests) and submitted <= decided + self.lookahead:
                submit_request(submitted)
                submitted += 1

            while decided < len(requests):
                outcome = self._try_commit(states[decided], cache)
                if outcome is not None:
                    if cache is not None and self.portfolio is not None:
                        # Only committed winners are persisted under a
                        # portfolio, so warm replays match this run (the
                        # commit itself persisted the cut verdicts).
                        for result in outcome.results:
                            if not result.cache_hit and result.provenance != "cut":
                                store_result(
                                    cache, result,
                                    encoding=requests[0].encoding,
                                    prune=requests[0].prune,
                                )
                    outcomes[decided] = outcome
                    self._close_sweep_span(states[decided], committed=True)
                    decided += 1
                    if stop is not None and stop(outcome):
                        break  # later step counts are speculative losers
                    while (
                        submitted < len(requests)
                        and submitted <= decided + self.lookahead
                    ):
                        submit_request(submitted)
                        submitted += 1
                    continue
                if not futures:  # pragma: no cover - commit/wait invariant
                    raise DispatchError("speculative sweep stalled with no futures")
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    index, cand, backend = futures.pop(future)
                    state = states[index]
                    if future.cancelled():
                        if state.results[cand] is None:
                            state.inflight.discard(cand)
                        continue
                    result = future.result()  # worker errors propagate
                    # Crash counters travel back from the worker process in
                    # the result's solver stats; fold them into the parent's
                    # quarantine so submit-time filtering sees them.
                    self._note_backend_health(result)
                    _ingest_worker_result(result, state.span)
                    expected = len(candidate_futures.get((index, cand), ()))
                    self._record(state, cand, backend, result, expected)
                    if state.results[cand] is None:
                        continue  # portfolio race still undecided
                    # The race is decided: stop the losing sibling backends
                    # (queued ones are cancelled; running ones finish and
                    # are dropped by _record).
                    for sibling in candidate_futures.get((index, cand), ()):
                        if sibling is not future:
                            sibling.cancel()
                    if state.results[cand].is_sat and state.request.stop_at_first_sat:
                        state.note_sat(cand)
                        for later in list(state.inflight):
                            if later > cand:
                                cancel_candidate(index, later)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            # Close cancelled/abandoned sweep spans; committed ones already
            # closed (close is idempotent, so this is a no-op for them).
            for state in states:
                self._close_sweep_span(state, committed=False)
        return outcomes

    # ------------------------------------------------------------------
    @staticmethod
    def _close_sweep_span(state: _SweepState, *, committed: bool) -> None:
        """Finish one step count's free-floating sweep span (idempotent)."""
        if isinstance(state.span, Span):
            get_tracer().close(state.span, committed=committed)

    @staticmethod
    def _check_uniform(requests: Sequence[SweepRequest]) -> None:
        def context(request: SweepRequest) -> tuple:
            return (
                request.collective, id(request.topology), request.root,
                request.encoding, request.prune, request.backend,
                request.time_limit, request.conflict_limit,
                request.stop_at_first_sat, id(request.bounds),
            )

        first = context(requests[0])
        for request in requests[1:]:
            if context(request) != first:
                raise DispatchError(
                    "sweep_many requests must differ only in steps/candidates"
                )

    def _prepare_state(
        self, request: SweepRequest, cache: Optional[AlgorithmCache]
    ) -> _SweepState:
        state = _SweepState(
            request=request, results=[None] * len(request.candidates)
        )
        state.span = get_tracer().open(
            "sweep", strategy=self.name, S=request.steps,
            collective=request.collective,
        )
        plan = _plan_probes(request)
        pending: List[int] = []
        for index in range(len(request.candidates)):
            # Cut or pruned candidates are resolved at commit time with no
            # solver work and no cache traffic.
            verdict = _classify(request, plan, index, cache)
            if verdict.action == HIT:
                state.results[index] = verdict.result
                state.cached.add(index)
                if verdict.result.is_sat and request.stop_at_first_sat:
                    state.note_sat(index)
            elif verdict.action == PROBE:
                pending.append(index)
        if state.sat_bound is not None:
            pending = [i for i in pending if i < state.sat_bound]
        state.inflight = set(pending)
        return state

    def _note_backend_health(self, result) -> None:
        """Feed a worker result's crash accounting into the quarantine."""
        stats = getattr(result, "solver_stats", None) or {}
        exhausted = int(stats.get("exhausted_calls", 0) or 0)
        if exhausted:
            for _ in range(exhausted):
                self.quarantine.record_crash(result.backend)
        elif not result.is_unknown and not result.cache_hit:
            self.quarantine.record_success(result.backend)

    def _record(
        self, state: _SweepState, cand: int, backend: str, result, expected: int
    ) -> None:
        """Fold one worker return into the candidate's verdict.

        ``expected`` is how many racers were submitted for this candidate
        (quarantine filtering makes it per-candidate, not the portfolio
        size).
        """
        if state.results[cand] is not None:
            return  # a sibling already decided this candidate
        if self.portfolio is None:
            state.results[cand] = result
            state.inflight.discard(cand)
            return
        if not result.is_unknown:
            # First definite verdict wins the race.
            state.results[cand] = result
            state.inflight.discard(cand)
            return
        returned = state.verdicts.setdefault(cand, [])
        returned.append(result)
        if len(returned) >= expected:
            # Every racer gave up within its limits: UNKNOWN it is.
            state.results[cand] = returned[0]
            state.inflight.discard(cand)

    def _try_commit(
        self, state: _SweepState, cache: Optional[AlgorithmCache]
    ) -> Optional[SweepOutcome]:
        """Commit one sweep once its ordered prefix is known (else ``None``).

        With a bounds ledger the plan is recomputed *at commit time*:
        commits happen strictly in step-count order and verdicts are fed to
        the ledger only on successful commits, so the ledger state here is
        exactly what a serial run would have seen when it planned this
        sweep — speculative over-submission never changes the outcome.
        """
        request = state.request
        plan = _plan_probes(request)

        def verdicts():
            for index in range(len(request.candidates)):
                verdict = _classify(request, plan, index, None)
                if verdict.action != PROBE:
                    yield verdict
                    continue
                result = state.results[index]
                if result is None:
                    if index in state.inflight:
                        yield _Verdict(PENDING)
                    return  # cancelled loser past the first SAT
                if index in state.cached:
                    yield _Verdict(HIT, result)
                else:
                    yield _Verdict(PROBE, result, encodes=1)

        return _commit(self.name, request, verdicts(), cache, state.span)


STRATEGIES = {
    "serial": SerialDispatcher,
    "incremental": IncrementalDispatcher,
    "parallel": SpeculativeDispatcher,  # with lookahead=0, see make_dispatcher
    "speculative": SpeculativeDispatcher,
}


def make_dispatcher(
    strategy: str = "incremental",
    *,
    max_workers: Optional[int] = None,
    portfolio: Optional[Sequence[str]] = None,
    lookahead: int = 1,
):
    """Build a dispatcher by strategy name.

    ``"parallel"`` is the speculative pipeline with ``lookahead=0``: it
    fans one step count's candidates over the pool and starts the next
    step count only after committing this one.  It reports itself (in
    spans, sweep records and frontiers) as ``parallel``.
    """
    if strategy not in STRATEGIES:
        raise DispatchError(
            f"unknown sweep strategy {strategy!r}; available: {sorted(STRATEGIES)}"
        )
    if portfolio and strategy != "speculative":
        raise DispatchError("portfolio racing requires strategy='speculative'")
    if strategy == "parallel":
        dispatcher = SpeculativeDispatcher(max_workers=max_workers, lookahead=0)
        dispatcher.name = "parallel"
        return dispatcher
    if strategy == "speculative":
        return SpeculativeDispatcher(
            max_workers=max_workers, lookahead=lookahead, portfolio=portfolio
        )
    return STRATEGIES[strategy]()
