"""Layer spans recorded from outside the program.

The traced run wraps the public functions and class methods each layer
exposes (the names every caller shares), so no span is added inside
``src/``.  Spans go to a private :class:`repro.telemetry.Tracer` that is
never installed as the ambient tracer, so the program's own spans stay off.

:mod:`layers` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from typing import Callable, Dict, List, Tuple


def add_solver_stats(totals: Dict[str, float], result) -> None:
    """Fold one SynthesisResult's public solver counters into ``totals``."""
    stats = result.solver_stats or {}
    for key in ("conflicts", "propagations", "decisions"):
        totals[key] = totals.get(key, 0) + int(stats.get(key, 0))
    totals["unknowns"] = totals.get("unknowns", 0) + int(result.is_unknown)


def _clauses_before(args):
    return args[0].stats.clauses


def _clauses_added(args, result, before):
    return {"clauses": args[0].stats.clauses - before}


def _probe_result(args, result, before):
    attrs = {"verdict": result.status.value, "cache_hit": result.cache_hit}
    if not result.cache_hit and result.provenance != "cut":
        totals = {"calls": 1}
        add_solver_stats(totals, result)
        attrs["solver"] = totals
    return attrs


def _keyed_response(args, result, before):
    return {"request_key": result.request_key, "source": result.source}


def _ticket_wait(args, result, before):
    return {"request_key": args[0].key, "coalesced": result.coalesced}


def _post_path(args, result, before):
    return {"path": args[0].path}


#: (module, class or None, attribute, span name, pre-call hook, post-call
#: annotator).  A class of None wraps a module-level function on its
#: defining module *and* on every loaded ``repro`` module that imported the
#: same function object.
SPAN_POINTS: Tuple[tuple, ...] = (
    ("repro.engine.backends", "CdclHandle", "load", "solver.load", None, None),
    ("repro.engine.backends", "CdclHandle", "solve", "solver.search", None, None),
    ("repro.core.encoding", "ScclEncoding", "encode", "core.encode",
     _clauses_before, _clauses_added),
    ("repro.core.encoding", "ScclEncoding", "extend_chunks", "core.encode",
     _clauses_before, _clauses_added),
    ("repro.core.encoding", "NaiveEncoding", "encode", "core.encode",
     _clauses_before, _clauses_added),
    ("repro.core.encoding", "ScclEncoding", "decode", "core.decode", None, None),
    ("repro.core.algorithm", "Algorithm", "verify", "core.verify", None, None),
    ("repro.core.pareto", None, "pareto_synthesize", "core.pareto", None, None),
    ("repro.core.synthesizer", None, "synthesize", "core.probe", None, _probe_result),
    ("repro.engine.session", "SessionFamily", "solve", "core.probe", None, _probe_result),
    ("repro.engine.cache", None, "lookup_result", "engine.cache_lookup", None, None),
    ("repro.engine.cache", None, "store_result", "engine.cache_store", None, None),
    ("repro.engine.bounds", None, "seed_ledger", "baselines.seed", None, None),
    ("repro.service.server", "_Handler", "do_POST", "server.handle", None, _post_path),
    ("repro.service.workers", "PlanningService", "request", "service.request",
     None, _keyed_response),
    ("repro.service.api", "PlanRequest", "from_json", "api.parse", None, None),
    ("repro.service.api", "PlanRequest", "request_key", "api.key", None, None),
    ("repro.cli.topologies", None, "parse_topology", "api.topology_parse", None, None),
    ("repro.interchange.plan", "AlgorithmPlan", "from_json", "interchange.plan_load",
     None, None),
    ("repro.telemetry.archive", None, "record_run", "telemetry.record_run", None, None),
    ("repro.service.broker", "Ticket", "wait", "broker.wait", None, _ticket_wait),
    ("repro.service.workers", "SynthesisResolver", "__call__", "workers.resolve",
     None, _keyed_response),
    ("repro.service.registry", "PlanRegistry", "route", "registry.route", None, None),
    ("repro.service.registry", "PlanRegistry", "lookup_pinned", "registry.lookup_pinned",
     None, None),
    ("repro.service.registry", "PlanRegistry", "invalidate", "registry.invalidate",
     None, None),
    ("repro.service.registry", None, "build_routing_table", "registry.table_build",
     None, None),
    ("repro.runtime.simulator", "Simulator", "simulate", "runtime.simulate", None, None),
    ("repro.service.faults", "FaultBoard", "register", "faults.register", None, None),
)


class LayerTracer:
    """Installs span wrappers on the program's layer entry points."""

    def __init__(self) -> None:
        from repro.telemetry import Tracer

        self.tracer = Tracer()
        self._undo: List[Tuple[object, str, object]] = []
        self._local = threading.local()

    def install(self) -> "LayerTracer":
        for module_name, class_name, attr, span_name, pre, post in SPAN_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attr)
                wrapped = self._wrapper(original, span_name, pre, post)
                for name, loaded in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) and (
                        getattr(loaded, attr, None) is original
                    ):
                        setattr(loaded, attr, wrapped)
                        self._undo.append((loaded, attr, original))
            else:
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrapper(raw.__func__, span_name, pre, post)
                    )
                else:
                    wrapped = self._wrapper(raw, span_name, pre, post)
                setattr(cls, attr, wrapped)
                self._undo.append((cls, attr, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def export(self) -> List[dict]:
        return self.tracer.export()

    # ------------------------------------------------------------------
    def _wrapper(self, original: Callable, span_name: str, pre, post) -> Callable:
        if span_name == "core.pareto":
            return self._pareto_wrapper(original)
        tracer = self.tracer
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name) as span:
                before = pre(args) if pre is not None else None
                result = original(*args, **kwargs)
                if post is not None:
                    attrs = post(args, result, before)
                    if getattr(local, "pareto", 0):
                        # Counted once, from the Pareto run's committed results.
                        attrs.pop("solver", None)
                    span.set(**attrs)
                return result

        return wrapper

    def _pareto_wrapper(self, original: Callable) -> Callable:
        tracer = self.tracer
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if getattr(local, "pareto", 0):
                # Combining collectives recurse into their base collective.
                return original(*args, **kwargs)
            # Solver work is counted from the results Algorithm 1 commits,
            # which include probes solved in pool worker processes.
            totals: Dict[str, float] = {}
            caller = kwargs.get("on_result")

            def collect(result) -> None:
                add_solver_stats(totals, result)
                if caller is not None:
                    caller(result)

            kwargs["on_result"] = collect
            local.pareto = 1
            try:
                with tracer.span("core.pareto") as span:
                    frontier = original(*args, **kwargs)
                    totals["calls"] = frontier.engine_stats.get("solver_calls", 0)
                    span.set(engine_stats=dict(frontier.engine_stats), solver=totals)
                    return frontier
            finally:
                local.pareto = 0

        return wrapper
