"""The synthesis engine: solver backends, shared-prefix sessions, candidate
sweep dispatch and the persistent algorithm cache.

This layer sits between the CNF/SAT substrate (:mod:`repro.solver`) and the
synthesis logic (:mod:`repro.core`): the encoders stay where they are, but
every *solve* flows through a named :class:`SolverBackend`, fixed-``S``
candidate sweeps reuse one encoding via :class:`SessionFamily`, the one
sweep loop in :mod:`repro.engine.dispatch` runs probes in process or over a
process pool (:class:`SpeculativeDispatcher`), and verified outcomes
persist in a content-addressed :class:`AlgorithmCache` shared by the
examples, the benchmarks, the evaluation harness and the runtime.
"""

from .backends import (
    BackendError,
    BackendQuarantine,
    CdclBackend,
    CdclHandle,
    DEFAULT_BACKEND,
    DIMACS_SOLVER_CANDIDATES,
    DimacsSolverBackend,
    PySatBackend,
    QUARANTINE,
    SolverBackend,
    SolverHandle,
    available_backends,
    classify_dimacs_exit,
    get_backend,
    get_quarantine,
    register_backend,
    register_dimacs_backends,
    unregister_backend,
)
from .bounds import (
    CUT,
    PROBE,
    PRUNE,
    BoundsError,
    BoundsLedger,
    FeasiblePoint,
    ProbePlan,
    cut_result,
    seed_ledger,
)
from .cache import (
    CACHE_DIR_ENV,
    AlgorithmCache,
    CacheEntry,
    CacheError,
    default_cache,
    default_cache_dir,
    fingerprint,
    instance_fingerprint,
    load_algorithm,
    lookup_result,
    store_result,
)
from .dispatch import (
    DispatchError,
    IncrementalDispatcher,
    SerialDispatcher,
    SpeculativeDispatcher,
    STRATEGIES,
    SweepOutcome,
    SweepRequest,
    SweepStats,
    make_dispatcher,
)
from .session import SessionError, SessionFamily

__all__ = [
    "AlgorithmCache",
    "BackendError",
    "BackendQuarantine",
    "BoundsError",
    "BoundsLedger",
    "CACHE_DIR_ENV",
    "CUT",
    "CacheEntry",
    "CacheError",
    "FeasiblePoint",
    "PROBE",
    "PRUNE",
    "ProbePlan",
    "CdclBackend",
    "CdclHandle",
    "DEFAULT_BACKEND",
    "DIMACS_SOLVER_CANDIDATES",
    "DimacsSolverBackend",
    "DispatchError",
    "IncrementalDispatcher",
    "PySatBackend",
    "QUARANTINE",
    "STRATEGIES",
    "SerialDispatcher",
    "SessionError",
    "SessionFamily",
    "SolverBackend",
    "SpeculativeDispatcher",
    "SolverHandle",
    "SweepOutcome",
    "SweepRequest",
    "SweepStats",
    "available_backends",
    "classify_dimacs_exit",
    "cut_result",
    "seed_ledger",
    "default_cache",
    "default_cache_dir",
    "fingerprint",
    "get_backend",
    "get_quarantine",
    "instance_fingerprint",
    "load_algorithm",
    "lookup_result",
    "make_dispatcher",
    "register_backend",
    "register_dimacs_backends",
    "store_result",
    "unregister_backend",
]
