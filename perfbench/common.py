"""Shared plumbing for the benchmark workloads.

Everything a run reads or writes lives inside the checkout: the program is
imported from ``src/`` and every run gets its own scratch directory under
``.bench_run/`` (algorithm cache, routing tables, performance archive), which
is removed when the run ends.  Nothing leaks into ``~/.cache``.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_run"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


class OracleError(Exception):
    """An output check failed: the program answered wrongly."""


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC} (expected src/repro)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _state_env(state_dir: Path) -> Dict[str, str]:
    """The program's algorithm cache and performance archive, under ``state_dir``."""
    return {
        "REPRO_PERF_DIR": str(state_dir / "perf"),
        "REPRO_CACHE_DIR": str(state_dir / "cache"),
    }


def program_env(state_dir: Path) -> Dict[str, str]:
    """Environment for a child process: sources on the path, isolated state."""
    env = dict(os.environ)
    env.pop("REPRO_PERF_DISABLE", None)
    env.update(_state_env(state_dir))
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class RunDir:
    """A fresh scratch directory for one run, removed on exit."""

    def __init__(self) -> None:
        RUNS_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))

    def fresh(self, name: str) -> Path:
        """A new empty subdirectory (one per set-up, so no state is shared)."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass


def isolate_in_process(state_dir: Path) -> None:
    """Point this process's cache and archive at ``state_dir`` (before import)."""
    os.environ.pop("REPRO_PERF_DISABLE", None)
    os.environ.update(_state_env(state_dir))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")


def host_speed_ms() -> float:
    """Time of a fixed pure-Python loop: a host-load indicator for the report.

    Never used in a metric; a run whose probe reads slow was measured while
    something outside the benchmark competed for the CPU.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return 1e3 * (time.perf_counter() - start)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
