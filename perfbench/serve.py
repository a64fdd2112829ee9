"""Workloads ``plan_warm`` and ``plan_churn``: ``repro serve`` over HTTP.

The server runs as a subprocess (the ``repro serve`` CLI, or for the traced
run the benchmark's launcher around the same CLI entry point) with fresh
cache, routing-table and performance-archive directories.  Requests go
through the public client, :func:`repro.service.request_plan` /
:func:`repro.service.request_fault`.

``plan_warm``: two client threads run a closed loop over a seeded mix of
pinned and routed requests that set-up already warmed, so the solver does
no work and the HTTP server, request decoding, broker, registry, plan
re-verification and the performance archive carry all of it.

``plan_churn``: the same reads go out as an open loop at
:data:`CHURN_READ_RATE`, each timed from when it was due; one thread
runs a seeded fault/synthesis script that makes the registry and cache
take writes and invalidations, and makes in-process synthesis compete with
the reads for the interpreter.

The host is shared, so the bounded latency and rate figures are medians
over sub-windows (``plan_warm``: :data:`SUBWINDOW_S` slices; ``plan_churn``:
one slice per churn cycle), which a burst of outside load in one slice
cannot move.  On ``plan_churn`` the read mean and p99 are printed but not
bounded: they depend on which reads meet which of nine synthesis bursts
(IQR/median 0.3-1.2 over five seeds); the bounded mean there is that of the
churn script's own requests, the write path beside the reads.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    BenchError,
    OracleError,
    RunDir,
    mean,
    median,
    metric,
    peak_rss_mb,
    percentile,
    program_env,
)

SETUP_REPEATS = 5
CLIENT_THREADS = 2
#: Offered rate of the open-loop reads in ``plan_churn`` (requests/s).
CHURN_READ_RATE = 60.0
#: ``plan_warm`` sub-window length: >= 1000 round trips each, so each has
#: at least ten samples beyond its p99.
SUBWINDOW_S = 4.0
READ_DEADLINE_S = 60.0
PROBE_DEADLINE_S = 5.0
MIN_SIZE_LOG2, MAX_SIZE_LOG2 = 10, 25  # routed sizes: 1 KiB .. 32 MiB

#: Routed requests warmed at set-up: (collective, topology, k).
WARM_ROUTED: Tuple[Tuple[str, str, int], ...] = (
    ("Allgather", "ring:4", 1),
    ("Allreduce", "ring:4", 1),
    ("Allgather", "ring:6", 0),
    ("Allgather", "fc:4", 0),
)
#: Pinned requests warmed at set-up: (collective, topology, C, S, R).
WARM_PINNED: Tuple[Tuple[str, str, int, int, int], ...] = (
    ("Allgather", "dgx1", 1, 2, 2),
    ("Allgather", "dgx1", 2, 3, 3),
)
#: Share of pinned requests in the read mix.  Pinned answers cost about
#: twice a routed one; at one in three, the churn run's read p50 fell on the
#: boundary between the two and jumped between them from run to run.
PINNED_SHARE = 0.2

#: Satisfiable pinned instances solved cold by the churn script, one per
#: cycle, each once per run so every one misses the cache.
CHURN_POOL: Tuple[Tuple[str, str, int, int, int], ...] = (
    ("Allgather", "dgx1", 2, 2, 3),
    ("Allgather", "dgx1", 3, 4, 4),
    ("Gather", "dgx1", 1, 2, 2),
    ("Gather", "dgx1", 2, 3, 3),
    ("Broadcast", "dgx1", 2, 2, 2),
    ("Allgather", "amd_z52", 1, 4, 4),
    ("Allgather", "amd_z52", 2, 4, 7),
    ("Allgather", "ring:8", 1, 4, 4),
    ("Allgather", "ring:5", 1, 2, 2),
)
CHURN_TOPOLOGY = "ring:6"
CHURN_LINK = (0, 1)
#: Ends every churn run; on a missed deadline the service is documented to
#: answer with a baseline algorithm.
DEADLINE_PROBE = ("Broadcast", "ring:5", 0)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProc:
    """One ``repro serve`` subprocess with its own state directory."""

    def __init__(self, state_dir: Path, *, traced: bool) -> None:
        self.state_dir = state_dir
        self.spans_path = state_dir / "spans.json" if traced else None
        serve_args = [
            "serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
            "--cache-dir", str(state_dir / "cache"),
            "--routes-dir", str(state_dir / "routes"),
        ]
        if traced:
            command = [sys.executable, str(ROOT / "perfbench" / "launcher.py"),
                       str(self.spans_path), *serve_args]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        self._stderr = open(state_dir / "server.stderr", "wb")
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=program_env(state_dir),
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        self.url = self._read_url()

    def _read_url(self, timeout: float = 60.0) -> str:
        banner: List[str] = []
        reader = threading.Thread(
            target=lambda: banner.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        match = re.search(r"http://[\d.]+:\d+", banner[0]) if banner else None
        if match is None:
            self.stop()
            raise BenchError(f"server did not start: {self.stderr_tail()}")
        return match.group(0)

    def stderr_tail(self) -> str:
        return (self.state_dir / "server.stderr").read_text(errors="replace")[-2000:]

    def wait_healthy(self, timeout: float = 30.0) -> None:
        from repro.service import check_health

        deadline = time.monotonic() + timeout
        while not check_health(self.url):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError(f"server not healthy: {self.stderr_tail()}")
            time.sleep(0.01)

    def clear_spans(self, timeout: float = 10.0) -> None:
        """Drop the spans set-up recorded, so the trace covers the window only."""
        ack = Path(f"{self.spans_path}.cleared")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not ack.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced server did not acknowledge the span reset")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> Optional[List[dict]]:
        """SIGTERM, wait, and return the traced spans (None when untraced)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if self.spans_path is None:
            return None
        return json.loads(self.spans_path.read_text(encoding="utf-8"))


def start_server(run: RunDir, *, traced: bool, repeats: int) -> Tuple[ServerProc, List[float]]:
    """Spawn, wait healthy and warm ``repeats`` times; keep the last server.

    Each spawn gets fresh state, so every sample pays the full warm-up.
    """
    samples: List[float] = []
    server = None
    for _ in range(repeats):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server = ServerProc(run.fresh("server"), traced=traced)
        try:
            server.wait_healthy()
            warm(server.url)
        except BaseException:
            server.stop()
            raise
        samples.append(time.perf_counter() - start)
    return server, samples


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def routed(collective: str, topology: str, k: int, size: int, deadline: float):
    from repro.service import PlanRequest

    return PlanRequest(collective=collective, topology=topology, size_bytes=size,
                       synchrony=k, deadline_s=deadline)


def pinned(collective: str, topology: str, c: int, s: int, r: int, deadline: float):
    from repro.service import PlanRequest

    return PlanRequest(collective=collective, topology=topology, chunks=c, steps=s,
                       rounds=r, deadline_s=deadline)


def read_mix(rng: random.Random, count: int) -> list:
    """A seeded mix of warmed pinned and routed requests."""
    requests = []
    for _ in range(count):
        if rng.random() < PINNED_SHARE:
            requests.append(pinned(*rng.choice(WARM_PINNED), READ_DEADLINE_S))
        else:
            size = int(2 ** rng.uniform(MIN_SIZE_LOG2, MAX_SIZE_LOG2))
            requests.append(routed(*rng.choice(WARM_ROUTED), size, READ_DEADLINE_S))
    return requests


class Outcome:
    """One client operation: what was asked, when, and what came back."""

    __slots__ = ("kind", "request", "due", "start", "end", "response", "error")

    def __init__(self, kind: str, request, due: Optional[float] = None) -> None:
        self.kind = kind
        self.request = request
        self.start = self.end = time.perf_counter()
        self.due = self.start if due is None else due
        self.response = None
        self.error: Optional[str] = None

    def finish(self, call) -> "Outcome":
        from repro.service import ServiceError

        try:
            self.response = call()
            if not self.response.ok:
                self.error = f"{self.response.status}: {self.response.error}"
        except ServiceError as exc:
            self.error = str(exc)
        self.end = time.perf_counter()
        return self

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency_ms(self) -> float:
        """From the due time (open loop) or the send time (closed loop)."""
        return 1e3 * (self.end - self.due)


def send(url: str, kind: str, request, due: Optional[float] = None) -> Outcome:
    from repro.service import request_plan

    return Outcome(kind, request, due).finish(lambda: request_plan(url, request))


def warm(url: str) -> None:
    requests = [routed(*spec, 1 << 20, READ_DEADLINE_S) for spec in WARM_ROUTED]
    requests += [pinned(*spec, READ_DEADLINE_S) for spec in WARM_PINNED]
    for request in requests:
        outcome = send(url, "warm", request)
        if not outcome.ok:
            raise BenchError(f"warm-up {request.describe()} failed: {outcome.error}")


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
def closed_loop(url: str, seed: int, seconds: float) -> List[Outcome]:
    outcomes: List[List[Outcome]] = [[] for _ in range(CLIENT_THREADS)]
    stop_at = time.perf_counter() + seconds

    def client(index: int) -> None:
        requests = read_mix(random.Random(f"{seed}/client{index}"), 4096)
        done = outcomes[index]
        while time.perf_counter() < stop_at:
            done.append(send(url, "read", requests[len(done) % len(requests)]))

    threads = [threading.Thread(target=client, args=(i,), name=f"client{i}")
               for i in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted((o for done in outcomes for o in done), key=lambda o: o.start)


def open_loop(url: str, seed: int, start: float, seconds: float) -> List[Outcome]:
    """Reads due every ``1 / CHURN_READ_RATE`` s from ``start``, sent from this thread.

    A read due while an earlier one waits (on a table rebuild, say) goes out
    late, and its latency counts from its due time.
    """
    requests = read_mix(random.Random(f"{seed}/reads"), int(seconds * CHURN_READ_RATE))
    outcomes = []
    for i, request in enumerate(requests):
        due = start + i / CHURN_READ_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcomes.append(send(url, "read", request, due))
    return outcomes


def churn_script(url: str, seed: int, start: float, period: float,
                 plans: List[Outcome], faults: List[Outcome]) -> None:
    """Per pool entry: fault, degraded replan, cold solve, clear, healthy rebuild.

    Cycle ``i`` is due at ``start + i * period`` (or starts at once when the
    previous cycle overran).
    """
    from repro.faults import FaultSet, LinkDown
    from repro.service import FaultRequest, request_fault

    rng = random.Random(f"{seed}/churn")
    pool = rng.sample(CHURN_POOL, len(CHURN_POOL))
    link_down = tuple(FaultSet([LinkDown(*CHURN_LINK)]).to_json())

    def fault(action: str) -> None:
        request = FaultRequest(topology=CHURN_TOPOLOGY, action=action,
                               faults=link_down if action == "register" else ())
        faults.append(Outcome(f"fault_{action}", request).finish(
            lambda: request_fault(url, request)
        ))

    for cycle, spec in enumerate(pool):
        delay = start + cycle * period - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        size = int(2 ** rng.uniform(MIN_SIZE_LOG2, MAX_SIZE_LOG2))
        fault("register")
        plans.append(send(url, "degraded",
                          routed("Allgather", CHURN_TOPOLOGY, 0, size, READ_DEADLINE_S)))
        plans.append(send(url, "cold", pinned(*spec, READ_DEADLINE_S)))
        fault("clear")
        plans.append(send(url, "healthy",
                          routed("Allgather", CHURN_TOPOLOGY, 0, size, READ_DEADLINE_S)))


class Window:
    """The outcomes of one measured window against one server."""

    def __init__(self, start: float, slice_s: float) -> None:
        self.start = start
        self.slice_s = slice_s
        self.elapsed = 0.0
        self.reads: List[Outcome] = []
        self.churn: List[Outcome] = []   # plan requests of the churn script
        self.faults: List[Outcome] = []  # fault registrations and clears
        self.probe: Optional[Outcome] = None
        self.peak_rss_mb = 0.0  # the server's, at the end of the window

    @property
    def plans(self) -> List[Outcome]:
        return self.reads + self.churn + ([self.probe] if self.probe else [])

    @property
    def operations(self) -> List[Outcome]:
        return self.plans + self.faults

    def slices(self) -> Tuple[List[List[Outcome]], float]:
        """Ok reads grouped by the equal sub-window they were due in, and its width."""
        count = max(1, round(self.elapsed / self.slice_s))
        width = self.elapsed / count
        groups: List[List[Outcome]] = [[] for _ in range(count)]
        for outcome in self.reads:
            if outcome.ok:
                index = int((outcome.due - self.start) / width)
                groups[min(index, count - 1)].append(outcome)
        return [group for group in groups if group], width

    def latency(self, open_loop: bool) -> Dict[str, float]:
        """Read latency p50, mean and p99, and the completed rate.

        p50 and mean are medians over sub-windows of their p50 and mean.
        The closed loop's p99 and rate are medians over sub-windows too
        (>= 1000 round trips each); the open loop's p99 is taken over the
        whole window (a churn cycle holds too few reads), and its rate is the
        reads completed by the time the last one finished.
        """
        slices, width = self.slices()
        p50s, means, p99s, rates = [], [], [], []
        for group in slices:
            latencies = [o.latency_ms for o in group]
            p50s.append(median(latencies))
            means.append(mean(latencies))
            p99s.append(percentile(latencies, 99))
            rates.append(len(group) / width)
        everything = [o for group in slices for o in group]
        if open_loop:
            p99 = percentile([o.latency_ms for o in everything], 99)
            rps = len(everything) / (max(o.end for o in everything) - self.start)
        else:
            p99, rps = median(p99s), median(rates)
        return {
            "samples": len(everything),
            "slices": len(slices),
            "p50_ms": median(p50s),
            "mean_ms": median(means),
            "p99_ms": p99,
            "rps": rps,
        }

    def synthesized_ms(self) -> List[float]:
        return [o.latency_ms for o in self.reads + self.churn
                if o.ok and o.response.source == "synthesized"]

    def late_ms(self) -> List[float]:
        return [1e3 * (o.start - o.due) for o in self.reads]


def measure(args, server: ServerProc) -> Window:
    if args.workload == "plan_warm":
        window = Window(time.perf_counter(), SUBWINDOW_S)
        window.reads = closed_loop(server.url, args.seed, args.seconds)
        window.elapsed = time.perf_counter() - window.start
        window.peak_rss_mb = server.peak_rss_mb()
        return window
    period = args.seconds / len(CHURN_POOL)
    window = Window(time.perf_counter() + 0.05, period)
    churner = threading.Thread(
        target=churn_script, name="churn",
        args=(server.url, args.seed, window.start, period, window.churn, window.faults),
    )
    churner.start()
    window.reads = open_loop(server.url, args.seed, window.start, args.seconds)
    window.elapsed = time.perf_counter() - window.start
    churner.join()
    # Read before the deadline probe: the build behind a missed deadline
    # keeps running and grows the server by a timing-dependent amount.
    window.peak_rss_mb = server.peak_rss_mb()
    window.probe = send(server.url, "probe",
                        routed(*DEADLINE_PROBE, 1 << 20, PROBE_DEADLINE_S))
    return window


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
class PlanOracle:
    """Re-verifies every ok plan after the timed window.

    During the window each plan is only compared (dict equality, in C) with
    the distinct plans already seen for the same question; afterwards each
    distinct plan is decoded and re-verified once, which covers every
    response equal to it.
    """

    def __init__(self) -> None:
        self._distinct: Dict[tuple, List[list]] = {}

    def add(self, outcome: Outcome) -> None:
        if not outcome.ok:
            return
        request, response = outcome.request, outcome.response
        if request.mode == "pinned":
            question = (request.collective, request.topology, request.chunks,
                        request.steps, request.rounds, outcome.kind)
        else:
            question = (request.collective, request.topology, request.synchrony,
                        (response.route or {}).get("plan"), outcome.kind)
        seen = self._distinct.setdefault(question, [])
        for variant in seen:
            if variant[1].plan == response.plan:
                variant[3] += 1
                return
        seen.append([request, response, outcome.kind, 1])

    def verify(self) -> Tuple[List[str], int]:
        """(failure messages, number of responses carrying a wrong plan)."""
        from repro.cli.topologies import parse_topology

        failures, wrong = [], 0
        for variants in self._distinct.values():
            for request, response, kind, count in variants:
                try:
                    algorithm = response.plan_object(verify=True).algorithm
                    healthy = parse_topology(request.topology).name
                    if algorithm.collective != request.collective:
                        raise OracleError(f"collective {algorithm.collective}")
                    if not algorithm.topology.name.startswith(healthy):
                        raise OracleError(f"topology {algorithm.topology.name}")
                    if request.mode == "pinned" and algorithm.signature() != (
                        request.chunks, request.steps, request.rounds
                    ):
                        raise OracleError(f"signature {algorithm.signature()}")
                    if kind == "degraded" and (
                        algorithm.topology.name == healthy
                        or CHURN_LINK in algorithm.sends_per_link()
                    ):
                        raise OracleError(
                            f"degraded replan on {algorithm.topology.name} may use "
                            f"link {CHURN_LINK}"
                        )
                    if kind == "healthy" and algorithm.topology.name != healthy:
                        raise OracleError(f"healthy plan on {algorithm.topology.name}")
                except Exception as exc:  # any decode/verify error is a wrong plan
                    failures.append(f"{kind} {request.describe()}: {exc!r}")
                    wrong += count
        return failures, wrong


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(args, run_dir: RunDir, report: dict) -> dict:
    churn = args.workload == "plan_churn"
    repeats = 1 if args.trace else SETUP_REPEATS
    server, setup_samples = start_server(run_dir, traced=False, repeats=repeats)
    try:
        window = measure(args, server)
        rss_at_stop = server.peak_rss_mb()
    finally:
        server.stop()
    windows = [window]
    spans = None
    if args.trace:
        traced_server, _ = start_server(run_dir, traced=True, repeats=1)
        try:
            traced_server.clear_spans()
            windows.append(measure(args, traced_server))
        finally:
            spans = traced_server.stop()

    # --- oracles (after the timed windows) -------------------------------
    oracle = PlanOracle()
    for w in windows:
        for outcome in w.plans:
            oracle.add(outcome)
    failures, wrong = oracle.verify()
    operations = [o for w in windows for o in w.operations]
    not_ok = [o for o in operations if not o.ok]
    failures += [f"{o.kind} {o.request}: {o.error}" for o in not_ok]

    latency = window.latency(open_loop=churn)
    named = {
        "plan_rps": metric(latency["rps"], "1/s"),
        "plan_p50_ms": metric(latency["p50_ms"], "ms"),
        "plan_mean_ms": metric(latency["mean_ms"], "ms"),
        "plan_p99_ms": metric(latency["p99_ms"], "ms"),
    }
    samples = {"plan": latency["samples"], "plan_slices": latency["slices"]}
    if churn:
        synthesized = window.synthesized_ms()
        late = window.late_ms()
        named["replan_p50_ms"] = metric(median(synthesized), "ms")
        named["churn_op_mean_ms"] = metric(
            mean([1e3 * (o.end - o.start) for o in window.churn + window.faults]), "ms"
        )
        named["gen_late_ms"] = metric(percentile(late, 99), "ms")
        named["offered_rps"] = metric(CHURN_READ_RATE, "1/s")
        samples["replan"] = len(synthesized)
        report["gen_late_ms"] = {"p50": median(late), "p99": percentile(late, 99),
                                 "max": max(late)}
        probe = window.probe
        report["deadline_probe"] = {
            "status": probe.response.status if probe.response else "no response",
            "latency_ms": probe.latency_ms,
            "error": probe.error,
            "server_peak_rss_mb_after": rss_at_stop,
        }
    named.update({
        "error_rate": metric((len(not_ok) + wrong) / len(operations), "ratio"),
        "peak_rss_mb": metric(window.peak_rss_mb, "MB"),
        "setup_s": metric(median(setup_samples), "s"),
    })
    report["setup_samples_s"] = setup_samples
    e2e = {
        "setup_s": named["setup_s"],
        "latency_p50_ms": named["plan_p50_ms"],
        "latency_mean_ms": named["churn_op_mean_ms" if churn else "plan_mean_ms"],
        "throughput_per_s": named["plan_rps"],
        "peak_rss_mb": named["peak_rss_mb"],
    }
    layers = None
    if spans is not None:
        from layers import serve_layers

        layers, report["slowest_requests"] = serve_layers(windows[1], spans, churn=churn)
        traced_p50 = windows[1].latency(open_loop=churn)["p50_ms"]
        layers["trace.overhead_pct"] = metric(
            100.0 * (traced_p50 - latency["p50_ms"]) / latency["p50_ms"], "%"
        )
    return {
        "attempted": len(operations),
        "failed": len(not_ok) + wrong,
        "wrong": wrong,
        "failures": failures,
        "named": named,
        "e2e": e2e,
        "layers": layers,
        "samples": samples,
    }
