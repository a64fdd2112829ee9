"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``pareto_cold`` (in-process Pareto synthesis), ``plan_warm`` and
``plan_churn`` (``repro serve`` over HTTP); ``BENCHMARK.json`` lists
``pareto_cold`` and ``plan_churn``.  Prints every metric by name and
unit, a ``report:`` line with the run's details (host, sample counts, work
fingerprint), and as the last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run also records layer spans and the metrics are the per-layer ones.
Exits non-zero when an output check fails or the program is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import BenchError, RunDir, host_speed_ms, require_program

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pareto_cold", "plan_warm", "plan_churn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metric_map = json.loads((HERE / "metric_map.json").read_text(encoding="utf-8"))

    from repro.telemetry import host_context

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_context()}
    report["host_speed_ms"] = [host_speed_ms()]
    with RunDir() as run_dir:
        if args.workload == "pareto_cold":
            import pareto_cold as workload
        else:
            import serve as workload
        result = workload.run(args, run_dir, report)
    report["host_speed_ms"].append(host_speed_ms())

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    for name, value in result["named"].items():
        print(f"  {name:<22} {value['value']:.6g} {value['unit']}")
    if args.trace:
        metrics = {}
        unavailable = {}
        for entry in metric_map["per_layer"]:
            value = result["layers"].get(entry["name"])
            if value is None:
                value = {"value": 0, "unit": entry["unit"]}
                unavailable[entry["name"]] = entry["not_on"].get(
                    args.workload, "not exercised by this workload"
                )
            metrics[entry["name"]] = value
        report["unavailable"] = unavailable
    else:
        metrics = {entry["name"]: result["e2e"][entry["name"]]
                   for entry in metric_map["end_to_end"]}
    for name, value in metrics.items():
        print(f"  {name:<32} {value['value']:.6g} {value['unit']}")
    report["samples"] = result["samples"]
    report["failures"] = result["failures"][:20]
    print("report: " + json.dumps(report, sort_keys=True))
    summary = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
