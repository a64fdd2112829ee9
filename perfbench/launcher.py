"""Start ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/launcher.py SPANS_FILE serve [serve options...]``

Installs :class:`tracing.LayerTracer` wrappers, then hands the remaining
arguments to ``repro.cli.main``.  SIGUSR1 drops the spans recorded so far
(set-up traffic) and acknowledges by creating ``SPANS_FILE.cleared``.  On
SIGTERM it writes the finished spans to ``SPANS_FILE`` as JSON and exits at
once (a planning build may still be running on a worker thread; it is not
waited for).
"""

from __future__ import annotations

import json
import os
import signal
import sys

from common import require_program


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    require_program()
    from tracing import LayerTracer

    layer = LayerTracer().install()

    def dump_and_exit(signum, frame) -> None:
        tmp = spans_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(layer.export(), handle)
        os.replace(tmp, spans_path)
        sys.stdout.flush()
        os._exit(0)

    def clear_spans(signum, frame) -> None:
        layer.tracer.clear()
        with open(spans_path + ".cleared", "w", encoding="utf-8"):
            pass

    signal.signal(signal.SIGTERM, dump_and_exit)
    signal.signal(signal.SIGUSR1, clear_spans)
    import repro.cli

    return repro.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
