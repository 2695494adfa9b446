"""Run ``repro serve`` in this process, with window marks for the benchmark.

Usage (started by the ``server-steady`` workload, not by hand)::

    python3 perfbench/serve.py --marks FILE [--trace] -- serve --port 0 ...

On SIGUSR1 and SIGUSR2 the process appends a *mark* to ``FILE`` (rewritten
atomically): its wall clock, process CPU time, peak resident memory and
compile count, plus the span snapshot when ``--trace`` installed the layer
wrappers before the server started.  The benchmark brackets its timed
window with the two signals while no request is in flight, so the
difference of the two marks is the server's share of the window and the
first mark alone is its set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True, metavar="FILE")
    parser.add_argument("--trace", action="store_true",
                        help="install the layer wrappers before serving")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from perfbench import tracer as tracing
    from perfbench.metrics import peak_rss_mb
    from repro.cli import main as repro_main
    from repro.cpu.compile import COMPILE_CACHE

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks = []

    def mark(signum, frame) -> None:
        marks.append({
            "wall": time.perf_counter(),
            "cpu": time.process_time(),
            "rss_mb": peak_rss_mb(),
            "compiles": COMPILE_CACHE.compiles,
            "trace": tracer.snapshot() if tracer is not None else None,
        })
        partial = args.marks + ".tmp"
        with open(partial, "w") as handle:
            json.dump(marks, handle)
        os.replace(partial, args.marks)

    signal.signal(signal.SIGUSR1, mark)
    signal.signal(signal.SIGUSR2, mark)
    return repro_main(serve_args)


if __name__ == "__main__":
    raise SystemExit(main())
