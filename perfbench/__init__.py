"""The repository's end-to-end benchmark with a traced per-layer budget.

Entry point: ``python3 perfbench/run.py`` (see its docstring and
``BENCHMARK.json``).  Modules:

* :mod:`perfbench.metrics` -- workload, end-to-end and per-layer metric
  tables, quantile and failure-counting helpers, the result line.
* :mod:`perfbench.campaigns` -- ``campaign-live`` / ``campaign-replay``.
* :mod:`perfbench.wire` -- ``server-steady`` (closed-loop load generator).
* :mod:`perfbench.serve` -- the server launcher with window marks.
* :mod:`perfbench.tracer` -- span wrappers, self times, layer metrics.
"""
