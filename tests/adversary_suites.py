"""The adversary generator's suites, generated once per test process.

Generation is deterministic in the seed (``tests/test_adversary_matrix.py``
asserts that on fresh generations), so the modules that only consume the
suites at the shared seed -- the detection-matrix oracle, the golden pins
and the engine differential -- share one generation instead of paying
for one each.  Consumers must treat the returned suites as read-only.
"""

from __future__ import annotations

from functools import lru_cache

from repro.adversary.generator import DEFAULT_WORKLOADS, generate_suite

#: The seed every shared consumer uses.
SEED = 20170618


@lru_cache(maxsize=None)
def adversary_suite(workload_name, seed=SEED):
    """``generate_suite(workload_name, seed=seed)``, memoized."""
    return generate_suite(workload_name, seed=seed)


def adversary_suites(seed=SEED):
    """``{workload: suite}`` over the generator's default workloads."""
    return {name: adversary_suite(name, seed) for name in DEFAULT_WORKLOADS}
