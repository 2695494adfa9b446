"""Golden pins of the LO-FAT measurement and engine statistics.

The engine-equivalence tests compare two engines that feed the same
branch filter, so a change inside the filter or the loop monitor moves
both sides together.  These pins are the independent oracle: for every
program of five fixed sets, and for the ``legacy`` and ``compiled``
engines separately, ``tests/data/lofat_golden.json`` holds

* ``sha256(A || L)`` -- the measurement and the serialised loop metadata;
* ``sha256(json.dumps(LoFatEngine.statistics(), sort_keys=True))``.

The engines are pinned apart because their hash-engine cycle-model
transients differ (batched vs per-record arrival), which shows in the
statistics but never in ``(A, L)``.

The sets: the registry workloads, the golden lang corpus, the family
matrix at seed 20170618, the adversary generator's scenarios at the same
seed (benign variants and attacks, hooks installed), and a configuration
sweep that drives truncation, CAM overflow and folding beyond the nesting
depth.

After an intentional measurement change, regenerate the file with::

    PYTHONPATH=src python tests/test_lofat_golden_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.cpu.core import Cpu, CpuConfig
from repro.isa.assembler import assemble
from repro.lofat.config import LoFatConfig
from repro.lofat.engine import LoFatEngine

PINS_PATH = os.path.join(os.path.dirname(__file__), "data", "lofat_golden.json")
SEED = 20170618
ENGINES = ("legacy", "compiled")

#: The configuration sweep: each entry changes one granularity knob.
SWEEP_CONFIGS = {
    "nest1": {"max_nested_loops": 1},
    "path8": {"max_branches_per_path": 8, "max_indirect_branches_per_path": 2},
    "cam2": {"indirect_target_bits": 2},
}
#: E8 stresses the dispatcher with a longer command sequence.
E8_DISPATCHER_INPUTS = [1, 2, 3, 1, 2, 3, 2, 1, 3, 3, 2, 1, 0]


def _registry_cases():
    from repro.workloads import all_workloads

    for workload in all_workloads():
        yield workload.name, workload.build(), workload.inputs, (), None


def _corpus_cases():
    from repro.lang.corpus import load_corpus

    directory = os.path.join(os.path.dirname(__file__), "data", "lang_corpus")
    for entry in load_corpus(directory):
        yield entry.name, assemble(entry.assembly), entry.inputs, (), None


def _family_cases():
    from repro.lang.families import family_matrix

    for workload in family_matrix(seed=SEED, register=False):
        yield workload.name, workload.build(), workload.inputs, (), None


def _adversary_cases():
    from repro.workloads import get_workload

    from adversary_suites import adversary_suites

    for workload_name, suite in adversary_suites(SEED).items():
        program = get_workload(workload_name).build()
        for variant in suite.benign:
            yield variant.name, program, variant.inputs, (), None
        for scenario in suite.attacks:
            inputs = list(scenario.challenge_inputs) + list(scenario.malicious_inputs)
            yield scenario.name, program, inputs, (scenario,), None


def _sweep_cases():
    from repro.workloads import get_workload

    programs = [(name, get_workload(name)) for name in ("dispatcher", "state_machine", "crc32")]
    programs.append(("dispatcher_e8", get_workload("dispatcher").with_inputs(
        E8_DISPATCHER_INPUTS)))
    for label, params in SWEEP_CONFIGS.items():
        for name, workload in programs:
            yield ("%s/%s" % (label, name), workload.build(), workload.inputs, (),
                   LoFatConfig(**params))


GROUPS = {
    "registry": _registry_cases,
    "corpus": _corpus_cases,
    "family": _family_cases,
    "adversary": _adversary_cases,
    "sweep": _sweep_cases,
}


def _pin(program, inputs, scenarios, config, engine):
    cpu = Cpu(program, inputs=list(inputs),
              config=CpuConfig(engine=engine, collect_trace=False))
    lofat = LoFatEngine(config)
    cpu.attach_monitor(lofat.observe)
    for scenario in scenarios:
        scenario.install_on(cpu, program)
    cpu.run()
    measured = lofat.finalize()
    stats = json.dumps(lofat.statistics(), sort_keys=True)
    return [hashlib.sha256(measured.report_payload).hexdigest(),
            hashlib.sha256(stats.encode()).hexdigest()]


def compute_group(group):
    """``{case: {engine: [sha256(A||L), sha256(stats)]}}`` for one group."""
    pins = {}
    for name, program, inputs, scenarios, config in GROUPS[group]():
        assert name not in pins, "duplicate case name %r" % name
        pins[name] = {engine: _pin(program, inputs, scenarios, config, engine)
                      for engine in ENGINES}
    return pins


def _load_pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_pins(group):
    expected = _load_pins()[group]
    actual = compute_group(group)
    assert sorted(actual) == sorted(expected), "case set of %r changed" % group
    drifted = sorted(name for name in expected if actual[name] != expected[name])
    assert not drifted, "%d %s case(s) drifted, e.g. %s" % (
        len(drifted), group, ", ".join(drifted[:5]))


def test_pins_cover_both_engines_and_every_group():
    pins = _load_pins()
    assert sorted(pins) == sorted(GROUPS)
    for group, cases in pins.items():
        assert cases, group
        for name, by_engine in cases.items():
            assert sorted(by_engine) == sorted(ENGINES), name


if __name__ == "__main__":
    all_pins = {group: compute_group(group) for group in sorted(GROUPS)}
    with open(PINS_PATH, "w") as handle:
        # One line per case keeps a drift diff readable.
        handle.write("{\n%s\n}\n" % ",\n".join(
            "%s: {\n%s\n}" % (json.dumps(group), ",\n".join(
                "%s: %s" % (json.dumps(name), json.dumps(cases[name], sort_keys=True))
                for name in sorted(cases)))
            for group, cases in sorted(all_pins.items())))
    print("wrote %s (%s)" % (PINS_PATH, ", ".join(
        "%s: %d" % (group, len(cases)) for group, cases in sorted(all_pins.items()))))
    sys.exit(0)
