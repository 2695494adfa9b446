"""Span tracing for the per-layer budget.

The benchmark measures its end-to-end metrics with tracing off.  A traced
run then wraps the public functions and methods at each layer boundary of
``repro`` (:data:`LAYERS`) with timing wrappers, so one run answers where
the wall time of an attestation goes.

* A span covers one call of a wrapped function.  Spans nest by call: a
  layer's *self time* is its span minus the spans of wrapped functions it
  called (:meth:`Tracer.close_span`).  Self times of all layers plus the
  uncovered remainder (``other``) add up to the traced window.
* Counters are recorded at the same boundaries (``cpu.runs``,
  ``lofat.pairs_hashed``, verdicts by reason, frames), so ratios are
  measured where the work happens.
* Everything stays in memory; :meth:`Tracer.snapshot` returns plain
  dictionaries that :func:`diff_snapshots` subtracts, so a window is the
  difference of two snapshots and nothing is reset mid-run.

Wrappers are installed by :class:`Patcher`, which rebinds every reference a
loaded ``repro`` module holds to the original (``from x import f`` copies
included) and restores them on :meth:`Patcher.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span layers: layer name -> ``module:attribute`` targets.  ``Class.attr``
#: targets are methods (plain, class or static) or properties.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cpu.run": ("repro.cpu.core:Cpu.run",),
    "lofat.branch_filter": (
        "repro.lofat.branch_filter:BranchFilter.observe",
        "repro.lofat.branch_filter:BranchFilter.observe_batch",
        "repro.lofat.branch_filter:BranchFilter.observe_block",
        "repro.lofat.branch_filter:BranchFilter.finalize",
    ),
    "lofat.loop_monitor": (
        "repro.lofat.loop_monitor:LoopMonitor.loop_branch",
        "repro.lofat.loop_monitor:LoopMonitor.iteration_boundary",
        "repro.lofat.loop_monitor:LoopMonitor.exit_loop",
    ),
    "lofat.hash": (
        "repro.lofat.hash_engine:HashEngine.absorb_pair",
        "repro.lofat.hash_engine:HashEngine.absorb_run",
        "repro.lofat.hash_engine:HashEngine.absorb_chunk",
        "repro.lofat.hash_engine:HashEngine.finalize",
    ),
    "lofat.metadata": (
        "repro.lofat.metadata:MetadataGenerator.finalize",
        "repro.lofat.metadata:LoopMetadata.to_bytes",
    ),
    "schemes.cflat": (
        "repro.schemes.cflat:CFlatSession.observe",
        "repro.schemes.cflat:CFlatSession.observe_batch",
        "repro.schemes.cflat:CFlatSession.observe_block",
        "repro.schemes.cflat:CFlatSession.finish_run",
        "repro.schemes.cflat:CFlatSession.finalize",
    ),
    "schemes.static": (
        "repro.schemes.static:StaticSession.observe",
        "repro.schemes.static:StaticSession.observe_batch",
        "repro.schemes.static:StaticSession.finalize",
        "repro.schemes.static:StaticScheme.reference_measurement",
    ),
    "schemes.replay": (
        "repro.schemes.base:AttestationScheme.replay_measurement",
    ),
    "service.trace_load": ("repro.cpu.tracefile:loads_trace",),
    "service.capture": ("repro.service.worker:execute_capture_job",),
    "service.db_lookup": (
        "repro.service.database:MeasurementDatabase.lookup",
        "repro.service.database:MeasurementDatabase.lookup_trace",
        "repro.service.database:MeasurementDatabase.lookup_or_compute",
    ),
    "service.db_store": (
        "repro.service.database:MeasurementDatabase.store",
        "repro.service.database:MeasurementDatabase.store_trace",
        "repro.service.database:MeasurementDatabase.store_policy",
    ),
    "workloads.lookup": ("repro.workloads.common:get_workload",),
    "attestation.sign": ("repro.attestation.crypto:sign_report",),
    "attestation.verify_sig": ("repro.attestation.crypto:verify_signature",),
    "attestation.codec": (
        "repro.attestation.protocol:AttestationReport.to_bytes",
        "repro.attestation.protocol:AttestationReport.from_bytes",
        "repro.attestation.protocol:AttestationChallenge.to_bytes",
        "repro.attestation.protocol:AttestationChallenge.from_bytes",
    ),
    "attestation.verifier": ("repro.attestation.verifier:Verifier.verify",),
    "dataflow.policy": ("repro.dataflow.policy:StaticPolicy.check_loop_record",),
    # The policy property derives the lazy dataflow passes on first use, so
    # it belongs to the analysis cost, not to the per-report screen.
    "dataflow.analyze": (
        "repro.dataflow.program:analyze_program",
        "repro.dataflow.program:ProgramAnalysis.policy",
    ),
}


class Tracer:
    """Accumulates span self times and counters (thread-safe).

    ``clock`` is injectable so the self-time arithmetic can be tested with
    a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # Re-entrant: a snapshot taken from a signal handler may interrupt
        # a span closing on the same thread.
        self._lock = threading.RLock()
        self._local = threading.local()
        #: layer -> [calls, inclusive seconds, self seconds]
        self._spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._counters: Dict[str, float] = defaultdict(float)
        #: Inclusive time of spans opened with no enclosing span.
        self._covered = 0.0
        #: ``engine_used`` of every ``Cpu.run``, in call order.
        self._engines: List[Optional[str]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is a span of ``layer``."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self.close_span(layer, elapsed, children[0], stack)

        return wrapper

    def close_span(self, layer: str, elapsed: float, children: float,
                   stack: list) -> None:
        """Account one finished span; ``children`` is its nested span time."""
        with self._lock:
            entry = self._spans[layer]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - children
            if stack:
                stack[-1][0] += elapsed
            else:
                self._covered += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def record_engine(self, engine: Optional[str]) -> None:
        with self._lock:
            self._engines.append(engine)

    def snapshot(self) -> dict:
        """Cumulative state as plain data (see :func:`diff_snapshots`)."""
        with self._lock:
            return {
                "spans": {layer: list(v) for layer, v in self._spans.items()},
                "counters": dict(self._counters),
                "covered_s": self._covered,
                "engines": list(self._engines),
            }


def diff_snapshots(after: dict, before: dict) -> dict:
    """The activity between two :meth:`Tracer.snapshot` results."""
    spans = {}
    for layer, (calls, total, own) in after["spans"].items():
        base = before["spans"].get(layer, [0, 0.0, 0.0])
        spans[layer] = [calls - base[0], total - base[1], own - base[2]]
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    return {
        "spans": spans,
        "counters": counters,
        "covered_s": after["covered_s"] - before["covered_s"],
        "engines": after["engines"][len(before["engines"]):],
    }


# --------------------------------------------------------------- counters
def _count_cpu_run(tracer: Tracer, args, result) -> None:
    cpu = args[0]
    tracer.count("cpu.runs")
    tracer.count("cpu.instructions", result.instructions)
    if cpu.engine_used == "compiled":
        tracer.count("cpu.compiled_runs")
    tracer.record_engine(cpu.engine_used)


def _count_filter_finalize(tracer: Tracer, args, result) -> None:
    # The engine finalizes its filter once: the session's control-flow events.
    tracer.count("lofat.cf_events", args[0].stats.control_flow_instructions)


def _count_pairs(position: Optional[int]) -> Callable:
    def hook(tracer: Tracer, args, result) -> None:
        tracer.count("lofat.pairs_hashed",
                     1 if position is None else len(args[position]))
    return hook


def _count_verdict(tracer: Tracer, args, result) -> None:
    tracer.count("verdicts." + result.reason.value)


def _count_lookup(tracer: Tracer, args, result) -> None:
    tracer.count("service.db_lookups")
    # lookup_or_compute returns (A, L, was_hit); the others (A, L) or None.
    hit = result[2] if isinstance(result, tuple) and len(result) == 3 \
        else result is not None
    if hit:
        tracer.count("service.db_hits")


def _count_frame_out(tracer: Tracer, args, result) -> None:
    tracer.count("attestation.frames")
    tracer.count("attestation.frame_bytes", len(result))


#: Counting hooks: target -> hook(tracer, args, result), run after the call.
HOOKS: Dict[str, Callable] = {
    "repro.cpu.core:Cpu.run": _count_cpu_run,
    "repro.lofat.branch_filter:BranchFilter.finalize": _count_filter_finalize,
    "repro.lofat.hash_engine:HashEngine.absorb_pair": _count_pairs(None),
    "repro.lofat.hash_engine:HashEngine.absorb_run": _count_pairs(1),
    "repro.lofat.hash_engine:HashEngine.absorb_chunk": _count_pairs(2),
    "repro.attestation.verifier:Verifier.verify": _count_verdict,
    "repro.service.database:MeasurementDatabase.lookup": _count_lookup,
    "repro.service.database:MeasurementDatabase.lookup_trace": _count_lookup,
    "repro.service.database:MeasurementDatabase.lookup_or_compute": _count_lookup,
    "repro.attestation.framing:encode_frame": _count_frame_out,
}


def _with_hook(tracer: Tracer, hook: Callable, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(tracer, args, result)
        return result
    return wrapper


def _counted_read_frame(tracer: Tracer, fn: Callable) -> Callable:
    """Count the frames an ``async`` reader returns (no span: it awaits I/O)."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        frame = await fn(*args, **kwargs)
        if frame is not None:
            tracer.count("attestation.frames")
            tracer.count("attestation.frame_bytes", 5 + len(frame[1]))
        return frame
    return wrapper


# ---------------------------------------------------------------- patching
class Patcher:
    """Installs wrappers on ``repro`` targets and restores the originals."""

    def __init__(self) -> None:
        self._methods: List[Tuple[type, str, object]] = []
        self._functions: List[Tuple[Callable, Callable]] = []

    @staticmethod
    def _resolve(target: str):
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` by ``make(original)`` wherever it is bound."""
        owner, name = self._resolve(target)
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                patched: object = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(make(raw.__func__))
            elif isinstance(raw, property):
                patched = property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
            else:
                patched = make(raw)
            setattr(owner, name, patched)
            self._methods.append((owner, name, raw))
            return
        original = getattr(owner, name)
        wrapper = make(original)
        _rebind(original, wrapper)
        self._functions.append((original, wrapper))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._methods):
            setattr(owner, name, raw)
        for original, wrapper in reversed(self._functions):
            # Modules imported after install copied the wrapper: restore
            # every binding, not only the ones patched at install time.
            _rebind(wrapper, original)
        self._methods.clear()
        self._functions.clear()


def _rebind(old: Callable, new: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install_engine_probe(tracer: Tracer) -> Patcher:
    """Wrap ``Cpu.run`` alone, recording each run's engine.

    The engine is chosen inside ``Cpu.run`` from the configuration and the
    attached monitors, so this wrapper sees the untraced choice; comparing
    it with a fully traced pass shows whether the layer wrappers knocked a
    run off its engine.
    """
    patcher = Patcher()
    patcher.wrap("repro.cpu.core:Cpu.run",
                 functools.partial(_with_hook, tracer, _count_cpu_run))
    return patcher


def layer_metrics(window: dict, window_s: float, setup: dict,
                  passes: int = 1) -> Dict[str, float]:
    """Per-layer metrics of a traced window, per pass of the workload.

    ``window`` is the :func:`diff_snapshots` of the traced window and
    ``setup`` the snapshot taken after the traced set-up;
    ``dataflow.analyze_s`` moves set-up time, so it comes from ``setup``.
    Every ``*_s`` value is a self time.  The caller adds the metrics only
    the workload knows (compiles, dedup and replay-cache rates, CPU
    shares, tracing overhead).
    """
    spans, counters = window["spans"], window["counters"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        name = "cpu.run_self_s" if layer == "cpu.run" else layer + "_s"
        source = setup["spans"] if layer == "dataflow.analyze" else spans
        metrics[name] = source.get(layer, [0, 0.0, 0.0])[2] / \
            (1 if layer == "dataflow.analyze" else passes)

    def count(name: str) -> float:
        return counters.get(name, 0) / passes

    def ratio(numerator: str, denominator: str) -> float:
        total = counters.get(denominator, 0)
        return counters.get(numerator, 0) / total if total else 0.0

    for name in ("cpu.runs", "cpu.instructions", "lofat.cf_events",
                 "lofat.pairs_hashed", "attestation.frames",
                 "attestation.frame_bytes", "verdicts.accepted",
                 "verdicts.bad_signature", "verdicts.nonce_reused",
                 "verdicts.policy_violation", "verdicts.measurement_mismatch"):
        metrics[name] = count(name)
    metrics["cpu.compiled_frac"] = ratio("cpu.compiled_runs", "cpu.runs")
    metrics["lofat.compression_ratio"] = ratio("lofat.pairs_hashed",
                                               "lofat.cf_events")
    metrics["service.db_hit_rate"] = ratio("service.db_hits",
                                           "service.db_lookups")
    metrics["other_s"] = max(0.0, window_s - window["covered_s"]) / passes
    metrics["trace.window_s"] = window_s / passes
    return metrics


def install(tracer: Tracer) -> Patcher:
    """Wrap every :data:`LAYERS` target, plus the counting hooks."""
    patcher = Patcher()
    spanned = set()
    for layer, targets in LAYERS.items():
        for target in targets:
            hook = HOOKS.get(target)

            def make(fn, layer=layer, hook=hook):
                wrapped = tracer.span(layer, fn)
                return _with_hook(tracer, hook, wrapped) if hook else wrapped

            patcher.wrap(target, make)
            spanned.add(target)
    for target, hook in HOOKS.items():
        if target not in spanned:
            patcher.wrap(target, functools.partial(_with_hook, tracer, hook))
    patcher.wrap("repro.attestation.framing:read_frame",
                 functools.partial(_counted_read_frame, tracer))
    return patcher
