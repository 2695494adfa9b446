"""LO-FAT: the paper's primary contribution, modelled at cycle/transaction level.

The package mirrors the hardware decomposition of Figure 3 in the paper:

* :mod:`repro.lofat.config` -- the configuration knobs the paper exposes
  (indirect-target encoding width ``n``, branches per loop path ``l``,
  nesting depth, buffer sizes, clock frequencies).
* :mod:`repro.lofat.branch_filter` -- extracts control-flow instructions from
  the retired-instruction stream and detects loop entry/exit with the
  non-linking-backward-branch heuristic (paper §5.1).
* :mod:`repro.lofat.loop_monitor` -- tracks (nested) loops, encodes loop
  paths, maintains per-path iteration counters, and triggers hashing of newly
  observed paths only (paper §5.1/§5.2).
* :mod:`repro.lofat.path_encoder` -- unique loop path encodings built from
  branch outcomes and re-encoded indirect targets (Figure 4).
* :mod:`repro.lofat.target_cam` -- the small content-addressable memory that
  re-encodes 32-bit indirect targets into ``n``-bit codes.
* :mod:`repro.lofat.loop_counter_memory` -- the path-ID-indexed on-chip
  iteration counter memory.
* :mod:`repro.lofat.hash_engine` -- SHA-3 512 measurement plus the cycle model
  of the absorb pipeline and its input cache buffer (paper §5.3).
* :mod:`repro.lofat.metadata` -- the auxiliary loop metadata ``L``.
* :mod:`repro.lofat.engine` -- the top-level engine wiring all components and
  attaching to the CPU as a retired-instruction monitor, and the one
  measurement result type every scheme reports (:class:`SchemeMeasurement`).
* :mod:`repro.lofat.area_model` -- the analytical FPGA resource model used to
  reproduce the paper's area evaluation (§6.2).
"""

from repro.lofat.config import LoFatConfig
from repro.lofat.hash_engine import HashEngine, HashEngineStats
from repro.lofat.target_cam import TargetCam
from repro.lofat.path_encoder import LoopPathEncoder, PathEncoding
from repro.lofat.loop_counter_memory import LoopCounterMemory
from repro.lofat.branch_filter import BranchFilter, FilterEvent, FilterEventKind
from repro.lofat.loop_monitor import LoopMonitor
from repro.lofat.metadata import LoopMetadata, LoopRecord, PathRecord
from repro.lofat.engine import LoFatEngine, SchemeMeasurement
from repro.lofat.area_model import AreaEstimate, AreaModel, FpgaDevice, VIRTEX7_XC7Z020

__all__ = [
    "LoFatConfig",
    "HashEngine",
    "HashEngineStats",
    "TargetCam",
    "LoopPathEncoder",
    "PathEncoding",
    "LoopCounterMemory",
    "BranchFilter",
    "FilterEvent",
    "FilterEventKind",
    "LoopMonitor",
    "LoopMetadata",
    "LoopRecord",
    "PathRecord",
    "LoFatEngine",
    "SchemeMeasurement",
    "AreaEstimate",
    "AreaModel",
    "FpgaDevice",
    "VIRTEX7_XC7Z020",
]
