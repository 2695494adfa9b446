"""Configuration of the LO-FAT hardware model.

The paper stresses that LO-FAT "allows configuring the granularity of the
control-flow tracking according to the availability of memory resources"
(§5.1, §5.2).  :class:`LoFatConfig` collects every such knob together with the
timing parameters reported in the evaluation, and derives the memory sizing
formulas of §5.2 so that the area model and the ablation experiment (E8) can
sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LoFatConfig:
    """All configuration parameters of the LO-FAT engine.

    The defaults reproduce the configuration of the paper's prototype:
    ``n = 4`` bits per indirect-branch target (up to 15 distinct targets per
    loop plus the all-zero overflow code), ``l = 16`` branches per loop path,
    nesting depth 3, an 8-bit iteration counter per path, a SHA-3 512 engine
    with a 576-bit rate absorbing one 64-bit (Src, Dest) pair per cycle.
    """

    # ------------------------------------------------------------ tracking
    #: Number of bits used to re-encode each indirect-branch target (paper: n).
    indirect_target_bits: int = 4
    #: Maximum number of branches tracked per loop path (paper: l).
    max_branches_per_path: int = 16
    #: Maximum depth of simultaneously tracked nested loops.
    max_nested_loops: int = 3
    #: Maximum number of indirect branches allowed per loop path (the §6.2
    #: prototype configures 4, consuming 10 of the 16 path-ID bits).
    max_indirect_branches_per_path: int = 4
    #: Width in bits of each per-path iteration counter.
    counter_width_bits: int = 8

    # -------------------------------------------------------------- timing
    #: Internal latency for branch instruction / loop status tracking (cycles).
    branch_tracking_latency: int = 2
    #: Internal latency at loop exit for path-ID generation + counter memory
    #: access and update (cycles).
    loop_exit_latency: int = 5
    #: LO-FAT / Pulpino operating clock in MHz (synthesis result, §6.1).
    clock_mhz: float = 80.0
    #: Stand-alone maximum clock of the SHA-3 engine in MHz (§5.3).
    hash_engine_max_clock_mhz: float = 150.0

    # --------------------------------------------------------- hash engine
    #: SHA-3 rate in bits (512-bit digest => 576-bit rate).
    hash_rate_bits: int = 576
    #: Width of one absorbed (Src, Dest) input word in bits.
    hash_input_width_bits: int = 64
    #: Cycles during which the padding buffer cannot absorb new input after
    #: filling a full rate block (§5.3).
    hash_pad_stall_cycles: int = 3
    #: Depth (in 64-bit entries) of the small cache buffer in front of the
    #: hash engine that prevents dropping pairs during pad stalls.
    hash_input_buffer_depth: int = 8
    #: Cycles for one Keccak-f permutation (overlapped with absorption in the
    #: open-source core; only used for end-of-message latency accounting).
    hash_permutation_cycles: int = 24

    # ------------------------------------------------------------ derived
    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check parameter consistency; raise :class:`ValueError` otherwise."""
        if self.indirect_target_bits < 1:
            raise ValueError("indirect_target_bits must be >= 1")
        if self.max_branches_per_path < 1:
            raise ValueError("max_branches_per_path must be >= 1")
        if self.max_nested_loops < 0:
            raise ValueError("max_nested_loops must be >= 0")
        if self.counter_width_bits < 1:
            raise ValueError("counter_width_bits must be >= 1")
        if self.hash_rate_bits % self.hash_input_width_bits != 0:
            raise ValueError("hash rate must be a multiple of the input width")
        if (self.max_indirect_branches_per_path * self.indirect_target_bits
                > self.path_id_bits):
            raise ValueError(
                "indirect-branch encodings (%d x %d bits) do not fit in the "
                "%d-bit path ID"
                % (
                    self.max_indirect_branches_per_path,
                    self.indirect_target_bits,
                    self.path_id_bits,
                )
            )

    # -- §5.2 sizing formulas -------------------------------------------------
    @property
    def path_id_bits(self) -> int:
        """Width of the loop path ID in bits (paper: l)."""
        return self.max_branches_per_path

    @property
    def max_indirect_targets_per_loop(self) -> int:
        """Distinct indirect targets representable per loop (2^n - 1).

        The all-zero code is reserved for targets beyond the configured limit
        (paper §5.2).
        """
        return (1 << self.indirect_target_bits) - 1

    @property
    def loop_memory_bits(self) -> int:
        """On-chip bits for one loop's path-indexed counter memory.

        The paper states "tracking l branches per path in a loop requires
        8 x 2^l bits memory" (§5.2); the 8 is the per-path counter width.
        """
        return self.counter_width_bits * (1 << self.path_id_bits)

    @property
    def total_loop_memory_bits(self) -> int:
        """Loop counter memory across all simultaneously tracked loops."""
        return self.loop_memory_bits * self.max_nested_loops

    @property
    def max_conditional_branches_per_path(self) -> int:
        """Conditional branches representable per path given indirect usage.

        "Every additional indirect branch tracked reduces the maximum number
        of possible conditional branches by n" (§5.2).
        """
        return self.path_id_bits - (
            self.max_indirect_branches_per_path * self.indirect_target_bits
        )

    @property
    def absorbs_per_block(self) -> int:
        """Input words absorbed before the rate block is full (576/64 = 9)."""
        return self.hash_rate_bits // self.hash_input_width_bits

    def describe(self) -> dict:
        """Dictionary view of the configuration (used in reports)."""
        return {
            "indirect_target_bits": self.indirect_target_bits,
            "max_branches_per_path": self.max_branches_per_path,
            "max_nested_loops": self.max_nested_loops,
            "max_indirect_branches_per_path": self.max_indirect_branches_per_path,
            "counter_width_bits": self.counter_width_bits,
            "loop_memory_bits": self.loop_memory_bits,
            "total_loop_memory_bits": self.total_loop_memory_bits,
            "branch_tracking_latency": self.branch_tracking_latency,
            "loop_exit_latency": self.loop_exit_latency,
            "clock_mhz": self.clock_mhz,
        }
