"""Unit tests for the loop path encoder (Figure 4 semantics)."""

from repro.lofat.config import LoFatConfig
from repro.lofat.path_encoder import MAX_INDIRECT_CODES, LoopPathEncoder, PathEncoding


class TestFigure4Encodings:
    """The canonical example from the paper."""

    def test_dashed_path_encodes_011(self):
        """N2 -> N3 -> N5 -> N6 -> N2: while-cond not taken, if-cond taken,
        (fall-through to N6), back jump."""
        encoder = LoopPathEncoder()
        encoder.on_conditional(False)   # N2: while condition stays in the loop
        encoder.on_conditional(True)    # N3: else branch taken
        encoder.on_direct_jump()        # N6: back jump to N2
        assert encoder.finish().bits == "011"

    def test_bold_path_encodes_0011(self):
        """N2 -> N3 -> N4 -> N6 -> N2: both conditionals not taken, then the
        jump out of N4 and the back jump."""
        encoder = LoopPathEncoder()
        encoder.on_conditional(False)   # N2
        encoder.on_conditional(False)   # N3: falls through into N4
        encoder.on_direct_jump()        # N4 -> N6
        encoder.on_direct_jump()        # N6 -> N2
        assert encoder.finish().bits == "0011"

    def test_the_two_paths_have_distinct_ids(self):
        dashed = PathEncoding(bits="011")
        bold = PathEncoding(bits="0011")
        assert dashed.path_id != bold.path_id


class TestEncoderBehaviour:
    def test_conditional_bits(self):
        encoder = LoopPathEncoder()
        encoder.on_conditional(True)
        encoder.on_conditional(False)
        encoder.on_conditional(True)
        assert encoder.finish().bits == "101"

    def test_indirect_branches_use_n_bit_codes(self):
        config = LoFatConfig(indirect_target_bits=4)
        encoder = LoopPathEncoder(config)
        encoder.on_conditional(True)
        code = encoder.on_indirect(0x800)
        assert code == 1
        encoding = encoder.finish()
        assert encoding.bits == "1" + "0001"
        assert encoding.indirect_codes == (1,)

    def test_repeated_indirect_target_reuses_code(self):
        encoder = LoopPathEncoder()
        first = encoder.on_indirect(0x444)
        encoder.finish()
        second = encoder.on_indirect(0x444)
        assert first == second == 1

    def test_cam_overflow_encodes_all_zero(self):
        config = LoFatConfig(indirect_target_bits=2, max_indirect_branches_per_path=1,
                             max_branches_per_path=16)
        encoder = LoopPathEncoder(config)
        for index in range(3):
            encoder.on_indirect(0x100 + 4 * index)
        code = encoder.on_indirect(0x999)
        assert code == 0
        assert encoder.finish().bits.endswith("00")

    def test_truncation_beyond_max_branches(self):
        config = LoFatConfig(max_branches_per_path=4, indirect_target_bits=2,
                             max_indirect_branches_per_path=1)
        encoder = LoopPathEncoder(config)
        for _ in range(6):
            encoder.on_conditional(True)
        encoding = encoder.finish()
        assert encoding.truncated
        assert len(encoding.bits) == 4
        assert encoding.branch_count == 6

    def test_shorter_event_still_fits_after_truncation(self):
        """Truncation drops only the events that do not fit: a later, narrower
        event is still appended."""
        config = LoFatConfig(max_branches_per_path=4, indirect_target_bits=2,
                             max_indirect_branches_per_path=1)
        encoder = LoopPathEncoder(config)
        for _ in range(3):
            encoder.on_conditional(True)
        encoder.on_indirect(0x800)      # 2 bits: does not fit
        encoder.on_conditional(False)   # 1 bit: fits
        assert encoder.path_id == int("1" + "1110", 2)
        encoding = encoder.finish()
        assert encoding.bits == "1110"
        assert encoding.truncated
        assert encoding.indirect_codes == (1,)

    def test_indirect_codes_stop_at_the_serialisable_count(self):
        encoder = LoopPathEncoder()
        for index in range(300):
            encoder.on_indirect(0x100 + 4 * (index % 3))
        encoding = encoder.finish()
        assert len(encoding.indirect_codes) == MAX_INDIRECT_CODES == 255
        assert encoding.branch_count == 300
        assert encoding.truncated
        blob = encoding.to_bytes()
        assert PathEncoding.from_bytes(blob).to_bytes() == blob

    def test_finish_resets_path_but_keeps_cam(self):
        encoder = LoopPathEncoder()
        encoder.on_indirect(0x500)
        encoder.finish()
        assert encoder.is_empty
        assert encoder.cam.occupancy == 1

    def test_reset_loop_clears_cam(self):
        encoder = LoopPathEncoder()
        encoder.on_indirect(0x500)
        encoder.reset_loop()
        assert encoder.cam.occupancy == 0

    def test_current_bits_view(self):
        encoder = LoopPathEncoder()
        encoder.on_conditional(True)
        encoder.on_conditional(False)
        assert encoder.current_bits == "10"

    def test_empty_path_encoding(self):
        encoding = LoopPathEncoder().finish()
        assert encoding.bits == ""
        assert encoding.path_id == 1
        assert encoding.width == 0


class TestPathEncodingSerialisation:
    def test_to_bytes_is_deterministic(self):
        encoding = PathEncoding(bits="0110", indirect_codes=(3,), branch_count=4)
        assert encoding.to_bytes() == encoding.to_bytes()

    def test_to_bytes_distinguishes_different_paths(self):
        a = PathEncoding(bits="011")
        b = PathEncoding(bits="0011")
        c = PathEncoding(bits="011", truncated=True)
        assert a.to_bytes() != b.to_bytes()
        assert a.to_bytes() != c.to_bytes()

    def test_str_rendering(self):
        assert str(PathEncoding(bits="01")) == "01"
        assert "truncated" in str(PathEncoding(bits="01", truncated=True))

    def test_width_and_path_id(self):
        encoding = PathEncoding(bits="0011")
        assert encoding.width == 4
        assert encoding.path_id == int("10011", 2)
