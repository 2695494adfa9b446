"""Unit tests for the loop metadata L."""

from repro.lofat.metadata import LoopMetadata, LoopRecord, MetadataGenerator, PathRecord
from repro.lofat.path_encoder import PathEncoding


def make_loop(entry=0x100, paths=None, iterations=None, indirect=()):
    paths = paths or [("011", 3), ("0011", 2)]
    records = [
        PathRecord(encoding=PathEncoding(bits=bits), iterations=count, first_seen_index=i)
        for i, (bits, count) in enumerate(paths)
    ]
    total = iterations if iterations is not None else sum(count for _, count in paths)
    return LoopRecord(entry=entry, exit_node=entry + 0x40, depth=1,
                      iterations=total, paths=records, indirect_targets=list(indirect))


class TestLoopRecord:
    def test_distinct_paths(self):
        assert make_loop().distinct_paths == 2

    def test_serialisation_deterministic(self):
        assert make_loop().to_bytes() == make_loop().to_bytes()

    def test_serialisation_sensitive_to_counts(self):
        a = make_loop(paths=[("011", 3)])
        b = make_loop(paths=[("011", 4)])
        assert a.to_bytes() != b.to_bytes()

    def test_serialisation_sensitive_to_indirect_targets(self):
        a = make_loop(indirect=[0x200])
        b = make_loop(indirect=[0x204])
        assert a.to_bytes() != b.to_bytes()


class TestLoopMetadata:
    def test_add_assigns_exit_sequence(self):
        metadata = LoopMetadata()
        metadata.add(make_loop(entry=0x100))
        metadata.add(make_loop(entry=0x200))
        assert [record.exit_sequence for record in metadata] == [0, 1]

    def test_totals(self):
        metadata = LoopMetadata()
        metadata.add(make_loop(paths=[("0", 5)]))
        metadata.add(make_loop(paths=[("1", 2), ("0", 1)]))
        assert metadata.total_iterations == 8
        assert metadata.total_distinct_paths == 3
        assert len(metadata) == 2

    def test_size_matches_serialisation(self):
        metadata = LoopMetadata()
        metadata.add(make_loop())
        assert metadata.size_bytes == len(metadata.to_bytes())

    def test_loops_at_entry(self):
        metadata = LoopMetadata()
        metadata.add(make_loop(entry=0x100))
        metadata.add(make_loop(entry=0x100))
        metadata.add(make_loop(entry=0x300))
        assert len(metadata.loops_at_entry(0x100)) == 2
        assert metadata.loops_at_entry(0x999) == []

    def test_summary(self):
        metadata = LoopMetadata()
        metadata.add(make_loop())
        summary = metadata.summary()
        assert summary["loop_executions"] == 1
        assert summary["total_iterations"] == 5
        assert summary["max_depth"] == 1

    def test_empty_metadata_serialises(self):
        metadata = LoopMetadata()
        assert metadata.to_bytes() == (0).to_bytes(2, "little")
        assert metadata.summary()["max_depth"] == 0

    def test_serialisation_order_sensitive(self):
        a = LoopMetadata()
        a.add(make_loop(entry=0x100))
        a.add(make_loop(entry=0x200))
        b = LoopMetadata()
        b.add(make_loop(entry=0x200))
        b.add(make_loop(entry=0x100))
        assert a.to_bytes() != b.to_bytes()


class TestMetadataGenerator:
    def test_collects_in_exit_order(self):
        generator = MetadataGenerator()
        generator.on_loop_exit(make_loop(entry=0x10))
        generator.on_loop_exit(make_loop(entry=0x20))
        metadata = generator.finalize()
        assert [record.entry for record in metadata] == [0x10, 0x20]
