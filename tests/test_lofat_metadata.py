"""Unit tests for the loop metadata L."""

import random
import time

import pytest

from repro.lofat.metadata import (
    LoopMetadata,
    LoopRecord,
    MetadataGenerator,
    MetadataLimitError,
    PathRecord,
)
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


def concatenating_encoder(metadata):
    """The byte-at-a-time encoder ``L`` was first written with (quadratic in
    the record count, kept here as the format oracle)."""
    blob = len(metadata.loops).to_bytes(2, "little")
    for record in metadata.loops:
        blob += (record.entry.to_bytes(4, "little")
                 + record.exit_node.to_bytes(4, "little")
                 + record.depth.to_bytes(1, "little")
                 + record.iterations.to_bytes(4, "little")
                 + record.exit_sequence.to_bytes(2, "little")
                 + len(record.paths).to_bytes(2, "little"))
        for path in record.paths:
            blob += (path.encoding.to_bytes()
                     + path.iterations.to_bytes(4, "little")
                     + path.first_seen_index.to_bytes(2, "little"))
        blob += len(record.indirect_targets).to_bytes(1, "little")
        for target in record.indirect_targets:
            blob += (target & 0xFFFFFFFF).to_bytes(4, "little")
    return blob


def random_metadata(rng, loops):
    metadata = LoopMetadata()
    for _ in range(loops):
        paths = [
            PathRecord(
                encoding=PathEncoding(
                    bits="".join(rng.choice("01")
                                 for _ in range(rng.randrange(0, 40))),
                    indirect_codes=tuple(rng.randrange(1, 16)
                                         for _ in range(rng.randrange(3))),
                    truncated=rng.random() < 0.1),
                iterations=rng.randrange(1 << 32),
                first_seen_index=index)
            for index in range(rng.randrange(0, 5))
        ]
        metadata.add(LoopRecord(
            entry=rng.randrange(1 << 32), exit_node=rng.randrange(1 << 32),
            depth=rng.randrange(1, 256), iterations=rng.randrange(1 << 32),
            paths=paths,
            indirect_targets=[rng.randrange(1 << 33)
                              for _ in range(rng.randrange(4))]))
    return metadata


def one_path_nest(records):
    """``records`` one-path loop executions, as an inner loop leaves them."""
    metadata = LoopMetadata()
    for _ in range(records):
        metadata.add(make_loop(paths=[("01", 2)]))
    return metadata


class TestEncoding:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_concatenating_encoder(self, seed):
        metadata = random_metadata(random.Random(seed), loops=40)
        blob = metadata.to_bytes()
        assert blob == concatenating_encoder(metadata)
        assert LoopMetadata.from_bytes(blob).to_bytes() == blob

    def test_encoding_is_linear_in_the_record_count(self):
        metadata = one_path_nest(30_000)
        started = time.perf_counter()
        blob = metadata.to_bytes()
        assert time.perf_counter() - started < 0.5
        assert len(blob) == 2 + 30_000 * len(metadata.loops[0].to_bytes())

    def test_record_count_limit_is_a_typed_error(self):
        metadata = one_path_nest(65_535)
        metadata.to_bytes()  # the largest count that fits
        metadata.add(make_loop(paths=[("01", 2)]))
        with pytest.raises(MetadataLimitError) as caught:
            metadata.to_bytes()
        assert (caught.value.field, caught.value.value,
                caught.value.limit) == ("loop record count", 65_536, 65_535)
        assert "65536" in str(caught.value)

    @pytest.mark.parametrize("field, record", [
        ("exit_sequence", lambda r: setattr(r, "exit_sequence", 1 << 16)),
        ("path count", lambda r: r.paths.extend(r.paths[:1] * (1 << 16))),
        ("indirect-target count",
         lambda r: r.indirect_targets.extend([0x200] * 256)),
        ("depth", lambda r: setattr(r, "depth", 256)),
        ("iterations", lambda r: setattr(r, "iterations", -1)),
    ])
    def test_record_fields_raise_a_typed_error(self, field, record):
        loop = make_loop()
        record(loop)
        with pytest.raises(MetadataLimitError) as caught:
            LoopMetadata(loops=[loop]).to_bytes()
        assert caught.value.field == field

    def test_first_seen_index_limit_is_a_typed_error(self):
        path = PathRecord(encoding=PathEncoding(bits="01"), iterations=1,
                          first_seen_index=1 << 16)
        with pytest.raises(MetadataLimitError) as caught:
            LoopRecord(entry=0x100, exit_node=0x140, depth=1, iterations=1,
                       paths=[path]).to_bytes()
        assert (caught.value.field, caught.value.value) == (
            "first_seen_index", 1 << 16)
