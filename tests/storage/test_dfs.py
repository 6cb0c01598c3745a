"""Tests for the HDFS-like distributed filesystem."""

import pytest

from repro.storage import DistributedFileSystem


def make_dfs(nodes=4, replication=None, block_size=128 * 1024 * 1024):
    return DistributedFileSystem(
        node_ids=list(range(nodes)), replication=replication, block_size=block_size
    )


class TestCreate:
    def test_file_split_into_blocks(self):
        dfs = make_dfs(block_size=100.0)
        f = dfs.create("/data", 350.0)
        assert f.num_blocks == 4
        assert [b.size for b in f.blocks] == [100.0, 100.0, 100.0, 50.0]

    def test_full_replication_places_on_all_nodes(self):
        dfs = make_dfs(nodes=4)  # replication defaults to cluster size
        f = dfs.create("/data", 10.0)
        assert sorted(f.blocks[0].replicas) == [0, 1, 2, 3]

    def test_writer_node_gets_primary_replica(self):
        dfs = make_dfs(nodes=4, replication=2)
        f = dfs.create("/out", 10.0, writer_node=3)
        assert f.blocks[0].replicas[0] == 3

    def test_replicas_are_distinct_nodes(self):
        dfs = make_dfs(nodes=4, replication=3)
        f = dfs.create("/x", 1000.0, writer_node=1)
        for block in f.blocks:
            assert len(set(block.replicas)) == len(block.replicas) == 3

    def test_primaries_rotate_without_writer(self):
        dfs = make_dfs(nodes=4, replication=1, block_size=10.0)
        f = dfs.create("/in", 40.0)
        primaries = [b.replicas[0] for b in f.blocks]
        assert len(set(primaries)) == 4

    def test_duplicate_path_rejected(self):
        dfs = make_dfs()
        dfs.create("/a", 1.0)
        with pytest.raises(FileExistsError):
            dfs.create("/a", 1.0)

    def test_zero_byte_file_has_one_empty_block(self):
        dfs = make_dfs()
        f = dfs.create("/empty", 0.0)
        assert f.num_blocks == 1
        assert f.blocks[0].size == 0.0

    def test_negative_size_rejected(self):
        dfs = make_dfs()
        with pytest.raises(ValueError):
            dfs.create("/bad", -5.0)

    def test_nan_size_rejected(self):
        # An infinite size is rejected by the same check; it is not
        # exercised here because an unchecked create() never returns.
        dfs = make_dfs()
        with pytest.raises(ValueError, match="finite"):
            dfs.create("/bad", float("nan"))

    def test_unknown_writer_rejected(self):
        dfs = make_dfs(nodes=2, replication=1)
        with pytest.raises(ValueError):
            dfs.create("/bad", 1.0, writer_node=99)

    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError):
            make_dfs(nodes=2, replication=3)

    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            DistributedFileSystem(node_ids=[])


class TestReadPath:
    def test_status_and_exists(self):
        dfs = make_dfs()
        dfs.create("/a", 123.0)
        assert dfs.exists("/a")
        assert not dfs.exists("/b")
        assert dfs.status("/a").size == 123.0

    def test_missing_file_raises(self):
        dfs = make_dfs()
        with pytest.raises(FileNotFoundError):
            dfs.status("/nope")

    def test_delete(self):
        dfs = make_dfs()
        dfs.create("/a", 1.0)
        dfs.delete("/a")
        assert not dfs.exists("/a")
        with pytest.raises(FileNotFoundError):
            dfs.delete("/a")

    def test_split_for_partitions_conserves_bytes(self):
        dfs = make_dfs(block_size=64.0)
        dfs.create("/data", 1000.0)
        splits = dfs.split_for_partitions("/data", 7)
        assert sum(s["bytes"] for s in splits) == pytest.approx(1000.0)

    def test_split_partitions_have_locality(self):
        dfs = make_dfs(nodes=4)
        dfs.create("/data", 10_000.0)
        for split in dfs.split_for_partitions("/data", 8):
            assert split["preferred_nodes"]

    def test_split_with_partial_replication_is_block_accurate(self):
        dfs = make_dfs(nodes=4, replication=1, block_size=100.0)
        dfs.create("/data", 400.0)
        splits = dfs.split_for_partitions("/data", 4)
        # Partition i exactly overlaps block i, so locality is its primary.
        primaries = [b.replicas[0] for b in dfs.locations("/data")]
        for split, primary in zip(splits, primaries):
            assert split["preferred_nodes"] == (primary,)

    def test_split_requires_positive_partitions(self):
        dfs = make_dfs()
        dfs.create("/data", 10.0)
        with pytest.raises(ValueError):
            dfs.split_for_partitions("/data", 0)

    def test_total_stored_bytes(self):
        dfs = make_dfs()
        dfs.create("/a", 10.0)
        dfs.create("/b", 32.0)
        assert dfs.total_stored_bytes() == pytest.approx(42.0)
        assert dfs.files == ["/a", "/b"]
