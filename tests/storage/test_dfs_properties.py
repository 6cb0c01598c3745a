"""Property-based tests on DFS invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import DistributedFileSystem


@settings(max_examples=50, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=16),
    size=st.floats(min_value=0.0, max_value=1e12),
    block_size=st.floats(min_value=1e6, max_value=256e6),
)
def test_blocks_cover_exact_file_size(nodes, size, block_size):
    dfs = DistributedFileSystem(list(range(nodes)), block_size=block_size)
    dfs_file = dfs.create("/f", size)
    assert sum(b.size for b in dfs_file.blocks) == pytest.approx(size)
    for block in dfs_file.blocks:
        assert block.size <= block_size * (1 + 1e-9)


@settings(max_examples=50, deadline=None)
@given(
    nodes=st.integers(min_value=2, max_value=16),
    replication=st.integers(min_value=1, max_value=16),
    size=st.floats(min_value=1.0, max_value=1e11),
)
def test_replicas_distinct_and_counted(nodes, replication, size):
    if replication > nodes:
        replication = nodes
    dfs = DistributedFileSystem(list(range(nodes)), replication=replication)
    dfs_file = dfs.create("/f", size)
    for block in dfs_file.blocks:
        assert len(block.replicas) == replication
        assert len(set(block.replicas)) == replication


@settings(max_examples=50, deadline=None)
@given(
    size=st.floats(min_value=1.0, max_value=1e11),
    partitions=st.integers(min_value=1, max_value=64),
)
def test_partition_split_conserves_bytes(size, partitions):
    dfs = DistributedFileSystem([0, 1, 2, 3])
    dfs.create("/f", size)
    splits = dfs.split_for_partitions("/f", partitions)
    assert len(splits) == partitions
    assert sum(s["bytes"] for s in splits) == pytest.approx(size, rel=1e-9)
    for split in splits:
        assert split["preferred_nodes"]


def _full_scan_splits(dfs, path, num_partitions):
    """``split_for_partitions`` as every partition against every block."""
    dfs_file = dfs.status(path)
    per_partition = dfs_file.size / num_partitions
    assignments = []
    for i in range(num_partitions):
        start = i * per_partition
        end = start + per_partition
        preferred = []
        for block in dfs_file.blocks:
            block_start = block.index * dfs.block_size
            block_end = block_start + block.size
            if block_end > start and block_start < end:
                if not block.replicas and block.size > 0:
                    raise FileNotFoundError(
                        f"{path}: block {block.index} lost all replicas")
                for node in block.replicas:
                    if node not in preferred:
                        preferred.append(node)
        assignments.append(
            {"bytes": per_partition, "preferred_nodes": tuple(preferred)})
    return assignments


def _outcome(split, *args):
    try:
        return split(*args)
    except FileNotFoundError as exc:
        return ("lost", str(exc))


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=8),
    replication=st.integers(min_value=1, max_value=8),
    # Whole blocks plus a fraction: uneven last blocks, and sizes that
    # are exact multiples of the block size.
    blocks=st.integers(min_value=0, max_value=40),
    tail=st.sampled_from([0.0, 1.0, 0.5, 1e-9, 0.999999, 1 / 3]),
    block_size=st.sampled_from([128.0 * 2 ** 20, 1e6, 1e6 / 3, 7.0]),
    partitions=st.integers(min_value=1, max_value=97),
    writer=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    failed=st.lists(st.integers(min_value=0, max_value=7), max_size=4),
)
def test_partition_split_matches_full_scan(nodes, replication, blocks, tail,
                                           block_size, partitions, writer,
                                           failed):
    """Bisected block ranges give the full scan's splits, node order and
    lost-block error, before and after node loss."""
    dfs = DistributedFileSystem(list(range(nodes)),
                                replication=min(replication, nodes),
                                block_size=block_size)
    writer = writer if writer is not None and writer < nodes else None
    dfs.create("/f", (blocks + tail) * block_size, writer_node=writer)
    dfs.create("/g", 3.5 * block_size)
    for node in [None] + failed:
        if node is not None:
            dfs.fail_node(node)
        for path in ("/f", "/g"):
            expected = _outcome(_full_scan_splits, dfs, path, partitions)
            assert _outcome(dfs.split_for_partitions, path,
                            partitions) == expected
