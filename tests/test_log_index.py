"""Unit tests for the three-layer write-log index (Fig 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ssd.firmware.log_index import (
    CHUNK_ENTRY_BYTES,
    PAGE_NODE_BYTES,
    ChunkEntry,
    LogIndex,
)


def entry(offset, length, seq, txid=None):
    return ChunkEntry(
        offset=offset, length=length, log_off=0, txid=txid, seq=seq,
        data=bytes(length),
    )


def make_index():
    # 1 MB address space, 4 KB pages, 64 KB partitions -> 16 pages/part
    return LogIndex(1 << 20, 4096, partition_bytes=64 << 10)


def test_insert_and_lookup():
    idx = make_index()
    idx.insert(5, entry(0, 64, 1))
    node = idx.lookup(5)
    assert node is not None
    assert node.lpa == 5
    assert len(node.chunks) == 1
    assert idx.lookup(6) is None


def test_chunk_list_ordered_by_offset():
    idx = make_index()
    idx.insert(1, entry(128, 64, 1))
    idx.insert(1, entry(0, 64, 2))
    idx.insert(1, entry(64, 64, 3))
    offsets = [c.offset for c in idx.lookup(1).chunks]
    assert offsets == [0, 64, 128]


def test_pages_in_same_partition_share_one_page_map():
    """One layer-2 map per partition (a skip list in the paper, a dict
    here)."""
    idx = make_index()
    idx.insert(0, entry(0, 64, 1))
    idx.insert(15, entry(0, 64, 2))   # same 16-page partition
    idx.insert(16, entry(0, 64, 3))   # next partition
    assert len(idx._partitions) == 2


def test_remove_page():
    idx = make_index()
    idx.insert(3, entry(0, 64, 1))
    idx.insert(3, entry(64, 64, 2))
    node = idx.remove_page(3)
    assert len(node.chunks) == 2
    assert idx.lookup(3) is None
    assert idx.n_chunks == 0


def test_pages_iterated_in_lpa_order():
    idx = make_index()
    for lpa in (200, 5, 90, 17):
        idx.insert(lpa, entry(0, 64, lpa))
    assert [n.lpa for n in idx.pages()] == [5, 17, 90, 200]


def test_memory_accounting_grows_with_chunks():
    idx = make_index()
    before = idx.memory_bytes()
    for i in range(100):
        idx.insert(i % 7, entry((i * 64) % 4096, 64, i))
    assert idx.memory_bytes() > before
    assert idx.n_chunks == 100


def test_partition_must_be_page_aligned():
    with pytest.raises(ValueError):
        LogIndex(1 << 20, 4096, partition_bytes=1000)


def test_clear():
    idx = make_index()
    idx.insert(1, entry(0, 64, 1))
    idx.clear()
    assert idx.n_chunks == 0
    assert idx.lookup(1) is None


#: LPAs over four 16-page partitions; few offsets, so chunks tie on
#: offset and their seq decides the order
index_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"), st.integers(0, 63),
            st.sampled_from([0, 64, 128, 4032]),
        ),
        st.tuples(st.just("remove_page"), st.integers(0, 63)),
        st.tuples(st.just("lookup"), st.integers(0, 63)),
        st.tuples(st.just("clear")),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(index_ops)
def test_log_index_matches_dict_model(ops):
    """Property: the index is a dict of LPA -> (offset, seq)-sorted chunk
    list, iterated in LPA order, whose partition maps live until
    ``clear()``."""
    idx = make_index()
    model = {}          # lpa -> [(offset, seq)] in insertion order
    partitions = set()  # partitions inserted into since the last clear
    for seq, op in enumerate(ops):
        if op[0] == "insert":
            lpa, offset = op[1], op[2]
            idx.insert(lpa, entry(offset, 64, seq))
            model.setdefault(lpa, []).append((offset, seq))
            partitions.add(lpa // idx.pages_per_partition)
        elif op[0] == "remove_page":
            node = idx.remove_page(op[1])
            removed = model.pop(op[1], None)
            assert (node is None) == (removed is None)
            if node is not None:
                assert node.lpa == op[1]
                assert len(node.chunks) == len(removed)
        elif op[0] == "lookup":
            node = idx.lookup(op[1])
            assert (node is None) == (op[1] not in model)
            assert node is None or node.lpa == op[1]
        else:
            idx.clear()
            model.clear()
            partitions.clear()
        assert [n.lpa for n in idx.pages()] == sorted(model)
        for node in idx.pages():
            assert [(c.offset, c.seq) for c in node.chunks] == \
                sorted(model[node.lpa])
        n_chunks = sum(len(chunks) for chunks in model.values())
        assert idx.n_chunks == n_chunks
        assert idx.n_pages == len(model)
        assert idx.memory_bytes() == (
            n_chunks * CHUNK_ENTRY_BYTES
            + (len(model) + len(partitions)) * PAGE_NODE_BYTES
        )
