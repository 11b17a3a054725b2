import random

from hypothesis import given
from hypothesis import strategies as st
import pytest

from gtseq.trees import (
    NTree,
    TreeSequence,
    basic_sequence,
    basic_tree,
    canonical_sequence,
    leafchain_sequence,
    random_sequence,
    random_tree,
    reverse_edge,
    slide_edge,
    swap_sequence,
    tree_sign,
)


def is_connected_tree(n, edges):
    # union-find, independent of the adjacency walk in NTree
    if len(edges) != n - 1:
        return False
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for t, h in edges:
        rt, rh = find(t), find(h)
        if rt == rh:
            return False
        parent[rt] = rh
    return True


def test_basic_tree_shape():
    t = basic_tree(4)
    assert t.edges == ((1, 2), (2, 3), (3, 4))
    assert t.sinks() == [4]
    assert tree_sign(t).sign == 1


@pytest.mark.parametrize(
    "n, edges",
    (
        (3, ((1, 2),)),                   # wrong edge count
        (2, ((1, 1),)),                   # loop
        (3, ((1, 2), (2, 1))),            # parallel pair
        (4, ((1, 2), (1, 2), (3, 4))),    # parallel + disconnected
        (3, ((1, 2), (4, 3))),            # endpoint out of range
    ),
)
def test_invalid_trees_rejected(n, edges):
    with pytest.raises(ValueError):
        NTree(n, edges)


def test_reverse_edge_flips_sign():
    t = basic_tree(4)
    for name in t.edge_names():
        assert tree_sign(reverse_edge(t, name)).sign == -tree_sign(t).sign
        assert reverse_edge(reverse_edge(t, name), name) == t


def test_slide_edge_preserves_sign():
    # sliding the tail of one edge along another keeps the sign
    t = NTree(4, ((1, 2), (2, 3), (3, 4)))
    slid = slide_edge(t, 2, 1)
    assert slid != t
    assert tree_sign(slid).sign == tree_sign(t).sign


@given(st.integers(1, 8), st.integers(0, 10 ** 6))
def test_random_tree_is_reproducible_tree(n, seed):
    t1 = random_tree(n, random.Random(seed))
    t2 = random_tree(n, random.Random(seed))
    assert t1 == t2
    assert is_connected_tree(n, t1.edges)
    assert tree_sign(t1).sign in (-1, 1)


@given(st.integers(2, 7), st.integers(0, 10 ** 6), st.integers(1, 6))
def test_reverse_edge_involution_random(n, seed, name):
    t = random_tree(n, random.Random(seed))
    name = 1 + (name - 1) % (n - 1)
    assert reverse_edge(reverse_edge(t, name), name) == t


def test_json_round_trip():
    t = random_tree(6, random.Random(3))
    assert NTree.from_json(t.to_json()) == t
    seq = random_sequence(4, 9)
    assert TreeSequence.from_json(seq.to_json()) == seq


def _path_json(*ids):
    """The path 1 -> 2 -> 3 with its two edges carrying these ids."""
    return {"n": 3, "edges": [{"id": ids[0], "tail": 1, "head": 2},
                              {"id": ids[1], "tail": 2, "head": 3}]}


@pytest.mark.parametrize("ids", ((0, 1), (1, 3), (-1, 2)))
def test_json_edge_ids_must_lie_in_range(ids):
    # edge id 0 would otherwise land on the last edge, slots[-1]
    with pytest.raises(ValueError, match="outside 1..2"):
        NTree.from_json(_path_json(*ids))


def test_json_edge_ids_must_not_repeat():
    # a later record would otherwise overwrite the earlier one, and ids 1
    # and 2 would still cover 1..2
    data = _path_json(1, 2)
    data["edges"].append({"id": 1, "tail": 3, "head": 1})
    with pytest.raises(ValueError, match="repeated"):
        NTree.from_json(data)
    with pytest.raises(ValueError, match="repeated"):
        NTree.from_json(_path_json(1, 1))
    assert NTree.from_json(_path_json(2, 1)) == NTree(3, ((2, 3), (1, 2)))


def test_dot_output_lists_edges():
    dot = basic_tree(3).to_dot()
    assert dot.startswith("digraph")
    assert '1 -> 2 [label="1"];' in dot


def test_sequence_orders_and_sign():
    seq = basic_sequence(4)
    assert seq.order == 4
    assert seq.tree(2).n == 2
    assert seq.sign() == 1


def test_swap_sequence_top_sinks():
    seq = swap_sequence(5, 2, 4)
    top = seq.tree(5)
    assert top.sinks() == [2, 4]
    with pytest.raises(ValueError):
        swap_sequence(5, 4, 2)


def test_leafchain_top_is_path():
    seq = leafchain_sequence(5, 3)
    top = seq.tree(5)
    assert top.sinks() == [3]
    degrees = {v: len(top.incident_edges(v)) for v in range(1, 6)}
    assert sorted(degrees.values()) == [1, 1, 2, 2, 2]
    with pytest.raises(ValueError):
        leafchain_sequence(5, 6)


def test_canonical_dispatch():
    assert canonical_sequence("basic", 3) == basic_sequence(3)
    with pytest.raises(ValueError):
        canonical_sequence("swap", 4)
    with pytest.raises(ValueError):
        canonical_sequence("mystery", 3)


def test_random_sequence_level_orders():
    seq = random_sequence(5, 42)
    assert [seq.tree(i).n for i in range(1, 6)] == [1, 2, 3, 4, 5]
    assert random_sequence(5, 42) == seq
