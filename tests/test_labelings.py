import random
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from gtseq import labelings, verify
from gtseq.labelings import (
    RestrictedCounter,
    SequenceCounter,
    admissible_labelings,
    edge_admissible_witnesses,
    enumerate_sequences,
    inversion_edges,
    restricted_signed_count,
    signed_count,
    signed_count_filtered,
    size_restricted_signed_count,
    weak_admissible_witnesses,
)
from gtseq.operators import product_formula
from gtseq.trees import (NTree, TreeSequence, basic_sequence,
                         random_sequence, random_tree)


def brute_labelings(tree, k):
    """Reference enumerator straight from the definition, no shared code."""
    lab = {v: kv + v for v, kv in enumerate(k, start=1)}
    slots = []
    for name in range(1, tree.n):
        t, h = tree.edge(name)
        lo, hi = sorted((lab[t], lab[h]))
        slots.append([x - name for x in range(lo, hi)])
    return sorted(product(*slots))


@given(st.integers(2, 5), st.integers(0, 10 ** 5),
       st.lists(st.integers(-3, 3), min_size=2, max_size=5))
def test_admissible_labelings_match_brute_force(n, seed, k):
    k = tuple((k * n)[:n])
    tree = random_tree(n, random.Random(seed))
    got = sorted(a.labels for a in admissible_labelings(tree, k))
    assert got == brute_labelings(tree, k)


def test_inversions_none_on_tie():
    tree = random_tree(3, random.Random(0))
    # choose k making two endpoint labels equal on edge 1
    t, h = tree.edge(1)
    k = [0, 0, 0]
    k[t - 1] = 5 - t
    k[h - 1] = 5 - h
    assert inversion_edges(tree, tuple(k)) is None
    assert admissible_labelings(tree, tuple(k)) == []


def test_two_level_chains_frozen():
    # order 2, k = (3, 0): shifted labels 4 and 2, edge values {2, 3},
    # a single inverted edge, so two chains each of sign -1
    seq = basic_sequence(2)
    chains = enumerate_sequences(seq, (3, 0))
    assert [c.levels for c in chains] == [((1,), (3, 0)), ((2,), (3, 0))]
    assert all(c.sign == -1 for c in chains)
    assert signed_count(seq, (3, 0)) == -2 == product_formula((3, 0))


@given(st.integers(1, 3), st.integers(0, 10 ** 5),
       st.lists(st.integers(-2, 2), min_size=1, max_size=3))
@settings(max_examples=40)
def test_enumeration_agrees_with_counter(n, seed, k):
    k = tuple((k * n)[:n])
    seq = random_sequence(n, seed)
    chains = enumerate_sequences(seq, k)
    assert sum(c.sign for c in chains) == signed_count(seq, k)


def test_signed_count_equals_product_formula_small():
    for n in (1, 2, 3):
        for seed in (0, 1, 2):
            counter = SequenceCounter(random_sequence(n, seed))
            for k in product(range(-2, 3), repeat=n):
                assert counter(k) == product_formula(k), (n, seed, k)


def test_chain_json():
    seq = basic_sequence(2)
    chain = enumerate_sequences(seq, (3, 0))[0]
    doc = chain.to_json()
    assert doc["levels"] == [[1], [3, 0]]
    assert doc["sign"] == -1
    assert doc["inversions"] == [[2, 1]]


def test_weak_witnesses_empty_r_is_plain():
    tree = random_tree(3, random.Random(7))
    k = (0, 1, -1)
    plain = {a.labels for a in admissible_labelings(tree, k)}
    weak = weak_admissible_witnesses(tree, k, ())
    assert {w.labels for w in weak} == plain
    assert all(w.strict for w in weak)


def test_restriction_implements_forward_difference():
    # single-vertex pinning at the top level is the forward difference there
    seq = basic_sequence(3)
    counter = SequenceCounter(seq)
    for r in (1, 2, 3):
        for k in product(range(-1, 2), repeat=3):
            kp = list(k)
            kp[r - 1] += 1
            want = counter(tuple(kp)) - counter(k)
            got = restricted_signed_count(seq, k, 3, (r,), mode="vertex")
            assert got == want, (r, k)


def test_edge_mode_drops_one_level():
    seq = random_sequence(3, 5)
    for k in product(range(-1, 2), repeat=3):
        a = restricted_signed_count(seq, k, 3, (1,), mode="edge")
        b = restricted_signed_count(seq, k, 2, (1,), mode="vertex")
        assert a == b, k


def test_subset_sums_vanish():
    seq = random_sequence(3, 8)
    for k in product(range(-1, 2), repeat=3):
        for rho in (1, 2, 3):
            assert size_restricted_signed_count(seq, k, 3, rho) == 0


def test_distinct_label_filter_is_free():
    seq = random_sequence(3, 4)
    for k in product(range(-1, 2), repeat=3):
        assert signed_count_filtered(seq, k, 3, [(1, 2)]) == signed_count(seq, k)


def test_restricted_counter_rejects_bad_level():
    seq = basic_sequence(3)
    with pytest.raises(ValueError):
        RestrictedCounter(seq, 1, (1,))
    with pytest.raises(ValueError):
        RestrictedCounter(seq, 4, (1,))
    with pytest.raises(ValueError):
        weak_admissible_witnesses(basic_sequence(3).tree(3), (0, 0, 0), (5,))
    with pytest.raises(ValueError):
        weak_admissible_witnesses(basic_sequence(3).tree(3), (0, 0, 0), (1, 1))
    with pytest.raises(ValueError):
        edge_admissible_witnesses(basic_sequence(3).tree(3), (0, 0, 0), (2, 2))
    with pytest.raises(ValueError):
        edge_admissible_witnesses(basic_sequence(3).tree(3), (0, 0, 0), (3,))


def test_restricted_counter_fails_fast():
    seq = basic_sequence(3)
    with pytest.raises(ValueError, match="mode"):
        RestrictedCounter(seq, 3, (1,), mode="vertices")
    for m, R, mode in ((3, (4,), "vertex"), (2, (3,), "vertex"),
                       (3, (0,), "vertex"), (3, (1, 1), "vertex"),
                       (3, (3,), "edge"), (2, (2,), "edge"),
                       (3, (0,), "edge")):
        with pytest.raises(ValueError, match="R must"):
            RestrictedCounter(seq, m, R, mode=mode)
    RestrictedCounter(seq, 3, (1, 2, 3), mode="vertex")
    RestrictedCounter(seq, 3, (1, 2), mode="edge")
    with pytest.raises(ValueError, match="another tree sequence"):
        RestrictedCounter(seq, 3, (1,), plain=SequenceCounter(basic_sequence(2)))


def _record(w):
    return (w.labels, w.assignment, w.dominating, tuple(sorted(w.inversions)),
            tuple(sorted(w.min_pinned)), w.sign, w.strict)


# Recorded from the separate vertex and edge witness enumerators that
# preceded the shared pin-term skeleton.
FROZEN_TREE = NTree(5, ((1, 4), (5, 2), (1, 5), (2, 3)))
FROZEN_K = (-1, 1, -1, -1, 0)
FROZEN_VERTEX = [   # weak_admissible_witnesses(FROZEN_TREE, FROZEN_K, (2, 4))
    ((2, 1, -3, -2), ((2, 2), (4, 1)), (), (2, 4), (2,), -1, True),
    ((2, 1, -2, -2), ((2, 2), (4, 1)), (), (2, 4), (2,), -1, True),
    ((2, 1, -1, -2), ((2, 2), (4, 1)), (), (2, 4), (2,), -1, True),
    ((2, 1, 0, -2), ((2, 2), (4, 1)), (), (2, 4), (2,), -1, True),
    ((2, 1, 1, -2), ((2, 2), (4, 1)), (), (2, 4), (2,), -1, True),
    ((2, 2, -3, -1), ((2, 4), (4, 1)), (), (2, 4), (), 1, True),
    ((2, 2, -2, -1), ((2, 4), (4, 1)), (), (2, 4), (), 1, True),
    ((2, 2, -1, -1), ((2, 4), (4, 1)), (), (2, 4), (), 1, True),
    ((2, 2, 0, -1), ((2, 4), (4, 1)), (), (2, 4), (), 1, True),
    ((2, 2, 1, -1), ((2, 4), (4, 1)), (), (2, 4), (), 1, True),
]
FROZEN_EDGE = [     # edge_admissible_witnesses(FROZEN_TREE, FROZEN_K, (1, 3))
    ((-1, 1, 2, -2), ((1, 1), (5, 3)), (), (2, 4), (1,), -1, True),
    ((-1, 2, 2, -2), ((1, 1), (5, 3)), (), (2, 4), (1,), -1, True),
    ((2, 1, -3, -2), ((1, 3), (4, 1)), (), (2, 4), (3,), -1, True),
    ((2, 1, 2, -2), ((4, 1), (5, 3)), (), (2, 4), (), 1, True),
    ((2, 2, -3, -2), ((1, 3), (4, 1)), (), (2, 4), (3,), -1, True),
    ((2, 2, 2, -2), ((4, 1), (5, 3)), (), (2, 4), (), 1, True),
]
FROZEN_DOUBLY = [   # weak_admissible_witnesses(star at 4, (-1, 1, -1, -1), (2, 4))
    ((1, 1, -3), ((2, 2), (4, 2)), ((2, 2),), (1, 3), (4,), -1, False),
    ((1, 1, -3), ((2, 2), (4, 2)), ((2, 4),), (1, 2, 3), (2,), 1, False),
    ((1, 1, -2), ((2, 2), (4, 2)), ((2, 2),), (1, 3), (4,), -1, False),
    ((1, 1, -2), ((2, 2), (4, 2)), ((2, 4),), (1, 2, 3), (2,), 1, False),
    ((1, 1, -1), ((2, 2), (4, 2)), ((2, 2),), (1, 3), (4,), -1, False),
    ((1, 1, -1), ((2, 2), (4, 2)), ((2, 4),), (1, 2, 3), (2,), 1, False),
]


def test_witnesses_frozen():
    got = weak_admissible_witnesses(FROZEN_TREE, FROZEN_K, (2, 4))
    assert [_record(w) for w in got] == FROZEN_VERTEX
    got = edge_admissible_witnesses(FROZEN_TREE, FROZEN_K, (1, 3))
    assert [_record(w) for w in got] == FROZEN_EDGE
    star = NTree(4, ((4, 3), (4, 2), (4, 1)))
    got = weak_admissible_witnesses(star, (-1, 1, -1, -1), (2, 4))
    assert [_record(w) for w in got] == FROZEN_DOUBLY


def _label_sensitive(labels):
    return sum((i + 2) ** 3 * x for i, x in enumerate(labels))


@given(st.integers(2, 5), st.integers(0, 10 ** 5),
       st.lists(st.integers(-2, 2), min_size=5, max_size=5))
@settings(max_examples=25, deadline=None)
def test_pinned_transition_aggregates_witnesses(n, seed, k):
    # weight * (sum over the value product) must reproduce the signed
    # multiset of witness records, not only their total
    rng = random.Random(seed)
    seq = TreeSequence(tuple(random_tree(i, rng) for i in range(1, n + 1)))
    tree, k = seq.tree(n), tuple(k[:n])
    for mode, top, witnesses in (("vertex", n + 1, weak_admissible_witnesses),
                                 ("edge", n, edge_admissible_witnesses)):
        for size in range(top):
            for R in combinations(range(1, top), size):
                counter = RestrictedCounter(seq, n, R, mode=mode)
                got = counter._transition(k, _label_sensitive)
                want = sum(w.sign * _label_sensitive(w.labels)
                           for w in witnesses(tree, k, R))
                assert got == want, (mode, R)


def test_gates_catch_a_flipped_pin_weight(monkeypatch):
    real = labelings._pin_terms

    def flip_first(*args):
        terms = real(*args)
        for term in terms:
            yield term._replace(weight=-term.weight)
            break
        yield from terms

    monkeypatch.setattr(labelings, "_pin_terms", flip_first)
    for suite in (verify.suite_prop_first, verify.suite_prop_second,
                  verify.suite_rho_zero):
        report = suite(n_max=3, trees=1)
        assert report["violations"], report["suite"]
