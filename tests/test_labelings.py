import hashlib
import json
import random
from itertools import combinations, product
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from gtseq import intervals, labelings, verify
from gtseq.labelings import (
    FilteredCounter,
    FilteredFamily,
    PinnedFamily,
    RestrictedCounter,
    SequenceCounter,
    admissible_labelings,
    edge_admissible_witnesses,
    enumerate_sequences,
    inversion_edges,
    signed_count,
    signed_count_filtered,
    weak_admissible_witnesses,
)
from gtseq.operators import product_formula
from gtseq.trees import (NTree, TreeSequence, basic_sequence, basic_tree,
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


# sha256 of json.dumps([c.to_json() for c in enumerate_sequences(
# random_sequence(n, seed), k)]), recorded while enumerate_sequences still
# walked its own levels, before it ran on the row walk of intervals.py.
# The points hit inverted edges, blocked edges (an empty stream) and
# mixed signs, so the digests freeze order, levels, inversion tags and
# signs.
FROZEN_SEQUENCE_STREAMS = [
    (2, 3, (3, 0),
     "19dc487cd3c36b9aa715357fddd67d16ced57668b3843a06f68fbe1615181f4f"),
    (3, 5, (1, -1, 2),
     "66025c6cf8d64ed3db8029c43674b8a005120d3344c0ba0076d1fc1ef44dc8a4"),
    (3, 8, (0, 2, 2),
     "cea1a0b62cb65ee650df99db7f3456d560c0e425b0142f72d816c0fb8dd73ed3"),
    (4, 2, (0, 2, -1, 1),
     "8eced2581345ab6b50b25c97e5b07d4245704c0a6720d91234243a9f478af7b0"),
    (4, 9, (2, 0, 1, -1),
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (4, 11, (0, 1, 1, 3),
     "ff5cbba37a48cb6c181b3b2810c815b16c18d2e5e96451e27a9b5219a1260093"),
    (4, 17, (1, 0, 3, 2),
     "1997fe22c9296ea02740e0b1d756366125f633c923fecdcbd4a9df2e8d5e4333"),
]


@pytest.mark.parametrize("n, seed, k, digest", FROZEN_SEQUENCE_STREAMS)
def test_sequence_streams_frozen(n, seed, k, digest):
    chains = enumerate_sequences(random_sequence(n, seed), k)
    text = json.dumps([c.to_json() for c in chains])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("call", (
    lambda: enumerate_sequences(basic_sequence(3), (0, 1)),
    lambda: enumerate_sequences(basic_sequence(3), (0, 1, 2, 3)),
    lambda: admissible_labelings(basic_tree(3), (0, 1)),
    lambda: admissible_labelings(basic_tree(3), (0, 1, 2, 3)),
    lambda: inversion_edges(basic_tree(3), (0, 1)),
    lambda: inversion_edges(basic_tree(3), (0, 1, 2, 3)),
    lambda: signed_count(basic_sequence(3), (0, 1)),
    lambda: SequenceCounter(basic_sequence(3)).sweep([(0, 1), (1, 1)]),
), ids=("chainsShort", "chainsLong", "labelingsShort", "labelingsLong",
        "inversionsShort", "inversionsLong", "count", "sweep"))
def test_wrong_length_k_rejected(call):
    with pytest.raises(ValueError, match="k must have length"):
        call()


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
        pinned = RestrictedCounter(seq, 3, (r,), mode="vertex", plain=counter)
        for k in product(range(-1, 2), repeat=3):
            kp = list(k)
            kp[r - 1] += 1
            want = counter(tuple(kp)) - counter(k)
            assert pinned(k) == want, (r, k)


def test_edge_mode_drops_one_level():
    seq = random_sequence(3, 5)
    plain = SequenceCounter(seq)
    by_edge = RestrictedCounter(seq, 3, (1,), mode="edge", plain=plain)
    by_vertex = RestrictedCounter(seq, 2, (1,), mode="vertex", plain=plain)
    for k in product(range(-1, 2), repeat=3):
        assert by_edge(k) == by_vertex(k), k


def test_subset_sums_vanish():
    seq = random_sequence(3, 8)
    plain = SequenceCounter(seq)
    for rho in (1, 2, 3):
        pinnings = [RestrictedCounter(seq, 3, R, mode="vertex", plain=plain)
                    for R in combinations(range(1, 4), rho)]
        for k in product(range(-1, 2), repeat=3):
            assert sum(pinned(k) for pinned in pinnings) == 0


def test_distinct_label_filter_is_free():
    seq = random_sequence(3, 4)
    for k in product(range(-1, 2), repeat=3):
        assert signed_count_filtered(seq, k, 3, [(1, 2)]) == signed_count(seq, k)


@pytest.mark.parametrize("pair", [(0, 1), (1, 1), (2, 9), (1, 2, 3)])
def test_filter_rejects_what_is_not_two_distinct_edges(pair):
    # (0, 1) used to read l[-1], (1, 1) to filter every chain out and
    # (2, 9) to raise a bare IndexError
    seq, k = basic_sequence(4), (0, 2, 4, 6)
    with pytest.raises(ValueError, match=r"pair \(%s\)" % ", ".join(
            map(str, pair))):
        signed_count_filtered(seq, k, 4, [pair])
    with pytest.raises(ValueError, match="pair"):
        FilteredCounter(seq, 4, [(1, 3), pair])
    assert signed_count_filtered(seq, k, 4, [(1, 3)]) == 729 == \
        signed_count(seq, k)


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


def test_walks_keep_their_own_call(monkeypatch):
    # bench/tracer.py times RestrictedCounter.__call__ and
    # FilteredCounter.__call__ apart from SequenceCounter.__call__.  An
    # inherited __call__, or one that goes through SequenceCounter.__call__,
    # would fold their time into the plain counter's span without an error.
    assert "__call__" in vars(RestrictedCounter)
    assert "__call__" in vars(FilteredCounter)
    seq = random_sequence(3, 2)
    grid = list(product(range(-1, 2), repeat=3))

    def walks():
        plain = SequenceCounter(seq)
        return (RestrictedCounter(seq, 3, (1, 3), plain=plain),
                RestrictedCounter(seq, 2, (1,), mode="edge", plain=plain),
                FilteredCounter(seq, 3, [(1, 2)], plain=plain))

    want = [[walk(k) for k in grid] for walk in walks()]

    def refuse(self, k):
        raise AssertionError("a walk called SequenceCounter.__call__")

    monkeypatch.setattr(SequenceCounter, "__call__", refuse)
    assert [[walk(k) for k in grid] for walk in walks()] == want


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


def _label_sensitive_transition(counter, k):
    # the pinned level with level m-1 replaced by _label_sensitive, so each
    # slot box must reproduce its exact labels, not only its size
    def box(level, slots):
        assert level == counter.m - 1
        return sum(map(_label_sensitive, product(*slots)))

    counter._plain = SimpleNamespace(_box=box)
    (total,) = counter._transition(k)
    return total


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
                got = _label_sensitive_transition(counter, k)
                want = sum(w.sign * _label_sensitive(w.labels)
                           for w in witnesses(tree, k, R))
                assert got == want, (mode, R)


def _star(n, center, rng):
    edges = []
    for leaf in (v for v in range(1, n + 1) if v != center):
        edges.append((center, leaf) if rng.random() < 0.5 else (leaf, center))
    return NTree(n, tuple(edges))


def test_pinned_transition_on_stars_with_ties():
    # k in -1..1 on stars ties many edges and pins the centre's edges from
    # both ends; the counter must still agree with the witness records
    rng = random.Random(5)
    ties = doubly = 0
    for n in (3, 4):
        for center in range(1, n + 1):
            tree = _star(n, center, rng)
            seq = TreeSequence(tuple(random_tree(i, rng) for i in range(1, n))
                               + (tree,))
            plain = SequenceCounter(seq)
            edges = labelings._edge_triples(tree)
            incident = labelings._incidence(n, edges)
            for k in product(range(-1, 2), repeat=n):
                ties += inversion_edges(tree, k) is None
                for mode, top, witnesses in (
                        ("vertex", n + 1, weak_admissible_witnesses),
                        ("edge", n, edge_admissible_witnesses)):
                    for size in range(top):
                        for R in combinations(range(1, top), size):
                            counter = RestrictedCounter(seq, n, R, mode=mode,
                                                        plain=plain)
                            got = _label_sensitive_transition(counter, k)
                            want = sum(w.sign * _label_sensitive(w.labels)
                                       for w in witnesses(tree, k, R))
                            assert got == want, (tree, k, mode, R)
                for R in combinations(range(1, n + 1), 2):
                    # the plan leaves out assignments pinning an edge from
                    # both ends, because their weight is always 0
                    for term in labelings._pin_terms(
                            edges, k, labelings._vertex_assignments(
                                edges, incident, R)):
                        if term.choices[0][0]:
                            doubly += 1
                            assert term.weight == 0, (tree, k, R)
    assert ties and doubly


def test_shared_setup_is_independent_of_the_warming_pinning():
    seq = random_sequence(4, 3)
    grid = list(product(range(-1, 2), repeat=4))
    pinnings = [(3, (1, 3), "vertex"), (3, (2,), "edge"),
                (4, (1, 3), "edge"), (4, (2,), "vertex")]
    for m, R, mode in pinnings:
        cold = RestrictedCounter(seq, m, R, mode=mode)
        want = [cold(k) for k in grid]
        plain = SequenceCounter(seq)
        for other in pinnings:
            if other != (m, R, mode):
                warm = RestrictedCounter(seq, *other[:2], mode=other[2],
                                         plain=plain)
                for k in grid:
                    warm(k)
        shared = RestrictedCounter(seq, m, R, mode=mode, plain=plain)
        assert [shared(k) for k in grid] == want, (m, R, mode)


def _flip_parity(setup):
    odd, options, bits = setup
    return 1 - odd, options, bits


def _flip_first_edge_pins(setup):
    # pinning edge 1 at either end counts as a minimum pin at the other
    odd, options, bits = setup
    first = tuple(1 - b if state >= 4 else b
                  for state, b in enumerate(bits[0]))
    return odd, options, (first,) + bits[1:]


def test_gates_catch_a_flipped_pin_weight(monkeypatch):
    # the counter's weights come from the shared per-values setup.  Flipping
    # those of the terms pinning edge 1 must fail each pinned-level suite;
    # flipping all of them negates both sides of prop-second and every
    # summand of rho-zero, so only prop-first, whose reference side does
    # not pin, can see that
    real = labelings._pin_options
    for mutate, suites in (
            (_flip_first_edge_pins, (verify.suite_prop_first,
                                     verify.suite_prop_second,
                                     verify.suite_rho_zero)),
            (_flip_parity, (verify.suite_prop_first,))):
        monkeypatch.setattr(labelings, "_pin_options",
                            lambda edges, values: mutate(real(edges, values)))
        for suite in suites:
            report = suite(n_max=3, trees=1)
            assert report["violations"], (mutate.__name__, report["suite"])


# --- families ------------------------------------------------------------


def _all_subsets(top):
    return [R for size in range(top + 1)
            for R in combinations(range(1, top + 1), size)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_family_members_match_their_one_member_counters(n):
    # k in -2..1 ties edges (k_i + i = k_j + j) and inverts them; the four
    # sequences at each n carry both tree signs
    grid = list(product(range(-2, 2), repeat=n))
    for seq in [basic_sequence(n)] + [random_sequence(n, seed)
                                      for seed in (3, 17, 40)]:
        shared, own = SequenceCounter(seq), SequenceCounter(seq)
        for m in range(2, n + 1):
            pairs = list(combinations(range(1, m), 2))
            walks = [(PinnedFamily(seq, m, _all_subsets(top), mode=mode,
                                   plain=shared),
                      [RestrictedCounter(seq, m, R, mode=mode, plain=own)
                       for R in _all_subsets(top)])
                     for mode, top in (("vertex", m), ("edge", m - 1))]
            # one pair each, none, and all of them at once
            pair_lists = [[pair] for pair in pairs] + [[], pairs]
            walks.append((FilteredFamily(seq, m, pair_lists, plain=shared),
                          [FilteredCounter(seq, m, pair_list, plain=own)
                           for pair_list in pair_lists]))
            for family, counters in walks:
                for k in grid:
                    assert family(k) == tuple(c(k) for c in counters), (
                        seq, m, type(family).__name__, k)


def test_gates_catch_swapped_member_plans(monkeypatch):
    # every member of a family runs its own plan in the one walk: a vertex
    # family whose first two members swap plans must fail prop-first
    # (against the differences) and prop-second (against the edge family)
    # at those two members only
    real = PinnedFamily.__init__

    def swapped(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if self.mode == "vertex" and len(self._plans) > 1:
            self._plans[0], self._plans[1] = self._plans[1], self._plans[0]

    monkeypatch.setattr(PinnedFamily, "__init__", swapped)
    for suite in (verify.suite_prop_first, verify.suite_prop_second):
        report = suite(n_max=3, trees=1)
        assert report["violations"], report["suite"]
        assert {tuple(v["R"]) for v in report["violations"]
                if "R" in v} == {(1,), (2,)}, report["suite"]


# --- whole-box sweeps ----------------------------------------------------


def _sweep_sequences(n):
    return [basic_sequence(n)] + [random_sequence(n, seed)
                                  for seed in (3, 17, 40)]


def _boxes(n, rng):
    """Cubes with negative entries, the corner box of prop-first, a wide
    box off the origin, and random boxes down to single-value coordinates
    (which make ties, and levels below with no point at all)."""
    yield [range(-2, 3)] * n if n < 5 else [range(-1, 2)] * n
    yield [range(-1, 3)] * n if n < 5 else [range(-1, 2)] * (n - 1) + [
        range(-1, 3)]
    yield [range(3 * v - 9, 3 * v - 9 + (4 if n < 4 else 2))
           for v in range(1, n + 1)]
    for _ in range(4):
        yield [range(lo, lo + rng.randint(1, 3))
               for lo in (rng.randint(-6, 6) for _ in range(n))]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sweep_matches_point_calls(n):
    rng = random.Random(n)
    for seq in _sweep_sequences(n):
        for box in _boxes(n, rng):
            grid = list(product(*box))
            swept = SequenceCounter(seq)
            pointwise = SequenceCounter(seq)
            want = [pointwise(k) for k in grid]
            assert swept.sweep(grid) == want, (seq, box)
            # every entry the memoized step reached is in the swept tables
            for level in range(3, n + 1):
                table = swept._memo[level]
                assert all(table[key] == value for key, value
                           in pointwise._memo[level].items()), (seq, box)
            assert [swept(k) for k in grid] == want


def test_sweep_matches_the_product_formula_with_ties_and_inversions():
    # an inversion at every edge of basic_sequence(4) (k decreasing), ties
    # (k_1 + 1 = k_2 + 2), and both at once over one box
    grid = list(product(range(-3, 2), repeat=4))
    for seq in _sweep_sequences(4):
        assert SequenceCounter(seq).sweep(grid) == [product_formula(k)
                                                    for k in grid]


def test_sweep_keeps_the_memoized_step_off_the_box(fill_log):
    seq = random_sequence(4, 11)
    cube = list(product(range(-1, 2), repeat=4))
    want = dict(zip(cube, (SequenceCounter(seq)(k) for k in cube)))
    shuffled = cube[:]
    random.Random(0).shuffle(shuffled)
    # an unordered list, one with repeats, and one missing a point of its
    # box still fill that box
    for points in (shuffled, cube + cube[:7], cube[:40] + cube[41:]):
        fill_log.clear()
        assert SequenceCounter(seq).sweep(points) == [want[k]
                                                      for k in points]
        assert fill_log == [[2, 3, 4]]
    # fewer than 16 points, or points under half of their box, do not
    fill_log.clear()
    for points in (cube[:15], cube[::4], [cube[5]], [cube[5]] * 3, []):
        assert SequenceCounter(seq).sweep(points) == [want[k]
                                                      for k in points]
    assert not any(fill_log)
    # order 1 has no level to fill, and order 2 fills its one level
    for n in (1, 2):
        small = list(product(range(-2, 3), repeat=n))
        counter = SequenceCounter(random_sequence(n, 5))
        assert counter.sweep(small) == [product_formula(k) for k in small]


def _refuse_the_memoized_step(self, level, values):
    raise AssertionError("took the memoized step")


def test_sweep_refuses_a_reach_over_the_budget(monkeypatch, fill_log):
    # 16 points 1000 apart per entry make up their box, but the boxes below
    # hold about 10^9 cells; only the decision is run, not the count
    unit = list(product(range(2), repeat=4))

    def spaced(gap):
        return [tuple(x + gap * q for q, x in enumerate(k)) for k in unit]

    counter = SequenceCounter(random_sequence(4, 11))
    monkeypatch.setattr(SequenceCounter, "_raw", _refuse_the_memoized_step)
    with pytest.raises(AssertionError, match="memoized step"):
        counter.sweep(spaced(1000))
    assert fill_log == [[]]
    assert not any(counter._memo[1:])
    # 3 apart, the fill reaches every point, so no memoized step runs
    counter.sweep(spaced(3))
    assert fill_log[-1] == [2, 3, 4]


def test_a_second_sweep_reads_the_swept_tables(fill_log):
    counter = SequenceCounter(random_sequence(4, 11))
    cube = list(product(range(-1, 2), repeat=4))
    first = counter.sweep(cube)
    assert fill_log == [[2, 3, 4]]
    fill_log.clear()
    assert counter.sweep(cube[::-1]) == first[::-1]
    assert counter.sweep(cube[:40]) == first[:40]
    assert not any(fill_log)


def test_walks_sharing_a_swept_counter_match_fresh_ones():
    n, bound = 4, 1
    for seq in _sweep_sequences(n)[:3]:
        grid = list(product(range(-bound, bound + 1), repeat=n))
        swept = SequenceCounter(seq)
        swept.sweep(list(product(range(-bound, bound + 2), repeat=n)))

        def walks(plain):
            return [RestrictedCounter(seq, n, (1, 3), plain=plain),
                    RestrictedCounter(seq, 3, (2,), plain=plain),
                    RestrictedCounter(seq, n, (1, 2), mode="edge",
                                      plain=plain),
                    FilteredCounter(seq, n, [(1, 3)], plain=plain),
                    FilteredCounter(seq, 3, [(1, 2)], plain=plain)]

        for fresh, shared in zip(walks(None), walks(swept)):
            assert [shared(k) for k in grid] == [fresh(k) for k in grid]


def test_sweep_fills_order_seven(monkeypatch, fill_log):
    # 2^(level - 1) corner products per tree level, 64 at order 7, are
    # within the fill's cap; 128 points with rows 3 apart fill their box
    points = [tuple(x + 3 * q for q, x in enumerate(k))
              for k in product(range(2), repeat=7)]
    counter = SequenceCounter(basic_sequence(7))
    monkeypatch.setattr(SequenceCounter, "_raw", _refuse_the_memoized_step)
    assert counter.sweep(points) == list(map(product_formula, points))
    assert fill_log == [list(range(2, 8))]


def test_stencil_cache_does_not_grow_with_the_sequences_swept():
    cube = list(product(range(-1, 2), repeat=4))
    rng = random.Random(8)
    intervals._stencil.cache_clear()
    sizes = []
    for _ in range(2):
        for _ in range(100):
            seq = random_sequence(4, rng.randrange(10 ** 6))
            assert SequenceCounter(seq).sweep(cube) == list(
                map(product_formula, cube))
        sizes.append(intervals._stencil.cache_info().currsize)
    assert sizes[0] == sizes[1] <= 32


def test_level_stencil_keeps_every_corner():
    # one choice of i - 1 edge slots, whose 2^(i-1) corners never coincide
    rng = random.Random(6)
    for i in range(2, 8):
        seq = random_sequence(i, rng.randrange(10 ** 6))
        slots = labelings._level_slots(labelings._edge_triples(seq.tree(i)))
        assert len(intervals._stencil(slots)) == 2 ** (i - 1)


def _level_three_flipped(real):
    """Level slots with the two ends of edge 1 swapped at level 3 only:
    slot(x_b + t + 1, x_a + s - 1) in place of slot(x_a + s, x_b + t)
    negates the edge's sum, and with it every level-3 value and every count
    above it."""
    def slots(edges):
        (choice,) = real(edges)
        if len(edges) == 2:
            ((a, s), (b, t)), other = choice
            choice = (((b, t + 1), (a, s - 1)), other)
        return (choice,)
    return slots


def _every_edge_tied(real):
    """Level slots as if every edge were tied, slot(x_t + t - e,
    x_t + t - e - 1): each edge's two corners coincide, so the terms cancel
    in pairs and none is left."""
    def slots(edges):
        return (tuple(((t, t - e), (t, t - e - 1)) for e, t, h in edges),)
    return slots


@pytest.mark.parametrize("mutate", [_level_three_flipped, _every_edge_tied])
def test_gates_catch_a_broken_sweep(monkeypatch, mutate):
    # theorem-main and independence read the tree counts from the sweep;
    # their references (product formula, pattern count) stay untouched
    monkeypatch.setattr(labelings, "_level_slots",
                        mutate(labelings._level_slots))
    for report in (verify.suite_theorem_main(n_max=3, bound=1, trees=1,
                                             det_n_max=1),
                   verify.suite_independence(n_max=3, bound=1, trees=1)):
        assert report["violations"], (mutate.__name__, report["suite"])
