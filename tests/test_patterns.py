import hashlib
import json
from functools import lru_cache, partial
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from gtseq import patterns, verify
from gtseq.intervals import Family, interval
from gtseq.operators import product_formula
from gtseq.patterns import (
    enumerate_patterns,
    is_classic,
    make_pattern,
    pattern_to_chain,
    chain_to_pattern,
    pattern_to_tableau,
    shift_decomposition_counts,
    signed_pattern_count,
    swap_shift,
    tableau_to_pattern,
    validate_pattern,
)
from gtseq.trees import basic_sequence
from gtseq.labelings import enumerate_sequences, signed_count


def brute_classic_patterns(k):
    """Classic enumeration for weakly increasing k: a_{i,j} between the two
    entries above, no interval conventions involved."""
    n = len(k)
    rows = [tuple(k)]
    out = []

    def up(stack):
        top = stack[-1]
        if len(top) == 1:
            out.append(tuple(reversed(stack)))
            return
        spans = [range(top[j], top[j + 1] + 1) for j in range(len(top) - 1)]
        for row in product(*spans):
            up(stack + [row])

    up(rows)
    return out


@pytest.mark.parametrize("k", ((0, 2), (0, 1, 2), (1, 1, 3), (0, 0, 0)))
def test_classic_bottom_rows_match_brute_force(k):
    brute = sorted(brute_classic_patterns(k))
    pats = enumerate_patterns(k)
    assert all(p.sign == 1 and not p.inversions for p in pats)
    assert sorted(p.rows for p in pats) == brute
    assert signed_pattern_count(k) == len(brute) == product_formula(k)


# sha256 of json.dumps([p.to_json() for p in enumerate_patterns(k)]),
# recorded while enumerate_patterns still walked its own rows, before it
# ran on the row walk shared with the monotone extensions.  The points hit
# empty intervals (whole streams vanish), inverted intervals, repeated
# entries and mixed signs, so the digests freeze order, rows, inversion
# tags and signs.
FROZEN_PATTERN_STREAMS = [
    ((3, 0),
     "09711732c7b5fdac34c833bcfb3c900d3fb9bbed973c907f19a4d74e40d18ced"),
    ((0, 3, 1),
     "e6e7a1d835c492f6f7f9c8c2185d5eb3892c8931312cd20d10c4bb0a436eeb2d"),
    ((2, 0, 4),
     "ac28826630eba27b3b11e385063bf19ad2ab5aa8dde65fa34d6cd7369f752be8"),
    ((0, 2, 2, 1),
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ((1, 0, 3, 2),
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ((3, 0, 2, 2),
     "cc3011861e5618b94b4dd8c09385d8fa20e91169a018972bc0eea31bb1cfc551"),
    ((0, 3, 1, 4),
     "90fb38fe956e40fe441a12e12734d4aab9128179df302a9368c47de5a07fb464"),
]


@pytest.mark.parametrize("k, digest", FROZEN_PATTERN_STREAMS)
def test_pattern_streams_frozen(k, digest):
    text = json.dumps([p.to_json() for p in enumerate_patterns(k)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pattern_count_known_values():
    assert signed_pattern_count((0, 2)) == 3
    assert signed_pattern_count((2, 0)) == -1
    assert signed_pattern_count((3, -1)) == -3   # shifted swap of (0, 2)
    assert signed_pattern_count((0, -1)) == 0
    assert signed_pattern_count((1, 2, 3)) == 8


@given(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_signed_count_equals_enumeration(k):
    k = tuple(k)
    assert signed_pattern_count(k) == sum(p.sign for p in enumerate_patterns(k))


@lru_cache(maxsize=None)
def reference_count(k):
    """Signed pattern count by one recursive call per box member, over
    intervals.interval."""
    if len(k) == 1:
        return 1
    ivs = [interval(x, y) for x, y in zip(k, k[1:])]
    if any(not iv.members for iv in ivs):
        return 0
    sign = (-1) ** sum(iv.inverted for iv in ivs)
    return sign * sum(reference_count(row)
                      for row in product(*(iv.members for iv in ivs)))


@given(st.lists(st.integers(-3, 4), min_size=1, max_size=5))
@example([4, 2, 0, -2, -3])
@example([3, 1, 4, 0, 2])
@settings(max_examples=60, deadline=None)
def test_signed_count_matches_per_member_reference(k):
    k = tuple(k)
    want = reference_count(k)
    # cold: every box misses the memo and fills it
    patterns._count_memo.clear()
    assert signed_pattern_count(k) == want
    # warm: only the top entry is missing, so its box is read from the table
    patterns._count_memo.pop(k, None)
    assert signed_pattern_count(k) == want


def test_independence_catches_moved_upper_limit(monkeypatch):
    # the stream-against-count check only tests the walk, so a wrong slot
    # form must show against the tree-sequence counters instead, and in
    # shift-antisym and decomposition, which read the pattern count too
    real = patterns._pattern_slots

    def moved(m):
        (choice,) = real(m)
        if choice:
            # entry 1's upper limit, one higher: slot(v_1, v_2 + 1)
            ((a, s), (b, t)), *others = choice
            choice = (((a, s), (b, t + 1)), *others)
        return (choice,)

    for suite in (partial(verify.suite_independence, n_max=3, bound=1,
                          trees=1),
                  partial(verify.suite_shift_antisym, n_max=2, bound=1),
                  partial(verify.suite_decomposition, n=3, bound=1)):
        # a fresh pattern family of the moved forms for each suite
        monkeypatch.setattr(patterns, "PATTERN_FAMILY", Family(moved))
        report = suite()
        assert report["violations"], report["suite"]


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=5),
       st.integers(1, 4), st.integers(2, 5))
def test_swap_shift_is_an_involution(k, i, j):
    k = tuple(k)
    n = len(k)
    i = 1 + (i - 1) % n
    j = 1 + (j - 1) % n
    if i == j:
        return
    assert swap_shift(swap_shift(k, i, j), i, j) == k


@pytest.mark.parametrize("i, j", ((0, 1), (1, 0), (4, 1), (2, 4), (-1, 2)))
def test_swap_shift_index_checked(i, j):
    with pytest.raises(ValueError, match="swap index"):
        swap_shift((1, 2, 3), i, j)


def test_validate_pattern_shapes():
    with pytest.raises(ValueError):
        validate_pattern(((1, 2), (0, 1, 2)))
    with pytest.raises(ValueError):
        validate_pattern(((1,), (0, 1), (0, 1)))
    with pytest.raises(ValueError):
        validate_pattern(((3,), (0, 1)))          # 3 outside [0, 1]
    assert validate_pattern(((1,), (2, 0))) == ((1, 1),)


def test_inverted_pattern_sign():
    pat = make_pattern(((1,), (2, 0)))
    assert pat.sign == -1
    assert pat.inversions == ((1, 1),)
    assert not is_classic(pat)


def test_chain_round_trip_preserves_signs():
    for k in ((0, 2), (2, 0), (-1, 1, 0)):
        pats = enumerate_patterns(k)
        seq = basic_sequence(len(k))
        for pat in pats:
            got_seq, chain = pattern_to_chain(pat)
            assert got_seq == seq
            assert chain.levels == pat.rows
            assert chain.sign == pat.sign
            assert chain_to_pattern(chain) == pat
        assert sum(p.sign for p in pats) == signed_count(seq, k)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_chains_of_patterns_are_the_path_tree_chains(n):
    # pattern_to_chain must tag each inversion by the level of its tree, as
    # enumerate_sequences does, not by the row of the pattern entry
    seq = basic_sequence(n)
    for k in product(range(-1, 3), repeat=n):
        chains = [pattern_to_chain(p)[1] for p in enumerate_patterns(k)]
        assert chains == enumerate_sequences(seq, k), k


def is_semistandard(tableau, n):
    if any(len(r) == 0 for r in tableau):
        return False
    widths = [len(r) for r in tableau]
    if any(a < b for a, b in zip(widths, widths[1:])):
        return False
    for r, row in enumerate(tableau, start=1):
        for c, e in enumerate(row):
            if not r <= e <= n:
                return False
            if c + 1 < len(row) and row[c] > row[c + 1]:
                return False
    for r in range(1, len(tableau)):
        upper, lower = tableau[r - 1], tableau[r]
        for c in range(len(lower)):
            if upper[c] >= lower[c]:
                return False
    return True


def test_tableau_bijection_small():
    k = (0, 1, 3)
    n = len(k)
    seen = set()
    for pat in enumerate_patterns(k):
        if not is_classic(pat):
            continue
        tab = pattern_to_tableau(pat)
        assert is_semistandard(tab, n), tab
        assert tableau_to_pattern(tab, n) == pat
        seen.add(tuple(map(tuple, tab)))
    assert len(seen) == product_formula(k)


def test_tableau_worked_example():
    rows = ((2,), (2, 2), (1, 2, 4), (1, 1, 3, 4), (0, 1, 3, 3, 5),
            (0, 0, 2, 3, 5, 6))
    pat = make_pattern(rows)
    tab = pattern_to_tableau(pat)
    assert tableau_to_pattern(tab, 6) == pat
    # row lengths are the bottom row reversed, zeros dropped
    assert [len(r) for r in tab] == [6, 5, 3, 2]


def test_tableau_to_pattern_rejects_bad_input():
    with pytest.raises(ValueError):
        tableau_to_pattern([[1, 3], [2, 2]], 3)     # column not strict
    with pytest.raises(ValueError):
        tableau_to_pattern([[2, 1]], 2)             # row decreasing
    with pytest.raises(ValueError):
        tableau_to_pattern([[1], [2, 2]], 3)        # widths grow


def test_decomposition_components():
    k = (0, 1, -1)
    i = 1
    counts = shift_decomposition_counts(k, i)
    assert sum(counts.values()) == signed_pattern_count(k)
    mirrored = shift_decomposition_counts(swap_shift(k, i, i + 1), i)
    for key, value in counts.items():
        assert mirrored[key] == -value
