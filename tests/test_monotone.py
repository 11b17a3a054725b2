from functools import lru_cache
from itertools import combinations, product

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from gtseq import monotone
from gtseq.intervals import interval
from gtseq.monotone import (
    PAIR_PRODUCTS,
    alpha,
    alpha_operator,
    alpha_via_operator,
    check_alpha_property,
    doubly_refined_asm,
    doubly_refined_identity_residuals,
    enumerate_extension,
    enumerate_monotone_triangles,
    extension_signed_count,
    extension_three_relaxed,
    linear_system_residuals,
    property_three_residual,
    refined_asm,
    strict_row_patterns,
)
from gtseq.operators import (apply_operator, delta, identity,
                             lattice_function, product_formula, shift,
                             small_delta)


def brute_monotone_count(k):
    """Count monotone triangles by plain recursion, no memo, no intervals."""
    if len(k) == 1:
        return 1
    total = 0
    spans = [range(k[q], k[q + 1] + 1) for q in range(len(k) - 1)]
    for row in product(*spans):
        if all(a < b for a, b in zip(row, row[1:])):
            total += brute_monotone_count(row)
    return total


@pytest.mark.parametrize("k", ((1, 2, 3), (0, 2, 5), (1, 3), (-2, 0, 1, 3)))
def test_alpha_matches_brute_force_on_strict_rows(k):
    want = brute_monotone_count(k)
    assert len(enumerate_monotone_triangles(k)) == want
    assert alpha(len(k), k) == want
    assert strict_row_patterns(len(k), k) == want


@lru_cache(maxsize=None)
def reference_alpha(n, k):
    """alpha by one recursive call per box member, over intervals.interval."""
    if n == 1:
        return 1
    total = 0
    positions = range(1, n)
    for size in range(n):
        for pinned in combinations(positions, size):
            pin = set(pinned)
            sign = 1
            lists = []
            for q in positions:
                if q in pin:
                    lists.append((k[q - 1],))
                    continue
                iv = interval(k[q - 1] + 1, k[q] - (1 if q + 1 in pin else 0))
                if not iv.members:
                    lists = None
                    break
                sign *= iv.sign
                lists.append(iv.members)
            if lists is None:
                continue
            for l in product(*lists):
                total += sign * reference_alpha(n - 1, l)
    return total


@given(st.lists(st.integers(-3, 4), min_size=1, max_size=5))
@example([4, 2, 0, -2, -3])
@example([4, 3, 2, 1, 0])
@example([2, 1, 3, 0])
@settings(max_examples=60, deadline=None)
def test_alpha_matches_per_member_reference(k):
    k = tuple(k)
    n = len(k)
    want = reference_alpha(n, k)
    # cold: every box misses the memo and fills it
    monotone._alpha_memo.clear()
    assert alpha(n, k) == want
    # warm: only the top entry is missing, so its box is read from the table
    monotone._alpha_memo.pop(k, None)
    assert alpha(n, k) == want
    assert monotone._ext_memos[1] is monotone._alpha_memo


def test_alpha_staircase_values():
    for n, want in ((1, 1), (2, 2), (3, 7), (4, 42), (5, 429)):
        assert alpha(n, tuple(range(1, n + 1))) == want


def test_alpha_is_not_the_product_formula():
    # sanity that the two counts genuinely differ
    assert alpha(3, (1, 2, 3)) == 7
    assert product_formula((1, 2, 3)) == 8


def test_enumerate_monotone_rejects_weak_rows():
    with pytest.raises(ValueError):
        enumerate_monotone_triangles((1, 1, 2))


def test_strict_row_patterns_allows_weak_bottom():
    # bottom row may repeat; upper rows are still strict
    assert strict_row_patterns(2, (1, 1)) == 1
    assert strict_row_patterns(3, (1, 1, 2)) == alpha(3, (1, 1, 2))


@pytest.mark.parametrize("variant", (1, 2, 3, 4))
@pytest.mark.parametrize("k", ((1, 3), (0, 0), (2, 0), (1, 2, 3), (0, -1, 1)))
def test_extension_streams_sum_to_counts(variant, k):
    objs = list(enumerate_extension(variant, len(k), k))
    assert sum(o.sign for o in objs) == extension_signed_count(variant, len(k), k)
    assert extension_signed_count(variant, len(k), k) == alpha(len(k), k)


def test_extension_one_stream_frozen():
    # bottom (1, 3): tops 2 and 3 plain, top 1 starred to its left parent
    objs = list(enumerate_extension(1, 2, (1, 3)))
    tops = sorted((o.rows[0][0], o.decorations) for o in objs)
    assert tops == [(1, ((1, 1),)), (2, ()), (3, ())]
    assert all(o.sign == 1 for o in objs)


def test_extension_four_single_entry_signs():
    objs = list(enumerate_extension(4, 1, (5,)))
    signs = sorted(o.sign for o in objs)
    assert signs == [-1, 1, 1]
    assert sum(o.sign for o in objs) == 1


def test_extension_json_shapes():
    for variant, key in ((1, "stars"), (2, "leftStars"), (3, "specials"),
                         (4, "arrows")):
        objs = list(enumerate_extension(variant, 2, (1, 3)))
        doc = objs[0].to_json()
        assert doc["variant"] == variant
        assert key in doc["decorations"]
        assert doc["rows"][1] == [1, 3]


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
@settings(max_examples=50)
def test_operator_forms_agree_with_alpha(k):
    k = tuple(k)
    n = len(k)
    want = alpha(n, k)
    assert alpha_via_operator(n, k, "threeTerm") == want
    assert alpha_via_operator(n, k, "deltaDelta") == want


def fresh_pair_product(n, form):
    """The pairwise product as it is built for a single point, uncached."""
    op = identity(n)
    for p in range(n):
        for q in range(p + 1, n):
            if form == "threeTerm":
                factor = (shift(n, p) + shift(n, q, -1)
                          - shift(n, p) * shift(n, q, -1))
            else:
                factor = identity(n) + delta(n, p) * small_delta(n, q)
            op = op * factor
    return op


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cached_pair_products_match_fresh_builds(n):
    f = lattice_function(n, product_formula)
    built = {}
    for form in PAIR_PRODUCTS:
        built[form] = alpha_operator(n, form)
        assert alpha_operator(n, form) is built[form]
        assert built[form] == fresh_pair_product(n, form)
        for k in combinations(range(-1, n + 1), n):
            assert apply_operator(built[form], f, k) == alpha(n, k)
    assert built["threeTerm"] == built["deltaDelta"]


def test_alpha_operator_rejects_unknown_form():
    with pytest.raises(ValueError):
        alpha_operator(2, "pairwise")
    with pytest.raises(ValueError):
        alpha_via_operator(2, (0, 1), "pairwise")


@given(st.lists(st.integers(-2, 2), min_size=2, max_size=3))
@settings(max_examples=40)
def test_relaxed_adjacent_specials_change_nothing(k):
    k = tuple(k)
    assert extension_three_relaxed(len(k), k) == alpha(len(k), k)


def test_refined_counts_frozen():
    assert refined_asm(3).vector == (2, 3, 2)
    assert refined_asm(4).vector == (7, 14, 14, 7)
    assert sum(refined_asm(4).vector) == 42


def test_doubly_refined_frozen():
    counts = doubly_refined_asm(3)
    assert counts.matrix == ((0, 1, 1), (1, 1, 1), (1, 1, 0))
    assert counts.vector == (2, 3, 2)
    four = doubly_refined_asm(4)
    assert four.matrix == ((0, 2, 3, 2), (2, 4, 5, 3), (3, 5, 4, 2),
                           (2, 3, 2, 0))


def test_linear_system_and_identity_hold():
    for n in (1, 2, 3, 4):
        assert all(r == 0 for r in linear_system_residuals(n))
        assert all(r == 0 for _, r in doubly_refined_identity_residuals(n))


def test_cyclic_shift_property_pointwise():
    for k in product(range(-1, 2), repeat=3):
        assert property_three_residual(3, k) == 0


def test_check_alpha_property_report():
    grid = list(product(range(-1, 2), repeat=2))
    report = check_alpha_property("P1", 2, grid)
    assert report["pointsChecked"] == len(grid)
    assert report["violations"] == []
    with pytest.raises(ValueError):
        check_alpha_property("P9", 2, grid)
