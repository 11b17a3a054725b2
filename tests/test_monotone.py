import hashlib
import json
import random
from functools import lru_cache, partial
from itertools import combinations, product
from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from gtseq import intervals, monotone, verify
from gtseq.intervals import FILL_BUDGET, Family, interval
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
    property_four_residual,
    property_one_residual,
    property_three_residual,
    property_two_residual,
    refined_asm,
    strict_row_patterns,
)
from gtseq.operators import (LatticeFunction, apply_at, apply_operator, delta,
                             identity, product_formula, shift, small_delta)


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


def test_pruned_row_generators_yield_only_inhabited_choices():
    # variants 1 and 4 drop a choice as soon as one of its slots is empty
    for rows in (monotone.EXTENSIONS[1].rows, monotone._rows_4):
        for m in (1, 2, 3, 4):
            for v in product(range(-2, 3), repeat=m):
                assert all(None not in slots for _, _, slots in rows(v)), v
    # above (0, 0, 5) entry 1's free slot [1, 0] is empty, but a star on
    # entry 2 leaves it the tight slot [1, -1], the inverted {0}
    assert list(monotone.EXTENSIONS[1].rows((0, 0, 5))) == [
        ((2, (1,)), 1, [(range(0, 1), False), (range(1, 6), False)]),
        ((2, (2,)), 1, [(range(0, 1), True), (range(0, 1), False)]),
        ((2, (1, 2)), 1, [(range(0, 1), False), (range(0, 1), False)])]
    # a cold staircase count at n = 8 builds 1,588 choices, not 3,272
    built = []

    def counted(v):
        for choice in monotone.EXTENSIONS[1].rows(v):
            built.append(choice)
            yield choice

    assert Family(rows=counted).count(tuple(range(1, 9))) == 10850216
    assert len(built) == 1588


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


# sha256 of json.dumps([o.to_json() for o in enumerate_extension(v, n, k)]),
# recorded from the per-variant streams that each carried their own row
# choice, before all four were built from one row generator per variant.
# The points hit empty and inverted intervals and repeated entries, so the
# digests freeze the order, the decorations and the signs of every stream.
# Variant 4 at (1, 0, 3, 2) has 312,336 objects, so it stops at (0, 0, 1, 1).
FROZEN_STREAMS = [
    (1, (1, 3),
     "4c0e7334d149e11076fbf92ff6ddd189b2431307c702dba5c3a7b0708621aa8e"),
    (1, (2, 0),
     "81e665741e254e126a27378bdd211d459d364f5b916e152c78aaa42468171054"),
    (1, (0, -1, 1),
     "bdb88524daf812ed8c25ea04c606fa4f05c879666d4fc664935dfaafe07fd9c0"),
    (1, (3, 0, 1),
     "33e3b16dc784befbc4d80e31c4a8bf73135b4f09ea18535c1b8c08af3dd5134f"),
    (1, (0, 2, 2, 1),
     "66235609305cfe4fed14d001a6ecb393ba031b363452cd6d8c4a6233a6f7c6d1"),
    (1, (1, 0, 3, 2),
     "16f12cb4873ceb9dfbc08aa7dc2735687bab2f62de77599a890dc207ac64f108"),
    (2, (1, 3),
     "179d98fb5f6bdbcd445ccd08b8b4da7190b48665dcde1578a9db8af04982daaf"),
    (2, (2, 0),
     "1b3786f8466ddaca334ccb957b0ae196b72c8f95a266aec4660efa5532d669d6"),
    (2, (0, -1, 1),
     "3b30601b299efbc97ea6b5ccec579c7c422376e21a5db9c965fbf1d8e74e448b"),
    (2, (3, 0, 1),
     "0910f63f4b69491b5d075171c809d0f8e85851430910138bd42938d117677a44"),
    (2, (0, 2, 2, 1),
     "0eac8829479ae0abf3b9eb03f07ed4ba0910991432888a245856814a19a12fae"),
    (2, (1, 0, 3, 2),
     "4fb3d81491057c315ba9302f0080255166b41047ef10ba33e1792e67c2edb425"),
    (3, (1, 3),
     "4e2bc7252ff0a1438f100ca67f0514d64dc769f5269f6d80f4fc5fb8e8132ad5"),
    (3, (2, 0),
     "0883e1f36dcc26c33475241e19acb5813402f52f0e2094492234a0ec4ab437a5"),
    (3, (0, -1, 1),
     "b8309c837efc7c0ae7c5f466c4f3cc2029d08e4e5931268cc7dc90c8b92454d9"),
    (3, (3, 0, 1),
     "4a14bda6079d006085864660a78540bf0449d2f118de6fe575d905bbae7e96c0"),
    (3, (0, 2, 2, 1),
     "45cbf176fd5398e1ed7dd8b77cea4cccd53bac3b7c4377ced6bf5c7015484149"),
    (3, (1, 0, 3, 2),
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (4, (1, 3),
     "5dc0b3078729fd1a02660b65132e64abe75f541e957b5216483ab43c6fe95745"),
    (4, (2, 0),
     "254a3fbcdfa2af9d7e5d0787c0797b78e8ec3621b8abe329e89d157a8babd8aa"),
    (4, (0, -1, 1),
     "5fd5195a77442ce161a2e4cdd7a7abbaa4666ca5f7b61b94319e4919058732a2"),
    (4, (3, 0, 1),
     "6e54812a22613015779ac0ff338096a95bc08ebd384d8d9c696b7adc2ed88508"),
    (4, (0, 0, 1, 1),
     "3c1b6837c290276c9a8c7b3b93846d2d678d11b054354879dbffc0f6c2d0dc0d"),
]


@pytest.mark.parametrize("variant, k, digest", FROZEN_STREAMS)
def test_extension_streams_frozen(variant, k, digest):
    objs = enumerate_extension(variant, len(k), k)
    text = json.dumps([o.to_json() for o in objs])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_variant_one_stream_frozen_on_the_cube():
    # sha256 over the points of [-2, 2]^n, n <= 4, in product order, of
    # json.dumps([o.to_json() for o in enumerate_extension(1, n, k)]),
    # recorded from the hand-grown star choices that variant 1 had before
    # its rows were read from the slot forms: 138,696 objects
    digest = hashlib.sha256()
    for n in range(1, 5):
        for k in product(range(-2, 3), repeat=n):
            digest.update(json.dumps(
                [o.to_json() for o in enumerate_extension(1, n, k)]).encode())
    assert digest.hexdigest() == (
        "c44907deea38c793411f504f8ce1d3e1fea865987e4e05687ec7f620daccd8f8")


@pytest.mark.parametrize("variant, n, k", ((5, 2, (1, 3)), (0, 2, (1, 3)),
                                           (1, 3, (1, 3)), (4, 0, ())))
def test_enumerate_extension_validates_at_call(variant, n, k):
    # the error comes from the call itself, before the stream is consumed
    with pytest.raises(ValueError):
        enumerate_extension(variant, n, k)


def test_extension_counts_reject_empty_row():
    # an empty bottom row used to recurse without end in variants 3 and 4
    for variant in (2, 3, 4):
        with pytest.raises(ValueError):
            extension_signed_count(variant, 0, ())
    with pytest.raises(ValueError):
        extension_three_relaxed(0, ())


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
    f = LatticeFunction(n, product_formula)
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


@pytest.mark.parametrize("residual, index", (
    (property_one_residual, 0), (property_one_residual, 3),
    (property_two_residual, 0), (property_two_residual, 4),
    (property_four_residual, 0), (property_four_residual, 4)))
def test_property_index_checked(residual, index):
    with pytest.raises(ValueError, match="index must be in"):
        residual(3, (0, 1, 2), index)


def test_check_alpha_property_report():
    grid = list(product(range(-1, 2), repeat=2))
    report = check_alpha_property("P1", 2, grid)
    assert report["pointsChecked"] == len(grid)
    assert report["violations"] == []
    for prop in ("P9", "linearSystem"):
        with pytest.raises(ValueError):
            check_alpha_property(prop, 2, grid)


# --- the alpha fill --------------------------------------------------------


def test_alpha_stencil_sizes_frozen():
    # 4^(m-1) products of the star choices cancel down to these
    assert [len(intervals._stencil(monotone._alpha_slots(m)))
            for m in range(2, 7)] == [2, 6, 16, 44, 120]


def _cold_alpha(monkeypatch, slots=monotone._alpha_slots):
    """A fresh alpha family, with these slot forms, in place of the live
    one for the rest of the test."""
    family = Family(slots, monotone._alpha_marks)
    monkeypatch.setitem(monotone.EXTENSIONS, 1, family)
    return family


def _memoized_alpha():
    """Alpha by the memoized step alone: the alpha rows in a family of
    their own, which has no slot forms to fill from."""
    return Family(rows=monotone.EXTENSIONS[1].rows)


def _fill_boxes(n, rng):
    """Boxes of bottom rows: ties (equal overlapping ranges), decreasing
    rows (inversions everywhere), gaps of 3 or 4 between entries, boxes
    far from the origin on either side, and random boxes."""
    wide, gap, spread = (3, 4, 6) if n < 5 else (2, 3, 2)
    yield [range(0, wide)] * n
    yield [range(9 - 3 * q, 9 - 3 * q + wide) for q in range(n)]
    yield [range(gap * q - 2, gap * q - 2 + wide) for q in range(n)]
    yield [range(40 + 3 * q, 40 + 3 * q + 2) for q in range(n)]
    yield [range(-37 - q, -37 - q + 2) for q in range(n)]
    for _ in range(3):
        yield [range(lo, lo + rng.randint(1, wide))
               for lo in (rng.randint(-spread, spread) for _ in range(n))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_alpha_fill_matches_the_memoized_step(monkeypatch, fill_log, n):
    # every box fills, down to the one-point ones, when one point suffices
    monkeypatch.setattr(intervals, "FILL_MIN_POINTS", 1)
    rng = random.Random(n)
    reference = _memoized_alpha()
    for box in _fill_boxes(n, rng):
        filled = _cold_alpha(monkeypatch).table
        fill_log.clear()
        top = list(product(*box))
        monotone.EXTENSIONS[1].sweep(top)
        if n == 1:
            # rows of length 1 count 1 and are not stored
            assert filled == {}
            continue
        assert fill_log == [list(range(2, n + 1))], box
        below = [k for k in filled if len(k) < n]
        # the whole box, and a sample of the rows below it that it reached
        for k in top + rng.sample(below, min(len(below), 200)):
            assert filled[k] == reference.count(k), (box, k)


def test_alpha_sweep_matches_point_calls_through_apply_at(monkeypatch,
                                                          fill_log):
    rng = random.Random(5)
    reference = _memoized_alpha()
    for n in (2, 3, 4, 5):
        _cold_alpha(monkeypatch)
        plain = LatticeFunction(n, reference.count)
        for _ in range(4):
            op = identity(n)
            for _ in range(rng.randint(1, 4)):
                c = rng.randrange(n)
                op = op * rng.choice([delta(n, c), small_delta(n, c),
                                      shift(n, c, rng.randint(-3, 3)),
                                      identity(n) + delta(n, c)])
            corner = [rng.randint(-4, 4) for _ in range(n)]
            points = [tuple(x + rng.randint(0, 2) for x in corner)
                      for _ in range(rng.randint(1, 30))]
            assert (apply_at(op, monotone.EXTENSIONS[1], points)
                    == apply_at(op, plain, points)), (n, op, points)
    assert any(fill_log)


def test_alpha_sweep_keeps_the_memoized_step(monkeypatch, fill_log):
    _cold_alpha(monkeypatch)
    reference = _memoized_alpha()

    def want(n, points):
        return list(map(reference.count, points))

    # a sparse reach: a difference 100000 wide, at one point and on a grid
    far = shift(2, 0, 100000) - identity(2)
    grid = list(product(range(4), repeat=2))
    assert apply_at(far, monotone.EXTENSIONS[1], [(0, 1)]) == [-100000]
    assert apply_at(far, monotone.EXTENSIONS[1], grid) == [-100000] * 16
    # a checkerboard (62 of 125 points) and every second point of a cube
    for points in ([k for k in product(range(5), repeat=3) if sum(k) % 2],
                   list(product(range(0, 7, 2), repeat=3))):
        assert monotone.EXTENSIONS[1].sweep(points) == want(3, points)
    # n = 7 and above
    cube = [tuple(q + x for q, x in enumerate(k))
            for k in product(range(2), repeat=7)]
    assert monotone.EXTENSIONS[1].sweep(cube) == want(7, cube)
    assert not any(fill_log)


def test_alpha_sweep_fills_only_new_points(monkeypatch, fill_log):
    table = _cold_alpha(monkeypatch).table
    box = list(product(range(3), repeat=4))
    first = monotone.EXTENSIONS[1].sweep(box)
    assert len(table) > len(box)
    assert fill_log == [[2, 3, 4]]
    fill_log.clear()
    # only alpha's own memo knows the points
    assert monotone.EXTENSIONS[1].sweep(box[::-1]) == first[::-1]
    assert not any(fill_log)


def test_alpha_fill_over_budget_is_refused():
    # 16 points around (0, 1000, 2000, 3000, 4000) fill their box, but the
    # boxes below it hold about 10^12 cells; the memoized step is not run
    # here, as it would not finish either
    unit = [k + (0,) for k in product(range(2), repeat=4)]

    def spaced(gap):
        return [tuple(x + gap * q for q, x in enumerate(k)) for k in unit]

    def filled(points):
        return intervals.fill(points, monotone._alpha_slots, {})

    assert filled(spaced(2))
    assert not filled(spaced(1000))
    boxes = [[range(min(c), max(c) + 1) for c in zip(*spaced(1000))]]
    for m in range(5, 1, -1):
        boxes.append(intervals._reach(monotone._alpha_slots(m), boxes[-1]))
    assert sum(prod(map(len, b)) for b in boxes) > 10 ** 12 > FILL_BUDGET


def _level_three_coefficient_flipped(monkeypatch):
    """The stencil of rows of length 3 with the sign of one term flipped;
    returns the alpha family's slot forms, which stay as they are."""
    real = intervals._stencil

    def stencil(choices):
        terms = real(choices)
        if choices == monotone._alpha_slots(3):
            (coeff, corner), *rest = terms
            terms = ((-coeff, corner), *rest)
        return terms
    monkeypatch.setattr(intervals, "_stencil", stencil)
    return monotone._alpha_slots


def _one_slot_limit_moved(monkeypatch):
    """Alpha's slot forms, with the upper limit of one slot of one star
    choice above rows of length 3 raised by 1."""
    real = monotone._alpha_slots

    def slots(m):
        choices = real(m)
        if m == 3:
            ((a, s), (b, t)), *others = choices[0]
            choices = ((((a, s), (b, t + 1)), *others),) + choices[1:]
        return choices
    return slots


@pytest.mark.parametrize("mutate", [_level_three_coefficient_flipped,
                                    _one_slot_limit_moved])
def test_gates_catch_a_broken_alpha_fill(monkeypatch, mutate):
    # delta-n, e-rho and alpha-props read alpha through the fill; a fresh
    # family makes them fill it rather than read earlier values.  At n = 3
    # the broken rows of length 3 are still of low degree, so delta-n needs
    # n = 4 to see them.  The memoized step reads the same slot forms, so a
    # moved slot limit also shows in extensions-agree, which holds alpha to
    # both operator products on the product formula.
    slots = mutate(monkeypatch)
    suites = [partial(suite, n_max=4, bound=1)
              for suite in (verify.suite_delta_n, verify.suite_e_rho,
                            verify.suite_alpha_props)]
    if mutate is _one_slot_limit_moved:
        suites.append(partial(verify.suite_extensions_agree, bound3=1,
                              lo4=0, hi4=1))
    for suite in suites:
        _cold_alpha(monkeypatch, slots)
        report = suite()
        assert report["violations"], (mutate.__name__, report["suite"])
