from functools import partial
from itertools import product
import random

from hypothesis import given
from hypothesis import strategies as st
import pytest

from gtseq import intervals, labelings, monotone, patterns
from gtseq.intervals import (
    FILL_MIN_POINTS,
    box_sum,
    containment_dichotomy,
    fill,
    form_rows,
    interval,
    left_anchored_identity,
    right_anchored_dichotomy,
    right_anchored_identity,
    row_count,
    row_walk,
    slot,
)
from gtseq.operators import product_formula
from gtseq.trees import basic_sequence, random_sequence, random_tree


@pytest.mark.parametrize(
    "x, y, members, inverted",
    (
        (2, 5, (2, 3, 4, 5), False),
        (2, 2, (2,), False),
        (3, 2, (), False),
        (5, 2, (3, 4), True),
        (0, -2, (-1,), True),
        (-3, 1, (-3, -2, -1, 0, 1), False),
    ),
)
def test_interval_table(x, y, members, inverted):
    iv = interval(x, y)
    assert iv.members == members
    assert iv.inverted is inverted
    assert iv.sign == (-1 if inverted else 1)


def test_slot_agrees_with_interval():
    for x in range(-4, 5):
        for y in range(-4, 5):
            iv = interval(x, y)
            got = slot(x, y)
            if not iv.members:
                assert got is None, (x, y)
                continue
            members, inverted = got
            assert tuple(members) == iv.members, (x, y)
            assert inverted is iv.inverted, (x, y)


def test_membership_operator():
    assert 3 in interval(5, 2)
    assert 5 not in interval(5, 2)
    assert 2 not in interval(3, 2)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_sign_matches_summation_convention(x, y):
    # sign * sum over members must equal the extended sum of f(i) = i
    iv = interval(x, y)
    signed = iv.sign * sum(iv.members)
    if x <= y:
        expected = sum(range(x, y + 1))
    elif y == x - 1:
        expected = 0
    else:
        expected = -sum(range(y + 1, x))
    assert signed == expected


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_inversion_exactly_when_gap(x, y):
    iv = interval(x, y)
    assert iv.inverted == (y <= x - 2)
    if y == x - 1:
        assert iv.members == ()


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_symmetric_difference_identities(x, y, z):
    assert left_anchored_identity(x, y, z)
    assert right_anchored_identity(x, y, z)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_dichotomies(x, y, z):
    assert containment_dichotomy(x, y, z)
    assert right_anchored_dichotomy(x, y, z)


def test_member_set_is_frozen():
    s = interval(1, 3).member_set()
    assert s == frozenset({1, 2, 3})
    assert isinstance(s, frozenset)


def _toy_rows(v):
    """Above (0, 4, 1): a choice holding an empty slot, then one pinning
    entry 1 to 0 with entry 2 in the inverted slot [4, 1] = {2, 3}.  Above
    a pair (a, b): entry 1 in [a, b]."""
    if v == (0, 4, 1):
        yield "empty", 1, [((0,), False), None]
        yield "pinned", 1, [((0,), False), slot(4, 1)]
    elif len(v) == 2:
        yield "pair", 1, [slot(*v)]
    else:
        yield "top", 1, []


def test_row_protocol_on_a_synthetic_generator():
    k = (0, 4, 1)
    walk = list(row_walk(_toy_rows, k))
    assert sorted(rows for rows, _, _, _ in walk) == sorted(
        ((t,), (0, u), k) for u in (2, 3) for t in range(u + 1))
    for _, decorations, inversions, sign in walk:
        # the empty-slot choice is never streamed; the pin leaves the sign
        # alone and the inverted slot flips it once
        assert decorations == ("top", "pair", "pinned")
        assert inversions == ((2, 2),)
        assert sign == -1
    assert (row_count(_toy_rows, [{}] * 4, 3, k) == -7
            == sum(w[3] for w in walk))


ROW_GENERATORS = pytest.mark.parametrize("rows", (
    patterns._rows, monotone._rows_1, monotone._rows_2, monotone._rows_3,
    partial(monotone._rows_3, subsets=monotone._subsets), monotone._rows_4,
    partial(form_rows,
            labelings._sequence_slots(basic_sequence(3)).__getitem__),
    partial(form_rows,
            labelings._sequence_slots(random_sequence(3, 5)).__getitem__),
), ids=("patterns", "v1", "v2", "v3", "v3relaxed", "v4", "chainBasic",
        "chainRandom"))


@ROW_GENERATORS
def test_row_generators_yield_named_slots(rows):
    for m in (1, 2, 3):
        for v in product(range(-2, 3), repeat=m):
            for choice in rows(v):
                assert len(choice) == 3, v
                _, sign, slots = choice
                assert sign in (1, -1)
                assert len(slots) == m - 1, v
                for entry in slots:
                    if entry is None:
                        continue
                    members, inverted = entry
                    assert len(members) > 0, v
                    assert type(inverted) is bool, v


@ROW_GENERATORS
def test_level_two_box_sum_reads_two_corners(rows):
    # ascending, descending and crossing boxes hold normal, tied, empty and
    # inverted slots; the reference sums the signs of the walked objects
    rng = random.Random(2)
    boxes = [[range(0, 4), range(3, 8)], [range(3, 7), range(-3, 1)],
             [range(-2, 3), range(-2, 3)], [range(5, 6), range(4, 5)]]
    boxes += [[range(lo, lo + rng.randint(1, 6))
               for lo in (rng.randint(-5, 5), rng.randint(-5, 5))]
              for _ in range(30)]
    for box in boxes:
        reads = []

        def count(level, v):
            reads.append((level, v))
            return row_count(rows, [None, {}, {}], level, v)

        want = sum(sign for v in product(*box)
                   for _, _, _, sign in row_walk(rows, v))
        assert box_sum([None, {}, {}], count, 2, box) == want, box
        assert len(reads) <= 2 and {level for level, _ in reads} == {2}


def test_wide_rows_count_the_product_formula(monkeypatch):
    # each level-3 entry over a 30-wide box reads two level-2 corners
    k = (0, 30, 60, 90)
    want = product_formula(k)
    monkeypatch.setattr(patterns, "_count_memo", {})
    assert patterns.signed_pattern_count(k) == want
    for seq in (basic_sequence(4), random_sequence(4, 7)):
        assert labelings.signed_count(seq, k) == want
    monkeypatch.setattr(monotone, "_alpha_memo", {})
    assert monotone.alpha(4, k) == monotone.alpha_via_operator(
        4, k, "deltaDelta")


@pytest.mark.parametrize("call", (
    lambda: monotone.alpha(0, ()),
    lambda: monotone.extension_signed_count(1, 0, ()),
    lambda: monotone.enumerate_extension(1, 0, ()),
    lambda: patterns.signed_pattern_count(()),
    lambda: patterns.enumerate_patterns(()),
    lambda: monotone.enumerate_monotone_triangles(()),
    lambda: monotone.strict_row_patterns(0, ()),
    lambda: monotone.refined_direct(0),
    lambda: monotone.refined_asm(0),
    lambda: monotone.doubly_refined_asm(0),
    lambda: monotone.linear_system_residuals(0),
    lambda: monotone.alpha_via_operator(0, ()),
    lambda: labelings.signed_count(basic_sequence(0), ()),
    lambda: labelings.enumerate_sequences(basic_sequence(0), ()),
), ids=("alpha", "extension", "stream", "patternCount", "patterns",
        "triangles", "strictRows", "refinedDirect", "refined",
        "doublyRefined", "linearSystem", "alphaViaOperator", "signedCount",
        "chains"))
def test_empty_bottom_row_rejected(call):
    with pytest.raises(ValueError, match="at least 1"):
        call()


# --- the level fill on a toy family ----------------------------------------
#
# Gelfand-Tsetlin patterns: entry q of the row above a row x ranges over
# [x_q, x_{q+1}], so a level value is the product over q of
# F(x_{q+1}) - F(x_q - 1), and the signed count is the product formula.


def _toy_slots(level):
    """The one row choice: entry q of the row above ranges over
    slot(x_q, x_{q+1})."""
    return (tuple(((q, 0), (q + 1, 0)) for q in range(1, level)),)


def _toy_fill(points, top=2):
    """The top level's values by point, or None when nothing is filled."""
    tables = [{} for _ in range(top + 1)]
    if not fill(points, top, _toy_slots, tables):
        assert not any(tables)
        return None
    assert [level for level, table in enumerate(tables) if table] == list(
        range(2, top + 1))
    return tables[top]


def test_fill_of_a_toy_family_gives_the_product_formula():
    for top, points in ((2, list(product(range(4), repeat=2))),
                        (3, list(product(range(-2, 2), repeat=3))),
                        (4, list(product(range(-1, 2), repeat=4)))):
        filled = _toy_fill(points, top)
        assert all(filled[k] == product_formula(k) for k in points), top


def test_fill_needs_enough_points():
    assert FILL_MIN_POINTS == 16
    square = list(product(range(4), repeat=2))
    assert _toy_fill(square[:15]) is None
    assert _toy_fill(square + square[:5]) is not None


def test_fill_needs_half_of_the_box():
    # 16 points with corners (0, 0) and (3, 7): half of a 4 x 8 box
    half = [(x, y) for x in range(4) for y in range(8) if (x + y) % 2 == 0]
    assert len(half) == 16
    filled = _toy_fill(half)
    assert all(filled[k] == product_formula(k) for k in half)
    # 16 points with corners (0, 0) and (2, 10): just under half of 3 x 11
    under = [(x, y) for x in range(3) for y in range(11)
             if (x + y) % 2 == 0 and (x, y) != (1, 1)]
    assert len(under) == 16 and 2 * len(under) == 3 * 11 - 1
    assert _toy_fill(under) is None


def test_fill_stays_within_the_budget(monkeypatch):
    # a 4 x 4 box 1000 apart reaches 1004 cells below it, 1020 in all
    far = [(x, 1000 + y) for x, y in product(range(4), repeat=2)]
    monkeypatch.setattr(intervals, "FILL_BUDGET", 1019)
    assert _toy_fill(far) is None
    monkeypatch.setattr(intervals, "FILL_BUDGET", 1020)
    filled = _toy_fill(far)
    assert all(filled[k] == product_formula(k) for k in far)


def test_fill_needs_a_level_above_the_ones():
    line = [(x,) for x in range(20)]
    assert _toy_fill(line, top=1) is None
    # and points of the top level's length
    assert _toy_fill(list(product(range(4), repeat=2)), top=3) is None


def test_fill_refuses_a_corner_counted_twice():
    # corner_sums adds or subtracts each corner once, so a family whose
    # choices sum a corner twice must not be filled with a wrong value
    twice = _toy_slots(2) * 2
    with pytest.raises(ValueError, match="coefficient"):
        fill(list(product(range(4), repeat=2)), 2, lambda level: twice,
             [{}, {}, {}])


def test_sweep_fills_the_pattern_family(fill_log):
    # signed patterns, stated as slot forms, through the one grid path:
    # handed fresh tables, a cube fills every level (none at n = 1, where
    # each point takes the point step), and a sparse list takes the step
    for n in range(1, 5):
        cube = list(product(range(-2, 3), repeat=n))
        tables = [{} for _ in range(n + 1)]
        stepped = []

        def count(k):
            stepped.append(k)
            return row_count(patterns._rows, tables, n, k)

        fill_log.clear()
        assert (intervals.sweep(patterns._pattern_slots, tables, n, cube,
                                count)
                == [patterns.signed_pattern_count(k) for k in cube]), n
        assert fill_log == [list(range(2, n + 1))]
        assert stepped == ([] if n > 1 else cube)
        # every fourth point of the cube is under half of its box
        sparse = [k for k in cube if sum(k) % 4 == 0]
        tables = [{} for _ in range(n + 1)]
        stepped.clear()
        fill_log.clear()
        assert (intervals.sweep(patterns._pattern_slots, tables, n, sparse,
                                count)
                == [patterns.signed_pattern_count(k) for k in sparse]), n
        assert fill_log == [[]]
        assert stepped == sparse


# --- the families' slot forms ----------------------------------------------


def _at(choice, x):
    """A choice of slot forms evaluated at the point x."""
    return [slot(x[a - 1] + s, x[b - 1] + t) for (a, s), (b, t) in choice]


def _family_levels(rng):
    """(level, choices) for the toy family, the levels of random tree
    sequences of order 2..6, and alpha above rows of length 2..6."""
    for level in range(2, 7):
        yield level, _toy_slots(level)
        yield level, monotone._alpha_slots(level)
        seq = random_sequence(level, rng.randrange(10 ** 6))
        for i in range(2, level + 1):
            yield i, labelings._level_slots(
                labelings._edge_triples(seq.tree(i)))


def _admissible_slot(k, e, t, h):
    """The slot of edge e = (t, h) at the vertex labels k, by brute force
    over labels from the admissibility definition: the values l with
    min(k_t + t, k_h + h) <= l + e < max(k_t + t, k_h + h), and whether the
    tail label is the larger; None at a tie."""
    a, b = k[t - 1] + t, k[h - 1] + h
    if a == b:
        return None
    return [l for l in range(-30, 30) if min(a, b) <= l + e < max(a, b)], a > b


def _listed(slots):
    return [None if s is None else (list(s[0]), s[1]) for s in slots]


def test_tree_slot_forms_give_the_edge_slots():
    # the one statement of the edge rule, evaluated here (_at) and by the
    # library (form_rows, which lists the choice only when no edge ties),
    # against the definition itself
    rng = random.Random(3)
    ties = inversions = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        tree = random_tree(n, rng)
        edges = [(e,) + tree.edge(e) for e in range(1, n)]
        forms = labelings._level_slots(labelings._edge_triples(tree))
        (choice,) = forms
        for _ in range(5):
            k = [rng.randint(-4, 4) for _ in range(n)]
            if rng.random() < 0.5:
                _, t, h = rng.choice(edges)
                k[h - 1] = k[t - 1] + t - h          # tie one edge
            want = [_admissible_slot(k, e, t, h) for e, t, h in edges]
            assert _listed(_at(choice, k)) == want, (tree, k)
            assert [_listed(slots) for _, _, slots in form_rows(
                lambda level: forms, k)] == ([] if None in want else [want])
            ties += None in want
            inversions += any(s is not None and s[1] for s in want)
    assert ties and inversions


def _random_family(rng):
    """Slot forms and marks of a family with two to nine choices per level,
    some repeated, whose small shifts make empty, tied and inverted slots
    all occur."""
    def form(level):
        return ((rng.randint(1, level), rng.randint(-1, 1)),
                (rng.randint(1, level), rng.randint(-2, 1)))

    table = {}
    for level in range(1, 7):
        choices = [tuple(form(level) for _ in range(level - 1))
                   for _ in range(rng.randint(2, 6))]
        repeated = rng.choices(choices, k=rng.randint(0, 3))
        table[level] = tuple(choices + repeated)
    return table.__getitem__, lambda level: [
        "choice %d" % i for i in range(len(table[level]))]


def test_form_rows_yield_the_inhabited_choices_in_order():
    # the evaluator against the flat reading of every choice (_at): the
    # choices without an empty slot, in the order of the tuple, each with
    # its own mark; alpha's star choices, and random families whose
    # choices share, repeat and interleave their forms
    rng = random.Random(4)
    families = [(monotone._alpha_slots, monotone._alpha_marks)]
    families += [_random_family(rng) for _ in range(20)]
    for slots, marks in families:
        for level in range(1, 7):
            choices = slots(level)
            for _ in range(30):
                x = tuple(rng.randint(-3, 3) for _ in range(level))
                want = [(mark, 1, _at(choice, x))
                        for mark, choice in zip(marks(level), choices)
                        if None not in _at(choice, x)]
                assert form_rows(slots, x, marks) == want, (choices, x)
                assert form_rows(slots, x) == [(None, 1, found)
                                               for _, _, found in want]


def test_reach_covers_every_read_and_no_more():
    # a level reads its padded prefix table F at x_b + t and x_a + s - 1
    # per slot form, so coordinate c of the reach r must hold every such
    # read in [r.start - 1, r.stop - 1], and some point of the box reads
    # each end; cancelling equal corners only drops reads
    rng = random.Random(5)
    for level, choices in _family_levels(rng):
        stencil = intervals._stencil(choices)
        for _ in range(4):
            box = [range(lo, lo + rng.randint(1, 3))
                   for lo in (rng.randint(-4, 4) for _ in range(level))]
            reach = intervals._reach(choices, box)
            reads = [set() for _ in reach]
            kept = [set() for _ in reach]
            for x in product(*box):
                for choice in choices:
                    for c, ((a, s), (b, t)) in enumerate(choice):
                        reads[c] |= {x[b - 1] + t, x[a - 1] + s - 1}
                for _, corner in stencil:
                    for c, (v, shift) in enumerate(corner):
                        kept[c].add(x[v - 1] + shift)
            assert [(min(r), max(r)) for r in reads] == [
                (r.start - 1, r.stop - 1) for r in reach], (choices, box)
            assert all(map(set.issubset, kept, reads))
