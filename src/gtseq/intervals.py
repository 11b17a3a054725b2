"""Integer intervals with orientation.

``interval(x, y)`` is the usual closed interval {x, ..., y} when x <= y.
Descending bounds do not simply empty it: [x, x-1] is empty, and for
y <= x - 2 the symbol [x, y] stands for the interval [y+1, x-1] carrying a
flipped orientation (an "inversion", sign -1).  This is the set-level twin of
the summation convention

    sum_{i=a}^{a-1} f(i) = 0,
    sum_{i=a}^{b} f(i) = -sum_{i=b+1}^{a-1} f(i)   for b + 1 <= a - 1,

and it is what makes telescoping identities hold for all integer bounds.

Patterns, tree-sequence labeling chains and the monotone-triangle
extensions are built alike: each entry of the row above a row v ranges
over one such interval, its slot, and each inverted slot flips the sign.
A family's rows are a row generator ``rows(v)`` giving, per choice of the
row above v, (decoration, sign, slots): the family's mark of the choice,
its sign, and one slot per entry above, a ``slot(lo, hi)`` result
(members, inverted), a pin ((x,), False), or None when empty.  The
choices above a one-entry row have no slots and do not depend on its
entry.  ``row_walk`` streams the objects and ``row_count`` sums the
memoized count of each box through ``box_sum``: a choice holding None has
no objects, and each inverted slot flips its sign.  So a check of the
stream against the count tests the walk, not the rows; ``interval`` stays
the reference the rows are held to.  The count above a row x of length 2
must be affine in x, as it is when its choices do not depend on x beyond
dropping those with an empty slot: extended summation makes each add its
signed width x_b + t - x_a - s + 1 for slot(x_a + s, x_b + t), 0 when
empty, or 1 for a pin, so ``box_sum`` reads a level-2 box sum at two
opposite corners.

A fill family (patterns, tree chains and alpha) gives only slot forms:
``slots(level)`` is the tuple of its row choices above a level point x,
each one form ((a, s), (b, t)) per entry above, meaning
slot(x_a + s, x_b + t), and ``marks(level)`` names the choices of a family
that marks them.  Rows, reach and stencil are derived from the forms here,
once.  ``form_rows`` is the one evaluator and the family's row generator;
outside this module only ``labelings._pin_options``, whose pinned states
are not plain slots, and the references the tests keep read a form.
``sweep`` is a fill family's one grid path (tree-sequence counts and
alpha): the points missing from its top table go to ``fill``, which takes
the same recursion a box at a time and writes every level it fills into the
family's tables, and the others to its point step.  Extended summation
makes the signed sum over a slot F(x_b + t) - F(x_a + s - 1), with F the
padded prefix table of the level below (``prefix_table``), whatever the
order of the two ends, so a level's values are signed sums of F at a fixed
set of corners, its stencil (``_stencil``: the differences multiplied out
over the coordinates and summed over the choices, equal corners
cancelling).  The members of each slot at every point of a box give the box
of the level below that it reaches (``_reach``).  ``fill`` owns the rule
for when a fill beats the memoized step, alpha's cut at n = 6
(FILL_MAX_CORNERS) included, and fills the levels bottom-up from the
all-ones level 1, evaluating each stencil over a whole box
(``corner_sums``).
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, product, repeat
from math import prod
from operator import add, getitem, sub


@dataclass(frozen=True)
class GeneralizedInterval:
    lower: int          # x as written
    upper: int          # y as written
    members: tuple      # sorted tuple of the integers the symbol denotes
    inverted: bool

    @property
    def sign(self):
        return -1 if self.inverted else 1

    def __contains__(self, value):
        return value in self.members

    def member_set(self):
        return frozenset(self.members)


def interval(x, y):
    """The generalized interval [x, y]."""
    if x <= y:
        return GeneralizedInterval(x, y, tuple(range(x, y + 1)), False)
    if y == x - 1:
        return GeneralizedInterval(x, y, (), False)
    # y + 1 <= x - 1: flipped orientation
    return GeneralizedInterval(x, y, tuple(range(y + 1, x)), True)


def slot(lo, hi):
    """The generalized interval [lo, hi] of one slot as (members, inverted),
    with members a range, or None when the interval is empty."""
    if lo <= hi:
        return range(lo, hi + 1), False
    if lo == hi + 1:
        return None
    return range(hi + 1, lo), True


def bottom_row(n, k):
    """k as a tuple, checked to be a bottom row of length n >= 1."""
    k = tuple(k)
    if len(k) != n:
        raise ValueError("k must have length n")
    if n < 1:
        raise ValueError("n must be at least 1")
    return k


def box_sum(tables, count, level, box):
    """Sum of the level-``level`` count over product(*box): at level 1,
    where every count is 1, the product of the range lengths; at level 2,
    where the count is affine in its row, the box size times the mean of the
    counts at two opposite corners; above, the entries of
    ``tables[level]``, at C speed when all are present, with
    ``count(level, v)`` computing (and storing) each missing one."""
    if level == 1:
        return prod(map(len, box))
    if level == 2:
        x, y = box
        return (len(x) * len(y)
                * (count(2, (x[0], y[0])) + count(2, (x[-1], y[-1]))) // 2)
    table = tables[level]
    try:
        return sum(map(table.__getitem__, product(*box)))
    except KeyError:
        pass
    get = table.get
    total = 0
    for v in product(*box):
        value = get(v)
        total += count(level, v) if value is None else value
    return total


def row_count(rows, tables, n, v):
    """Signed total above row v of length n, memoized in ``tables[n]``; a
    family with one table for every row length passes it at each index.

    Each choice from rows(v) without an empty slot adds its sign, flipped
    once per inverted slot, times the level n-1 count summed over the
    members of its slots (``box_sum``), which calls back here only for
    missing entries.
    """
    if n == 1:
        return 1
    total = tables[n].get(v)
    if total is not None:
        return total
    fill = partial(row_count, rows, tables)
    total = 0
    for _, sign, slots in rows(v):
        if None in slots:
            continue
        box, inverted = zip(*slots)
        if inverted.count(True) % 2:
            sign = -sign
        total += sign * box_sum(tables, fill, n - 1, box)
    tables[n][v] = total
    return total


def row_walk(rows, k):
    """Stream the objects over bottom row k, built row by row from rows(v),
    as (rows top first, decorations top first, inversions, sign).  An
    inversion (i, q) is an inverted slot q of row i; each choice above the
    top row finishes one object."""
    top = list(rows(k[:1]))

    def up(stack, decorations, inversions, sign):
        v = stack[-1]
        for decoration, row_sign, slots in rows(v) if len(v) > 1 else top:
            if None in slots:
                continue
            flips = [q for q, (_, flip) in enumerate(slots, 1) if flip]
            decorations_up = (decoration,) + decorations
            inversions_up = (tuple([(len(slots), q) for q in flips])
                             + inversions)
            sign_up = sign * row_sign * (-1) ** len(flips)
            if len(v) == 1:
                yield tuple(stack[::-1]), decorations_up, inversions_up, sign_up
                continue
            for u in product(*[members for members, _ in slots]):
                yield from up(stack + [u], decorations_up, inversions_up,
                              sign_up)

    return up([k], (), (), 1)


def form_rows(slots, x, marks=None):
    """The rows above the level point x of a family stated by slot forms:
    each choice of ``slots(len(x))`` whose slots at x are all inhabited, in
    the order of the tuple, as (decoration, 1, slots), the decoration of
    choice i being ``marks(len(x))[i]``, or None without marks.  With
    several choices each distinct form is evaluated once, and an empty slot
    drops every choice holding its form (``_choice_masks``)."""
    level = len(x)
    choices = slots(level)
    decorations = marks(level) if marks else (None,) * len(choices)
    if len(choices) == 1:
        forms = choices[0]
    else:
        forms, picks, users = _choice_masks(slots, level)
    found = [slot(x[a - 1] + s, x[b - 1] + t) for (a, s), (b, t) in forms]
    if len(choices) == 1:
        return [] if None in found else [(decorations[0], 1, found)]
    alive = (1 << len(picks)) - 1
    for value, mask in zip(found, users):
        if value is None:
            alive &= ~mask
    rows = []
    while alive:
        i = (alive & -alive).bit_length() - 1
        alive ^= 1 << i
        rows.append((decorations[i], 1, [found[f] for f in picks[i]]))
    return rows


@lru_cache(maxsize=None)
def _choice_masks(slots, level):
    """(forms, picks, users) for the choices of ``slots(level)``: their
    distinct forms, each choice's form indices, and each form's bit mask of
    the choices holding it; built once per family and level."""
    index = {}
    picks = [tuple(index.setdefault(form, len(index)) for form in choice)
             for choice in slots(level)]
    users = [0] * len(index)
    for i, pick in enumerate(picks):
        for f in pick:
            users[f] |= 1 << i
    return list(index), picks, users


# --- level fills -----------------------------------------------------------

# The fewest points a fill is built for; below it the fill's fixed cost per
# level outweighs the memoized step (the refined routes add one or a few
# points per call).
FILL_MIN_POINTS = 16
# The most cells, summed over the reached boxes of every level, that one
# fill may build; a wider reach keeps the memoized step.
FILL_BUDGET = 250_000
# The most corner products (choices times 2^(level - 1)) a level's stencil
# may expand before cancelling.  Alpha's 4^(m - 1) keep it to n <= 6: on a
# dense box of 2^n points the fill's lead over the memoized step fell from
# 5x at n = 5 to 1.4x at n = 7, and was a loss at n = 8.  Trees fill to 11.
FILL_MAX_CORNERS = 1024


def sweep(slots, tables, top, points, count):
    """The level-``top`` values of a family at ``points``, in order: the
    points missing from ``tables[top]`` go to ``fill``, and every point it
    leaves to the family's point step ``count(k)``."""
    points = [tuple(k) for k in points]
    table = tables[top]
    fill([k for k in points if k not in table], top, slots, tables)
    return [table[k] if k in table else count(k) for k in points]


def fill(points, top, slots, tables):
    """Fill levels 2..``top`` of a family over the boxes that the bounding
    box of the level-``top`` ``points`` reaches, bottom-up from the all-ones
    level 1, writing each level's values into ``tables[level]``; return
    whether it filled.

    ``slots`` are the family's slot forms, from which the fill derives the
    box of the level below that a box reaches (``_reach``) and each level's
    stencil (``_stencil``).  It fills nothing, leaving the points to the
    memoized step, unless they are at least FILL_MIN_POINTS distinct
    vectors of length top making up at least half of their bounding box,
    no level's stencil expands more than FILL_MAX_CORNERS corner products,
    and the reached boxes hold at most FILL_BUDGET cells; with top = 1
    there is no level to fill.
    """
    distinct = set(points)
    if (top < 2 or len(distinct) < FILL_MIN_POINTS
            or any(len(k) != top for k in distinct)):
        return False
    boxes = [[range(min(column), max(column) + 1)
              for column in zip(*distinct)]]
    if 2 * len(distinct) < prod(map(len, boxes[0])):
        return False
    choices = {level: slots(level) for level in range(2, top + 1)}
    if any(len(choices[level]) << (level - 1) > FILL_MAX_CORNERS
           for level in choices):
        return False
    for level in range(top, 1, -1):
        boxes.append(_reach(choices[level], boxes[-1]))
    if sum(prod(map(len, box)) for box in boxes) > FILL_BUDGET:
        return False
    boxes.reverse()
    # level 1 is all ones, so its padded prefix table counts
    prefix = list(range(len(boxes[0][0]) + 1))
    for level in range(2, top + 1):
        box, under = boxes[level - 1], boxes[level - 2]
        stencil = _stencil(choices[level])
        # one column per distinct read of a coordinate, and per term the
        # column it picks in each
        reads = [sorted({corner[c] for _, corner in stencil})
                 for c in range(level - 1)]
        columns = [[corner_column(box, under, c, v, shift)
                    for v, shift in column_reads]
                   for c, column_reads in enumerate(reads, 1)]
        terms = [(coeff, tuple(map(list.index, reads, corner)))
                 for coeff, corner in stencil]
        values = corner_sums(prefix, columns, terms, prod(map(len, box)))
        tables[level].update(zip(product(*box), values))
        if level < top:
            prefix = prefix_table(values, list(map(len, box)))
    return True


def _reach(choices, box):
    """The box of the level below that a level ``box`` reaches: coordinate
    c spans the members of its slot at every point of the box, in every
    choice.  The members of slot(x_a + s, x_b + t) lie between
    min(x_a + s, x_b + t + 1) and max(x_a + s, x_b + t + 1) - 1."""
    return [range(min(min(box[a - 1].start + s, box[b - 1].start + t + 1)
                      for (a, s), (b, t) in forms),
                  max(max(box[a - 1].stop - 1 + s, box[b - 1].stop + t)
                      for (a, s), (b, t) in forms))
            for forms in zip(*choices)]


# bounded, so tree levels (microseconds to expand) do not pile up, while
# alpha's five (milliseconds at m = 6) stay among the recent entries
@lru_cache(maxsize=32)
def _stencil(choices):
    """A level's value as signed corners of the padded prefix table F of
    the level below, as (coeff, corner) pairs, a corner giving one (v, shift)
    per coordinate that reads F at x_v + shift.

    Extended summation makes the signed sum over slot(x_a + s, x_b + t) the
    difference F(x_b + t) - F(x_a + s - 1) whatever the order of the two
    ends; a choice is the product of one difference per coordinate, and the
    choices are summed, equal corners cancelling.  ``corner_sums`` takes
    coefficients 1 and -1 only."""
    terms = {}
    for choice in choices:
        ends = [((b, t), (a, s - 1)) for (a, s), (b, t) in choice]
        for lows in product((0, 1), repeat=len(ends)):
            corner = tuple(map(getitem, ends, lows))
            terms[corner] = terms.get(corner, 0) + (-1) ** sum(lows)
    if any(abs(coeff) > 1 for coeff in terms.values()):
        raise ValueError("a stencil corner has a coefficient other than "
                         "1, 0 or -1")
    return tuple((coeff, corner) for corner, coeff in sorted(terms.items())
                 if coeff)


def prefix_table(values, widths):
    """The prefix sums of a table given row-major over a box of these
    widths, row-major over the box padded by one zero entry at the low end
    of every coordinate: the entry at x sums the values at every y <= x."""
    if len(widths) == 1:
        return [0] + list(accumulate(values))
    inner = prod(widths[1:])
    total = [0] * prod(w + 1 for w in widths[1:])
    table = total[:]
    for j in range(widths[0]):
        total = list(map(add, total, prefix_table(
            values[j * inner:(j + 1) * inner], widths[1:])))
        table += total
    return table


def corner_column(box, below, c, v, shift):
    """Per point x of ``box``, row-major, the part of its corner's offset in
    the padded prefix table of the box ``below`` that coordinate c (from 1)
    adds, when that coordinate reads x_v + shift."""
    widths = [len(r) + 1 for r in below]
    stride = prod(widths[c:])
    origin = below[c - 1].start - 1
    entries = [(x + shift - origin) * stride for x in box[v - 1]]
    sizes = list(map(len, box))
    return (list(chain.from_iterable(repeat(x, prod(sizes[v:]))
                                     for x in entries))
            * prod(sizes[:v - 1]))


def corner_sums(prefix, columns, terms, size):
    """Per point of a box of ``size`` points, the prefix table summed at the
    corners that ``terms`` name, each (sign, choices) with sign 1 or -1 and
    distinct choices reading ``columns[c][choices[c]]`` in every coordinate
    c.  Terms sharing their leading choices share the partial offsets of
    those coordinates.  With one F(b) - F(a) per coordinate this is the
    signed sum over the slot box, whatever the order of a and b: an
    inversion needs no case of its own, and at a tie the two corners
    coincide and cancel."""
    trie = {}
    for sign, choices in terms:
        node = trie
        for j in choices[:-1]:
            node = node.setdefault(j, {})
        node[choices[-1]] = add if sign > 0 else sub
    get = prefix.__getitem__
    last = len(columns) - 1
    total = [0] * size

    def walk(c, offsets, node):
        nonlocal total
        for j, child in node.items():
            column = columns[c][j]
            moved = column if offsets is None else map(add, offsets, column)
            if c < last:
                walk(c + 1, list(moved), child)
            else:
                total = list(map(child, total, map(get, moved)))

    walk(0, None, trie)
    return total


def _symmetric_difference(a, b):
    return a.member_set() ^ b.member_set()


def left_anchored_identity(x, y, z):
    """[x, y] symdiff [x, z+1] == [y+1, z+1], as member sets."""
    lhs = _symmetric_difference(interval(x, y), interval(x, z + 1))
    return lhs == interval(y + 1, z + 1).member_set()


def right_anchored_identity(x, y, z):
    """[z, x] symdiff [y-1, x] == [y-1, z-1], as member sets."""
    lhs = _symmetric_difference(interval(z, x), interval(y - 1, x))
    return lhs == interval(y - 1, z - 1).member_set()


def containment_dichotomy(x, y, z):
    """Two intervals sharing a left endpoint either nest or are disjoint.

    Checks that for [x, y] and [x, z+1] one member set contains the other or
    the two are disjoint, and that disjointness happens exactly when one of
    the two (not both) is an inversion.  Returns True when the statement
    holds for this triple.
    """
    return _dichotomy(interval(x, y), interval(x, z + 1))


def right_anchored_dichotomy(x, y, z):
    """Same dichotomy for the pair [z, x], [y-1, x] sharing a right endpoint."""
    return _dichotomy(interval(z, x), interval(y - 1, x))


def _dichotomy(a, b):
    sa, sb = a.member_set(), b.member_set()
    nested = sa <= sb or sb <= sa
    disjoint = not (sa & sb)
    if not (nested or disjoint):
        return False
    if sa and sb:
        # with both intervals inhabited, disjointness is equivalent to
        # exactly one of the two being an inversion
        return disjoint == (a.inverted != b.inverted)
    # an empty interval nests trivially and carries no orientation content
    return True
