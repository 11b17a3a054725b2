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
A family gives its rows as a row generator ``rows(v)`` yielding, for every
candidate choice of the row above v, (decoration, sign, slots): the
family's own mark of the choice and its sign, and one slot per entry of
the row above.  A slot is a ``slot(lo, hi)`` result, (members, inverted),
or None when that interval is empty; a pinned entry is the slot
((x,), False).  The choices above a one-entry row have no slots and do
not depend on its entry.  Only ``row_walk`` and ``row_count`` read the
slots: a choice holding None has no objects, each inverted slot flips
its sign, and its box is the members of its slots.  ``row_walk`` streams
the objects from such a generator, and ``row_count`` sums the memoized
count of each box through ``box_sum``, so a check of the stream against
the count tests the walk, not the rows; ``interval`` stays the reference
the rows are held to.  The count above a row x of length 2 must be affine
in x, as it is when its choices do not depend on x beyond dropping those
with an empty slot: extended summation makes each add its signed width
x_b + t - x_a - s + 1 for slot(x_a + s, x_b + t), 0 when empty, or 1 for a
pin, so ``box_sum`` reads a level-2 box sum at two opposite corners.

The level fill is the same recursion taken a box at a time, and ``fill``
is its one entry point, shared by the tree-sequence counts
(``labelings.SequenceCounter.sweep``) and alpha
(``monotone.alpha_function``).  A family gives ``fill`` only its slots:
per level, its row choices, each one slot form ((a, s), (b, t)) per
coordinate of the level below, meaning slot(x_a + s, x_b + t) at a level
point x.  Everything else is derived here, once.  Extended summation makes
the signed sum over a slot F(x_b + t) - F(x_a + s - 1), with F the padded
prefix table of the level below (``prefix_table``), whatever the order of
the two ends, so a level's values are signed sums of F at a fixed set of
corners, its stencil (``_stencil``: the differences multiplied out over
the coordinates and summed over the choices, equal corners cancelling).
The members of each slot at every point of a box give the box of the level
below that it reaches (``_reach``).  ``fill`` owns the rest: the one rule
for when a fill beats the memoized step (enough points, making up enough
of their box, within ``FILL_BUDGET`` cells), the boxes of every level from
the top box down, the stencil's per-coordinate offset columns
(``corner_column``), and the levels filled bottom-up from the all-ones
level 1, where ``corner_sums`` evaluates a stencil over a whole box with
the partial offsets shared by terms that agree on their leading columns.
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


def table_sum(table, fill, level, ranges):
    """Sum of table[l] over l in product(*ranges), at C speed when every
    entry is present; otherwise ``fill(level, l)`` computes (and stores)
    each missing entry."""
    try:
        return sum(map(table.__getitem__, product(*ranges)))
    except KeyError:
        pass
    get = table.get
    total = 0
    for l in product(*ranges):
        value = get(l)
        total += fill(level, l) if value is None else value
    return total


def box_sum(tables, count, level, box):
    """Sum of the level-``level`` count over product(*box): at level 1,
    where every count is 1, the product of the range lengths; at level 2,
    where the count is affine in its row, the box size times the mean of the
    counts at two opposite corners; above, ``table_sum`` over
    ``tables[level]``, with ``count(level, v)`` filling a missing entry."""
    if level == 1:
        return prod(map(len, box))
    if level == 2:
        x, y = box
        return (len(x) * len(y)
                * (count(2, (x[0], y[0])) + count(2, (x[-1], y[-1]))) // 2)
    return table_sum(tables[level], count, level, box)


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


# --- level fills -----------------------------------------------------------

# The fewest points a fill is built for; below it the fill's fixed cost per
# level outweighs the memoized step (the refined routes add one or a few
# points per call).
FILL_MIN_POINTS = 16
# The most cells, summed over the reached boxes of every level, that one
# fill may build; a wider reach keeps the memoized step.
FILL_BUDGET = 250_000


def fill(points, top, slots):
    """Fill levels 2..``top`` of a family over the boxes that the bounding
    box of the level-``top`` ``points`` reaches, bottom-up from the all-ones
    level 1, yielding (level, box, values) with the values row-major over
    the box.

    ``slots(level)`` gives the level's row choices as a tuple of choices,
    each one slot form ((a, s), (b, t)) per coordinate c of level - 1: at a
    level point x, coordinate c of the level below ranges over
    slot(x_a + s, x_b + t).  From these forms the fill derives the box of
    the level below that a box reaches (``_reach``) and the level's stencil
    (``_stencil``).  It yields nothing, leaving the points to the memoized
    step, unless they are at least FILL_MIN_POINTS distinct vectors of
    length top making up at least half of their bounding box, and the
    reached boxes hold at most FILL_BUDGET cells; with top = 1 there is no
    level to fill.
    """
    distinct = set(points)
    if (len(distinct) < FILL_MIN_POINTS
            or any(len(k) != top for k in distinct)):
        return
    boxes = [[range(min(column), max(column) + 1)
              for column in zip(*distinct)]]
    if 2 * len(distinct) < prod(map(len, boxes[0])):
        return
    choices = {level: slots(level) for level in range(2, top + 1)}
    for level in range(top, 1, -1):
        boxes.append(_reach(choices[level], boxes[-1]))
    if sum(prod(map(len, box)) for box in boxes) > FILL_BUDGET:
        return
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
        yield level, box, values
        if level < top:
            prefix = prefix_table(values, list(map(len, box)))


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


@lru_cache(maxsize=None)
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
