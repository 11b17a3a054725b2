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
count of each box through ``table_sum``, so a check of the stream
against the count tests the walk, not the rows; ``interval`` stays the
reference the rows are held to.
"""

from dataclasses import dataclass
from functools import partial
from itertools import product
from math import prod


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


def row_count(rows, table, n, v):
    """Signed total above row v of length n, memoized in table.

    Each choice from rows(v) without an empty slot adds its sign, flipped
    once per inverted slot, times the sum of the level n-1 count over the
    members of its slots, read from the table (``table_sum``), which calls
    back here only for missing entries.  Above a row of length 2 every entry
    counts 1, so that box sum is the product of the range lengths.
    """
    if n == 1:
        return 1
    try:
        return table[v]
    except KeyError:
        pass
    fill = partial(row_count, rows, table)
    total = 0
    for _, sign, slots in rows(v):
        if None in slots:
            continue
        box, inverted = zip(*slots)
        if inverted.count(True) % 2:
            sign = -sign
        if n == 2:
            total += sign * prod(map(len, box))
        else:
            total += sign * table_sum(table, fill, n - 1, box)
    table[v] = total
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
