"""Integer intervals with orientation.

``interval(x, y)`` is the usual closed interval {x, ..., y} when x <= y.
Descending bounds do not simply empty it: [x, x-1] is empty, and for
y <= x - 2 the symbol [x, y] stands for the interval [y+1, x-1] carrying a
flipped orientation (an "inversion", sign -1).  This is the set-level twin of
the summation convention

    sum_{i=a}^{a-1} f(i) = 0,
    sum_{i=a}^{b} f(i) = -sum_{i=b+1}^{a-1} f(i)   for b + 1 <= a - 1,

and it is what makes telescoping identities hold for all integer bounds.

The counting recursions sum a memoized count over a box of such intervals,
one per slot of a row; ``table_sum`` is that box sum over a memo table.
"""

from dataclasses import dataclass
from itertools import product


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
