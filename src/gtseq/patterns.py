"""Triangular integer patterns with interval constraints.

A pattern of order n is a triangular array a_{i,j}, 1 <= j <= i <= n.  Every
entry must lie in the generalized interval spanned by its two neighbours in
the row below:

    a_{i,j} in interval(a_{i+1,j}, a_{i+1,j+1}).

When the interval is normal this is the usual betweenness condition in a
Gelfand-Tsetlin pattern; when it is inverted the entry sits strictly between
the parents in reversed order and counts as an inversion.  When some parent
pair differs by exactly one the interval is empty and no pattern exists with
that row.  The sign of a pattern is (-1)^{#inversions} and the signed count
over a fixed bottom row equals the same product formula that counts labeling
chains of tree sequences; the two pictures match row for row over the path
trees (see pattern_to_chain).  ``_pattern_slots`` states the interval rule
once, as the slot form ((q, 0), (q + 1, 0)) of entry q above a row, and
the rows ``_rows`` are ``intervals.form_rows`` over it:
``enumerate_patterns`` walks them (``intervals.row_walk``) and
``signed_pattern_count`` counts through them (``intervals.row_count``).
``intervals.interval`` stays the reference convention, used by
``validate_pattern`` and by the per-member recursion the tests hold the
count to.

Classic patterns (all intervals normal, nonnegative weakly increasing bottom
row) biject with semistandard tableaux: entry a_{i,j} is the number of cells
with value at most i in tableau row i + 1 - j.
"""

from dataclasses import dataclass
from functools import lru_cache

from .intervals import bottom_row, form_rows, interval, row_count, row_walk


@dataclass(frozen=True)
class Pattern:
    rows: tuple              # rows[i-1] is row i (length i), rows[-1] is the bottom
    inversions: tuple        # sorted (i, j) entry positions drawn from inverted intervals
    sign: int

    @property
    def order(self):
        return len(self.rows)

    def to_json(self):
        return {"rows": [list(r) for r in self.rows],
                "inversions": [list(p) for p in self.inversions],
                "sign": self.sign}


def validate_pattern(rows):
    """Check the interval constraints; return the inversion positions.

    Raises ValueError when a row has the wrong length or an entry escapes
    its interval.
    """
    rows = tuple(tuple(r) for r in rows)
    n = len(rows)
    for i, row in enumerate(rows, start=1):
        if len(row) != i:
            raise ValueError("row %d must have length %d" % (i, i))
    inv = []
    for i in range(1, n):
        parent = rows[i]               # row i+1
        for j, entry in enumerate(rows[i - 1], start=1):
            iv = interval(parent[j - 1], parent[j])
            if entry not in iv:
                raise ValueError("entry (%d,%d)=%d outside %s"
                                 % (i, j, entry, (iv.lower, iv.upper)))
            if iv.inverted:
                inv.append((i, j))
    return tuple(sorted(inv))


def make_pattern(rows):
    rows = tuple(tuple(r) for r in rows)
    inv = validate_pattern(rows)
    return Pattern(rows, inv, (-1) ** len(inv))


@lru_cache(maxsize=None)
def _pattern_slots(m):
    """The interval rule, stated once: the one choice above a row of length
    m, entry q over slot(v_q, v_{q+1})."""
    return (tuple(((q, 0), (q + 1, 0)) for q in range(1, m)),)


def _rows(v):
    """The one choice of the row above v, from ``_pattern_slots``."""
    return form_rows(_pattern_slots, v)


def enumerate_patterns(k):
    """All patterns with bottom row k, sorted by rows read top to bottom."""
    k = tuple(k)
    walk = row_walk(_rows, bottom_row(len(k), k))
    return sorted((Pattern(rows, inversions, sign)
                   for rows, _, inversions, sign in walk),
                  key=lambda p: p.rows)


_count_memo = {}


def signed_pattern_count(k):
    """Signed number of patterns with bottom row k, by a memoized recursion."""
    k = tuple(k)
    n = len(k)
    return row_count(_rows, [_count_memo] * (n + 1), n, bottom_row(n, k))


def pattern_to_chain(pattern):
    """The labeling chain over path trees with the same rows and sign.

    Over the path tree with edges (j, j+1) the admissible values of edge j
    are exactly the members of interval(row[j-1], row[j]) of the vertex row,
    and edge inversions coincide with inverted intervals, so the chain is the
    pattern read row by row.
    """
    from .labelings import GTTreeSequence
    from .trees import basic_sequence
    rows = pattern.rows
    seq = basic_sequence(len(rows))
    # a chain tags an inversion by the level of its tree, one above the row
    inversions = tuple((i + 1, j) for i, j in pattern.inversions)
    return seq, GTTreeSequence(rows, inversions, pattern.sign)


def chain_to_pattern(chain):
    """Inverse of pattern_to_chain (levels of a path-tree chain are rows)."""
    return make_pattern(chain.levels)


def is_classic(pattern):
    """True when all entries are nonnegative and no interval is inverted."""
    if pattern.inversions:
        return False
    return all(e >= 0 for row in pattern.rows for e in row)


def pattern_to_tableau(pattern):
    """Semistandard tableau rows for a classic pattern.

    Row r of the tableau collects, for each value i, a_{i, i+1-r} minus
    a_{i-1, i-r} copies of i (prefix counts of entries at most i).
    """
    if not is_classic(pattern):
        raise ValueError("only classic patterns correspond to tableaux")
    rows = pattern.rows
    n = len(rows)

    def prefix(i, r):
        j = i + 1 - r
        if i < 1 or j < 1:
            return 0
        return rows[i - 1][j - 1]

    tableau = []
    for r in range(1, n + 1):
        row = []
        for i in range(r, n + 1):
            row.extend([i] * (prefix(i, r) - prefix(i - 1, r)))
        if row:
            tableau.append(tuple(row))
    return tuple(tableau)


def tableau_to_pattern(tableau, n):
    """Pattern of order n from semistandard tableau rows with entries <= n."""
    tableau = [tuple(r) for r in tableau]
    if len(tableau) > n:
        raise ValueError("tableau has more than n rows")
    for r, row in enumerate(tableau):
        if any(v < 1 or v > n for v in row):
            raise ValueError("entries must lie in 1..n")
        if any(a > b for a, b in zip(row, row[1:])):
            raise ValueError("tableau rows must weakly increase")
        if r and len(row) > len(tableau[r - 1]):
            raise ValueError("row lengths must weakly decrease")
        if r:
            above = tableau[r - 1]
            if any(row[c] <= above[c] for c in range(len(row))):
                raise ValueError("columns must strictly increase")

    def count_leq(r, i):
        if r > len(tableau):
            return 0
        row = tableau[r - 1]
        return sum(1 for v in row if v <= i)

    rows = []
    for i in range(1, n + 1):
        rows.append(tuple(count_leq(i + 1 - j, i) for j in range(1, i + 1)))
    return make_pattern(rows)


def swap_shift(k, i, j):
    """Replace (k_i, k_j) by (k_j + j - i, k_i + i - j), for i, j in
    1..len(k)."""
    k = list(k)
    if not 0 < i <= len(k) >= j > 0:
        raise ValueError("swap index out of range 1..%d" % len(k))
    ki, kj = k[i - 1], k[j - 1]
    k[i - 1] = kj + j - i
    k[j - 1] = ki + i - j
    return tuple(k)


def shift_decomposition_counts(k, i):
    """Split the signed pattern count at an adjacent shifted swap.

    Patterns with bottom row k are classified by what happens to row n-1
    when the bottom is replaced by swap_shift(k, i, i+1): the entry at
    position i keeps a valid (inversion-flipped) interval, while entries at
    positions i-1 and i+1 may escape theirs.  Returns a dict keyed by
    (escaped_left, escaped_right) booleans mapping to signed subtotals.
    """
    k = tuple(k)
    n = len(k)
    if not 1 <= i <= n - 1:
        raise ValueError("need 1 <= i <= n-1")
    kp = swap_shift(k, i, i + 1)
    counts = {(False, False): 0, (True, False): 0,
              (False, True): 0, (True, True): 0}
    for pat in enumerate_patterns(k):
        row = pat.rows[n - 2]
        left = right = False
        if i - 1 >= 1:
            left = row[i - 2] not in interval(kp[i - 2], kp[i - 1])
        if i + 1 <= n - 1:
            right = row[i] not in interval(kp[i], kp[i + 1])
        counts[(left, right)] += pat.sign
    return counts
