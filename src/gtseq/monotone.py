"""Monotone triangles, their signed extensions, and refined counts.

alpha(n, k) is the number of monotone triangles (triangular arrays with
strictly increasing rows, weakly interlaced) with bottom row k when k is
strictly increasing, extended as a polynomial to every k in Z^n.  The
extension is computed from the first-extension decomposition: each entry of
the next row up is either pinned to its left parent or ranges over the
generalized interval

    interval(v_q + 1, v_{q+1} - [position q+1 pinned]),

with the interval sign standing in for the extended summation convention.

``alpha`` takes that recursion one point at a time, memoized in
``_alpha_memo``.  ``alpha_function(n)``, the lattice function the operator
routes and properties apply operators to, sweeps points through
``intervals.sweep``, which fills that memo a box at a time when that beats
the memoized step.  Both read the one statement of the star rule,
``_alpha_slots``: per row length m, the 2^(m-1) star choices as slot forms.
Their 4^(m-1) corner products cancel down to 2, 6, 16, 44 and 120 terms for
rows of length 2..6; the fill's cap on those products stops it at n = 6.
Above it, for the points the fill leaves, and for ``alpha`` itself (and so
``count alpha``), the memoized step runs.

Four object-level extensions realize the same polynomial as signed
enumerations.  Variant 1 uses the left pins above, so its count is alpha.
Variant 2 allows left and right pins with an exclusion rule.  Variant 3
marks interior entries whose two upper neighbours ("parents") collapse onto
them.  Variant 4 assigns an arrow to every entry; the arrows of a row
tighten the intervals of the row above it.

Each variant has one row generator, ``_rows_1`` to ``_rows_4``, in the
protocol of ``intervals``.  Variant 1's is ``intervals.form_rows`` over
``_alpha_slots``, decorated with its star sets (``_alpha_marks``).
Variants 2 to 4 are object models held to alpha, their slots built once
per row; variant 4, like variant 1, yields only choices that hold objects.
The object stream (``enumerate_extension``) is ``intervals.row_walk`` over
the generator, with the decorations turned into the triangle's marks; the
memoized count (``alpha`` and ``extension_signed_count``) is
``intervals.row_count`` over it, in the variant's memo table.  The relaxed
variant 3 is ``_rows_3`` over all subsets of specials, counted through a
table local to the call.

The stream-against-count check therefore tests the walk, not the rows.
The independent routes share nothing with the generators: the monotone
triangle enumeration, ``strict_row_patterns``, the operator products, and
the tests' per-member recursion on ``intervals.interval``, which stays the
reference convention.

The refined counts A(n, i) and their doubly refined companions come out of
alpha by difference operators in the first and last coordinates, evaluated
at fixed short points, and are cross-checked against direct enumeration.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product
from operator import add, getitem

from .intervals import bottom_row, form_rows, row_count, row_walk, slot, sweep
from .operators import (LatticeFunction, apply_at, apply_operator, delta,
                        elementary_symmetric, identity, shift, small_delta,
                        v_operator)
from .operators import product_formula, falling_binomial
from .patterns import swap_shift

LEFT, RIGHT, BOTH = "<-", "->", "<->"
ARROWS = (LEFT, RIGHT, BOTH)

_alpha_memo = {}


def alpha(n, k):
    """Polynomial extension of the monotone triangle count, exact on Z^n."""
    return row_count(_rows_1, [_alpha_memo] * (n + 1), n, bottom_row(n, k))


def alpha_function(n):
    """alpha(n, .) as a lattice function swept by ``intervals.sweep`` over
    ``_alpha_memo``, one table for every row length."""
    return LatticeFunction(n, lambda k: alpha(n, k), sweep=partial(
        sweep, _alpha_slots, [_alpha_memo] * (n + 1), n,
        count=partial(alpha, n)))


@lru_cache(maxsize=None)
def _alpha_marks(m):
    """The star sets of the row above a row of length m, by number of stars
    and then lexicographically, each as the decoration (m - 1, stars)."""
    return tuple((m - 1, stars) for stars in _subsets(range(1, m)))


@lru_cache(maxsize=None)
def _alpha_slots(m):
    """The star rule, stated once: the choices above a row of length m, one
    per star set of ``_alpha_marks(m)`` and in its order.  Entry q of the
    row above is pinned to v_q when starred, ranges over
    [v_q + 1, v_{q+1} - 1] (tight) when entry q + 1 is starred, and over
    [v_q + 1, v_{q+1}] (free) otherwise."""
    forms = [(((q, 0), (q, 0)), ((q, 1), (q + 1, -1)), ((q, 1), (q + 1, 0)))
             for q in range(1, m)]
    return tuple(tuple(pin if q in stars else tight if q + 1 in stars else free
                       for q, (pin, tight, free) in enumerate(forms, 1))
                 for _, stars in _alpha_marks(m))


def enumerate_monotone_triangles(k):
    """All monotone triangles with strictly increasing bottom row k.

    Rows are returned top first.  Every row is strictly increasing and
    weakly interlaces the row below it.
    """
    k = bottom_row(len(k), k)
    if any(a >= b for a, b in zip(k, k[1:])):
        raise ValueError("bottom row must be strictly increasing")
    out = []

    def up(stack):
        v = stack[-1]
        if len(v) == 1:
            out.append(tuple(reversed(stack)))
            return
        choices = [range(v[q], v[q + 1] + 1) for q in range(len(v) - 1)]
        for u in product(*choices):
            if all(a < b for a, b in zip(u, u[1:])):
                up(stack + [u])

    up([k])
    out.sort()
    return out


_strict_memo = {}


def strict_row_patterns(n, k):
    """Patterns with weakly increasing bottom row k and strict rows above.

    Counts Gelfand-Tsetlin patterns (weak interlacing) whose rows 1..n-1
    are strictly increasing; agrees with alpha on weakly increasing k.
    """
    k = bottom_row(n, k)
    if any(a > b for a, b in zip(k, k[1:])):
        raise ValueError("bottom row must be weakly increasing")

    def count(v):
        if len(v) == 1:
            return 1
        try:
            return _strict_memo[v]
        except KeyError:
            pass
        total = 0
        choices = [range(v[q], v[q + 1] + 1) for q in range(len(v) - 1)]
        for u in product(*choices):
            if all(a < b for a, b in zip(u, u[1:])):
                total += count(u)
        _strict_memo[v] = total
        return total

    return count(k)


# --- the four signed extensions ------------------------------------------


@dataclass(frozen=True)
class ExtTriangle:
    variant: int
    rows: tuple              # top row first; rows[i-1] has length i
    decorations: tuple       # variant 1/3: positions; 2: (left, right); 4: arrow rows
    inversions: tuple
    sign: int

    def to_json(self):
        if self.variant == 1:
            dec = {"stars": [list(p) for p in self.decorations]}
        elif self.variant == 2:
            dec = {"leftStars": [list(p) for p in self.decorations[0]],
                   "rightStars": [list(p) for p in self.decorations[1]]}
        elif self.variant == 3:
            dec = {"specials": [list(p) for p in self.decorations]}
        else:
            dec = {"arrows": [list(r) for r in self.decorations]}
        return {"variant": self.variant,
                "rows": [list(r) for r in self.rows],
                "decorations": dec,
                "inversions": [list(p) for p in self.inversions],
                "sign": self.sign}


# The decoration of a row choice is (r, marks...), one tuple of positions
# in row r per kind of mark; variant 4 gives (m, arrows) instead.


def _rows_1(v):
    """Variant 1, the rows of alpha: the inhabited star choices of
    ``_alpha_slots``, decorated with their star sets.  An empty free slot
    leaves the tight one, [v_q + 1, v_q - 1], inverted and inhabited."""
    return form_rows(_alpha_slots, v, _alpha_marks)


def _rows_2(v):
    """Variant 2: entry q of the row above is pinned to its left parent
    v_{q-1} or to its right parent v_q, or ranges over [v_{q-1} + 1, v_q - 1];
    a right pin directly left of a left pin is forbidden."""
    m = len(v)
    slots = [{"plain": slot(v[q - 1] + 1, v[q] - 1),
              "left": ((v[q - 1],), False), "right": ((v[q],), False)}
             for q in range(1, m)]
    for states in product(("plain", "left", "right"), repeat=m - 1):
        if ("right", "left") in zip(states, states[1:]):
            continue
        lefts = tuple(q for q, s in enumerate(states, 1) if s == "left")
        rights = tuple(q for q, s in enumerate(states, 1) if s == "right")
        yield (m - 1, lefts, rights), 1, list(map(getitem, slots, states))


def _subsets(positions):
    """Every subset of positions, by size, each in increasing order."""
    for size in range(len(positions) + 1):
        yield from combinations(positions, size)


def _nonadjacent_subsets(positions):
    return (sub for sub in _subsets(positions)
            if all(b - a > 1 for a, b in zip(sub, sub[1:])))


def _rows_3(v, subsets=_nonadjacent_subsets):
    """Variant 3: a special at interior position j of v pins entries j-1 and
    j of the row above to v_{j-1} and flips the sign; every other entry q
    ranges over [v_{q-1}, v_q].  Specials are non-adjacent unless subsets
    yields all subsets (the relaxed variant); two adjacent specials both pin
    the entry they share, so they need v_{j-1} = v_j."""
    m = len(v)
    free = [None] + [slot(v[q - 1], v[q]) for q in range(1, m)]
    for chosen in subsets(range(2, m)):
        if any(v[j - 1] != v[j] for j in chosen if j + 1 in chosen):
            continue
        pins = {}
        for j in chosen:
            pins[j - 1] = pins[j] = ((v[j - 1],), False)
        yield (m, chosen), (-1) ** len(chosen), [pins.get(q, free[q])
                                                 for q in range(1, m)]


def _rows_4(v):
    """Variant 4: every entry of v carries an arrow, and each BOTH flips the
    sign; entry q of the row above ranges over [v_{q-1}, v_q], raised by one
    when v_{q-1} points right (RIGHT or BOTH) and lowered by one when v_q
    points left (LEFT or BOTH)."""
    m = len(v)
    # slots[q][raised][lowered], indexed by the two arrows as booleans
    slots = [None] + [[[slot(v[q - 1] + raised, v[q] - lowered)
                        for lowered in (0, 1)] for raised in (0, 1)]
                      for q in range(1, m)]
    # (arrows, slots) grown left to right in product order; an arrow that
    # empties the slot between it and its left neighbour is dropped at once
    choices = [((arrow,), []) for arrow in ARROWS]
    for q in range(1, m):
        table = slots[q]
        choices = [(arrows + (arrow,), picked + [own])
                   for arrows, picked in choices for arrow in ARROWS
                   if (own := table[arrows[-1] != LEFT][arrow != RIGHT])
                   is not None]
    for arrows, picked in choices:
        yield (m, arrows), (-1) ** arrows.count(BOTH), picked


def _rows_of(variant):
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1, 2, 3 or 4")
    return (_rows_1, _rows_2, _rows_3, _rows_4)[variant - 1]


def _check_bounds(rows, k, n):
    lo, hi = min(k) - n, max(k) + n
    for row in rows:
        for e in row:
            if not lo < e < hi:
                raise AssertionError("extension entry %d escaped (%d, %d)"
                                     % (e, lo, hi))


def enumerate_extension(variant, n, k):
    """Stream the extension objects of one variant with bottom row k.

    The arguments are checked by the call; the objects come lazily.
    """
    k = bottom_row(n, k)
    return _triangles(variant, row_walk(_rows_of(variant), k), k)


def _triangles(variant, walk, k):
    """The ExtTriangle of each walked object, its decorations turned into
    marks: variant 4 keeps one arrow row per row, the others collect the
    (row, position) marks of each kind."""
    for rows, decorations, inversions, sign in walk:
        if variant == 4:
            marks = tuple([arrows for _, arrows in decorations])
        else:
            marks = tuple([tuple([(d[0], q) for d in decorations
                                  for q in d[kind]])
                           for kind in range(1, len(decorations[0]))])
            if variant != 2:
                marks = marks[0]
        _check_bounds(rows, k, len(k))
        yield ExtTriangle(variant, rows, marks, inversions, sign)


_ext_memos = {1: _alpha_memo, 2: {}, 3: {}, 4: {}}


def extension_signed_count(variant, n, k):
    """Signed total of one extension, read from the same row generator as
    its stream: the count of each row above is summed over the row's box
    through the variant's memo table.  Variant 1 is alpha."""
    return row_count(_rows_of(variant), [_ext_memos[variant]] * (n + 1), n,
                     bottom_row(n, k))


def extension_three_relaxed(n, k):
    """Variant 3 with adjacent specials permitted (same signed total); its
    box sums go through a table local to the call."""
    return row_count(partial(_rows_3, subsets=_subsets), [{}] * (n + 1), n,
                     bottom_row(n, k))


@lru_cache(maxsize=8)
def _three_term_product(n):
    """prod_{p<q} (E_p + E_q^{-1} - E_p E_q^{-1}), built from shifts."""
    op = identity(n)
    for p, q in combinations(range(n), 2):
        op = op * (shift(n, p) + shift(n, q, -1)
                   - shift(n, p) * shift(n, q, -1))
    return op


@lru_cache(maxsize=8)
def _delta_delta_product(n):
    """prod_{p<q} (id + Delta_p delta_q), built from differences."""
    op = identity(n)
    for p, q in combinations(range(n), 2):
        op = op * (identity(n) + delta(n, p) * small_delta(n, q))
    return op


PAIR_PRODUCTS = {"threeTerm": _three_term_product,
                 "deltaDelta": _delta_delta_product}


def alpha_operator(n, form="deltaDelta"):
    """The pairwise operator product of one form, built once per n.

    Each form has its own builder and neither is derived from the other, so
    the two routes stay independent; both normalize to the same expression.
    """
    try:
        build = PAIR_PRODUCTS[form]
    except KeyError:
        raise ValueError("form must be threeTerm or deltaDelta") from None
    return build(n)


def alpha_via_operator(n, k, form="deltaDelta"):
    """Apply the pairwise operator product to the product formula at k.

    form "threeTerm" builds E_p + E_q^{-1} - E_p E_q^{-1} per pair p < q,
    form "deltaDelta" builds id + Delta_p delta_q; the two normalize to the
    same expression.
    """
    return apply_operator(alpha_operator(n, form),
                          LatticeFunction(n, product_formula),
                          bottom_row(n, k))


# --- refined counts --------------------------------------------------------


@dataclass(frozen=True)
class RefinedCounts:
    n: int
    vector: tuple
    matrix: tuple = None


def _vector_point_first(n):
    return (1,) + tuple(range(1, n))


def _vector_point_last(n):
    return tuple(range(1, n)) + (n - 1,) if n > 1 else (1,)


def _matrix_point(n):
    return (2,) + tuple(range(2, n)) + (n - 1,)


def refined_via_first(n, i):
    """(-1)^(i-1) Delta^(i-1) in the first coordinate, at the short point."""
    f = alpha_function(n)
    op = delta(n, 0) ** (i - 1)
    return (-1) ** (i - 1) * apply_operator(op, f, _vector_point_first(n))


def refined_via_last(n, i):
    """delta^(i-1) in the last coordinate at its short point."""
    f = alpha_function(n)
    op = small_delta(n, n - 1) ** (i - 1)
    return apply_operator(op, f, _vector_point_last(n))


def refined_direct(n):
    """Counts of monotone triangles over 1..n by the rows that start with 1:
    the row sums of ``doubly_refined_direct``."""
    return tuple(map(sum, doubly_refined_direct(n)))


def refined_asm(n):
    """The vector A(n, i), computed three ways and cross-asserted."""
    direct = refined_direct(n)
    via_first = tuple(refined_via_first(n, i) for i in range(1, n + 1))
    via_last = tuple(refined_via_last(n, i) for i in range(1, n + 1))
    if not (direct == via_first == via_last):
        raise AssertionError("refined count routes disagree: %r %r %r"
                             % (direct, via_first, via_last))
    return RefinedCounts(n, direct)


def doubly_refined_entry(n, i, j):
    """Operator route for the doubly refined count, any i, j >= 1."""
    if n == 1:
        return 1 if i == j == 1 else 0
    f = alpha_function(n)
    op = (delta(n, 0) ** (i - 1)) * (small_delta(n, n - 1) ** (j - 1))
    return (-1) ** (i - 1) * apply_operator(op, f, _matrix_point(n))


def doubly_refined_direct(n):
    """Counts of monotone triangles over 1..n by the rows that start with 1
    (row index) and the rows that end with n (column index)."""
    mat = [[0] * n for _ in range(n)]
    for tri in enumerate_monotone_triangles(tuple(range(1, n + 1))):
        mat[sum(row[0] == 1 for row in tri) - 1][
            sum(row[-1] == n for row in tri) - 1] += 1
    return tuple(tuple(r) for r in mat)


def doubly_refined_asm(n):
    """The matrix part, operator route cross-checked against enumeration."""
    direct = doubly_refined_direct(n)
    via_op = tuple(tuple(doubly_refined_entry(n, i, j)
                         for j in range(1, n + 1))
                   for i in range(1, n + 1))
    if direct != via_op:
        raise AssertionError("doubly refined routes disagree: %r %r"
                             % (direct, via_op))
    vector = tuple(sum(row) for row in direct)
    return RefinedCounts(n, vector, direct)


def linear_system_residuals(n, vector=None):
    """Residuals of A(n,i) = sum_k binom(2n-1-i, k-i) (-1)^(k+n) A(n,k).

    ``vector`` is A(n, .) when the caller already has it; by default it is
    computed by ``refined_asm``.
    """
    vec = refined_asm(n).vector if vector is None else vector
    out = []
    for i in range(1, n + 1):
        rhs = sum(falling_binomial(2 * n - 1 - i, kk - i) * (-1) ** (kk + n)
                  * vec[kk - 1] for kk in range(1, n + 1))
        out.append(vec[i - 1] - rhs)
    return out


def doubly_refined_identity_residuals(n):
    """Residuals of the two-index difference identity on the extended matrix.

    The statement compares the step from (i, j) to (i+1, j+1) with a double
    binomial sum over the transposed-and-shifted entries; entries beyond n
    vanish but are still computed through the operator route.  The identity
    only makes sense for i, j <= 2n-3 (the binomial expansion of the shift
    needs a nonnegative exponent), which caps the index range.
    """
    top = 2 * n - 2
    table = {}
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            table[(i, j)] = doubly_refined_entry(n, i, j)

    def A(i, j):
        return table.get((i, j), 0)

    out = []
    for i in range(1, top):
        for j in range(1, top):
            lhs = A(i + 1, j + 1) - A(i, j)
            rhs = 0
            for p in range(0, 2 * n - 2 - i):
                for q in range(0, 2 * n - 2 - j):
                    rhs += (falling_binomial(2 * n - 3 - i, p)
                            * falling_binomial(2 * n - 3 - j, q)
                            * (-1) ** (i + j + p + q)
                            * (A(q + j, p + i) - A(q + j + 1, p + i + 1)))
            out.append(((i, j), lhs - rhs))
    return out


# --- the four listed properties -------------------------------------------


def property_one_residual(n, k, i):
    """(id + E_{k_{i+1}} E^{-1}_{k_i} S) V_{k_i, k_{i+1}} alpha at k (0 if true)."""
    return _residual_at("P1", n, k, i, n - 1)


def property_two_residual(n, k, i):
    return _residual_at("P2", n, k, i, n)


def property_three_residual(n, k):
    k = tuple(k)
    rotated = k[1:] + (k[0] - n,)
    return alpha(n, k) - (-1) ** (n - 1) * alpha(n, rotated)


def property_four_residual(n, k, p):
    return _residual_at("P4", n, k, p, n)


def _residual_at(prop, n, k, index, top):
    """The residual of prop at k for index 1..top, the one-point case."""
    if not 1 <= index <= top:
        raise ValueError("index must be in 1..%d" % top)
    return _property_residuals(prop, n, [tuple(k)])[0][index - 1]


def _property_residuals(prop, n, grid):
    """The residual list of one property at each point of grid, in order.

    Each operator is built once for n and applied to the whole grid through
    one shared alpha lattice function; the property_*_residual functions
    are the one-point case.
    """
    if prop == "P3":
        return [[property_three_residual(n, k)] for k in grid]
    f = alpha_function(n)
    if prop == "P1":
        columns = []
        for i in range(1, n):
            # v at every k, then v at every swapped k, in one sweep
            both = apply_at(v_operator(n, i - 1, i), f,
                            grid + [swap_shift(k, i, i + 1) for k in grid])
            columns.append(list(map(add, both[:len(grid)], both[len(grid):])))
    elif prop == "P2":
        columns = [apply_at(delta(n, c) ** n, f, grid) for c in range(n)]
    elif prop == "P4":
        differences = [delta(n, c) for c in range(n)]
        columns = [apply_at(elementary_symmetric(p, differences), f, grid)
                   for p in range(1, n + 1)]
    else:
        raise ValueError("unknown property %r" % prop)
    return [[column[i] for column in columns] for i in range(len(grid))]


def check_alpha_property(prop, n, grid):
    """Evaluate one property P1-P4 over a grid of n-tuples; residuals must
    vanish.  Returns a JSON-ready report."""
    grid = [tuple(k) for k in grid]
    violations = [{"point": list(k), "residual": bad}
                  for k, bad in zip(grid, _property_residuals(prop, n, grid))
                  if any(r != 0 for r in bad)]
    return {"property": prop, "n": n, "pointsChecked": len(grid),
            "violations": violations}
