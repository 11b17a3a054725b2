"""Monotone triangles, their signed extensions, and refined counts.

alpha(n, k) is the number of monotone triangles (triangular arrays with
strictly increasing rows, weakly interlaced) with bottom row k when k is
strictly increasing, extended as a polynomial to every k in Z^n.  The
extension is computed from the first-extension decomposition: each entry of
the next row up is either pinned to its left parent or ranges over the
generalized interval

    interval(v_q + 1, v_{q+1} - [position q+1 pinned]),

with the interval sign standing in for the extended summation convention.
The recursion computes each slot's interval inline, as a range and a sign,
and sums level n-1 over the slot box through the memo table
(``intervals.table_sum``), calling itself only for missing entries.
``intervals.interval`` stays the reference convention: the tests hold alpha
to a per-member recursion built on it.

Four object-level extensions realize the same polynomial as signed
enumerations.  Variant 1 uses the left pins above.  Variant 2 allows left
and right pins with an exclusion rule.  Variant 3 marks interior entries
whose two upper neighbours ("parents") collapse onto them.  Variant 4
assigns an arrow to every entry; the arrows of a row tighten the intervals
of the row above it.

The refined counts A(n, i) and their doubly refined companions come out of
alpha by difference operators in the first and last coordinates, evaluated
at fixed short points, and are cross-checked against direct enumeration.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import prod

from .intervals import interval, table_sum
from .operators import (apply_operator, delta, elementary_symmetric, identity,
                        lattice_function, shift, small_delta, v_operator)
from .operators import product_formula, falling_binomial
from .patterns import swap_shift

LEFT, RIGHT, BOTH = "<-", "->", "<->"
ARROWS = (LEFT, RIGHT, BOTH)

_alpha_memo = {}


def alpha(n, k):
    """Polynomial extension of the monotone triangle count, exact on Z^n."""
    k = tuple(k)
    if len(k) != n:
        raise ValueError("k must have length n")
    if n == 1:
        return 1
    try:
        return _alpha_memo[k]
    except KeyError:
        pass
    total = 0
    below = n - 1
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
                # interval(lo, hi), inline
                lo = k[q - 1] + 1
                hi = k[q] - (1 if q + 1 in pin else 0)
                if lo <= hi:
                    lists.append(range(lo, hi + 1))
                elif hi == lo - 1:
                    break
                else:
                    sign = -sign
                    lists.append(range(hi + 1, lo))
            else:
                if below == 1:
                    total += sign * prod(map(len, lists))
                else:
                    total += sign * table_sum(_alpha_memo, alpha, below, lists)
    _alpha_memo[k] = total
    return total


def alpha_function(n):
    return lattice_function(n, lambda k: alpha(n, k))


def enumerate_monotone_triangles(k):
    """All monotone triangles with strictly increasing bottom row k.

    Rows are returned top first.  Every row is strictly increasing and
    weakly interlaces the row below it.
    """
    k = tuple(k)
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
    k = tuple(k)
    if len(k) != n:
        raise ValueError("k must have length n")
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


def _check_bounds(rows, k, n):
    lo, hi = min(k) - n, max(k) + n
    for row in rows:
        for e in row:
            if not lo < e < hi:
                raise AssertionError("extension entry %d escaped (%d, %d)"
                                     % (e, lo, hi))


def enumerate_extension(variant, n, k):
    """Stream the extension objects of one variant with bottom row k."""
    k = tuple(k)
    if len(k) != n:
        raise ValueError("k must have length n")
    if variant == 1:
        gen = _stream_one(k)
    elif variant == 2:
        gen = _stream_two(k)
    elif variant == 3:
        gen = _stream_three(k)
    elif variant == 4:
        gen = _stream_four(k)
    else:
        raise ValueError("variant must be 1, 2, 3 or 4")
    for obj in gen:
        _check_bounds(obj.rows, k, n)
        yield obj


def _stream_one(k):
    # stack grows bottom row first; the star set decorates the row being added
    def up(stack, stars, invs):
        v = stack[-1]
        m = len(v)
        if m == 1:
            rows = tuple(reversed(stack))
            yield ExtTriangle(1, rows, tuple(sorted(stars)),
                              tuple(sorted(invs)), (-1) ** len(invs))
            return
        i = m - 1                       # index of the row being built
        for size in range(m):
            for pinned in combinations(range(1, m), size):
                pin = set(pinned)
                lists = []
                new_invs = []
                for q in range(1, m):
                    if q in pin:
                        lists.append((v[q - 1],))
                        continue
                    iv = interval(v[q - 1] + 1, v[q] - (1 if q + 1 in pin else 0))
                    if not iv.members:
                        lists = None
                        break
                    if iv.inverted:
                        new_invs.append((i, q))
                    lists.append(iv.members)
                if lists is None:
                    continue
                star_here = [(i, q) for q in pinned]
                for u in product(*lists):
                    yield from up(stack + [u], stars + star_here,
                                  invs + new_invs)

    yield from up([k], [], [])


def _stream_two(k):
    def up(stack, lefts, rights, invs):
        v = stack[-1]
        m = len(v)
        if m == 1:
            rows = tuple(reversed(stack))
            yield ExtTriangle(2, rows,
                              (tuple(sorted(lefts)), tuple(sorted(rights))),
                              tuple(sorted(invs)), (-1) ** len(invs))
            return
        i = m - 1
        positions = range(1, m)
        for states in product(("plain", "left", "right"), repeat=m - 1):
            # a right pin directly left of a left pin is forbidden
            if any(states[q] == "right" and states[q + 1] == "left"
                   for q in range(m - 2)):
                continue
            lists = []
            new_invs = []
            for q in positions:
                s = states[q - 1]
                if s == "left":
                    lists.append((v[q - 1],))
                elif s == "right":
                    lists.append((v[q],))
                else:
                    iv = interval(v[q - 1] + 1, v[q] - 1)
                    if not iv.members:
                        lists = None
                        break
                    if iv.inverted:
                        new_invs.append((i, q))
                    lists.append(iv.members)
            if lists is None:
                continue
            lf = [(i, q) for q in positions if states[q - 1] == "left"]
            rt = [(i, q) for q in positions if states[q - 1] == "right"]
            for u in product(*lists):
                yield from up(stack + [u], lefts + lf, rights + rt,
                              invs + new_invs)

    yield from up([k], [], [], [])


def _nonadjacent_subsets(positions):
    for size in range(len(positions) + 1):
        for sub in combinations(positions, size):
            if all(b - a > 1 for a, b in zip(sub, sub[1:])):
                yield sub


def _stream_three(k):
    # specials sit at interior positions of the current row and pin the two
    # entries above them to the same value
    def up(stack, specials, invs):
        v = stack[-1]
        m = len(v)
        if m == 1:
            rows = tuple(reversed(stack))
            sign = (-1) ** (len(invs) + len(specials))
            yield ExtTriangle(3, rows, tuple(sorted(specials)),
                              tuple(sorted(invs)), sign)
            return
        i = m - 1
        for chosen in _nonadjacent_subsets(tuple(range(2, m))):
            pinned = {}
            for j in chosen:
                pinned[j - 1] = v[j - 1]
                pinned[j] = v[j - 1]
            lists = []
            new_invs = []
            for q in range(1, m):
                if q in pinned:
                    lists.append((pinned[q],))
                    continue
                iv = interval(v[q - 1], v[q])
                if not iv.members:
                    lists = None
                    break
                if iv.inverted:
                    new_invs.append((i, q))
                lists.append(iv.members)
            if lists is None:
                continue
            row_specials = [(m, j) for j in chosen]
            for u in product(*lists):
                yield from up(stack + [u], specials + row_specials,
                              invs + new_invs)

    yield from up([k], [], [])


def _arrow_interval(v, arrows, q):
    """Interval for position q of the row above v (1-based), from v's arrows."""
    lo = v[q - 1] + (1 if arrows[q - 1] in (RIGHT, BOTH) else 0)
    hi = v[q] - (1 if arrows[q] in (LEFT, BOTH) else 0)
    return interval(lo, hi)


def _stream_four(k):
    def up(stack, arrow_stack, invs):
        v = stack[-1]
        f = arrow_stack[-1]
        m = len(v)
        if m == 1:
            rows = tuple(reversed(stack))
            arrows = tuple(reversed(arrow_stack))
            both = sum(row.count(BOTH) for row in arrows)
            sign = (-1) ** (len(invs) + both)
            yield ExtTriangle(4, rows, arrows, tuple(sorted(invs)), sign)
            return
        i = m - 1
        lists = []
        new_invs = []
        for q in range(1, m):
            iv = _arrow_interval(v, f, q)
            if not iv.members:
                lists = None
                break
            if iv.inverted:
                new_invs.append((i, q))
            lists.append(iv.members)
        if lists is None:
            return
        for u in product(*lists):
            for g in product(ARROWS, repeat=m - 1):
                yield from up(stack + [u], arrow_stack + [g], invs + new_invs)

    for f in product(ARROWS, repeat=len(k)):
        yield from up([k], [f], [])


_ext_memos = {1: _alpha_memo, 2: {}, 3: {}, 4: {}}


def extension_signed_count(variant, n, k):
    """Signed total of one extension, by a per-row memoized recursion."""
    k = tuple(k)
    if len(k) != n:
        raise ValueError("k must have length n")
    if variant == 1:
        return alpha(n, k)
    if variant == 2:
        return _count_two(k)
    if variant == 3:
        return _count_three(k)
    if variant == 4:
        return _count_four(k)
    raise ValueError("variant must be 1, 2, 3 or 4")


def _count_two(v):
    if len(v) == 1:
        return 1
    memo = _ext_memos[2]
    try:
        return memo[v]
    except KeyError:
        pass
    m = len(v)
    total = 0
    for states in product(("plain", "left", "right"), repeat=m - 1):
        if any(states[q] == "right" and states[q + 1] == "left"
               for q in range(m - 2)):
            continue
        sign = 1
        lists = []
        for q in range(1, m):
            s = states[q - 1]
            if s == "left":
                lists.append((v[q - 1],))
            elif s == "right":
                lists.append((v[q],))
            else:
                iv = interval(v[q - 1] + 1, v[q] - 1)
                if not iv.members:
                    lists = None
                    break
                sign *= iv.sign
                lists.append(iv.members)
        if lists is None:
            continue
        for u in product(*lists):
            total += sign * _count_two(u)
    memo[v] = total
    return total


def _count_three(v, allow_adjacent=False):
    if len(v) == 1:
        return 1
    memo = _ext_memos[3] if not allow_adjacent else None
    if memo is not None and v in memo:
        return memo[v]
    m = len(v)
    if allow_adjacent:
        subset_iter = (sub for size in range(m - 1)
                       for sub in combinations(range(2, m), size))
    else:
        subset_iter = _nonadjacent_subsets(tuple(range(2, m)))
    total = 0
    for chosen in subset_iter:
        pinned = {}
        clash = False
        for j in chosen:
            for q in (j - 1, j):
                if q in pinned and pinned[q] != v[j - 1]:
                    clash = True
                pinned[q] = v[j - 1]
        if clash:
            continue
        sign = (-1) ** len(chosen)
        lists = []
        for q in range(1, m):
            if q in pinned:
                lists.append((pinned[q],))
                continue
            iv = interval(v[q - 1], v[q])
            if not iv.members:
                lists = None
                break
            sign *= iv.sign
            lists.append(iv.members)
        if lists is None:
            continue
        for u in product(*lists):
            total += sign * _count_three(u, allow_adjacent)
    if memo is not None:
        memo[v] = total
    return total


def extension_three_relaxed(n, k):
    """Variant 3 with adjacent specials permitted (same signed total)."""
    k = tuple(k)
    if len(k) != n:
        raise ValueError("k must have length n")
    return _count_three(k, allow_adjacent=True)


def _count_four(v):
    if len(v) == 1:
        return 1
    memo = _ext_memos[4]
    try:
        return memo[v]
    except KeyError:
        pass
    m = len(v)
    total = 0
    for f in product(ARROWS, repeat=m):
        fsign = (-1) ** sum(1 for a in f if a == BOTH)
        sign = fsign
        lists = []
        for q in range(1, m):
            iv = _arrow_interval(v, f, q)
            if not iv.members:
                lists = None
                break
            sign *= iv.sign
            lists.append(iv.members)
        if lists is None:
            continue
        for u in product(*lists):
            total += sign * _count_four(u)
    memo[v] = total
    return total


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
    k = tuple(k)
    if len(k) != n:
        raise ValueError("k must have length n")
    return apply_operator(alpha_operator(n, form),
                          lattice_function(n, product_formula), k)


# --- refined counts --------------------------------------------------------


@dataclass(frozen=True)
class RefinedCounts:
    n: int
    vector: tuple
    matrix: tuple = None

    def to_json(self):
        data = {"n": self.n, "vector": list(self.vector)}
        if self.matrix is not None:
            data["matrix"] = [list(r) for r in self.matrix]
        return data


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


def _left_edge_ones(tri):
    return sum(1 for row in tri if row[0] == 1)


def _right_edge_tops(tri, n):
    return sum(1 for row in tri if row[-1] == n)


def refined_direct(n):
    """Counts of monotone triangles over 1..n by left-edge appearances of 1."""
    vec = [0] * n
    for tri in enumerate_monotone_triangles(tuple(range(1, n + 1))):
        vec[_left_edge_ones(tri) - 1] += 1
    return tuple(vec)


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
    mat = [[0] * n for _ in range(n)]
    for tri in enumerate_monotone_triangles(tuple(range(1, n + 1))):
        mat[_left_edge_ones(tri) - 1][_right_edge_tops(tri, n) - 1] += 1
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


def _binom(m, r):
    if r < 0:
        return 0
    return falling_binomial(m, r)


def linear_system_residuals(n):
    """Residuals of A(n,i) = sum_k binom(2n-1-i, k-i) (-1)^(k+n) A(n,k)."""
    vec = refined_asm(n).vector
    out = []
    for i in range(1, n + 1):
        rhs = sum(_binom(2 * n - 1 - i, kk - i) * (-1) ** (kk + n) * vec[kk - 1]
                  for kk in range(1, n + 1))
        out.append(vec[i - 1] - rhs)
    return out


def doubly_refined_identity_residuals(n, imax=None, jmax=None):
    """Residuals of the two-index difference identity on the extended matrix.

    The statement compares the step from (i, j) to (i+1, j+1) with a double
    binomial sum over the transposed-and-shifted entries; entries beyond n
    vanish but are still computed through the operator route.  The identity
    only makes sense for i, j <= 2n-3 (the binomial expansion of the shift
    needs a nonnegative exponent), which caps the default index range.
    """
    if imax is None:
        imax = 2 * n - 3
    if jmax is None:
        jmax = 2 * n - 3
    top = 2 * n - 2
    table = {}
    for i in range(1, max(top, imax + 1) + 1):
        for j in range(1, max(top, jmax + 1) + 1):
            table[(i, j)] = doubly_refined_entry(n, i, j)

    def A(i, j):
        return table.get((i, j), 0)

    out = []
    for i in range(1, imax + 1):
        for j in range(1, jmax + 1):
            lhs = A(i + 1, j + 1) - A(i, j)
            rhs = 0
            for p in range(0, 2 * n - 2 - i):
                for q in range(0, 2 * n - 2 - j):
                    rhs += (_binom(2 * n - 3 - i, p) * _binom(2 * n - 3 - j, q)
                            * (-1) ** (i + j + p + q)
                            * (A(q + j, p + i) - A(q + j + 1, p + i + 1)))
            out.append(((i, j), lhs - rhs))
    return out


# --- the four listed properties -------------------------------------------


def _swap_residual(v, f, k, i):
    """(id + E_{k_{i+1}} E^{-1}_{k_i} S) applied to v f at k."""
    return (apply_operator(v, f, k)
            + apply_operator(v, f, swap_shift(k, i, i + 1)))


def property_one_residual(n, k, i):
    """(id + E_{k_{i+1}} E^{-1}_{k_i} S) V_{k_i, k_{i+1}} alpha at k (0 if true)."""
    return _swap_residual(v_operator(n, i - 1, i), alpha_function(n), k, i)


def property_two_residual(n, k, i):
    return apply_operator(delta(n, i - 1) ** n, alpha_function(n), k)


def property_three_residual(n, k):
    k = tuple(k)
    rotated = k[1:] + (k[0] - n,)
    return alpha(n, k) - (-1) ** (n - 1) * alpha(n, rotated)


def property_four_residual(n, k, p):
    op = elementary_symmetric(p, [delta(n, c) for c in range(n)])
    return apply_operator(op, alpha_function(n), k)


def _property_residuals(prop, n):
    """k -> residual list of one property, its operators built once for n.

    The returned function shares one alpha lattice function over all points
    and gives the same residuals as the property_*_residual functions.
    """
    f = alpha_function(n)
    if prop == "P1":
        vs = [(i, v_operator(n, i - 1, i)) for i in range(1, n)]
        return lambda k: [_swap_residual(v, f, k, i) for i, v in vs]
    if prop == "P2":
        ops = [delta(n, c) ** n for c in range(n)]
    elif prop == "P3":
        return lambda k: [property_three_residual(n, k)]
    elif prop == "P4":
        differences = [delta(n, c) for c in range(n)]
        ops = [elementary_symmetric(p, differences) for p in range(1, n + 1)]
    else:
        raise ValueError("unknown property %r" % prop)
    return lambda k: [apply_operator(op, f, k) for op in ops]


def check_alpha_property(prop, n, grid):
    """Evaluate one property over a grid of points; residuals must vanish.

    grid is an iterable of n-tuples (ignored by the two refined-count
    properties, which have no free point).  Returns a JSON-ready report.
    """
    violations = []
    points = 0
    if prop == "linearSystem":
        points = 1
        res = linear_system_residuals(n)
        if any(r != 0 for r in res):
            violations.append({"point": None, "residual": res})
        vec = refined_asm(n).vector
        if vec != tuple(reversed(vec)):
            violations.append({"point": None, "residual": "asymmetric"})
    elif prop == "doublyRefinedIdentity":
        res = doubly_refined_identity_residuals(n)
        points = len(res)
        for where, r in res:
            if r != 0:
                violations.append({"point": list(where), "residual": r})
    else:
        residuals = _property_residuals(prop, n)
        for k in grid:
            k = tuple(k)
            points += 1
            bad = residuals(k)
            if any(r != 0 for r in bad):
                violations.append({"point": list(k), "residual": bad})
    return {"property": prop, "n": n, "pointsChecked": points,
            "violations": violations}
