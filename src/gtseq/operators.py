"""Exact arithmetic on integer lattice functions and shift operators.

Everything here is big-integer arithmetic; nothing is ever evaluated in
floating point.  The two evaluation targets are

* ``product_formula(k)``: the polynomial
  prod_{1<=i<j<=n} (k_j - k_i + j - i) / (j - i), always an integer,
* ``binomial_determinant(k)``: det[ binom(k_j + j - 1, i - 1) ] with the
  binomial extended polynomially to negative tops.

Both have a kernel over a whole cube of points.  ``column_determinants``
is Bareiss elimination taken column by column, so the combinations of
candidate columns that share a prefix share its elimination;
``binomial_determinants`` feeds it the binomial columns of a product of
ranges, and the single determinant is its one-choice case.

``OperatorExpression`` models Z-linear combinations of commuting coordinate
shifts E_{x_i}: f(..., x_i, ...) -> f(..., x_i + 1, ...).  Difference
operators are built on top:

    Delta_x = E_x - id        (written D in the mini-language)
    delta_x = id - E_x^{-1}   (written d)

An expression is built once and then evaluated at any number of points.
Construction normalizes the terms and freezes them: ``terms`` is a read-only
shift -> coefficient map and ``stencil`` the same pairs as a tuple.  An
operator too large to build raises ValueError at once: a product may
multiply out at most ``MAX_PRODUCT_PAIRS`` term pairs, and a truncated
inverse of V may not go past ``MAX_TRUNCATION``.
``apply_at`` evaluates one operator at a list of points: it numbers points
and shifts as integers in the box they span, asks f for the value at each
distinct point reached, and sums each stencil term over all points as
integer additions and table lookups, with no operator arithmetic and no
per-point Python loop.  When f has a ``sweep`` method, every reached point
goes to it in one list; otherwise f is called once per reached point.
``apply_operator`` is its one-point case.  Callers that sweep a grid build
each operator once per arity and apply it to the whole grid.

``LatticeFunction`` wraps an integer-valued function on Z^arity (the
product formula) with a memo table, so the operators applied to one
function over one grid compute each point once between them.  A counted
family (``patterns.PATTERN_FAMILY``, alpha's ``monotone.EXTENSIONS[1]``)
is handed to ``apply_at`` as itself: with one table per family and a
``sweep`` of its own, it sees the whole reach of an operator at once and
stores each value once.
"""

import re
from itertools import chain, repeat
from math import prod
from operator import add, mul
from types import MappingProxyType


def product_formula(k):
    """prod_{i<j} (k_j - k_i + j - i)/(j - i), evaluated exactly."""
    k = tuple(k)
    n = len(k)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= k[j] - k[i] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("product formula did not divide evenly for %r" % (k,))
    return q


def falling_binomial(m, r):
    """binom(m, r) as a polynomial in m: m(m-1)...(m-r+1)/r!.

    Defined for any integer m and r >= 0; negative m gives the usual
    (-1)^r binom(r - m - 1, r).
    """
    if r < 0:
        return 0
    num = 1
    for t in range(r):
        num *= m - t
    for t in range(2, r + 1):
        num //= t
    return num


def _binomial_column(m, n):
    """[binom(m, i)]_{i=0..n-1}, built by binom(m, i) = binom(m, i - 1)
    (m - i + 1) / i, an exact division."""
    column = [1]
    for i in range(1, n):
        column.append(column[-1] * (m - i + 1) // i)
    return column


def binomial_matrix(k):
    """[binom(k_j + j - 1, i - 1)]_{i,j=1..n}."""
    k = tuple(k)
    n = len(k)
    columns = [_binomial_column(kj + j, n) for j, kj in enumerate(k)]
    return [list(row) for row in zip(*columns)]


def column_determinants(choices):
    """The determinant of every matrix whose column j is one of
    ``choices[j]``, in ``itertools.product`` order.

    Fraction-free Bareiss elimination taken column by column: the steps that
    eliminate a prefix of columns (pivot, row swap, eliminated column) are
    found once and replayed on each candidate for the next column, so a
    combination costs O(n^2) on top of its prefix, not a fresh O(n^3).  A
    prefix whose last column has no pivot is singular, and every completion
    of it yields 0 without further work.  Exact for integer columns.
    """
    choices = [[list(column) for column in candidates]
               for candidates in choices]
    n = len(choices)
    if any(len(column) != n for candidates in choices for column in candidates):
        raise ValueError("every column must have one entry per position")
    steps = []   # (position, pivot row, pivot, column below it, previous pivot)

    def descend(j, sign, prev):
        for x in choices[j]:
            x = x[:]
            for c, r, pivot, below, before in steps:
                if r != c:
                    x[c], x[r] = x[r], x[c]
                xc = x[c]
                x[c + 1:] = [(xi * pivot - ei * xc) // before
                             for xi, ei in zip(x[c + 1:], below)]
            if j == n - 1:
                yield sign * x[j]
                continue
            r = j if x[j] else next((r for r in range(j + 1, n) if x[r]),
                                    None)
            if r is None:
                yield from repeat(0, prod(map(len, choices[j + 1:])))
                continue
            if r != j:
                x[j], x[r] = x[r], x[j]
            steps.append((j, r, x[j], x[j + 1:], prev))
            yield from descend(j + 1, -sign if r != j else sign, x[j])
            steps.pop()

    if n:
        return descend(0, 1, 1)
    return iter((1,))


def integer_determinant(mat):
    """The determinant of a square integer matrix, exactly: the one-choice
    case of ``column_determinants``."""
    return next(column_determinants([[column] for column in zip(*mat)]))


def binomial_determinants(ranges):
    """det[ binom(k_j + j - 1, i - 1) ] for every k in the product of
    ``ranges`` (one range of k_j per position), in product order."""
    n = len(ranges)
    return column_determinants([[_binomial_column(kj + j, n) for kj in kjs]
                                for j, kjs in enumerate(ranges)])


def binomial_determinant(k):
    """det[ binom(k_j + j - 1, i - 1) ]_{i,j=1..n}, exact."""
    return next(binomial_determinants([(kj,) for kj in k]))


# Caps that make an oversized operator fail at once rather than run for
# hours.  One product multiplies out at most MAX_PRODUCT_PAIRS term pairs:
# the largest product the suites and the benchmark build, in
# alpha_operator(6), multiplies 57,300, and a power's repeated squaring
# stops at the first square over the cap.  Vinv's truncation t costs about
# 4 t^3 / 3 pairs over all its products, so it is capped on its own.
MAX_PRODUCT_PAIRS = 250_000
MAX_TRUNCATION = 64


class OperatorExpression:
    """A Z-linear combination of commuting coordinate shifts.

    ``terms`` maps shift vectors (tuples of ints, one slot per coordinate)
    to nonzero integer coefficients.  Normalization is just dict merging, so
    two expressions are equal iff they act identically on every function.
    Both ``terms`` and its tuple form ``stencil`` are fixed at construction;
    an expression never changes, so a built one can be shared freely.
    """

    __slots__ = ("arity", "terms", "stencil")

    def __init__(self, arity, terms=None):
        self.arity = arity
        clean = {}
        for shift, coeff in (terms or {}).items():
            shift = tuple(shift)
            if len(shift) != arity:
                raise ValueError("shift %r does not match arity %d" % (shift, arity))
            if coeff:
                clean[shift] = clean.get(shift, 0) + coeff
                if not clean[shift]:
                    del clean[shift]
        self.terms = MappingProxyType(clean)
        self.stencil = tuple(clean.items())

    def __eq__(self, other):
        return (isinstance(other, OperatorExpression)
                and self.arity == other.arity and self.terms == other.terms)

    def __hash__(self):
        return hash((self.arity, frozenset(self.stencil)))

    def __repr__(self):
        items = sorted(self.terms.items())
        return "OperatorExpression(%d, %r)" % (self.arity, dict(items))

    def __add__(self, other):
        self._check(other)
        merged = dict(self.terms)
        for shift, coeff in other.stencil:
            merged[shift] = merged.get(shift, 0) + coeff
        return OperatorExpression(self.arity, merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OperatorExpression(self.arity, {s: -c for s, c in self.stencil})

    def __mul__(self, other):
        if isinstance(other, int):
            return OperatorExpression(self.arity, {s: c * other for s, c in self.stencil})
        self._check(other)
        pairs = len(self.stencil) * len(other.stencil)
        if pairs > MAX_PRODUCT_PAIRS:
            raise ValueError("an operator product of %d by %d terms is over"
                             " the cap of %d term pairs"
                             % (len(self.stencil), len(other.stencil),
                                MAX_PRODUCT_PAIRS))
        out = {}
        for s1, c1 in self.stencil:
            for s2, c2 in other.stencil:
                s = tuple(map(add, s1, s2))
                out[s] = out.get(s, 0) + c1 * c2
        return OperatorExpression(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative operator powers are not defined here")
        result = identity(self.arity)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _check(self, other):
        if not isinstance(other, OperatorExpression) or other.arity != self.arity:
            raise ValueError("operator arity mismatch")

    def apply(self, f, point):
        return apply_operator(self, f, point)


def identity(arity):
    return OperatorExpression(arity, {(0,) * arity: 1})


def zero(arity):
    return OperatorExpression(arity, {})


def shift(arity, coord, power=1):
    """E_{x_coord}^power (coord is 0-based)."""
    s = [0] * arity
    s[coord] = power
    return OperatorExpression(arity, {tuple(s): 1})


def delta(arity, coord):
    """Forward difference Delta = E - id on the given coordinate."""
    return shift(arity, coord, 1) - identity(arity)


def small_delta(arity, coord):
    """Backward difference delta = id - E^{-1} on the given coordinate."""
    return identity(arity) - shift(arity, coord, -1)


def elementary_symmetric(r, ops):
    """e_r(X_1, ..., X_m) for commuting operator expressions X_i."""
    if not ops:
        raise ValueError("need at least one operator")
    arity = ops[0].arity
    if r < 0 or r > len(ops):
        return zero(arity)
    # running coefficients of prod (1 + t X_i), degree capped at r
    es = [identity(arity)] + [zero(arity)] * r
    for x in ops:
        for j in range(r, 0, -1):
            es[j] = es[j] + es[j - 1] * x
    return es[r]


def v_operator(arity, x, y):
    """V_{x,y} = E_x^{-1} + E_y - E_x^{-1} E_y = id + delta_x Delta_y."""
    return identity(arity) + small_delta(arity, x) * delta(arity, y)


def v_inverse(arity, x, y, truncation=None):
    """Truncated inverse of V_{x,y}: sum_{t=0..truncation} (-1)^t delta_x^t Delta_y^t.

    The series terminates on any function that is a polynomial of degree
    < truncation in either coordinate; the default truncation is the arity.
    """
    if truncation is None:
        truncation = arity
    if not 0 <= truncation <= MAX_TRUNCATION:
        raise ValueError("Vinv truncation must be in 0..%d, got trunc=%d"
                         % (MAX_TRUNCATION, truncation))
    total = zero(arity)
    dx = small_delta(arity, x)
    dy = delta(arity, y)
    term = identity(arity)
    sign = 1
    for t in range(truncation + 1):
        total = total + sign * term
        term = term * dx * dy
        sign = -sign
    return total


class LatticeFunction:
    """Memoizing wrapper around an integer-valued function on Z^arity."""

    def __init__(self, arity, func):
        self.arity = arity
        self.func = func
        self.memo = {}

    def __call__(self, point):
        point = tuple(point)
        if len(point) != self.arity:
            raise ValueError("point %r does not match arity %d" % (point, self.arity))
        try:
            return self.memo[point]
        except KeyError:
            value = self.memo[point] = self.func(point)
        return value


def apply_at(op, f, points):
    """[(op f)(p) for p in points], evaluated exactly.  The distinct points
    the stencil reaches go to ``f.sweep`` in one list when f has one, and
    to f one at a time otherwise.

    Every point and every shift is numbered as one integer in the box they
    span (mixed radix, last coordinate fastest), so the code of p + s is
    code(p) + code(s) and one stencil term over all points is an integer
    addition and a table lookup per point.  Only the reached codes are
    decoded back into points, coordinate by coordinate; the box itself is
    never built, so a sparse stencil with far shifts costs no more than a
    near one.
    """
    points = [tuple(p) for p in points]
    arity = op.arity
    for p in points:
        if len(p) != arity:
            raise ValueError("point %r does not match arity %d" % (p, arity))
    if not points or not op.stencil:
        return [0] * len(points)
    shifts = [sh for sh, _ in op.stencil]
    lows, widths = [], []
    for xs, ss in zip(zip(*points), zip(*shifts)):
        lows.append(min(xs) + min(ss))
        widths.append(max(xs) + max(ss) - lows[-1] + 1)
    strides = [1] * arity
    for c in range(arity - 1, 0, -1):
        strides[c - 1] = strides[c] * widths[c]
    base = [0] * len(points)
    for xs, lo, stride in zip(zip(*points), lows, strides):
        base = list(map(add, base, [(x - lo) * stride for x in xs]))
    offsets = [sum(map(mul, sh, strides)) for sh in shifts]
    values = dict.fromkeys(chain.from_iterable(
        map(o.__add__, base) for o in offsets))
    codes = list(values)
    columns = [[code // stride % width + lo for code in codes]
               for lo, width, stride in zip(lows, widths, strides)]
    reached = zip(*columns) if arity else repeat((), len(codes))
    sweep = getattr(f, "sweep", None)
    values = dict(zip(codes, map(f, reached) if sweep is None
                      else sweep(list(reached))))
    totals = [0] * len(points)
    for o, (_, coeff) in zip(offsets, op.stencil):
        totals = list(map(add, totals, map(mul, repeat(coeff), map(
            values.__getitem__, map(o.__add__, base)))))
    return totals


def apply_operator(op, f, point):
    """(op f)(point), exactly: the one-point case of ``apply_at``."""
    return apply_at(op, f, [point])[0]


# --- operator mini-language -------------------------------------------------
#
# Grammar (whitespace separates juxtaposed factors, juxtaposition composes):
#
#   expr    := factor (factor)*
#   factor  := 'id'
#            | ('E' | 'D' | 'd') ('^' INT)? VAR
#            | 'V(' VAR ',' VAR ')'
#            | 'Vinv(' VAR ',' VAR (';' 'trunc=' INT)? ')'
#            | 'e(' INT ';' expr (',' expr)* ')'
#   VAR     := 'k' DIGITS          (1-based coordinate)
#
# Examples: "D^3 k2", "e(2; D k1, D k2, D k3)", "V(k1,k2)",
#           "Vinv(k2,k1; trunc=4) V(k2,k1)".

_TOKEN = re.compile(r"""
    \s*(?:
        (?P<id>id)
      | (?P<op>[EDd])(?:\^(?P<pow>-?\d+))?\s*k(?P<var>\d+)
      | (?P<vinv>Vinv)\(\s*k(?P<vx>\d+)\s*,\s*k(?P<vy>\d+)\s*(?:;\s*trunc=(?P<trunc>-?\d+)\s*)?\)
      | (?P<v>V)\(\s*k(?P<wx>\d+)\s*,\s*k(?P<wy>\d+)\s*\)
      | (?P<e>e)\(\s*(?P<er>\d+)\s*;
      | (?P<close>\))
      | (?P<comma>,)
    )""", re.VERBOSE)


class OperatorParseError(ValueError):
    pass


def parse_operator(text, arity):
    """Parse the operator mini-language into an OperatorExpression."""
    expr, pos = _parse_product(text, 0, arity)
    if text[pos:].strip():
        raise OperatorParseError("trailing input %r" % text[pos:])
    return expr


def _coord(num, arity):
    c = int(num) - 1
    if not 0 <= c < arity:
        raise OperatorParseError("coordinate k%s out of range for arity %d" % (num, arity))
    return c


def _parse_product(text, pos, arity):
    result = None
    while True:
        m = _TOKEN.match(text, pos)
        if not m:
            break
        if m.group("close") or m.group("comma"):
            break
        pos = m.end()
        if m.group("id"):
            factor = identity(arity)
        elif m.group("op"):
            c = _coord(m.group("var"), arity)
            p = int(m.group("pow")) if m.group("pow") else 1
            kind = m.group("op")
            if kind == "E":
                factor = shift(arity, c, p)
            else:
                if p < 0:
                    raise OperatorParseError("difference operators take nonnegative powers")
                base = delta(arity, c) if kind == "D" else small_delta(arity, c)
                factor = base ** p
        elif m.group("v"):
            factor = v_operator(arity, _coord(m.group("wx"), arity), _coord(m.group("wy"), arity))
        elif m.group("vinv"):
            trunc = int(m.group("trunc")) if m.group("trunc") else None
            factor = v_inverse(arity, _coord(m.group("vx"), arity),
                               _coord(m.group("vy"), arity), truncation=trunc)
        elif m.group("e"):
            r = int(m.group("er"))
            args = []
            while True:
                sub, pos = _parse_product(text, pos, arity)
                args.append(sub)
                mm = _TOKEN.match(text, pos)
                if mm and mm.group("comma"):
                    pos = mm.end()
                    continue
                if mm and mm.group("close"):
                    pos = mm.end()
                    break
                raise OperatorParseError("expected ',' or ')' in e(...) at %d" % pos)
            factor = elementary_symmetric(r, args)
        else:  # pragma: no cover
            raise OperatorParseError("unrecognized token at %d" % pos)
        result = factor if result is None else result * factor
    if result is None:
        raise OperatorParseError("empty operator expression")
    return result, pos
