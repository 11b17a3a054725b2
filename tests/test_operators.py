from fractions import Fraction
from itertools import permutations, product

from hypothesis import given
from hypothesis import strategies as st
import pytest

from gtseq.operators import (
    MAX_PRODUCT_PAIRS,
    MAX_TRUNCATION,
    LatticeFunction,
    OperatorExpression,
    OperatorParseError,
    apply_at,
    apply_operator,
    binomial_determinant,
    binomial_determinants,
    binomial_matrix,
    column_determinants,
    delta,
    elementary_symmetric,
    falling_binomial,
    identity,
    integer_determinant,
    parse_operator,
    product_formula,
    shift,
    small_delta,
    v_inverse,
    v_operator,
)


def brute_determinant(mat):
    # Leibniz expansion over permutations, independent of the Bareiss code
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = sign
        for r in range(n):
            term *= mat[r][perm[r]]
        total += term
    return total


def test_product_formula_values():
    assert product_formula(()) == 1
    assert product_formula((5,)) == 1
    assert product_formula((0, 2)) == 3
    assert product_formula((1, 2, 3)) == 8
    assert product_formula((0, -1)) == 0          # equal shifted labels
    assert product_formula((-2, 0, 1)) == 15
    assert product_formula((3, 0)) == -2          # signs appear


def test_product_formula_negates_under_shifted_swap():
    # (k_i, k_j) -> (k_j + j - i, k_i + i - j) negates the product
    k = (1, -2, 4)
    swapped = (-2 + 1, 1 - 1, 4)
    assert product_formula(swapped) == -product_formula(k)


def test_falling_binomial_table():
    assert falling_binomial(5, 2) == 10
    assert falling_binomial(4, 0) == 1
    assert falling_binomial(3, 5) == 0
    assert falling_binomial(-1, 2) == 1
    assert falling_binomial(-2, 1) == -2
    assert falling_binomial(-1, 3) == -1
    assert falling_binomial(7, -1) == 0


@given(st.integers(-30, 30), st.integers(0, 8))
def test_falling_binomial_is_polynomial(m, r):
    want = Fraction(1)
    for t in range(r):
        want *= Fraction(m - t, t + 1)
    assert falling_binomial(m, r) == want


@st.composite
def _column_choices(draw):
    """1-3 candidate columns for each of n <= 4 positions; hypothesis
    favours 0, so zero pivots, row swaps and singular prefixes come up."""
    n = draw(st.integers(0, 4))
    column = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return [draw(st.lists(column, min_size=1, max_size=3)) for _ in range(n)]


@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=4, max_size=4),
       _column_choices())
def test_integer_determinant_matches_leibniz(mat, choices):
    assert integer_determinant(mat) == brute_determinant(mat)
    # every combination of candidate columns, against the Leibniz sum of
    # its matrix; the kernel replays one prefix's elimination on each next
    # candidate, so shared prefixes with swaps are exercised here
    combinations = list(product(*choices))
    dets = list(column_determinants(choices))
    assert len(dets) == len(combinations)
    for columns, det in zip(combinations, dets):
        matrix = [list(row) for row in zip(*columns)]
        assert det == brute_determinant(matrix), columns
        assert integer_determinant(matrix) == det


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_binomial_determinant_equals_product(k):
    k = tuple(k)
    assert binomial_determinant(k) == product_formula(k)
    assert brute_determinant(binomial_matrix(k)) == product_formula(k)
    # the sweep over the box from k to k + 1, in product order
    ranges = [range(x, x + 2) for x in k]
    assert list(binomial_determinants(ranges)) == [
        product_formula(p) for p in product(*ranges)]


@given(st.lists(st.integers(-12, 12), min_size=0, max_size=8))
def test_binomial_matrix_matches_falling_binomial(k):
    # the column recurrence must give the polynomial binomial, negative
    # tops included
    n = len(k)
    want = [[falling_binomial(k[j] + j, i) for j in range(n)]
            for i in range(n)]
    assert binomial_matrix(k) == want


def test_operator_algebra_normalizes():
    d = delta(1, 0)
    sq = d * d
    # (E - id)^2 = E^2 - 2E + id
    assert sq.terms == {(2,): 1, (1,): -2, (0,): 1}
    assert d ** 2 == sq
    assert (d - d).terms == {}
    assert (shift(2, 0) * shift(2, 1, -1)).terms == {(1, -1): 1}


_small_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(-2, 2)] * 3), st.integers(-4, 4)),
    max_size=6)


@given(_small_terms, st.lists(st.tuples(*[st.integers(-3, 3)] * 3),
                              min_size=1, max_size=4))
def test_stencil_matches_naive_sum(pairs, points):
    # build the operator through the algebra, evaluate the naive sum from
    # the raw pairs, so repeated and cancelling shifts are exercised too;
    # the first point comes again at the end
    def g(k):
        return 7 * k[0] ** 3 - 5 * k[0] * k[1] + k[2] ** 2 + 11

    op = OperatorExpression(3)
    for sh, coeff in pairs:
        term = identity(3)
        for coord, power in enumerate(sh):
            term = term * shift(3, coord, power)
        op = op + coeff * term
    points = points + points[:1]
    naive = [sum(coeff * g(tuple(p + s for p, s in zip(point, sh)))
                 for sh, coeff in pairs) for point in points]
    assert isinstance(op.stencil, tuple)
    assert dict(op.stencil) == op.terms
    assert apply_at(op, LatticeFunction(3, g), points) == naive
    assert apply_operator(op, g, points[0]) == naive[0]

    calls = []
    assert apply_at(op, lambda k: calls.append(k) or g(k), points) == naive
    reached = {tuple(p + s for p, s in zip(point, sh))
               for point in points for sh in op.terms}
    assert sorted(calls) == sorted(reached)


def test_sparse_wide_stencil():
    # five shifts 1000 apart in five coordinates: the box they span holds
    # 1001^5 points, of which the stencil reaches five per point
    op = parse_operator(
        "e(1; E^1000 k1, E^1000 k2, E^1000 k3, E^1000 k4, E^1000 k5)", 5)
    calls = []

    def f(k):
        calls.append(k)
        return sum(k)

    assert apply_at(op, f, [(0,) * 5, (1, -2, 3, 0, 0)]) == [5000, 5010]
    assert len(calls) == 10


def test_lattice_function_sweeps_only_new_points():
    def g(k):
        return k[0] * 10 + k[1]

    handed = []
    f = LatticeFunction(2, g, sweep=lambda points: handed.append(points)
                        or [g(k) for k in points])
    assert f((0, 0)) == 0
    assert f.sweep([(0, 0), (1, 2), [1, 2], (3, 0)]) == [0, 12, 12, 30]
    assert handed == [[(1, 2), (3, 0)]]
    assert f.sweep([(3, 0), (0, 0)]) == [30, 0]
    assert len(handed) == 1
    with pytest.raises(ValueError):
        f.sweep([(1, 2, 3)])
    # apply_at hands every point the stencil reaches to the sweep at once
    handed.clear()
    op = delta(2, 0) * delta(2, 1)
    assert apply_at(op, f, [(5, 5), (6, 5)]) == [0, 0]
    assert len(handed) == 1
    assert sorted(handed[0]) == [(5, 5), (5, 6), (6, 5), (6, 6), (7, 5),
                                 (7, 6)]
    assert apply_at(op, LatticeFunction(2, g), [(5, 5)]) == [0]


def test_apply_rejects_point_of_wrong_length():
    # a plain function does no length check of its own
    f = lambda k: sum(k)
    with pytest.raises(ValueError):
        apply_operator(delta(3, 2), f, (1, 2))
    with pytest.raises(ValueError):
        apply_at(delta(2, 0), f, [(0, 0), (1, 2, 3)])
    assert apply_at(delta(2, 0), f, []) == []


def test_operator_terms_are_frozen():
    op = delta(2, 0)
    with pytest.raises(TypeError):
        op.terms[(5, 5)] = 1
    assert op.stencil == tuple(op.terms.items())


def test_apply_operator_difference():
    f = LatticeFunction(1, lambda k: k[0] ** 3)
    assert apply_operator(delta(1, 0), f, (2,)) == 27 - 8
    assert apply_operator(delta(1, 0) ** 4, f, (0,)) == 0
    assert apply_operator(small_delta(1, 0), f, (3,)) == 27 - 8


def test_elementary_symmetric_expansion():
    ops = [delta(2, 0), delta(2, 1)]
    e1 = elementary_symmetric(1, ops)
    e2 = elementary_symmetric(2, ops)
    assert e1 == ops[0] + ops[1]
    assert e2 == ops[0] * ops[1]
    assert elementary_symmetric(0, ops) == identity(2)


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4))
def test_truncated_inverse_of_v(k):
    # V and its truncated inverse cancel on the product formula, whose
    # mixed differences vanish beyond the truncation order
    k = tuple(k)
    n = len(k)
    f = LatticeFunction(n, product_formula)
    v = v_operator(n, 0, n - 1)
    vinv = v_inverse(n, 0, n - 1)
    assert apply_operator(vinv * v, f, k) == product_formula(k)


def test_parse_operator_forms():
    assert parse_operator("D k1", 2) == delta(2, 0)
    assert parse_operator("d k2", 2) == small_delta(2, 1)
    assert parse_operator("E^-1 k2", 2) == shift(2, 1, -1)
    assert parse_operator("id", 1) == identity(1)
    assert parse_operator("D^2 k1", 1) == delta(1, 0) ** 2
    assert parse_operator("V(k1,k2)", 2) == v_operator(2, 0, 1)
    assert parse_operator("e(2; D k1, D k2)", 2) == \
        elementary_symmetric(2, [delta(2, 0), delta(2, 1)])
    composed = parse_operator("E k1 E^-1 k2", 2)
    assert composed == shift(2, 0) * shift(2, 1, -1)


@pytest.mark.parametrize("text", ("", "k1", "D^-1 k1", "D k9", "e(1; )",
                                  "id extra!"))
def test_parse_operator_rejects(text):
    with pytest.raises(OperatorParseError):
        parse_operator(text, 2)


def test_vinv_truncation_is_a_nonnegative_integer():
    assert parse_operator("Vinv(k1,k2; trunc=0)", 2) == identity(2)
    assert parse_operator("Vinv(k1,k2;trunc=2)", 2) == v_inverse(2, 0, 1, 2)
    for text in ("Vinv(k1,k2;trunc=-1)", "Vinv(k2,k1; trunc=-7)"):
        with pytest.raises(ValueError, match="truncation .*trunc=-"):
            parse_operator(text, 2)
    with pytest.raises(ValueError, match="truncation"):
        v_inverse(2, 0, 1, -1)


def test_oversized_operators_fail_fast():
    # each would otherwise run until killed: D^100000 squares its way to
    # 100001 terms, and Vinv's truncation t costs about 4 t^3 / 3 pairs
    with pytest.raises(ValueError, match="cap of %d term pairs"
                       % MAX_PRODUCT_PAIRS):
        parse_operator("D^100000 k1", 2)
    with pytest.raises(ValueError, match="truncation must be in 0..%d"
                       % MAX_TRUNCATION):
        parse_operator("Vinv(k1,k2; trunc=100000)", 2)
    with pytest.raises(ValueError, match="truncation"):
        v_inverse(2, 0, 1, MAX_TRUNCATION + 1)
    # a product over the cap is refused before it is multiplied out
    wide = OperatorExpression(1, {(s,): 1 for s in range(501)})
    assert 501 * 501 > MAX_PRODUCT_PAIRS
    with pytest.raises(ValueError, match="501 by 501 terms"):
        wide * wide
    # powers, E shifts and truncations within the caps still build
    assert parse_operator("D^256 k1", 1) == delta(1, 0) ** 256
    assert parse_operator("E^100000 k1", 1) == shift(1, 0, 100000)
    assert len(v_inverse(2, 0, 1, 8).stencil) == 81
