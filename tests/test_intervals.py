from hypothesis import given
from hypothesis import strategies as st
import pytest

from gtseq.intervals import (
    containment_dichotomy,
    interval,
    left_anchored_identity,
    right_anchored_dichotomy,
    right_anchored_identity,
    slot,
)


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
