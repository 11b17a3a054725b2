import hashlib
import json
from itertools import combinations, combinations_with_replacement, product

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from gtseq.operators import product_formula
from gtseq.paths import (
    PathFamily,
    count_nonintersecting,
    enumerate_families,
    family_to_svg,
    path_vertices,
    signed_families,
    starting_points,
    tail_swap,
)
from gtseq.trees import _permutation_sign


def test_starting_points_diagonal():
    assert starting_points(3) == [(0, 0), (-1, 1), (-2, 2)]


def test_classic_frozen_example():
    fams = list(enumerate_families((0, 2), "classic"))
    assert len(fams) == 3
    assert all(f.sign == 1 and f.pi == (1, 2) for f in fams)
    assert signed_families((0, 2), "classic") == 3
    assert count_nonintersecting((0, 2)) == 3


def test_single_path_instances():
    assert count_nonintersecting((4,)) == 1
    assert signed_families((0, 0, 0), "classic") == 1
    assert count_nonintersecting((0, 0, 0)) == 1


def test_classic_rejects_negative():
    with pytest.raises(ValueError):
        signed_families((-1, 2), "classic")
    with pytest.raises(ValueError):
        count_nonintersecting((2, 1))


def test_path_vertices_walk():
    verts = path_vertices(2, ("S", "D", "S"))
    assert verts == [(-1, 1), (-1, 0), (0, -1), (0, -2)]


def test_descent_paths_start_south():
    # ends strictly below force the descent grammar
    for fam in enumerate_families((-3, -3), "general"):
        for i, steps in enumerate(fam.paths, start=1):
            x0, y0 = (-i + 1, i - 1)
            end_y = path_vertices(i, steps)[-1][1]
            if end_y < y0:
                assert steps[0] == "S"
                assert set(steps) <= {"S", "D"}


def test_general_counts_match_product():
    for n in (1, 2):
        for k in product(range(-2, 3), repeat=n):
            assert signed_families(k, "general") == product_formula(k), k
    for k in ((-2, 0, 1), (2, -1, 0), (-1, -1, -1), (0, 2, -2)):
        assert signed_families(k, "general") == product_formula(k), k


# sha256 of json.dumps([[list(k), [f.to_json() for f in
# enumerate_families(k, variant)]] for k in product(grid, repeat=n)]),
# recorded while each pair's step words came from two recursive builders
# (east/north and descent).  The cubes hold empty pairs, descent paths,
# every permutation and both signs, so the digests freeze the family
# order, the step words and the signs.
FAMILY_GRIDS = {"classic": range(0, 3), "general": range(-3, 3)}
FROZEN_FAMILY_STREAMS = [
    ("classic", 1,
     "45430f26fdecf11d5d21e40b73f85e98b62c0d8fbf6d3d6798533427b38feccf"),
    ("classic", 2,
     "2a032673093ba1d701dd64f7c304d054f24c1cab0f16bbd354e13d8cbb7abe6a"),
    ("classic", 3,
     "6580b70caca1592d2577ab2343bc1143b793617a55d27eb074080f158b714ae4"),
    ("general", 1,
     "8fab2df939f1f32bf92b5f294b4197db2fb4d760339a0c46238bec74e977c3e4"),
    ("general", 2,
     "7b0a86b924a88376b0b0057bc02ac7c58d12c0fc5ba8e7ff45619ac88fcdc2ac"),
    ("general", 3,
     "2a85391398be12461d5bfa696cc45a1a634e4163a9b9209618375f52cc1130b6"),
]


@pytest.mark.parametrize("variant, n, digest", FROZEN_FAMILY_STREAMS)
def test_family_streams_frozen(variant, n, digest):
    text = json.dumps([[list(k), [f.to_json()
                                  for f in enumerate_families(k, variant)]]
                       for k in product(FAMILY_GRIDS[variant], repeat=n)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
@settings(max_examples=30)
def test_stream_signs_sum_to_total(k):
    k = tuple(k)
    total = sum(f.sign for f in enumerate_families(k, "general"))
    assert total == signed_families(k, "general")


def test_nonintersecting_families_are_disjoint():
    # re-derive disjointness from the reported step words
    k = (0, 1, 2)
    count = 0
    for fam in enumerate_families(k, "classic"):
        full = [steps + ("E",) for steps in fam.paths]
        seen = set()
        disjoint = True
        for i, steps in enumerate(full, start=1):
            verts = path_vertices(i, steps)
            if any(v in seen for v in verts):
                disjoint = False
                break
            seen.update(verts)
        if disjoint and fam.pi == (1, 2, 3):
            count += 1
    assert count == count_nonintersecting(k) == product_formula(k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonintersecting_count_matches_product(n):
    for k in combinations_with_replacement(range(4), n):
        assert count_nonintersecting(k) == product_formula(k), k


@pytest.mark.parametrize("k", [(0, 1, 2), (1, 1, 3), (0, 0, 2, 2)])
def test_nonintersecting_count_matches_classic_stream(k):
    # every permutation's families, extended by the final east step, kept
    # when their vertex sets are pairwise disjoint
    count = 0
    for fam in enumerate_families(k, "classic"):
        verts = [set(path_vertices(i, steps + ("E",)))
                 for i, steps in enumerate(fam.paths, start=1)]
        count += all(a.isdisjoint(b) for a, b in combinations(verts, 2))
    assert count_nonintersecting(k) == count


def test_tail_swap_flips_sign_and_involutes():
    fams = list(enumerate_families((1, 1), "classic"))
    assert signed_families((1, 1), "classic") == 1
    crossing = []
    for f in fams:
        va = set(path_vertices(1, f.paths[0]))
        vb = set(path_vertices(2, f.paths[1]))
        if va & vb:
            crossing.append(f)
    assert len(crossing) == 2
    for f in crossing:
        g = tail_swap(f, 1, 2)
        assert g.sign == -f.sign
        assert g.pi == (f.pi[1], f.pi[0])
        back = tail_swap(g, 1, 2)
        assert (back.paths, back.pi, back.sign) == (f.paths, f.pi, f.sign)


def test_tail_swap_requires_intersection():
    fam = PathFamily(2, (1, 2), (("N",), ("N", "E")), 1)
    with pytest.raises(ValueError):
        tail_swap(fam, 1, 2)


def test_permutation_sign_small():
    assert _permutation_sign((1, 2, 3)) == 1
    assert _permutation_sign((2, 1, 3)) == -1
    assert _permutation_sign((3, 1, 2)) == 1


def test_family_json_and_svg():
    fam = list(enumerate_families((0, 2), "classic"))[0]
    doc = fam.to_json()
    assert doc["pi"] == [1, 2]
    assert doc["sign"] == 1
    assert all(isinstance(p, list) for p in doc["paths"])
    svg = family_to_svg(fam)
    assert svg.startswith("<svg")
    assert svg.count("polyline") == 2
