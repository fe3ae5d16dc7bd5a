import dataclasses
import itertools
import random
import time
from math import comb

import pytest

import naive
from qchroma import oracle
from qchroma.johnson import (_adjacency_masks, bose_chowla, greedy_colouring,
                             gs_colouring, is_proper, johnson_bounds,
                             smallest_prime_geq, subsets_lex)
from qchroma.verify import colour_clash


def test_smallest_prime_geq():
    assert smallest_prime_geq(5) == 5
    assert smallest_prime_geq(6) == 7
    assert smallest_prime_geq(9) == 11
    assert smallest_prime_geq(2) == 2


def _sums_distinct(elements, h, r):
    sums = [sum(c) % r
            for c in itertools.combinations_with_replacement(elements, h)]
    return len(sums) == len(set(sums))


@pytest.mark.parametrize("p,h,r", [(5, 1, 6), (5, 2, 31), (7, 2, 57)])
def test_bose_chowla_sets(p, h, r):
    bc = bose_chowla(p, h)
    assert bc.r == r
    assert len(bc.elements) == p + 1
    assert all(0 <= e < r for e in bc.elements)
    assert _sums_distinct(bc.elements, h, r)


def test_bose_chowla_rejects_bad_input():
    with pytest.raises(ValueError):
        bose_chowla(6, 2)
    with pytest.raises(ValueError):
        bose_chowla(5, 0)
    with pytest.raises(ValueError):
        bose_chowla(101, 4)  # field beyond desk scale


def test_gs_colouring_4_2_1():
    col = gs_colouring(4, 2, 1)
    assert col.modulus == 6
    assert col.palette <= 6
    assert is_proper(col)
    # all C(4,2) = 6 subsets coloured
    assert set(col.colours) == set(subsets_lex(4, 2))


def test_gs_colouring_singleton_overlap_always_separated():
    # subsets sharing m-1 elements differ by one injective placement value
    col = gs_colouring(5, 3, 2)
    for S, T in itertools.combinations(subsets_lex(5, 3), 2):
        if len(set(S) & set(T)) == 2:
            assert col.colours[S] != col.colours[T]


def test_gs_colouring_6_3_1():
    col = gs_colouring(6, 3, 1)
    assert col.modulus == 57
    assert col.palette <= 57
    assert is_proper(col)


def test_gs_classes_are_constant_weight_codes():
    # same colour => characteristic vectors at Hamming distance >= 2(m-t+1)
    for n, m, t in ((4, 2, 1), (6, 3, 1), (6, 3, 2)):
        col = gs_colouring(n, m, t)
        floor = 2 * (m - t + 1)
        for S, T in itertools.combinations(subsets_lex(n, m), 2):
            if col.colours[S] == col.colours[T]:
                assert 2 * m - 2 * len(set(S) & set(T)) >= floor


def test_greedy_small_values():
    assert greedy_colouring(3, 2, 1).palette == 3   # complete graph on 3 subsets
    assert greedy_colouring(4, 2, 1).palette == 3
    assert greedy_colouring(6, 3, 1).palette == 10


def test_greedy_matches_oracle_exact_values():
    for n, m, t, want in ((4, 2, 1, 3), (6, 3, 1, 10)):
        pal = greedy_colouring(n, m, t).palette
        exact = oracle.exact_chromatic(oracle.johnson_graph(n, m, t))
        assert exact.exact and exact.value == want == pal


def test_greedy_at_the_subset_cap_is_fast():
    # 924 subsets, just below GREEDY_SUBSET_CAP, and 462 colours
    start = time.perf_counter()
    col = greedy_colouring(12, 6, 1)
    assert time.perf_counter() - start < 0.2
    assert col.palette == 462


@pytest.mark.parametrize("n,m,t", [(4, 2, 1), (5, 2, 1), (6, 3, 1), (6, 3, 2),
                                   (7, 3, 1), (8, 4, 1)])
def test_both_methods_proper(n, m, t):
    assert is_proper(greedy_colouring(n, m, t))
    assert is_proper(gs_colouring(n, m, t))


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (6, 3), (7, 4), (8, 4)])
def test_adjacency_masks_match_pairwise_intersections(n, m):
    # one mask per shared t-subset, against `oracle.johnson_graph`'s walk
    # over all pairs of subsets
    verts = subsets_lex(n, m)
    for t in range(1, m):
        assert _adjacency_masks(verts, t) == list(oracle.johnson_graph(n, m, t).adj)


def test_johnson_bounds():
    assert johnson_bounds(4, 2, 1) == (3, 6)
    assert johnson_bounds(6, 3, 1) == (10, 57)
    # lower bound formula in closed form
    n, m, t = 7, 3, 1
    lower, _ = johnson_bounds(n, m, t)
    assert lower == -(-comb(n, m) * comb(m, t) // comb(n, t))


def test_bounds_bracket_palettes():
    for n, m, t in ((4, 2, 1), (5, 2, 1), (6, 3, 1), (6, 3, 2)):
        lower, gs_upper = johnson_bounds(n, m, t)
        g = greedy_colouring(n, m, t)
        s = gs_colouring(n, m, t)
        assert lower <= g.palette
        assert s.palette <= gs_upper


def test_invalid_parameters():
    with pytest.raises(ValueError):
        greedy_colouring(4, 4, 1)
    with pytest.raises(ValueError):
        gs_colouring(4, 2, 2)


@pytest.mark.parametrize("n,m,t", [(6, 3, 1), (7, 3, 2), (8, 4, 2), (7, 2, 1)])
@pytest.mark.parametrize("build", [greedy_colouring, gs_colouring])
def test_is_proper_matches_all_pairs_walk(n, m, t, build):
    base = build(n, m, t)
    verts = list(base.colours)
    for merges in (0, 1, 2, 5):
        for seed in range(6 if merges else 1):
            colours = naive.merge_colours([base.colours[v] for v in verts],
                                          merges, random.Random(seed))
            col = dataclasses.replace(base, colours=dict(zip(verts, colours)))
            expected = naive.naive_johnson_clash(verts, colours, t)
            assert is_proper(col) == (expected is None)
            clash = colour_clash(colours,
                                 lambda i: itertools.combinations(verts[i], t))
            assert (clash is None) == (expected is None)
            if clash is not None:
                i, j, shared = clash
                assert colours[i] == colours[j] and len(shared) == t
                assert set(shared) <= set(verts[i]) & set(verts[j])
