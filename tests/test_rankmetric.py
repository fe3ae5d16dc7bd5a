import random

import pytest

import naive
from naive import naive_min_rank
from qchroma import colouring, rankmetric, selftest
from qchroma.ff import field_make
from qchroma.grassmann import GrassmannParams, Subspace, enumerate_subspaces
from qchroma.matq import MatrixFq, all_matrices, rank
from qchroma.rankmetric import (GabidulinCode, SyndromeTable, coset_index,
                                coset_representative, gabidulin_build, lift,
                                min_rank_distance, unlift)

F2 = field_make(2, 1)


def _sub(A, B):
    F = A.field
    return MatrixFq(F, tuple(tuple(F.sub(x, y) for x, y in zip(ra, rb))
                             for ra, rb in zip(A.rows, B.rows)))


@pytest.mark.parametrize("q,m,h,d,size", [
    (2, 2, 2, 2, 4),
    (2, 2, 3, 2, 8),
    (3, 2, 2, 2, 9),
])
def test_built_codes_hit_singleton_with_equality(q, m, h, d, size):
    code = gabidulin_build(q, m, h, d)
    assert code.size == size == q ** (h * (m - d + 1))
    words = list(code.codewords())
    assert len(words) == len({w.rows for w in words}) == size
    # the k-th word is sum_i digit_i(k) basis_i, the last basis word fastest
    F = code.field
    flat = [tuple(v for row in B.rows for v in row) for B in code.basis]
    for k, w in enumerate(words):
        want = (0,) * (m * h)
        for c, b in zip(naive.base_q_digits(k, q, len(flat)), flat):
            want = naive.vec_add(F, want, naive.vec_scale(F, c, b))
        assert tuple(v for row in w.rows for v in row) == want
    assert min_rank_distance(code) == d
    # every nonzero word has rank >= d (exhaustive scan, not just the min)
    for w in words:
        if any(any(r) for r in w.rows):
            assert rank(w) >= d


def test_distance_one_code_is_the_full_matrix_space():
    code = gabidulin_build(2, 2, 2, 1)
    assert code.size == 16
    assert {w.rows for w in code.codewords()} == \
        {M.rows for M in all_matrices(F2, 2, 2)}
    assert min_rank_distance(code) == 1


# F_2, F_3, F_4, F_5 and F_9, with k = m - d + 1 >= 2, h > m and d = 1 among them
@pytest.mark.parametrize("q,m,h,d", [
    (2, 2, 3, 1), (2, 3, 4, 2), (2, 4, 4, 3), (2, 3, 5, 2),
    (3, 2, 3, 2), (3, 3, 3, 2), (3, 2, 2, 1),
    (4, 2, 3, 2), (4, 2, 2, 1),
    (5, 2, 3, 2), (5, 2, 2, 1),
    (9, 2, 2, 2), (9, 1, 2, 1), (9, 2, 2, 1),
])
def test_min_rank_distance_matches_the_walk_over_every_codeword(q, m, h, d):
    code = gabidulin_build(q, m, h, d)
    assert min_rank_distance(code) == naive_min_rank(code) == d


@pytest.mark.parametrize("q,m,h,d,ranked", [
    (2, 4, 7, 3, 129),   # (2^14 - 1) / (2^7 - 1) lines
    (9, 2, 4, 2, 1),     # k = 1: one line
])
def test_min_rank_distance_ranks_one_word_per_line(monkeypatch, q, m, h, d, ranked):
    code = gabidulin_build(q, m, h, d)
    calls = []
    monkeypatch.setattr(rankmetric, "rank", lambda M: calls.append(M) or rank(M))
    assert min_rank_distance(code) == d
    assert len(calls) == ranked


def _with_basis(code, basis):
    return GabidulinCode(code.field, code.ext, code.m, code.h, code.d,
                         code.points, tuple(basis))


def _code_on_lines(code, lines):
    """A code of code's shape whose basis is g^s b_i, b_i given by row elements."""
    ext = code.ext
    return _with_basis(code, [
        MatrixFq(code.field, tuple(ext.coeffs_of(ext.mul(code.q ** s, e)) for e in elems))
        for elems in lines for s in range(code.h)])


def test_scan_refuses_swapped_basis_words():
    code = gabidulin_build(2, 3, 4, 2)
    basis = list(code.basis)
    basis[0], basis[1] = basis[1], basis[0]
    broken = _with_basis(code, basis)
    with pytest.raises(AssertionError):
        min_rank_distance(broken)


@pytest.mark.parametrize("index", [1, 4, 7])
def test_scan_refuses_a_basis_word_from_another_code(index):
    code = gabidulin_build(2, 3, 4, 2)
    other = gabidulin_build(2, 3, 4, 1)
    basis = list(code.basis)
    basis[index] = other.basis[8]  # g^0 b_2 of the larger code, outside this one
    broken = _with_basis(code, basis)
    with pytest.raises(AssertionError):
        min_rank_distance(broken)


def test_scan_sees_a_rank_one_line_and_make_context_refuses(monkeypatch):
    # F_4-linear code in M_{2x2}(F_2) spanned by the word with both rows 1:
    # every nonzero word has two equal rows, so rank 1 < design distance 2
    design = gabidulin_build(2, 2, 2, 2)
    code = _code_on_lines(design, [[1, 1]])
    assert min_rank_distance(code) == naive_min_rank(code) == 1
    monkeypatch.setattr(colouring, "gabidulin_build", lambda *args: code)
    with pytest.raises(AssertionError, match="design distance"):
        colouring.make_context(GrassmannParams(2, 4, 2, 1))


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gabidulin_build(2, 2, 2, 3)   # d > m
    with pytest.raises(ValueError):
        gabidulin_build(2, 3, 2, 2)   # m > h: transpose the problem instead
    with pytest.raises(ValueError):
        gabidulin_build(2, 2, 2, 0)


def test_coset_partition_of_all_matrices():
    code = gabidulin_build(2, 2, 2, 2)
    fibres = {}
    for A in all_matrices(F2, 2, 2):
        fibres.setdefault(coset_index(code, A), []).append(A)
    assert sorted(fibres) == [0, 1, 2, 3]
    assert all(len(v) == code.size == 4 for v in fibres.values())
    for A in code.codewords():
        assert coset_index(code, A) == 0


def test_coset_index_constant_exactly_on_cosets():
    code = gabidulin_build(2, 2, 2, 2)
    mats = list(all_matrices(F2, 2, 2))
    for A in mats:
        for B in mats:
            same = coset_index(code, A) == coset_index(code, B)
            assert same == code.contains(_sub(A, B))


@pytest.mark.parametrize("q,m,h,d", [(2, 2, 2, 2), (2, 2, 3, 2), (3, 2, 2, 2),
                                     (4, 2, 2, 2), (5, 2, 2, 2), (9, 2, 2, 2),
                                     (2, 3, 3, 2), (2, 3, 3, 3), (4, 1, 3, 1)])
def test_syndrome_table_agrees_with_coset_index_on_every_matrix(q, m, h, d):
    code = gabidulin_build(q, m, h, d)
    table = SyndromeTable(code)
    mats = list(all_matrices(code.field, m, h))
    sums = table.sums
    totals = [sums.sum(table.terms[x][v] for x, v in enumerate(v for row in A.rows for v in row))
              for A in mats]
    want = [coset_index(code, A) for A in mats]
    assert [sums.read(s) for s in totals] == want
    assert sums.read_all(totals) == want
    assert sorted(set(want)) == list(range(code.num_cosets))


def test_coset_representative_roundtrip():
    code = gabidulin_build(2, 2, 2, 2)
    reps = [coset_representative(code, i) for i in range(code.num_cosets)]
    assert reps[0] == MatrixFq.zeros(F2, 2, 2)
    for i, R in enumerate(reps):
        assert coset_index(code, R) == i
    for i, A in enumerate(reps):
        for B in reps[i + 1:]:
            assert not code.contains(_sub(A, B))
    with pytest.raises(ValueError):
        coset_representative(code, code.num_cosets)


def test_coset_index_shape_check():
    code = gabidulin_build(2, 2, 2, 2)
    with pytest.raises(ValueError):
        coset_index(code, MatrixFq.zeros(F2, 2, 3))
    with pytest.raises(ValueError):
        coset_index(code, MatrixFq.zeros(field_make(3, 1), 2, 2))


def test_lift_layouts():
    A = MatrixFq.from_indices(F2, [[1, 1, 0], [0, 1, 1]])
    # u = (1,0,1,0,0): identity columns at positions 1 and 3 (1-indexed)
    L = lift((1, 0, 1, 0, 0), A)
    assert L.rows == ((1, 1, 0, 1, 0), (0, 0, 1, 1, 1))
    # leading block of ones reduces to [I | A]
    L = lift((1, 1, 0, 0, 0), A)
    assert L.rows == ((1, 0, 1, 1, 0), (0, 1, 0, 1, 1))
    # zero matrix lifts to standard basis rows
    L = lift((0, 1, 0, 1, 0), MatrixFq.zeros(F2, 2, 3))
    assert L.rows == ((0, 1, 0, 0, 0), (0, 0, 0, 1, 0))
    with pytest.raises(ValueError):
        lift((1, 1, 1, 0, 0), A)      # weight 3 != 2 rows
    with pytest.raises(ValueError):
        lift((1, 0, 1, 0), A)         # A has 3 columns, needs n - m = 2


def test_unlift_roundtrip_every_vertex():
    for t_m in ((2, 4, 2), (3, 4, 2)):
        q, n, m = t_m
        for S in enumerate_subspaces(q, n, m):
            u, A = unlift(S)
            assert u == S.idvec
            assert lift(u, A) == S.basis


def test_unlift_nonpivot_block_example():
    M = MatrixFq.from_indices(F2, [[1, 0, 1, 0, 1, 1],
                                   [0, 1, 1, 0, 0, 1],
                                   [0, 0, 0, 1, 1, 0]])
    u, A = unlift(Subspace(M))
    assert u == (1, 1, 0, 1, 0, 0)
    assert A.rows == ((1, 1, 1), (1, 0, 1), (0, 1, 0))  # columns 3, 5, 6


def test_unlift_full_space_gives_empty_block():
    u, A = unlift(Subspace(MatrixFq.identity(F2, 3)))
    assert u == (1, 1, 1) and A.nrows == 3 and A.ncols == 0


def test_lifting_intersection_law_exhaustive_2_2_2():
    assert selftest._lifting_exhaustive_2_2_2() == ""


@pytest.mark.parametrize("q,m,h", [(2, 2, 3), (3, 2, 2)])
def test_lifting_intersection_law_randomized(q, m, h):
    assert selftest._lifting_randomized(q, m, h, random.Random(4242)) == ""
