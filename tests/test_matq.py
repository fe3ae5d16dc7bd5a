import random

import pytest

from qchroma.ff import field_for_order, field_make
from qchroma.matq import (MatrixFq, all_matrices, gaussian_binomial,
                          intersection_dim, is_rref, orthogonal_complement,
                          rank, rref, rref_pivots)

import naive

F2 = field_make(2, 1)


def _random_matrix(rng, q, r, c):
    F = field_for_order(q)
    return MatrixFq(F, tuple(tuple(rng.randrange(q) for _ in range(c))
                             for _ in range(r)))


def test_rref_identity_and_zero():
    I3 = MatrixFq.identity(F2, 3)
    assert rref(I3) == (I3, (0, 1, 2))
    Z = MatrixFq.zeros(F2, 2, 4)
    assert rref(Z) == (Z, ())


def test_rref_pivot_positions_example():
    # leading ones in columns 1, 2 and 4 (counting from 1)
    M = MatrixFq.from_indices(F2, [[1, 0, 1, 0, 1, 1],
                                   [0, 1, 1, 0, 0, 1],
                                   [0, 0, 0, 1, 1, 0]])
    R, pivots = rref(M)
    assert R == M and pivots == (0, 1, 3)
    assert is_rref(M)


@pytest.mark.parametrize("q,r,c", [(2, 3, 4), (3, 3, 3), (4, 2, 3)])
def test_rref_pivots_matches_elimination(q, r, c):
    # M is in RREF exactly when elimination leaves it unchanged, and then
    # its pivots are elimination's; every matrix of the shape is tried
    for M in all_matrices(field_for_order(q), r, c):
        R, pivots = rref(M)
        assert rref_pivots(M) == (pivots if R == M else None)
        assert is_rref(M) == (R == M)


def test_rank_against_span_size_oracle():
    rng = random.Random(7)
    for q in (2, 3, 4, 8, 9):
        for _ in range(25):
            rows = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(3)]
            F = field_for_order(q)
            assert rank(MatrixFq(F, tuple(rows))) == naive.naive_rank(q, rows)


def test_rank_trivial():
    assert rank(MatrixFq.identity(F2, 4)) == 4
    assert rank(MatrixFq.zeros(F2, 3, 3)) == 0


def test_intersection_dim_cases():
    U = MatrixFq.from_indices(F2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    W = MatrixFq.from_indices(F2, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert intersection_dim(U, U) == 2
    assert intersection_dim(U, W) == 0
    with pytest.raises(ValueError):
        intersection_dim(U, MatrixFq.identity(F2, 3))
    F3 = field_make(3, 1)
    with pytest.raises(ValueError):
        intersection_dim(U, MatrixFq.identity(F3, 4))


def test_intersection_dim_against_vector_set_oracle():
    rng = random.Random(99)
    for q, n in ((2, 4), (3, 3)):
        for _ in range(20):
            A = _random_matrix(rng, q, 2, n)
            B = _random_matrix(rng, q, 2, n)
            got = intersection_dim(A, B)
            want = naive.naive_intersection_dim(
                q, naive.span(q, [list(r) for r in A.rows]),
                naive.span(q, [list(r) for r in B.rows]))
            assert got == want


def test_orthogonal_complement_examples():
    assert orthogonal_complement(MatrixFq.identity(F2, 3)).nrows == 0
    e1 = MatrixFq.from_indices(F2, [[1, 0]])
    assert orthogonal_complement(e1).rows == ((0, 1),)
    v = MatrixFq.from_indices(F2, [[1, 1]])
    assert orthogonal_complement(v).rows == ((1, 1),)  # self-orthogonal over F_2
    with pytest.raises(ValueError):
        orthogonal_complement(MatrixFq.from_indices(F2, [[1, 0], [1, 0]]))


def test_orthogonal_complement_against_oracle():
    rng = random.Random(5)
    for q, n in ((2, 4), (3, 3), (8, 3), (9, 3)):
        for _ in range(15):
            M = _random_matrix(rng, q, 2, n)
            if rank(M) != 2:
                continue
            W = orthogonal_complement(M)
            got = naive.span(q, [list(r) for r in W.rows]) if W.nrows else \
                frozenset({tuple([0] * n)})
            want = naive.naive_orthogonal(q, [list(r) for r in M.rows], n)
            assert got == want


def test_duality_dimension_and_involution():
    for q, n in ((2, 4), (3, 4), (256, 4), (257, 4)):
        F = field_for_order(q)
        rng = random.Random(n * q)
        for _ in range(20):
            M = _random_matrix(rng, q, 2, n)
            if rank(M) != 2:
                continue
            R = rref(M)[0]
            W = orthogonal_complement(R)
            assert W.nrows == n - 2
            assert orthogonal_complement(W) == R


def test_gaussian_binomial_values_and_oracle():
    assert gaussian_binomial(7, 0, 2) == 1
    # oracle: count full-rank RREF matrices directly
    cnt = sum(1 for M in all_matrices(F2, 2, 4) if is_rref(M) and rank(M) == 2)
    assert cnt == 35 == gaussian_binomial(4, 2, 2)
    assert gaussian_binomial(5, 3, 2) == gaussian_binomial(5, 2, 2) == 155


def test_all_matrices_counts_in_base_q_order():
    # the k-th matrix holds k's base-3 digits row-major, the last cell fastest
    F3 = field_make(3, 1)
    mats = list(all_matrices(F3, 2, 2))
    assert len(mats) == 81
    for k, M in enumerate(mats):
        d = naive.base_q_digits(k, 3, 4)
        assert M.rows == (d[:2], d[2:])


def test_gaussian_binomial_errors():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)


def test_gaussian_binomial_is_exact_big_int():
    v = gaussian_binomial(40, 20, 5)
    assert v % 10 != 0 or v > 2 ** 64  # just force full evaluation
    assert v == gaussian_binomial(40, 20, 5)
    assert v > 2 ** 64  # would overflow fixed-width arithmetic


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixFq.from_indices(F2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        MatrixFq.from_indices(F2, [[0, 2]])
    F4 = field_make(2, 2)
    with pytest.raises(ValueError):
        MatrixFq.identity(F2, 2).stack(MatrixFq.identity(F4, 2))
