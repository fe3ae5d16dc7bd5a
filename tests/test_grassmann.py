import math

import pytest

from qchroma import selftest
from qchroma.ff import field_for_order, field_make
from qchroma.grassmann import (GrassmannParams, Subspace, _entry_from_text,
                               _entry_to_text, adjacent, block_keys, decode_subspace,
                               degree_formula, dualize, encode_subspace,
                               enumerate_subspaces, enumeration_index, free_cells,
                               identifying_vector, rref_bases, weight_vectors_lex)
from qchroma.matq import MatrixFq, gaussian_binomial

import naive

F2 = field_make(2, 1)


def test_params_validation():
    GrassmannParams(2, 4, 2, 1)
    with pytest.raises(ValueError):
        GrassmannParams(6, 4, 2, 1)   # not a prime power
    with pytest.raises(ValueError):
        GrassmannParams(2, 4, 4, 1)   # m = n
    with pytest.raises(ValueError):
        GrassmannParams(2, 4, 2, 2)   # t = m
    with pytest.raises(ValueError):
        GrassmannParams(2, 4, 2, 0)   # t < 1
    assert GrassmannParams(3, 7, 4, 3).dual() == GrassmannParams(3, 7, 3, 2)
    with pytest.raises(ValueError):
        GrassmannParams(2, 5, 3, 1).dual()   # complete regime: n - 2m + t = 0


def test_enumerate_tiny_cases():
    assert [S.basis.rows for S in enumerate_subspaces(2, 2, 2)] == [((1, 0), (0, 1))]
    got = {S.basis.rows for S in enumerate_subspaces(2, 2, 1)}
    assert got == {((1, 0),), ((0, 1),), ((1, 1),)}


@pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (3, 4)])
def test_enumerate_counts(q, n):
    assert selftest._enumeration_counts_at(q, n) == ""


def test_enumerate_matches_vector_set_oracle():
    # completely independent model: subspaces as sets of their vectors
    want = naive.naive_subspaces(2, 4, 2)
    got = {naive.span(2, [list(r) for r in S.basis.rows])
           for S in enumerate_subspaces(2, 4, 2)}
    assert got == want


def test_enumerate_rejects_bad_m():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(2, 3, 0))
    with pytest.raises(ValueError):
        list(enumerate_subspaces(2, 3, 4))


def test_enumeration_order_and_index():
    # identifying vectors ascend lexicographically, then free entries count up
    seen_idvecs = []
    for pos, S in enumerate(enumerate_subspaces(2, 4, 2)):
        assert enumeration_index(S) == pos
        if not seen_idvecs or seen_idvecs[-1] != S.idvec:
            seen_idvecs.append(S.idvec)
    assert seen_idvecs == sorted(seen_idvecs)
    assert seen_idvecs == weight_vectors_lex(4, 2)


def test_identifying_vector_examples():
    M = MatrixFq.from_indices(F2, [[1, 0, 1, 0, 1, 1],
                                   [0, 1, 1, 0, 0, 1],
                                   [0, 0, 0, 1, 1, 0]])
    assert identifying_vector(Subspace(M)) == (1, 1, 0, 1, 0, 0)
    assert Subspace(MatrixFq.identity(F2, 4)).idvec == (1, 1, 1, 1)
    e3 = MatrixFq.from_indices(F2, [[0, 0, 1, 0, 0]])
    assert Subspace(e3).idvec == (0, 0, 1, 0, 0)


def test_subspace_rejects_bad_basis():
    not_rref, zero_row = "not in reduced row-echelon form", "has a zero row"
    with pytest.raises(ValueError, match=not_rref):
        Subspace(MatrixFq.from_indices(F2, [[0, 1], [1, 0]]))  # leads out of order
    with pytest.raises(ValueError, match=zero_row):
        Subspace(MatrixFq.from_indices(F2, [[1, 0], [0, 0]]))  # trailing zero row
    with pytest.raises(ValueError, match=not_rref):
        Subspace(MatrixFq.from_indices(F2, [[0, 0, 0], [0, 1, 0]]))  # zero row above
    with pytest.raises(ValueError, match=not_rref):
        Subspace(MatrixFq.from_indices(field_make(3, 1), [[2, 1], [0, 0]]))  # lead 2
    with pytest.raises(ValueError, match=not_rref):
        Subspace(MatrixFq.from_indices(F2, [[1, 1, 0], [0, 1, 1]]))  # 1 above a pivot
    # from_matrix canonicalizes instead
    S = Subspace.from_matrix(MatrixFq.from_indices(F2, [[0, 1], [1, 0]]))
    assert S.basis == MatrixFq.identity(F2, 2)
    with pytest.raises(ValueError):
        Subspace.from_matrix(MatrixFq.from_indices(F2, [[1, 1], [1, 1]]))


@pytest.mark.parametrize("q,n,m", [(2, 5, 2), (4, 4, 2), (9, 3, 1)])
def test_pivot_layout_is_interned(q, n, m):
    # every vertex, decoded from its key or spanned by its rows in reverse
    # order too, holds the pivots and identifying vector that every vertex
    # with its pivot set shares
    field = field_for_order(q)
    layouts = {}
    for S in enumerate_subspaces(q, n, m):
        spans = Subspace.from_matrix(MatrixFq(field, S.basis.rows[::-1]))
        for T in (S, decode_subspace(encode_subspace(S)), spans):
            assert T.basis == S.basis
            assert T.pivot_columns() == tuple(j for j, b in enumerate(T.idvec) if b)
            pivots, idvec = layouts.setdefault(T.pivot_columns(), (T.pivots, T.idvec))
            assert T.pivots is pivots and T.idvec is idvec
    assert len(layouts) == math.comb(n, m)


def test_adjacency():
    e12 = Subspace(MatrixFq.from_indices(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    e13 = Subspace(MatrixFq.from_indices(F2, [[1, 0, 0, 0], [0, 0, 1, 0]]))
    e34 = Subspace(MatrixFq.from_indices(F2, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    assert adjacent(e12, e13, 1)
    assert not adjacent(e12, e34, 1)
    with pytest.raises(ValueError):
        adjacent(e12, e12, 1)


def test_adjacency_agrees_with_stacked_rank_route():
    verts = list(enumerate_subspaces(2, 4, 2))
    from qchroma.matq import rank
    for i, S in enumerate(verts):
        for T in verts[i + 1:]:
            direct = 2 * 2 - rank(S.basis.stack(T.basis))
            assert adjacent(S, T, 1) == (direct >= 1)


@pytest.mark.parametrize("params,want", [
    ((2, 4, 2, 1), 18),
    ((2, 5, 2, 1), 42),
    ((2, 5, 4, 1), 30),  # complete with t < 2m - n: degree V - 1
    ((3, 4, 3, 1), 39),
])
def test_degree_formula_against_neighbour_counts(params, want):
    assert selftest._degree_regularity_at(params, want) == ""


def test_degree_formula_single_term_when_t_is_m_minus_1():
    p = GrassmannParams(3, 5, 2, 1)
    q, n, m = p.q, p.n, p.m
    single = gaussian_binomial(m, 1, q) * gaussian_binomial(n - m, 1, q) * q
    assert degree_formula(p) == single


def test_dualize():
    e12 = Subspace(MatrixFq.from_indices(F2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    assert dualize(e12).basis.rows == ((0, 0, 1, 0), (0, 0, 0, 1))
    for S in enumerate_subspaces(2, 5, 3):
        assert dualize(dualize(S)) == S


def test_duality_is_graph_isomorphism_2_5():
    # adjacency preserved between J_2(5,3,2) and J_2(5,2,1)
    verts = list(enumerate_subspaces(2, 5, 3))
    duals = [dualize(S) for S in verts]
    assert len(set(duals)) == len(verts)
    for i in range(0, len(verts), 7):       # sampled pairs; exhaustive in acceptance
        for j in range(i + 1, len(verts), 5):
            assert adjacent(verts[i], verts[j], 2) == adjacent(duals[i], duals[j], 1)


def test_encode_decode_roundtrip():
    for q, n, m in ((2, 4, 2), (3, 3, 2), (4, 3, 2)):
        for S in enumerate_subspaces(q, n, m):
            key = encode_subspace(S)
            assert decode_subspace(key) == S


@pytest.mark.parametrize("p,k", [(11, 1), (13, 1), (11, 2)])
def test_entry_text_roundtrips_above_p_10(p, k):
    # an F_11 element of value 10 is the one coefficient "10", not "1-0"
    field = field_make(p, k)
    texts = [_entry_to_text(field, v) for v in range(field.order)]
    assert len(set(texts)) == field.order
    assert [_entry_from_text(field, s) for s in texts] == list(range(field.order))
    S = decode_subspace("q=11;n=4;m=2;rows=[[0,1,0,0],[0,0,1,10]]")
    assert S.basis.rows[1][3] == 10


def test_decode_rejects_malformed_keys():
    for bad in ["", "q=2;n=2;m=1;rows=[[1,0]", "q=2;n=2;m=2;rows=[[1,0]]",
                "n=2;m=1;rows=[[1,0]]", "q=2;n=2;m=1;rows=[[0,0]]",
                "q=2;n=2;m=2;rows=[[0,1],[1,0]]"]:
        with pytest.raises(ValueError):
            decode_subspace(bad)


@pytest.mark.parametrize("q, shapes", [
    (2, [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)]),
    (3, [(2, 1), (3, 2), (4, 2)]),
    (4, [(2, 1), (3, 2), (4, 2)]),
    (9, [(2, 1), (3, 1), (3, 2)]),    # two-digit entry texts
    (11, [(2, 1), (3, 1), (3, 2)]),   # the entry text "10"
])
def test_block_keys_match_template_rendering_and_encode_subspace(q, shapes):
    field = field_for_order(q)
    for n, m in shapes:
        idvecs = weight_vectors_lex(n, m)
        assert not free_cells(idvecs[0])  # the pivots at the right end
        for idvec in idvecs:
            keys = block_keys(field, idvec)
            assert keys == naive.template_keys(field, idvec)
            assert keys == [encode_subspace(Subspace(MatrixFq(field, rows)))
                            for rows in rref_bases(q, idvec)]
