import os
import random
import time

import pytest

import naive
from qchroma import oracle, selftest
from qchroma.grassmann import (GrassmannParams, adjacent, encode_subspace,
                               enumerate_subspaces)
from qchroma.oracle import (DenseGraph, build_graph, dense_graph, dsatur,
                            exact_chromatic, johnson_graph, max_clique,
                            write_dimacs)


def _cycle(n):
    return dense_graph([str(i) for i in range(n)],
                       lambda i, j: (j - i) % n in (1, n - 1))


def test_dense_graph_validation():
    with pytest.raises(ValueError):
        DenseGraph(("a", "b"), (0b10, 0b00))   # asymmetric
    with pytest.raises(ValueError):
        DenseGraph(("a",), (0b1,))             # loop
    g = _cycle(5)
    assert g.num_edges == 5 and all(g.degree(i) == 2 for i in range(5))


def test_dense_graph_refusals():
    # each refusal keeps its message: bits past the last vertex, a loop,
    # and an edge present in one direction only, either way round
    with pytest.raises(ValueError, match="beyond the vertex range"):
        DenseGraph(("a", "b"), (0b100, 0b000))
    with pytest.raises(ValueError, match="loop at vertex 1"):
        DenseGraph(("a", "b", "c"), (0b000, 0b010, 0b000))
    for adj in ((0b010, 0b000, 0b000), (0b000, 0b000, 0b010),
                (0b110, 0b001, 0b000)):
        with pytest.raises(ValueError, match="not symmetric"):
            DenseGraph(("a", "b", "c"), adj)
    assert DenseGraph(("a", "b", "c"), (0b110, 0b001, 0b001)).num_edges == 2


def test_max_clique_small():
    tri = dense_graph("abc", lambda i, j: True)
    res = max_clique(tri)
    assert res.size == 3 and res.exact and res.witness == (0, 1, 2)
    empty = dense_graph("abc", lambda i, j: False)
    assert max_clique(empty).size == 1
    c5 = _cycle(5)
    assert max_clique(c5).size == 2


def test_exact_chromatic_small():
    assert exact_chromatic(dense_graph("abc", lambda i, j: True)).value == 3
    assert exact_chromatic(dense_graph("abc", lambda i, j: False)).value == 1
    assert exact_chromatic(_cycle(5)).value == 3   # odd cycle
    assert exact_chromatic(_cycle(6)).value == 2


def test_dsatur_is_proper_and_deterministic():
    g = johnson_graph(6, 3, 1)
    colours = dsatur(g.adj)
    assert colours == dsatur(g.adj)
    for i in range(g.num_vertices):
        mask = g.adj[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            assert colours[i] != colours[j]


def _random_graph(rng, n):
    p = rng.random()
    return dense_graph([str(i) for i in range(n)], lambda i, j: rng.random() < p)


# the Johnson ladder of test_johnson.py::test_both_methods_proper, then
# Grassmann graphs J_q(n, m, t) by (q, n, m, t)
SEARCH_LADDER = ([("johnson", nmt) for nmt in ((4, 2, 1), (5, 2, 1), (6, 3, 1), (6, 3, 2),
                                                (7, 3, 1), (8, 4, 1))]
                 + [("grassmann", p) for p in ((2, 5, 2, 1), (3, 4, 2, 1), (2, 5, 3, 2))])


def _ladder_graph(family, params):
    if family == "johnson":
        return johnson_graph(*params)
    return build_graph(GrassmannParams(*params))


def test_dsatur_matches_scan_reference():
    rng = random.Random(2026)
    graphs = [_random_graph(rng, rng.randrange(0, 60)) for _ in range(200)]
    graphs += [_ladder_graph(*case) for case in SEARCH_LADDER]
    for g in graphs:
        assert dsatur(g.adj) == naive.naive_dsatur(g.adj)


@pytest.mark.parametrize("case", SEARCH_LADDER + [("random", seed) for seed in range(3)])
def test_decision_search_matches_scan_reference(case):
    # the same (status, colouring) from the same budget nodes, for every k
    # from the clique bound to the greedy bound
    if case[0] == "random":
        rng = random.Random(case[1])
        graphs = [_random_graph(rng, rng.randrange(1, 30)) for _ in range(10)]
    else:
        graphs = [_ladder_graph(*case)]
    for g in graphs:
        clique = max_clique(g).witness
        for k in range(len(clique), max(dsatur(g.adj)) + 2):
            for budget in (2_000, 20_000):
                ours, ref = oracle._Budget(budget), oracle._Budget(budget)
                assert (oracle._k_colourable(g, k, clique, ours), ours.left) == \
                    (naive.naive_k_colourable(g, k, clique, ref), ref.left)


def test_decision_search_on_1395_vertices_is_fast():
    # J_2(6,3,1): the search behind `qchroma oracle --q 2 --n 6 --m 3 --t 1`
    g = build_graph(GrassmannParams(2, 6, 3, 1))
    clique = max_clique(g, budget=300).witness
    bud = oracle._Budget(20_000)
    start = time.perf_counter()
    status, _ = oracle._k_colourable(g, len(clique), clique, bud)
    assert time.perf_counter() - start < 3.0
    assert (status, bud.left) == ("budget", -1)


def test_build_graph_vertex_and_edge_counts():
    g = build_graph(GrassmannParams(2, 4, 2, 1))
    assert (g.num_vertices, g.num_edges) == (35, 315)
    assert all(g.degree(i) == 18 for i in range(35))
    g = build_graph(GrassmannParams(2, 5, 2, 1))
    assert g.num_vertices == 155
    assert all(g.degree(i) == 42 for i in range(155))


@pytest.mark.parametrize("p", [(2, 4, 2, 1), (2, 5, 2, 1), (3, 4, 2, 1), (2, 5, 3, 2)])
def test_build_graph_matches_pairwise_adjacency(p):
    # shared t-subspaces against one `grassmann.adjacent` rank per pair
    params = GrassmannParams(*p)
    verts = list(enumerate_subspaces(*p[:3]))
    want = dense_graph([encode_subspace(S) for S in verts],
                       lambda i, j: adjacent(verts[i], verts[j], params.t))
    assert build_graph(params) == want


def test_build_graph_cap():
    with pytest.raises(ValueError):
        build_graph(GrassmannParams(2, 6, 3, 1), cap=100)


def test_grassmann_oracle_values():
    g = build_graph(GrassmannParams(2, 4, 2, 1))
    assert selftest._oracle_values(g, exact_chromatic(g)) == ""


def test_chromatic_budget_degrades_to_bracket():
    g = build_graph(GrassmannParams(2, 4, 2, 1))
    res = exact_chromatic(g, budget=3)
    assert not res.exact
    assert res.lower <= 7 <= res.upper
    with pytest.raises(ValueError):
        res.value
    # budget 0 expands nothing; a negative budget is refused, on any graph
    zero = exact_chromatic(g, budget=0)
    assert (zero.lower, zero.upper, zero.exact, zero.nodes) == (0, 7, False, 0)
    for graph in (g, dense_graph([], lambda i, j: False)):
        with pytest.raises(ValueError, match="budget"):
            max_clique(graph, budget=-1)
        with pytest.raises(ValueError, match="budget"):
            exact_chromatic(graph, budget=-5)


def test_oracle_determinism():
    g = build_graph(GrassmannParams(2, 4, 2, 1))
    assert selftest._oracle_determinism(g, exact_chromatic(g)) == ""


def test_exact_witness_translates_to_proper_subspace_colouring():
    from qchroma.grassmann import adjacent, decode_subspace
    g = build_graph(GrassmannParams(2, 4, 2, 1))
    ch = exact_chromatic(g)
    verts = [decode_subspace(lab) for lab in g.labels]
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if ch.colouring[i] == ch.colouring[j]:
                assert not adjacent(verts[i], verts[j], 1)


def test_exact_witness_passes_certificate_verification():
    # package the oracle's own colouring as a certificate and re-check it
    from qchroma import colouring as col
    params = GrassmannParams(2, 4, 2, 1)
    g = build_graph(params)
    ch = exact_chromatic(g)
    cert = col.ColourCertificate(
        params=params, regime="external", johnson_method=None,
        johnson_palette=None, code_params=None,
        colours=tuple(sorted(zip(g.labels, ch.colouring))),
        palette_used=len(set(ch.colouring)),
        bounds={"lower": 7, "theorem_upper": 12, "trivial_upper": 19},
        proper=None, pairs_checked=0, family_sizes={})
    rep = col.verify_properness(cert)
    assert rep.coverage_ok and rep.proper


def test_complement_degree_arithmetic():
    g = build_graph(GrassmannParams(2, 4, 2, 1))
    assert all(g.num_vertices - 1 - g.degree(i) == 16 for i in range(35))


def test_dimacs_export(tmp_path):
    g = build_graph(GrassmannParams(2, 4, 2, 1))
    path = os.path.join(tmp_path, "g.dimacs")
    write_dimacs(g, path, path + ".labels")
    lines = open(path).read().splitlines()
    assert lines[0] == "p edge 35 315"
    edges = [tuple(map(int, ln.split()[1:])) for ln in lines[1:]]
    assert len(edges) == 315
    assert all(1 <= i < j <= 35 for i, j in edges)
    assert edges == sorted(edges)
    labels = open(path + ".labels").read().splitlines()
    assert len(labels) == 35
    assert labels[0].split(" ", 1)[0] == "1"
    assert labels[0].split(" ", 1)[1] == g.labels[0]


# DSATUR colours this graph with 4 colours, but its chromatic number is 3,
# so the value comes from the decision search, not from the greedy bound
DSATUR_MISSES = (56, 140, 162, 99, 33, 157, 136, 102)


def _assert_exact_witness(g, ch):
    assert ch.exact and -1 not in ch.colouring
    assert len(set(ch.colouring)) == ch.value
    for i in range(g.num_vertices):
        mask = g.adj[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            assert ch.colouring[i] != ch.colouring[j]


def test_decision_search_returns_its_leaf_colouring():
    g = DenseGraph(tuple(map(str, range(8))), DSATUR_MISSES)
    assert max(dsatur(g.adj)) + 1 == 4
    ch = exact_chromatic(g)
    assert ch.value == 3
    _assert_exact_witness(g, ch)


def test_decision_search_depth_is_not_bounded_by_the_python_stack():
    # 1 508 vertices, below the oracle's cap: one search frame per vertex
    g = DenseGraph(tuple(map(str, range(1508))), DSATUR_MISSES + (0,) * 1500)
    start = time.perf_counter()
    ch = exact_chromatic(g)
    assert time.perf_counter() - start < 1.0
    assert ch.value == 3
    _assert_exact_witness(g, ch)


def test_clique_search_depth_is_not_bounded_by_the_python_stack():
    # the complete graph on 1 500 vertices, below the oracle's cap: the
    # search descends one frame per clique vertex
    n = 1500
    full = (1 << n) - 1
    g = DenseGraph(tuple(map(str, range(n))), tuple(full ^ 1 << i for i in range(n)))
    start = time.perf_counter()
    res = max_clique(g)
    assert time.perf_counter() - start < 1.0
    assert (res.size, res.exact) == (n, True)
    assert res.witness == tuple(range(n))
