"""Acceptance suite: one test per exit criterion, exact values, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected number here is either trivially forced, derived
from an independent brute-force oracle in this repository, or a published
reference value; nothing is tuned to the implementation under test.
"""

import itertools
import json
import os
import random
import time

from qchroma import colouring as col
from qchroma import johnson, oracle, selftest
from qchroma import grassmann as gr
from qchroma import rankmetric as rm
from qchroma.cli import main
from qchroma.matq import gaussian_binomial


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def check(self, label):
        assert self.elapsed < self.limit, \
            f"{label} took {self.elapsed:.2f}s, budget {self.limit}s"
        print(f"PASS {label} ({self.elapsed:.2f}s)")


def test_01_main_theorem_pipeline_direct_regime(tmp_path):
    # (2,4,2,1): proper colouring of all 35 vertices, palette <= 12
    with _Timer(5) as tm:
        cert_path = os.path.join(tmp_path, "cert.json")
        rc = main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                   "--verify", "--out", cert_path])
        assert rc == 0
        doc = json.loads(open(cert_path).read())
        assert len(doc["colours"]) == 35
        assert doc["verified"]["proper"] is True
        assert int(doc["provenance"]["palette_used"]) <= 12
        assert int(doc["johnson"]["palette"]) * 2 ** 2 == 12
    tm.check("criterion 1: direct-regime pipeline (2,4,2,1), palette <= 12")


def test_02_exact_value_cross_check():
    # chi(J_2(4,2,1)) = 7 = max clique = [3,1]_2
    with _Timer(60) as tm:
        g = oracle.build_graph(gr.GrassmannParams(2, 4, 2, 1))
        mc = oracle.max_clique(g)
        ch = oracle.exact_chromatic(g)
        assert mc.exact and mc.size == 7
        assert ch.exact and ch.value == 7
        assert gaussian_binomial(3, 1, 2) == 7
    tm.check("criterion 2: oracle chi = omega = [3,1]_2 = 7 on J_2(4,2,1)")


def test_03_lifting_lemma_exhaustive():
    # all weight-2 u in F_2^4, all 256 matrix pairs: dim = 2 - rk(A-B),
    # then 1000 random triples at each of (q,m,h) = (2,2,3) and (3,2,2)
    with _Timer(5) as tm:
        assert selftest._lifting_dimension(random.Random(8128)) == ""
    tm.check("criterion 3: lifting lemma, 1536 exhaustive triples, 0 failures")


def test_04_mrd_verification():
    # sizes must equal q^(h(m-d+1)): 4, 8, 9; min rank distance exactly 2
    with _Timer(30) as tm:
        for q, m, h, d in ((2, 2, 2, 2), (2, 2, 3, 2), (3, 2, 2, 2)):
            code = rm.gabidulin_build(q, m, h, d)
            assert code.size == q ** (h * (m - d + 1))
            assert rm.min_rank_distance(code) == d == 2
        sizes = [rm.gabidulin_build(*p).size
                 for p in ((2, 2, 2, 2), (2, 2, 3, 2), (3, 2, 2, 2))]
        assert sizes == [4, 8, 9]
    tm.check("criterion 4: MRD sizes (4, 8, 9) at Singleton equality, d = 2")


def test_05_coset_coclique_property():
    # (2,4,2,1): inside one lifted coset family, intersections stay below t;
    # distinct coset indices give disjoint families
    with _Timer(5) as tm:
        assert selftest._coset_families(random.Random(8128)) == ""
    tm.check("criterion 5: coset families are disjoint cocliques at (2,4,2,1)")


def test_06_duality():
    # adjacency-preserving bijection J_2(5,3,2) <-> J_2(5,2,1), all pairs;
    # dual-regime colouring proper
    with _Timer(30) as tm:
        threes = list(gr.enumerate_subspaces(2, 5, 3))
        twos = set(gr.enumerate_subspaces(2, 5, 2))
        duals = [gr.dualize(S) for S in threes]
        assert set(duals) == twos and len(set(duals)) == 155
        pairs = 0
        for i in range(len(threes)):
            for j in range(i + 1, len(threes)):
                assert gr.adjacent(threes[i], threes[j], 2) == \
                    gr.adjacent(duals[i], duals[j], 1)
                pairs += 1
        assert pairs == 155 * 154 // 2
        cert = col.full_colouring(col.make_context(gr.GrassmannParams(2, 5, 3, 2)))
        assert cert.regime == "dual" and cert.proper is True
    tm.check("criterion 6: duality isomorphism on 11935 pairs + proper dual colouring")


def test_07_johnson_layer():
    with _Timer(10) as tm:
        for n, m, t, r in ((4, 2, 1, 6), (6, 3, 1, 57)):
            c = johnson.gs_colouring(n, m, t)
            assert c.modulus == r and c.palette <= r
            assert johnson.is_proper(c)
        for p, h in ((5, 1), (5, 2), (7, 2)):
            bc = johnson.bose_chowla(p, h)
            sums = [sum(c) % bc.r for c in
                    itertools.combinations_with_replacement(bc.elements, h)]
            assert len(sums) == len(set(sums))
        for n, m, t, want in ((4, 2, 1, 3), (6, 3, 1, 10)):
            pal = johnson.greedy_colouring(n, m, t).palette
            exact = oracle.exact_chromatic(oracle.johnson_graph(n, m, t))
            assert exact.exact and pal == exact.value == want
    tm.check("criterion 7: GS palettes within r, Bose-Chowla verified, greedy = oracle")


def test_08_degree_formula():
    with _Timer(10) as tm:
        for q, n, m, t, want in ((2, 4, 2, 1, 18), (2, 5, 2, 1, 42)):
            params = gr.GrassmannParams(q, n, m, t)
            assert gr.degree_formula(params) == want
            g = oracle.build_graph(params)
            assert all(g.degree(i) == want for i in range(g.num_vertices))
    tm.check("criterion 8: degree formula = brute-force degree (18 and 42)")


def test_09_tightness_trend():
    # fixed (4,2,1), q in {2,3,4,5}: palette / q^2 <= 3; bounds bracket the
    # oracle where computed (q = 2)
    with _Timer(600) as tm:
        for q in (2, 3, 4, 5):
            params = gr.GrassmannParams(q, 4, 2, 1)
            cert = col.full_colouring(col.make_context(params), verify=True)
            assert cert.proper is True
            assert cert.palette_used <= 3 * q ** 2
            assert cert.bounds["lower"] == gaussian_binomial(3, 1, q)
            assert cert.bounds["lower"] <= cert.bounds["theorem_upper"]
            if q == 2:
                ch = oracle.exact_chromatic(oracle.build_graph(params))
                assert ch.exact
                assert cert.bounds["lower"] <= ch.value <= cert.palette_used
    tm.check("criterion 9: palette/q^2 <= 3 for q in {2,3,4,5}; bracket holds at q=2")


def test_10_scale_run():
    # (2,6,3,1): 1395 vertices, proper, palette <= 640, lower bound 155
    with _Timer(300) as tm:
        cert = col.full_colouring(col.make_context(gr.GrassmannParams(2, 6, 3, 1)),
                                  verify=True)
        assert len(cert.colours) == 1395
        assert cert.proper is True
        assert cert.palette_used <= 640
        assert cert.bounds["lower"] == 155 == gaussian_binomial(5, 2, 2)
    tm.check("criterion 10: scale run (2,6,3,1) verified proper, palette <= 640")
