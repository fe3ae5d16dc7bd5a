"""One-command property battery: every identity the library leans on.

Each suite either passes or returns a short failure note; `run_selftest`
prints one line per suite and reports overall success.  Randomized trials
draw from a caller-supplied seed so reruns are reproducible.

This module is the one home of these property checks: `tests/test_selftest.py`
runs each suite as its own test, and no test repeats a suite's body.  The
suites live in the package so that `qchroma selftest` runs without pytest
and without the test tree.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from . import colouring as col
from . import ff, johnson, oracle
from . import grassmann as gr
from . import rankmetric as rm
from .matq import (MatrixFq, all_matrices, gaussian_binomial, intersection_dim,
                   is_rref, orthogonal_complement, rank, rref)

Suite = Callable[[random.Random], str]


def _field_axioms(rng: random.Random) -> str:
    return _first_failure(_field_axioms_at(q) for q in
                          (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64))


def _field_axioms_at(q: int) -> str:
    F = ff.field_for_order(q)
    for a, b in itertools.product(range(q), repeat=2):
        ab, a_b = F.mul(a, b), F.add(a, b)
        if ab != F.mul(b, a):
            return f"commutativity fails in GF({q})"
        for c in range(q):
            b_c = F.add(b, c)
            if F.mul(ab, c) != F.mul(a, F.mul(b, c)):
                return f"associativity fails in GF({q})"
            if F.mul(a, b_c) != F.add(ab, F.mul(a, c)):
                return f"distributivity fails in GF({q})"
            if F.add(a_b, c) != F.add(a, b_c):
                return f"additive associativity fails in GF({q})"
    for a in range(q):
        if F.sub(F.add(a, 1), 1) != a:
            return f"subtraction fails in GF({q})"
        if a and F.mul(a, F.inv(a)) != 1:
            return f"inverse fails in GF({q})"
    return ""


def _first_failure(notes) -> str:
    """The first non-empty note of a lazy sequence of checks, or ""."""
    return next((note for note in notes if note), "")


def _dlog_roundtrip(rng: random.Random) -> str:
    return _first_failure(_dlog_roundtrip_at(q) for q in
                          (7, 16, 64, 81, 125, 243, 512, 625, 4096))


def _dlog_roundtrip_at(q: int) -> str:
    F = ff.field_for_order(q)
    g = ff.primitive_element(F)
    for e in range(q - 1):
        x = F.power(g, e)
        if ff.discrete_log(F, g, x) != e:
            return f"dlog roundtrip fails in GF({q}) at e={e}"
    return ""


def _field_determinism(rng: random.Random) -> str:
    for p, k in ((2, 4), (3, 3), (3, 4), (5, 2), (2, 12)):
        a = ff.field_make(p, k)
        ff.field_make.cache_clear()
        ff.relative_extension.cache_clear()
        b = ff.field_make(p, k)
        if a.modulus != b.modulus or a != b:
            return f"modulus for GF({p}^{k}) not deterministic"
    return ""


def _rref_properties(rng: random.Random) -> str:
    # 256 and 257 lie either side of the elimination tables' size limit
    for q in (2, 3, 4, 5, 8, 9, 256, 257):
        F = ff.field_for_order(q)
        for _ in range(60):
            r = rng.randint(1, 4)
            c = rng.randint(1, 5)
            M = MatrixFq(F, tuple(tuple(rng.randrange(q) for _ in range(c))
                                  for _ in range(r)))
            R, piv = rref(M)
            if rref(R)[0] != R:
                return "rref is not idempotent"
            if not is_rref(R):
                return "rref output fails the rref predicate"
            if intersection_dim(M, R) != rank(M) or len(piv) != rank(M):
                return "rref does not preserve the row space"
    return ""


def _duality_dimensions(rng: random.Random) -> str:
    for q, n in ((2, 4), (2, 5), (3, 4)):
        for m in range(1, n + 1):
            for S in gr.enumerate_subspaces(q, n, m):
                Wb = orthogonal_complement(S.basis)
                if S.m + Wb.nrows != n:
                    return f"dim + dual dim != n at q={q}, n={n}"
                if m < n:
                    back = orthogonal_complement(Wb)
                    if back != S.basis:
                        return f"double dual differs at q={q}, n={n}, m={m}"
    return ""


def _gaussian_symmetry(rng: random.Random) -> str:
    for q in (2, 3, 4, 5):
        for n in range(9):
            for m in range(n + 1):
                if gaussian_binomial(n, m, q) != gaussian_binomial(n, n - m, q):
                    return f"symmetry fails at (n={n}, m={m}, q={q})"
    return ""


def _enumeration_counts(rng: random.Random) -> str:
    return _first_failure(_enumeration_counts_at(q, n)
                          for q in (2, 3) for n in range(2, 7))


def _enumeration_counts_at(q: int, n: int) -> str:
    for m in range(1, n + 1):
        subs = list(gr.enumerate_subspaces(q, n, m))
        if len(subs) != gaussian_binomial(n, m, q):
            return f"count mismatch at (q={q}, n={n}, m={m})"
        if len(set(subs)) != len(subs):
            return f"repeated subspace at (q={q}, n={n}, m={m})"
    return ""


def _degree_regularity(rng: random.Random) -> str:
    # (2,5,4,1) is complete with t < 2m - n, so its degree is V - 1
    return _first_failure(_degree_regularity_at(p, want) for p, want in
                          (((2, 4, 2, 1), 18), ((2, 5, 2, 1), 42),
                           ((2, 5, 4, 1), 30), ((3, 4, 3, 1), 39)))


def _degree_regularity_at(p: tuple[int, int, int, int], want: int) -> str:
    got = gr.degree_formula(gr.GrassmannParams(*p))
    if got != want:
        return f"degree formula gives {got}, wanted {want}, at {p}"
    verts = list(gr.enumerate_subspaces(*p[:3]))
    degrees = [0] * len(verts)
    for (i, S), (j, T) in itertools.combinations(enumerate(verts), 2):
        if gr.adjacent(S, T, p[3]):
            degrees[i] += 1
            degrees[j] += 1
    if set(degrees) != {want}:
        return f"vertex degrees {sorted(set(degrees))} != formula {want} at {p}"
    return ""


def _schur_identity(rng: random.Random) -> str:
    # d_H(u, v) = w(u) + w(v) - 2 w(u*v), exhaustive on bitstrings
    for n in range(1, 11):
        for u in range(1 << n):
            for v in range(1 << n):
                if (u ^ v).bit_count() != (u.bit_count() + v.bit_count()
                                           - 2 * (u & v).bit_count()):
                    return f"identity fails at n={n}"
    return ""


def _idvec_bound(rng: random.Random) -> str:
    # dim(S ∩ T) never exceeds the overlap of identifying vectors
    for q, n, m in ((2, 4, 2), (2, 5, 2)):
        verts = list(gr.enumerate_subspaces(q, n, m))
        for i, S in enumerate(verts):
            for T in verts[i + 1:]:
                overlap = sum(a & b for a, b in zip(S.idvec, T.idvec))
                if intersection_dim(S.basis, T.basis) > overlap:
                    return f"identifying-vector bound fails at (q={q}, n={n}, m={m})"
    return ""


def _lifting_dimension(rng: random.Random) -> str:
    return (_lifting_exhaustive_2_2_2()
            or _first_failure(_lifting_randomized(q, m, h, rng)
                              for q, m, h in ((2, 2, 3), (3, 2, 2))))


def _lifting_exhaustive_2_2_2() -> str:
    F2 = ff.field_for_order(2)
    mats = list(all_matrices(F2, 2, 2))
    for u in gr.weight_vectors_lex(4, 2):
        for A in mats:
            for B in mats:
                diff = _mat_sub(A, B)
                if intersection_dim(rm.lift(u, A), rm.lift(u, B)) != 2 - rank(diff):
                    return "lifting dimension law fails exhaustively"
    return ""


def _lifting_randomized(q: int, m: int, h: int, rng: random.Random) -> str:
    F = ff.field_for_order(q)
    idvecs = gr.weight_vectors_lex(m + h, m)
    for _ in range(1000):
        u = idvecs[rng.randrange(len(idvecs))]
        A = MatrixFq(F, tuple(tuple(rng.randrange(q) for _ in range(h))
                              for _ in range(m)))
        B = MatrixFq(F, tuple(tuple(rng.randrange(q) for _ in range(h))
                              for _ in range(m)))
        got = intersection_dim(rm.lift(u, A), rm.lift(u, B))
        if got != m - rank(_mat_sub(A, B)):
            return f"lifting dimension law fails at (q={q}, m={m}, h={h})"
    return ""


def _mat_sub(A: MatrixFq, B: MatrixFq) -> MatrixFq:
    F = A.field
    return MatrixFq(F, tuple(tuple(F.sub(x, y) for x, y in zip(ra, rb))
                             for ra, rb in zip(A.rows, B.rows)))


def _coset_families(rng: random.Random) -> str:
    # within one family: pairwise intersection < t; across indices: disjoint
    code = rm.gabidulin_build(2, 2, 2, 2)
    F2 = ff.field_for_order(2)
    for u in gr.weight_vectors_lex(4, 2):
        families: dict[int, list] = {}
        for A in all_matrices(F2, 2, 2):
            L = rm.lift(u, A)
            if not is_rref(L):
                continue
            families.setdefault(rm.coset_index(code, A), []).append(
                gr.Subspace(L))
        seen: set = set()
        for i, fam in families.items():
            if len(fam) > code.size:
                return "family larger than the code"
            for a in range(len(fam)):
                if fam[a] in seen:
                    return "families with distinct indices overlap"
                for b in range(a + 1, len(fam)):
                    if intersection_dim(fam[a].basis, fam[b].basis) > 0:
                        return "family is not a coclique"
            seen.update(fam)
        if not families:
            return "no lift of an identifying vector is in RREF"
    return ""


def _code_properties(rng: random.Random) -> str:
    for q, m, h, d in ((2, 2, 2, 2), (2, 2, 3, 2), (3, 2, 2, 2), (2, 3, 3, 3)):
        code = rm.gabidulin_build(q, m, h, d)
        if code.size != q ** (max(m, h) * (min(m, h) - d + 1)):
            return f"size misses the Singleton bound at {(q, m, h, d)}"
        if rm.min_rank_distance(code) != d:
            return f"distance misses design value at {(q, m, h, d)}"
        words = [rm._flatten(w) for w in code.codewords()]
        wset = set(words)
        F = code.field
        for a, b in itertools.product(words, repeat=2):
            if tuple(F.sub(x, y) for x, y in zip(a, b)) not in wset:
                return f"code is not linear at {(q, m, h, d)}"
    return ""


def _johnson_properness(rng: random.Random) -> str:
    return _first_failure(
        _johnson_proper_at(n, m, t) or _gs_class_distance_at(n, m, t)
        for n, m, t in ((4, 2, 1), (5, 2, 1), (6, 3, 1), (6, 3, 2), (7, 3, 1),
                        (8, 4, 1)))


def _johnson_proper_at(n: int, m: int, t: int) -> str:
    gc = johnson.greedy_colouring(n, m, t)
    sc = johnson.gs_colouring(n, m, t)
    if not johnson.is_proper(gc):
        return f"greedy colouring improper at {(n, m, t)}"
    if not johnson.is_proper(sc):
        return f"sum colouring improper at {(n, m, t)}"
    if sc.palette > sc.modulus:
        return f"sum palette exceeds its residue ring at {(n, m, t)}"
    return ""


def _gs_class_distance_at(n: int, m: int, t: int) -> str:
    # each colour class is a constant-weight code of distance 2(m-t+1)
    classes: dict[int, list] = {}
    for S, c in johnson.gs_colouring(n, m, t).colours.items():
        classes.setdefault(c, []).append(set(S))
    for cls in classes.values():
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                dist = 2 * m - 2 * len(cls[i] & cls[j])
                if dist < 2 * (m - t + 1):
                    return f"colour class distance too small at {(n, m, t)}"
    return ""


def _johnson_bracket(rng: random.Random) -> str:
    for n, m, t in ((4, 2, 1), (5, 2, 1), (6, 3, 1), (6, 3, 2)):
        lower, _ = johnson.johnson_bounds(n, m, t)
        exact = oracle.exact_chromatic(oracle.johnson_graph(n, m, t))
        palette = johnson.greedy_colouring(n, m, t).palette
        if not exact.exact:
            return f"oracle failed to finish at {(n, m, t)}"
        if not lower <= exact.value <= palette:
            return (f"bracket fails at {(n, m, t)}: "
                    f"{lower} <= {exact.value} <= {palette}")
    return ""


def _same_class_lemma(rng: random.Random) -> str:
    # same Johnson class but different identifying vectors => dim < t
    for q, n, m, t in ((2, 4, 2, 1), (2, 6, 3, 1)):
        ctx = col.make_context(gr.GrassmannParams(q, n, m, t))
        by_class: dict[int, list] = {}
        for S in gr.enumerate_subspaces(q, n, m):
            by_class.setdefault(ctx.class_of_idvec[S.idvec], []).append(S)
        for members in by_class.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    S, T = members[i], members[j]
                    if S.idvec != T.idvec and \
                            intersection_dim(S.basis, T.basis) >= t:
                        return f"same-class lemma fails at {(q, n, m, t)}"
    return ""


def _palette_within_bound(rng: random.Random) -> str:
    for q, n, m, t in ((2, 4, 2, 1), (3, 4, 2, 1), (2, 5, 2, 1), (2, 5, 3, 2),
                       (2, 6, 3, 1), (2, 6, 3, 2)):
        cert = col.full_colouring(col.make_context(gr.GrassmannParams(q, n, m, t)),
                                  verify=False)
        if cert.palette_used > cert.bounds["theorem_upper"]:
            return f"palette exceeds bound at {(q, n, m, t)}"
    return ""


def _duality_consistency(rng: random.Random) -> str:
    # every vertex of J_2(5,3,2), then random vertices of J_2(11,7,5), whose
    # complements have four rows, and of J_3(5,3,2), which is not over F_2
    for p, samples in (((2, 5, 3, 2), 0), ((2, 11, 7, 5), 200), ((3, 5, 3, 2), 200)):
        params = gr.GrassmannParams(*p)
        ctx = col.make_context(params)
        dual = col.make_context(params.dual())
        verts = ([_random_vertex(params, rng) for _ in range(samples)] if samples
                 else gr.enumerate_subspaces(*p[:3]))
        for S in verts:
            if col.colour_subspace(ctx, S) != col.colour_subspace(dual, gr.dualize(S)):
                return f"dual-regime colour disagrees with the pulled-back colour at {p}"
    return ""


def _random_vertex(params: gr.GrassmannParams, rng: random.Random) -> gr.Subspace:
    """The row space of a random identifying vector lifted with a random block."""
    q, n, m = params.q, params.n, params.m
    ones = rng.sample(range(n), m)
    A = MatrixFq(params.field, tuple(tuple(rng.randrange(q) for _ in range(n - m))
                                     for _ in range(m)))
    return gr.Subspace.from_matrix(rm.lift([int(j in ones) for j in range(n)], A))


def _clique_witness(rng: random.Random) -> str:
    # the m-spaces through a fixed t-space form a clique of the right size
    F2 = ff.field_for_order(2)
    fixed = gr.Subspace(MatrixFq.from_indices(F2, [[1, 0, 0, 0]]))
    members = [S for S in gr.enumerate_subspaces(2, 4, 2)
               if intersection_dim(S.basis, fixed.basis) == 1]
    if len(members) != gaussian_binomial(3, 1, 2):
        return f"witness has {len(members)} members, wanted 7"
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not gr.adjacent(members[i], members[j], 1):
                return "witness is not a clique"
    return ""


def _oracle_sanity(rng: random.Random) -> str:
    g = oracle.build_graph(gr.GrassmannParams(2, 4, 2, 1))
    ch = oracle.exact_chromatic(g)
    return _oracle_values(g, ch) or _oracle_determinism(g, ch)


def _oracle_values(g: oracle.DenseGraph, ch: oracle.ChromaticResult) -> str:
    mc = ch.clique
    if not (mc.exact and ch.exact):
        return "oracle failed to finish on 35 vertices"
    if ch.value < mc.size:
        return "chromatic below clique"
    if (mc.size, ch.value) != (7, 7):
        return f"expected (7, 7), got {(mc.size, ch.value)}"
    for a, b in itertools.combinations(mc.witness, 2):
        if not g.adj[a] >> b & 1:
            return "oracle clique witness is not a clique"
    # the witness colouring must itself be proper
    for i in range(g.num_vertices):
        mask = g.adj[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if ch.colouring[i] == ch.colouring[j]:
                return "oracle colouring witness is improper"
    return ""


def _oracle_determinism(g: oracle.DenseGraph, ch: oracle.ChromaticResult) -> str:
    if oracle.exact_chromatic(g) != ch:
        return "oracle is not deterministic"
    return ""


SUITES: list[tuple[str, Suite]] = [
    ("field axioms (exhaustive to order 64)", _field_axioms),
    ("discrete log round trip", _dlog_roundtrip),
    ("field construction determinism", _field_determinism),
    ("rref idempotence and row space", _rref_properties),
    ("orthogonal duality dimensions", _duality_dimensions),
    ("gaussian binomial symmetry", _gaussian_symmetry),
    ("subspace enumeration counts", _enumeration_counts),
    ("degree formula regularity", _degree_regularity),
    ("hamming/schur weight identity", _schur_identity),
    ("identifying vector intersection bound", _idvec_bound),
    ("lifting intersection law", _lifting_dimension),
    ("coset families are disjoint cocliques", _coset_families),
    ("code size, distance and linearity", _code_properties),
    ("johnson colourings proper + class distance", _johnson_properness),
    ("johnson bounds bracket the oracle", _johnson_bracket),
    ("same-class different-idvec lemma", _same_class_lemma),
    ("palette within theorem bound", _palette_within_bound),
    ("dual-regime colour consistency", _duality_consistency),
    ("fixed-subspace clique witness", _clique_witness),
    ("oracle solver sanity", _oracle_sanity),
]


def run_selftest(seed: int = 8128, out=None) -> bool:
    import sys
    out = out or sys.stdout
    ok = True
    for name, suite in SUITES:
        note = suite(random.Random(seed))
        if note:
            ok = False
            print(f"FAIL {name}: {note}", file=out)
        else:
            print(f"PASS {name}", file=out)
    return ok
