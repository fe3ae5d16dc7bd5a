"""One-command property battery: every identity the library leans on.

Each suite either passes or returns a short failure note; `run_selftest`
prints one line per suite and reports overall success.  Randomized trials
draw from a caller-supplied seed so reruns are reproducible.
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
    orders = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64]
    for q in orders:
        F = ff.field_for_order(q)
        for a, b, c in itertools.product(range(q), repeat=3):
            if F.mul(F.mul(a, b), c) != F.mul(a, F.mul(b, c)):
                return f"associativity fails in GF({q})"
            if F.mul(a, b) != F.mul(b, a):
                return f"commutativity fails in GF({q})"
            if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
                return f"distributivity fails in GF({q})"
        for a in range(1, q):
            if F.mul(a, F.inv(a)) != 1:
                return f"inverse fails in GF({q})"
    return ""


def _dlog_roundtrip(rng: random.Random) -> str:
    for q in (16, 64, 243, 625, 4096):
        F = ff.field_for_order(q)
        g = ff.primitive_element(F)
        for e in range(q - 1):
            x = F.power(g, e)
            if ff.discrete_log(F, g, x) != e:
                return f"dlog roundtrip fails in GF({q}) at e={e}"
    return ""


def _field_determinism(rng: random.Random) -> str:
    for p, k in ((2, 4), (3, 3), (5, 2), (2, 12)):
        a = ff.field_make(p, k)
        ff.field_make.cache_clear()
        b = ff.field_make(p, k)
        if a.modulus != b.modulus:
            return f"modulus for GF({p}^{k}) not deterministic"
    return ""


def _rref_properties(rng: random.Random) -> str:
    for q in (2, 3, 4, 5):
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
    for q in (2, 3):
        for n in range(2, 7):
            for m in range(1, n + 1):
                got = sum(1 for _ in gr.enumerate_subspaces(q, n, m))
                if got != gaussian_binomial(n, m, q):
                    return f"count mismatch at (q={q}, n={n}, m={m})"
    return ""


def _degree_regularity(rng: random.Random) -> str:
    params = gr.GrassmannParams(2, 4, 2, 1)
    verts = list(gr.enumerate_subspaces(2, 4, 2))
    want = gr.degree_formula(params)
    for S in verts:
        deg = sum(1 for T in verts if T != S and gr.adjacent(S, T, 1))
        if deg != want:
            return f"vertex degree {deg} != formula {want}"
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
    F2 = ff.field_for_order(2)
    mats = list(all_matrices(F2, 2, 2))
    for u in gr.weight_vectors_lex(4, 2):
        for A in mats:
            for B in mats:
                diff = _mat_sub(A, B)
                if intersection_dim(rm.lift(u, A), rm.lift(u, B)) != 2 - rank(diff):
                    return "lifting dimension law fails exhaustively"
    for q, m, h in ((2, 2, 3), (3, 2, 2)):
        F = ff.field_for_order(q)
        n = m + h
        idvecs = gr.weight_vectors_lex(n, m)
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
        for _ in range(50):
            a = words[rng.randrange(len(words))]
            b = words[rng.randrange(len(words))]
            s = tuple(F.add(x, y) for x, y in zip(a, b))
            if s not in wset:
                return f"code is not linear at {(q, m, h, d)}"
    return ""


def _johnson_properness(rng: random.Random) -> str:
    cases = [(4, 2, 1), (5, 2, 1), (6, 3, 1), (6, 3, 2), (7, 3, 1), (8, 4, 1)]
    for n, m, t in cases:
        gc = johnson.greedy_colouring(n, m, t)
        sc = johnson.gs_colouring(n, m, t)
        if not johnson.is_proper(gc):
            return f"greedy colouring improper at {(n, m, t)}"
        if not johnson.is_proper(sc):
            return f"sum colouring improper at {(n, m, t)}"
        if sc.palette > sc.modulus:
            return f"sum palette exceeds its residue ring at {(n, m, t)}"
        # each colour class is a constant-weight code of distance 2(m-t+1)
        classes: dict[int, list] = {}
        for S, c in sc.colours.items():
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
    mc = ch.clique
    if not (mc.exact and ch.exact):
        return "oracle failed to finish on 35 vertices"
    if ch.value < mc.size:
        return "chromatic below clique"
    if (mc.size, ch.value) != (7, 7):
        return f"expected (7, 7), got {(mc.size, ch.value)}"
    # the witness colouring must itself be proper
    for i in range(g.num_vertices):
        mask = g.adj[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if ch.colouring[i] == ch.colouring[j]:
                return "oracle colouring witness is improper"
    again = oracle.exact_chromatic(g)
    if again.colouring != ch.colouring:
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
