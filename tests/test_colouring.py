import dataclasses
import functools
import random
import time

import pytest

import naive
from qchroma import colouring as col
from qchroma import grassmann, matq, rankmetric, verify
from qchroma.grassmann import (GrassmannParams, adjacent, decode_subspace,
                               dualize, encode_subspace, enumerate_subspaces)
from qchroma.matq import MatrixFq, gaussian_binomial, intersection_dim


def test_regimes_partition_valid_parameters():
    assert col.regime_of(GrassmannParams(2, 4, 2, 1)) == "direct"
    assert col.regime_of(GrassmannParams(2, 5, 3, 2)) == "dual"
    assert col.regime_of(GrassmannParams(2, 5, 3, 1)) == "complete"
    for n in range(3, 9):
        for m in range(2, n):
            for t in range(1, m):
                p = GrassmannParams(2, n, m, t)
                r = col.regime_of(p)
                if n >= 2 * m:
                    assert r == "direct"
                elif n - 2 * m + t >= 1:
                    assert r == "dual"
                else:
                    assert r == "complete"


def test_make_context_direct():
    ctx = col.make_context(GrassmannParams(2, 4, 2, 1))
    assert ctx.regime == "direct"
    assert (ctx.code.q, ctx.code.m, ctx.code.h, ctx.code.d) == (2, 2, 2, 2)
    assert ctx.johnson.n == 4 and ctx.johnson.m == 2 and ctx.johnson.t == 1
    assert ctx.coset_block == 4
    assert set(ctx.class_of_idvec.values()) == set(range(ctx.johnson.palette))


def test_make_context_dual_and_complete():
    ctx = col.make_context(GrassmannParams(2, 5, 3, 2))
    assert ctx.regime == "dual" and ctx.params == GrassmannParams(2, 5, 3, 2)
    assert (ctx.code.m, ctx.code.h, ctx.code.d) == (2, 3, 2)
    # the dual-regime context holds the J_2(5,2,1) partition and code
    dual = col.make_context(GrassmannParams(2, 5, 2, 1))
    assert ctx.johnson == dual.johnson and ctx.class_of_idvec == dual.class_of_idvec
    assert (ctx.coset_block, ctx.distance_verified) == (dual.coset_block,
                                                       dual.distance_verified)
    assert ctx.code.basis == dual.code.basis
    ctx = col.make_context(GrassmannParams(2, 5, 3, 1))
    assert ctx.regime == "complete" and ctx.code is None


def test_colour_ids_are_packed_below_the_bound():
    ctx = col.make_context(GrassmannParams(2, 4, 2, 1))
    bound = ctx.johnson.palette * 4
    for S in enumerate_subspaces(2, 4, 2):
        c = col.colour_subspace(ctx, S)
        assert 0 <= c < bound
        # decodable: class and coset parts recover the ingredients
        from qchroma.rankmetric import coset_index, unlift
        u, A = unlift(S)
        assert c // 4 == ctx.class_of_idvec[u]
        assert c % 4 == coset_index(ctx.code, A)


def test_colour_subspace_validates_membership():
    ctx = col.make_context(GrassmannParams(2, 4, 2, 1))
    alien = next(iter(enumerate_subspaces(2, 5, 2)))
    with pytest.raises(ValueError):
        col.colour_subspace(ctx, alien)
    # a dual context over F_2 checks the shape before its column walk
    ctx = col.make_context(GrassmannParams(2, 7, 4, 2))
    for alien in (next(iter(enumerate_subspaces(2, 7, 3))),
                  next(iter(enumerate_subspaces(2, 8, 4))),
                  next(iter(enumerate_subspaces(3, 7, 4)))):
        with pytest.raises(ValueError):
            col.colour_subspace(ctx, alien)


def test_same_colour_same_idvec_means_same_coset_family():
    ctx = col.make_context(GrassmannParams(2, 4, 2, 1))
    verts = list(enumerate_subspaces(2, 4, 2))
    for i, S in enumerate(verts):
        for T in verts[i + 1:]:
            if S.idvec == T.idvec and \
                    col.colour_subspace(ctx, S) == col.colour_subspace(ctx, T):
                assert intersection_dim(S.basis, T.basis) <= 0


def test_full_colouring_direct_certificate():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)))
    assert len(cert.colours) == 35
    assert cert.proper is True and cert.pairs_checked == 595
    assert cert.palette_used <= 12
    assert cert.bounds == {"lower": 7, "theorem_upper": 12, "trivial_upper": 19}
    assert cert.code_params["distance_verified"] is True
    # family sizes per identifying vector sum to q^(free cells of that idvec)
    from qchroma.grassmann import free_cells
    for key, fam in cert.family_sizes.items():
        idvec = tuple(int(ch) for ch in key)
        assert sum(fam.values()) == 2 ** len(free_cells(idvec))
        assert all(size <= 4 for size in fam.values())  # never beyond |C|
    total = sum(s for fam in cert.family_sizes.values() for s in fam.values())
    assert total == 35


def test_full_colouring_dual_certificate():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 5, 3, 2)))
    assert cert.regime == "dual"
    assert len(cert.colours) == 155 and cert.proper is True
    assert cert.palette_used <= cert.bounds["theorem_upper"]
    assert cert.bounds["lower"] == 15  # [4,1]_2 beats [3,1]_2


def test_full_colouring_complete_regime():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 5, 3, 1)))
    assert cert.regime == "complete"
    assert cert.palette_used == 155 == cert.bounds["lower"] == cert.bounds["theorem_upper"]
    assert cert.johnson_method is None and cert.code_params is None
    # all colours distinct
    assert len({c for _, c in cert.colours}) == 155


def test_dual_colouring_consistent_with_pullback():
    params = GrassmannParams(2, 5, 3, 2)
    ctx = col.make_context(params)
    dual = col.make_context(GrassmannParams(2, 5, 2, 1))
    for S in enumerate_subspaces(2, 5, 3):
        assert col.colour_subspace(ctx, S) == \
            col.colour_subspace(dual, dualize(S))


def test_vertex_cap():
    with pytest.raises(ValueError):
        col.full_colouring(col.make_context(GrassmannParams(2, 6, 3, 1)),
                           vertex_cap=100)


def test_bounds_report_examples():
    rep = col.bounds_report(GrassmannParams(2, 4, 2, 1))
    assert (rep["lower"], rep["theorem_upper"], rep["trivial_upper"]) == (7, 12, 19)
    # known exact value for J_q(4,2): the lower bound matches [3,1]_q
    for q in (2, 3, 4, 5):
        rep = col.bounds_report(GrassmannParams(q, 4, 2, 1))
        assert rep["lower"] == gaussian_binomial(3, 1, q)
    rep = col.bounds_report(GrassmannParams(2, 6, 3, 1))
    assert rep["lower"] == 155 and rep["theorem_upper"] == 640


def test_bounds_report_gs_method():
    rep = col.bounds_report(GrassmannParams(2, 4, 2, 1), "gs")
    assert rep["theorem_upper"] == rep["johnson_palette"] * 4
    assert rep["johnson_palette"] <= 6


def test_unknown_johnson_method_is_refused():
    params = GrassmannParams(2, 6, 3, 1)
    with pytest.raises(ValueError, match="unknown johnson method"):
        col.bounds_report(params, "bogus")
    with pytest.raises(ValueError, match="unknown johnson method"):
        col.make_context(params, "bogus")


@pytest.mark.parametrize("call", [
    lambda: col.make_context(GrassmannParams(2, 5, 3, 1), "bogus"),
    lambda: col.bounds_report(GrassmannParams(2, 6, 3, 1), "bogus", johnson_palette=5),
    lambda: col.bounds_report(GrassmannParams(2, 5, 3, 1), "bogus")],
    ids=["context-complete", "bounds-given-palette", "bounds-complete"])
def test_unknown_johnson_method_is_refused_where_no_colouring_is_built(call):
    with pytest.raises(ValueError, match="unknown johnson method"):
        call()


def test_context_over_f4_with_a_degree_10_extension_is_quick():
    # the code of J_4(12,2,1) lives in F_{4^10}; finding its modulus must not
    # walk the 4^9 candidates divisible by x
    start = time.perf_counter()
    ctx = col.make_context(GrassmannParams(4, 12, 2, 1))
    assert time.perf_counter() - start < 1.0
    assert ctx.distance_verified and ctx.code.size == 2 ** 20


def test_certificate_json_roundtrip_and_determinism():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)))
    js = col.certificate_to_json(cert)
    again = col.certificate_from_json(js)
    assert col.certificate_to_json(again) == js
    assert again.bounds == cert.bounds
    assert again.colours == cert.colours
    # integers inside the document are decimal strings
    import json
    doc = json.loads(js)
    assert doc["params"]["q"] == "2"
    assert doc["bounds"]["lower"] == "7"
    assert doc["colours"][0]["colour"].isdigit()
    assert doc["verified"]["proper"] is True


WRITER_GRAPHS = {
    "direct-f2": (2, 4, 2, 1), "dual-f2": (2, 5, 3, 2), "complete-f2": (2, 5, 3, 1),
    "direct-f4": (4, 4, 2, 1), "dual-f4": (4, 5, 3, 2),
    "direct-f9": (9, 4, 2, 1), "complete-f9": (9, 3, 2, 1),
    "direct-f11": (11, 4, 2, 1), "complete-f11": (11, 3, 2, 1),
    "complete-f121": (121, 3, 2, 1),  # entry texts like "1-0"
}


@pytest.mark.parametrize("name", WRITER_GRAPHS)
def test_writer_matches_json_dumps_over_entry_dicts(name):
    params = GrassmannParams(*WRITER_GRAPHS[name])
    assert col.regime_of(params) == name.split("-")[0]
    cert = col.full_colouring(col.make_context(params), verify=False)
    assert col.certificate_to_json(cert) == naive.naive_certificate_to_json(cert)


# keys a loaded certificate may carry: quote, backslash, control characters,
# non-ASCII (BMP and astral), a lone surrogate, the empty string, and the
# text of the writer's own splice point
ODD_KEYS = ['"', "\\", "\x01\t\n", "é日本", "\U0001F600", "\ud800", "",
            '\n "colours": [],\n', "q=2;n=4;m=2;rows=[[1,0,0,0],[0,1,0,0]]"]


def _hand_built_certificate(colours):
    return col.ColourCertificate(
        params=GrassmannParams(2, 4, 2, 1), regime="external", johnson_method=None,
        johnson_palette=None, code_params=None, colours=colours, palette_used=0,
        bounds={"lower": 7}, proper=None, pairs_checked=0, family_sizes={})


def test_writer_matches_json_dumps_on_odd_keys_and_an_empty_array():
    odd = _hand_built_certificate(tuple(sorted((k, i) for i, k in enumerate(ODD_KEYS))))
    text = col.certificate_to_json(odd)
    assert text == naive.naive_certificate_to_json(odd)
    again = col.certificate_from_json(text)
    assert again.colours == odd.colours
    assert col.certificate_to_json(again) == naive.naive_certificate_to_json(again) == text
    empty = _hand_built_certificate(())
    assert col.certificate_to_json(empty) == naive.naive_certificate_to_json(empty)
    assert '\n "colours": [],\n' in col.certificate_to_json(empty)


def test_writer_renders_family_sizes_as_json_dumps():
    # direct; dual with families of up to 16 cosets, whose ids sort as strings
    # ("10" before "2"); complete, with no families; each after a round trip
    certs = [col.full_colouring(col.make_context(GrassmannParams(*p)), verify=False)
             for p in ((2, 5, 2, 1), (2, 6, 4, 3), (2, 5, 3, 1))]
    assert [cert.regime for cert in certs] == ["direct", "dual", "complete"]
    assert max(map(len, certs[1].family_sizes.values())) >= 10
    assert certs[2].family_sizes == {}
    odd = dataclasses.replace(_hand_built_certificate(()), family_sizes={
        '"\\é': {10: 1, 2: 3, 0: 5}, "": {}, "01": {1: 12}})
    for cert in certs + [odd]:
        text = col.certificate_to_json(cert)
        assert text == naive.naive_certificate_to_json(cert)
        again = col.certificate_from_json(text)
        assert again.family_sizes == cert.family_sizes
        assert col.certificate_to_json(again) == naive.naive_certificate_to_json(again) == text


def test_verify_properness_detects_tampering():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)))
    entries = list(cert.colours)
    s0 = decode_subspace(entries[0][0])
    victim = None
    for k, c in entries[1:]:
        if c != entries[0][1] and adjacent(s0, decode_subspace(k), 1):
            victim = k
            break
    tampered = tuple((k, entries[0][1]) if k == victim else (k, c)
                     for k, c in entries)
    bad = dataclasses.replace(cert, colours=tampered)
    rep = col.verify_properness(bad)
    assert rep.coverage_ok and not rep.proper
    assert rep.counterexample is not None


def test_verify_properness_detects_missing_and_unexpected():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)))
    rep = col.verify_properness(dataclasses.replace(cert, colours=cert.colours[1:]))
    assert not rep.coverage_ok and len(rep.missing) == 1
    alien = (("q=2;n=4;m=2;rows=[[1,0,0,0],[0,0,0,0]]", 0),) + cert.colours[1:]
    rep = col.verify_properness(dataclasses.replace(cert, colours=alien))
    assert not rep.coverage_ok
    assert rep.missing and rep.unexpected


def test_verify_refuses_an_over_large_declared_graph_quickly():
    # relabelled as J_2(24,12,1), a (2,4,2,1) certificate is refused by counts;
    # the [24,12]_2 expected keys are never enumerated
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)))
    declared = gaussian_binomial(24, 12, 2)
    start = time.perf_counter()
    rep = col.verify_properness(
        dataclasses.replace(cert, params=GrassmannParams(2, 24, 12, 1)))
    assert time.perf_counter() - start < 1.0
    assert not rep.coverage_ok and not rep.proper
    assert rep.missing == () and rep.unexpected == tuple(k for k, _ in cert.colours)
    assert (rep.declared, rep.given) == (declared, 35)
    assert f"35 keys for {declared} vertices" in rep.message()


def test_verify_properness_accepts_intact_certificate():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)))
    rep = col.verify_properness(cert)
    assert rep.proper and rep.coverage_ok and rep.pairs_checked == 595


def test_unverified_certificate_roundtrips_and_can_be_checked_later():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)),
                              verify=False)
    assert cert.proper is None and cert.pairs_checked == 0
    again = col.certificate_from_json(col.certificate_to_json(cert))
    assert again.proper is None
    rep = col.verify_properness(again)
    assert rep.proper and rep.pairs_checked == 595


@pytest.mark.parametrize("p", [(2, 6, 3, 2), (4, 5, 2, 1), (9, 4, 2, 1),
                               (2, 5, 3, 2), (3, 6, 4, 3), (2, 5, 3, 1), (4, 5, 3, 2),
                               (2, 7, 4, 3)])
def test_kernel_matches_per_vertex_reference(p):
    # the certificate and `colour_subspace` both give every vertex the colour
    # of the lifting reference, class * block + `coset_index` of the unlifted
    # block (in the dual regime, of the dual), and the same coset families;
    # in the complete regime the colour is the enumeration index.  (2,7,4,3)
    # is the first dual graph whose complements have three rows, so the
    # column walk meets pivots interleaved across them
    ctx = col.make_context(GrassmannParams(*p))
    cert = col.full_colouring(ctx, verify=False)
    want = {}
    point = {}
    families = {}
    for index, S in enumerate(enumerate_subspaces(*p[:3])):
        key = encode_subspace(S)
        point[key] = col.colour_subspace(ctx, S)
        if ctx.regime == "complete":
            want[key] = index
            continue
        u, A = rankmetric.unlift(dualize(S) if ctx.regime == "dual" else S)
        i = rankmetric.coset_index(ctx.code, A)
        want[key] = ctx.class_of_idvec[u] * ctx.coset_block + i
        fam = families.setdefault("".join(map(str, u)), {})
        fam[i] = fam.get(i, 0) + 1
    assert len(cert.colours) == len(want) == gaussian_binomial(p[1], p[2], p[0])
    assert cert.colour_map() == want
    assert point == want
    assert cert.family_sizes == families


def _counting_subspaces_and_reductions(monkeypatch) -> dict[str, int]:
    """Count `Subspace` constructions, `GabidulinCode._reduce` calls and
    `matq._eliminate` calls from now on."""
    counts = {"Subspace": 0, "_reduce": 0, "_eliminate": 0}
    init = grassmann.Subspace.__init__
    reduce = rankmetric.GabidulinCode._reduce
    eliminate = matq._eliminate

    def counted_eliminate(*args, **kwargs):
        counts["_eliminate"] += 1
        return eliminate(*args, **kwargs)
    # wherever it is bound: in matq, and in colouring should it import it
    monkeypatch.setattr(matq, "_eliminate", counted_eliminate)
    monkeypatch.setattr(col, "_eliminate", counted_eliminate, raising=False)

    def counted_init(self, basis):
        counts["Subspace"] += 1
        init(self, basis)

    def counted_reduce(self, vec):
        counts["_reduce"] += 1
        return reduce(self, vec)
    monkeypatch.setattr(grassmann.Subspace, "__init__", counted_init)
    monkeypatch.setattr(rankmetric.GabidulinCode, "_reduce", counted_reduce)
    return counts


@pytest.mark.parametrize("p", [(2, 6, 3, 2), (2, 5, 3, 2), (2, 5, 3, 1)])
def test_unverified_colouring_builds_no_subspace_and_no_coset_index(p, monkeypatch):
    # `_reduce` is the elimination behind every coset index; after the
    # context has built its syndrome table, colouring runs none, and the
    # dual regime's column walk brings no complement to RREF by elimination
    ctx = col.make_context(GrassmannParams(*p))
    counts = _counting_subspaces_and_reductions(monkeypatch)
    cert = col.full_colouring(ctx, verify=False)
    assert len(cert.colours) == gaussian_binomial(p[1], p[2], p[0])
    assert counts == {"Subspace": 0, "_reduce": 0, "_eliminate": 0}


def _random_vertices(params: GrassmannParams, count: int, rng: random.Random) -> list:
    """`count` random m-subspaces: a random pivot set and random free cells."""
    field, n, m = params.field, params.n, params.m
    verts = []
    for _ in range(count):
        pivots = sorted(rng.sample(range(n), m))
        rows = [[0] * n for _ in range(m)]
        for i, c in enumerate(pivots):
            rows[i][c] = 1
            for j in range(c + 1, n):
                if j not in pivots:
                    rows[i][j] = rng.randrange(params.q)
        verts.append(grassmann.Subspace(MatrixFq(field, tuple(map(tuple, rows)))))
    return verts


@pytest.mark.parametrize("p", [(9, 6, 2, 1), (2, 7, 4, 2), (2, 11, 7, 5), (3, 5, 3, 2)])
def test_point_queries_build_no_subspace_and_no_coset_index(p, monkeypatch):
    # the point query reads the context's syndrome table, from the basis
    # rows (direct, over F_9) or their complement's RREF rows (dual): over
    # F_2 read off one column walk, so with no elimination, and over F_3
    # brought to RREF by one elimination per vertex.  The complements of
    # J_2(11,7,5) have four rows
    params = GrassmannParams(*p)
    ctx = col.make_context(params)
    verts = _random_vertices(params, 500, random.Random(sum(p)))
    counts = _counting_subspaces_and_reductions(monkeypatch)
    colours = [col.colour_subspace(ctx, S) for S in verts]
    assert counts == {"Subspace": 0, "_reduce": 0,
                      "_eliminate": 500 if ctx.regime == "dual" and p[0] != 2 else 0}
    monkeypatch.undo()
    for S, c in zip(verts, colours):
        u, A = rankmetric.unlift(dualize(S) if ctx.regime == "dual" else S)
        assert c == ctx.class_of_idvec[u] * ctx.coset_block + rankmetric.coset_index(ctx.code, A)


@pytest.mark.parametrize("p", [(2, 6, 3, 2), (2, 5, 3, 2)])
def test_point_queries_leave_the_certificate_unchanged(p):
    # colouring every vertex one at a time first changes neither the
    # coset family counts nor any byte of the certificate
    params = GrassmannParams(*p)
    ctx = col.make_context(params)
    for S in enumerate_subspaces(*p[:3]):
        col.colour_subspace(ctx, S)
    after = col.full_colouring(ctx, verify=False)
    fresh = col.full_colouring(col.make_context(params), verify=False)
    assert after.family_sizes == fresh.family_sizes
    assert col.certificate_to_json(after) == col.certificate_to_json(fresh)


def test_colour_zero_fibre_is_the_base_coset_family():
    # vertices whose non-pivot block is a codeword, with identifying vector
    # in Johnson class 0, all land in colour 0
    from qchroma.rankmetric import coset_index, unlift
    ctx = col.make_context(GrassmannParams(2, 4, 2, 1))
    hits = 0
    for S in enumerate_subspaces(2, 4, 2):
        u, A = unlift(S)
        if ctx.class_of_idvec[u] == 0 and coset_index(ctx.code, A) == 0:
            assert col.colour_subspace(ctx, S) == 0
            hits += 1
    assert hits > 0


# -- fingerprint verification against the all-pairs reference -----------------

EQUIVALENCE_GRAPHS = [(2, 4, 2, 1), (3, 4, 2, 1), (4, 4, 2, 1), (2, 5, 3, 2),
                      (2, 5, 3, 1), (4, 3, 2, 1), (9, 3, 2, 1)]


@functools.lru_cache(maxsize=None)
def _certificate_and_spans(p):
    cert = col.full_colouring(col.make_context(GrassmannParams(*p)), verify=False)
    spans = [naive.span(p[0], decode_subspace(k).basis.rows) for k, _ in cert.colours]
    return cert, spans


def _blocks_by_encoded_key(params, colour_of):
    """The colours per identifying vector in `enumerate_subspaces` order,
    looked up by each vertex's encoded key."""
    blocks = {}
    for S in enumerate_subspaces(params.q, params.n, params.m):
        blocks.setdefault(S.idvec, []).append(colour_of[encode_subspace(S)])
    return list(blocks.values())


def _patch_bindings(monkeypatch, name, replacement):
    """Bind `replacement` as `name` where it is defined and where the colourer
    and the verifier import it."""
    for module in (grassmann, matq, col, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def _assert_witness(q, t, witness, span_a, span_b):
    shared = decode_subspace(witness)
    assert shared.m == t
    assert naive.span(q, shared.basis.rows) <= span_a & span_b


def _assert_verdict_matches_all_pairs_walk(p, colours):
    """The block verdict, and the report of `verify_properness`, agree with
    `naive.naive_clash`; returns the report."""
    q, t = p[0], p[3]
    params = GrassmannParams(*p)
    cert, spans = _certificate_and_spans(p)
    keys = [k for k, _ in cert.colours]
    clean = naive.naive_clash(q, spans, colours, t) is None
    blocks = _blocks_by_encoded_key(params, dict(zip(keys, colours)))
    assert verify._clash_free(params, blocks) == clean
    rep = col.verify_properness(
        dataclasses.replace(cert, colours=tuple(zip(keys, colours))))
    assert rep.coverage_ok
    assert rep.proper == clean
    if rep.proper:
        assert rep.counterexample is None and rep.witness is None
        return rep
    a, b, dim = rep.counterexample
    i, j = keys.index(a), keys.index(b)
    assert colours[i] == colours[j]
    assert dim == naive.naive_intersection_dim(q, spans[i], spans[j]) >= t
    _assert_witness(q, t, rep.witness, spans[i], spans[j])
    return rep


@pytest.mark.parametrize("p", EQUIVALENCE_GRAPHS)
@pytest.mark.parametrize("merges", [0, 1, 2, 5])
def test_fingerprint_verdict_matches_all_pairs_walk(p, merges):
    cert, _ = _certificate_and_spans(p)
    for seed in range(9 if merges else 1):
        colours = naive.merge_colours([c for _, c in cert.colours], merges,
                                      random.Random(seed))
        _assert_verdict_matches_all_pairs_walk(p, colours)


RELABELS = {"negated": lambda c: -c - 1, "above-2^40": lambda c: (c + 3) << 40,
            "one-colour": lambda c: 7}


@pytest.mark.parametrize("p", EQUIVALENCE_GRAPHS)
@pytest.mark.parametrize("relabel", RELABELS)
def test_verdict_on_relabelled_colours_matches_all_pairs_walk(p, relabel):
    # negative colours, colours far above 2^40 and a single colour class;
    # an injective relabelling keeps the reported pair and witness
    cert, _ = _certificate_and_spans(p)
    for seed in range(3):
        colours = naive.merge_colours([c for _, c in cert.colours], seed,
                                      random.Random(seed))
        rep = _assert_verdict_matches_all_pairs_walk(p, list(map(RELABELS[relabel], colours)))
        if relabel != "one-colour":
            keys = [k for k, _ in cert.colours]
            plain = col.verify_properness(
                dataclasses.replace(cert, colours=tuple(zip(keys, colours))))
            assert (rep.proper, rep.counterexample, rep.witness) == \
                (plain.proper, plain.counterexample, plain.witness)
        else:
            assert not rep.proper


@pytest.mark.parametrize("p", [(3, 5, 3, 2), (4, 5, 3, 2), (2, 6, 4, 3), (2, 7, 5, 4),
                               (2, 6, 3, 2), (9, 4, 2, 1), (3, 4, 3, 1)])
def test_block_verdict_matches_the_key_by_key_verdict(p):
    # beyond the all-pairs ladder: dual graphs over F_3 and F_4, deeper dual
    # graphs over F_2, a direct graph over F_9 and a complete one over F_3
    params = GrassmannParams(*p)
    cert = col.full_colouring(col.make_context(params), verify=False)
    keys = [k for k, _ in cert.colours]
    for merges, seed in ((0, 0), (1, 1), (5, 5)):
        colours = naive.merge_colours([c for _, c in cert.colours], merges,
                                      random.Random(seed))
        tampered = dataclasses.replace(cert, colours=tuple(zip(keys, colours)))
        clash = verify._first_clash(params, tampered.colours)
        assert verify._clash_free(params, _blocks_by_encoded_key(params, dict(tampered.colours))) \
            == (clash is None)
        rep = col.verify_properness(tampered)
        assert rep.coverage_ok and rep.proper == (clash is None)
        assert (rep.counterexample, rep.witness) == (clash or (None, None))


def _fingerprint_rows_to_subspace(field, n, fingerprint):
    """The row space of a fingerprint's rows, read as base-q digits."""
    q = field.order
    return grassmann.Subspace.from_matrix(MatrixFq(field, tuple(
        tuple(value // q ** j % q for j in range(n)) for value in fingerprint)))


def _block_fingerprints(fp, idvec, complement=False):
    """Per vertex of the block, its fingerprints from `_Fingerprints.block`."""
    rows = fp.block(idvec, complement)
    combos = list(zip(*fp.columns))
    return [{tuple(rows[x][v] for x in combo) for combo in combos}
            for v in range(len(rows[0]))]


@pytest.mark.parametrize("p", [(2, 5, 3, 2), (3, 4, 2, 1)])
def test_block_fingerprints_are_those_of_each_vertex(p):
    params = GrassmannParams(*p)
    fp = verify._Fingerprints(params)
    for idvec in grassmann.weight_vectors_lex(p[1], p[2]):
        bases = list(grassmann.rref_bases(p[0], idvec))
        pivots = tuple(j for j, b in enumerate(idvec) if b)
        cells = grassmann.free_cells(idvec)
        assert _block_fingerprints(fp, idvec) == [
            set(fp.of(pivots, [rows[i][j] for i, j in cells])) for rows in bases]


@pytest.mark.parametrize("p", [(2, 5, 3, 2), (3, 5, 3, 2), (4, 5, 3, 2), (9, 5, 3, 2),
                               (2, 7, 4, 2)])
def test_complement_block_fingerprints_are_the_dual_t_subspaces(p):
    # the complement side: per vertex S, the (n - 2m + t)-subspaces of S⊥;
    # blocks of at most 2 free cells, so F_9 stays small
    params = GrassmannParams(*p)
    field, n = params.field, params.n
    fp = verify._Fingerprints(params.dual())
    for idvec in grassmann.weight_vectors_lex(n, params.m):
        if len(grassmann.free_cells(idvec)) > 2:
            continue
        got = _block_fingerprints(fp, idvec, complement=True)
        for rows, fingerprints in zip(grassmann.rref_bases(p[0], idvec), got):
            dual = dualize(grassmann.Subspace(MatrixFq(field, rows)))
            values = [dual.basis.rows[i][j] for i, j in grassmann.free_cells(dual.idvec)]
            want = {fp.subspace(f) for f in fp.of(dual.pivot_columns(), values)}
            assert len(fingerprints) == len(want) == gaussian_binomial(
                n - params.m, n - 2 * params.m + params.t, p[0])
            assert {_fingerprint_rows_to_subspace(field, n, f) for f in fingerprints} == want


@pytest.mark.parametrize("p", [(2, 4, 2, 1), (3, 4, 2, 1), (2, 5, 3, 2)])
def test_two_vertex_colour_class_is_judged_by_adjacency(p):
    # a two-vertex colour class clashes exactly when the pair is adjacent,
    # whichever t-subspace it shares; every fourth vertex is paired with
    # all later ones
    q, t = p[0], p[3]
    params = GrassmannParams(*p)
    verts = list(enumerate_subspaces(q, p[1], p[2]))
    keys = [encode_subspace(S) for S in verts]
    spans = [naive.span(q, S.basis.rows) for S in verts]
    for i in range(0, len(verts), 4):
        for j in range(i + 1, len(verts)):
            clash = verify._first_clash(params, [(keys[i], 0), (keys[j], 0)])
            dim = naive.naive_intersection_dim(q, spans[i], spans[j])
            assert (clash is not None) == (dim >= t)
            if clash is not None:
                (a, b, found), witness = clash
                assert (decode_subspace(a), decode_subspace(b), found) == \
                    (verts[i], verts[j], dim)
                _assert_witness(q, t, witness, spans[i], spans[j])


def test_verification_computes_one_intersection_only_on_refusal(monkeypatch):
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 6, 3, 2)),
                              verify=False)
    entries = list(cert.colours)
    a = decode_subspace(entries[0][0])
    victim = next(k for k, c in entries[1:] if c != entries[0][1]
                  and intersection_dim(a.basis, decode_subspace(k).basis) >= 2)
    tampered = dataclasses.replace(cert, colours=tuple(
        (k, entries[0][1] if k == victim else c) for k, c in entries))
    calls = []

    def counted(U, W):
        calls.append(1)
        return intersection_dim(U, W)
    _patch_bindings(monkeypatch, "intersection_dim", counted)
    rep = col.verify_properness(cert)
    assert rep.proper and rep.pairs_checked == 1395 * 1394 // 2
    assert len(calls) == 0
    rep = col.verify_properness(tampered)
    assert rep.coverage_ok and not rep.proper and rep.pairs_checked == 0
    assert len(calls) == 1


def test_coverage_by_count_lists_alien_and_duplicate_keys():
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 4, 2, 1)))
    entries = list(cert.colours)
    alien = "q=2;n=5;m=2;rows=[[1,0,0,0,0],[0,1,0,0,0]]"
    dropped_alien, dropped_dup = entries[3][0], entries[7][0]
    entries[3] = (alien, 0)
    entries[7] = (entries[0][0], 1)
    rep = col.verify_properness(dataclasses.replace(cert, colours=tuple(entries)))
    assert not rep.coverage_ok and not rep.proper
    assert rep.missing == tuple(sorted((dropped_alien, dropped_dup)))
    assert rep.unexpected == tuple(sorted((alien, entries[0][0])))
    # all V vertices present plus one alien key: nothing missing, one unexpected
    extra = cert.colours + (("q=3;n=4;m=2;rows=[[1,0,0,0],[0,1,0,0]]", 0),)
    rep = col.verify_properness(dataclasses.replace(cert, colours=extra))
    assert not rep.coverage_ok
    assert rep.missing == () and rep.unexpected == (extra[-1][0],)


def _swap_first_rows(key):
    """The same subspace's key with its first two basis rows swapped."""
    head, body = key.split("rows=", 1)
    rows = body[1:-1].replace("],[", "]|[").split("|")
    rows[0], rows[1] = rows[1], rows[0]
    return f"{head}rows=[{','.join(rows)}]"


@pytest.mark.parametrize("p", [(2, 4, 2, 1), (2, 5, 3, 2), (2, 5, 3, 1), (9, 3, 2, 1)])
@pytest.mark.parametrize("mutant", ["non-canonical", "duplicate", "other-graph"])
def test_coverage_mutant_with_v_keys_is_refused(p, mutant):
    # one key replaced, the colour kept: still V keys, and in the complete
    # graphs still V distinct colours, so only the coverage check refuses it
    params = GrassmannParams(*p)
    cert = col.full_colouring(col.make_context(params), verify=False)
    entries = list(cert.colours)
    original, colour = entries[5]
    bad = {"non-canonical": _swap_first_rows(original),
           "duplicate": entries[2][0],
           "other-graph": original.replace(f"q={p[0]};", f"q={p[0] + 2};", 1)}[mutant]
    entries[5] = (bad, colour)
    assert len(entries) == params.vertex_count()
    if col.regime_of(params) == "complete":
        assert len({c for _, c in entries}) == len(entries)
    rep = col.verify_properness(dataclasses.replace(cert, colours=tuple(sorted(entries))))
    assert not rep.coverage_ok and not rep.proper and rep.pairs_checked == 0
    assert rep.missing == (original,)
    assert rep.unexpected == (bad,) == naive.naive_unexpected([k for k, _ in entries], params)


def _counting_verifier_calls(monkeypatch) -> dict[str, int]:
    """Count key parses, per-vertex fingerprints, key decodes and intersections."""
    counts = dict.fromkeys(("parse", "of", "decode_subspace", "intersection_dim"), 0)

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call
    monkeypatch.setattr(verify._KeyParser, "parse", counted("parse", verify._KeyParser.parse))
    monkeypatch.setattr(verify._Fingerprints, "of", counted("of", verify._Fingerprints.of))
    for module, name in ((grassmann, "decode_subspace"), (matq, "intersection_dim")):
        _patch_bindings(monkeypatch, name, counted(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("p", [(2, 6, 3, 2), (4, 5, 2, 1), (2, 7, 4, 2)])
def test_accepted_certificate_takes_the_block_path(p, monkeypatch):
    cert = col.full_colouring(col.make_context(GrassmannParams(*p)), verify=False)
    counts = _counting_verifier_calls(monkeypatch)
    rep = col.verify_properness(cert)
    assert rep.proper and rep.pairs_checked == len(cert.colours) * (len(cert.colours) - 1) // 2
    assert counts == dict.fromkeys(counts, 0)


def test_refused_certificate_is_named_key_by_key(monkeypatch):
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 6, 3, 2)),
                              verify=False)
    keys = [k for k, _ in cert.colours]
    colours = _adjacent_pair_mutant(keys, [c for _, c in cert.colours], cert.params,
                                    random.Random(6))
    counts = _counting_verifier_calls(monkeypatch)
    rep = col.verify_properness(dataclasses.replace(cert, colours=tuple(zip(keys, colours))))
    assert rep.coverage_ok and not rep.proper
    assert 0 < counts["parse"] == counts["of"] < len(keys)
    assert counts["decode_subspace"] == 2
    assert counts["intersection_dim"] == 1


def test_verified_colouring_builds_no_basis_unless_it_clashes(monkeypatch):
    params = GrassmannParams(2, 6, 3, 2)
    ctx = col.make_context(params)
    calls, rref_bases = [], grassmann.rref_bases

    def counted(q, idvec):  # the vertices' bases, not the fingerprints' t x m ones
        if len(idvec) == params.n:
            calls.append(idvec)
        return rref_bases(q, idvec)
    _patch_bindings(monkeypatch, "rref_bases", counted)
    cert = col.full_colouring(ctx, verify=True)
    assert cert.proper and cert.pairs_checked == 1395 * 1394 // 2 and calls == []
    # a broken kernel that paints every direct-regime vertex one colour is
    # caught, and the clash is named from the keys, with no basis built
    monkeypatch.setattr(col._CosetColourer, "block", lambda self, idvec: [0] * 2 ** len(
        grassmann.free_cells(idvec)))
    with pytest.raises(AssertionError, match="improper colouring: .* sharing q=2;n=6;m=2"):
        col.full_colouring(ctx, verify=True)
    assert calls == []


# -- template-parsed keys and packed fingerprints against the references ------

PARSER_GRAPHS = [(2, 4, 2, 1), (4, 4, 2, 1), (9, 3, 2, 1)]


def _render(q, n, m, rows):
    body = ",".join("[" + ",".join(row) + "]" for row in rows)
    return f"q={q};n={n};m={m};rows=[{body}]"


def _malformed_corpus(p):
    """Keys of every fifth vertex of J_q(n, m), each bent out of canonical form."""
    q, n, m, _ = p
    texts = grassmann.entry_texts(GrassmannParams(*p).field)
    zero, one = texts[0], texts[1]
    unknown = [s for s in ("2", "0", "1", "00", "30", "01-", "", " 1", "x")
               if s not in texts]
    corpus = []
    for S in list(enumerate_subspaces(q, n, m))[::5]:
        key = encode_subspace(S)
        rows = [[texts[v] for v in row] for row in S.basis.rows]
        piv = S.pivot_columns()

        def bent(i, j, text):
            out = [row[:] for row in rows]
            out[i][j] = text
            return _render(q, n, m, out)
        corpus += [bent(0, piv[0] + 1, s) for s in unknown]        # unknown entry text
        corpus += [bent(1, 0, s) for s in unknown[:2]]              # ... at a forced 0
        corpus += [bent(0, piv[1], one),                             # nonzero above a pivot
                   bent(1, 0, one),                                  # nonzero left of a pivot
                   _render(q, n, m, rows[::-1]),                     # swapped rows
                   _render(q, n, m, [rows[0], [zero] * n]),          # a zero row
                   _render(q, n, m, rows[:1]),                       # a missing row
                   _render(q, n, m, rows + [[zero] * (n - 1) + [one]]),  # an extra row
                   _render(q, n, m, [rows[0][:-1], rows[1]]),        # a short row
                   _render(q, n, m, [rows[0], rows[1] + [zero]]),    # a long row
                   _render(q + 1, n, m, rows), _render(q, n + 1, m, rows),
                   _render(q, n, m + 1, rows), key.replace("q=", "q=0"),
                   key + " ", key + "]", key + ",", " " + key, key[:-1]]
        if q > 2:
            corpus.append(bent(0, piv[0], texts[2]))                 # a pivot that is not 1
    return corpus


@pytest.mark.parametrize("p", PARSER_GRAPHS)
def test_key_parser_agrees_with_the_round_trip_reference(p):
    params = GrassmannParams(*p)
    parser = verify._KeyParser(params)
    corpus = _malformed_corpus(p)
    assert not any(naive.naive_key_ok(key, params) for key in corpus)
    for key in corpus:
        assert parser.parse(key) is None, key
    for S in enumerate_subspaces(*p[:3]):
        key = encode_subspace(S)
        assert naive.naive_key_ok(key, params)
        assert parser.parse(key) == (S.pivot_columns(), [
            S.basis.rows[i][j] for i, j in grassmann.free_cells(S.idvec)])


@pytest.mark.parametrize("p", PARSER_GRAPHS)
def test_verifier_refuses_exactly_the_reference_unexpected_keys(p):
    params = GrassmannParams(*p)
    cert = col.full_colouring(col.make_context(params), verify=False)
    entries = (cert.colours + tuple((key, 0) for key in _malformed_corpus(p))
               + (cert.colours[3],))  # and a duplicate key
    rep = col.verify_properness(dataclasses.replace(cert, colours=entries))
    assert not rep.coverage_ok and rep.missing == ()
    assert rep.unexpected == naive.naive_unexpected([k for k, _ in entries], params)
    assert cert.colours[3][0] in rep.unexpected


def test_accepted_certificate_builds_no_subspace_and_no_key_round_trip(monkeypatch):
    cert = col.full_colouring(col.make_context(GrassmannParams(2, 6, 3, 2)),
                              verify=False)
    counts = dict.fromkeys(("Subspace", "decode_subspace", "encode_subspace"), 0)
    init = grassmann.Subspace.__init__

    def counted_init(self, basis):
        counts["Subspace"] += 1
        init(self, basis)
    monkeypatch.setattr(grassmann.Subspace, "__init__", counted_init)
    for name in ("decode_subspace", "encode_subspace"):
        def counted(*args, _name=name, _real=getattr(grassmann, name)):
            counts[_name] += 1
            return _real(*args)
        _patch_bindings(monkeypatch, name, counted)
    rep = col.verify_properness(cert)
    assert rep.proper and rep.pairs_checked == 1395 * 1394 // 2
    assert counts == {"Subspace": 0, "decode_subspace": 0, "encode_subspace": 0}


@pytest.mark.parametrize("p", [(2, 6, 3, 2), (4, 5, 2, 1), (2, 7, 4, 2), (2, 5, 3, 1)])
def test_keys_are_rendered_once_per_identifying_vector(p, monkeypatch):
    # colouring (verified) and accepting a certificate each call `block_keys`
    # once per identifying vector, and render no key from a format string
    params = GrassmannParams(*p)
    ctx = col.make_context(params)
    counts = dict.fromkeys(("block_keys", "key_template"), 0)
    for name in counts:
        def counted(*args, _name=name, _real=getattr(grassmann, name)):
            counts[_name] += 1
            return _real(*args)
        _patch_bindings(monkeypatch, name, counted)
    idvecs = len(grassmann.weight_vectors_lex(params.n, params.m))
    cert = col.full_colouring(ctx, verify=True)
    assert cert.proper and counts == {"block_keys": idvecs, "key_template": 0}
    counts.update(dict.fromkeys(counts, 0))
    assert col.verify_properness(cert).proper
    assert counts == {"block_keys": idvecs, "key_template": 0}


def _adjacent_pair_mutant(keys, colours, params, rng):
    """The colours with one vertex recoloured to match a random neighbour."""
    a = rng.randrange(len(keys))
    basis = decode_subspace(keys[a]).basis
    while True:
        b = rng.randrange(len(keys))
        if colours[b] != colours[a] and \
                intersection_dim(basis, decode_subspace(keys[b]).basis) >= params.t:
            break
    out = list(colours)
    out[b] = colours[a]
    return out


CLASH_GRAPHS = [(2, 4, 2, 1), (2, 5, 3, 2), (2, 5, 3, 1),
                (4, 4, 2, 1), (4, 5, 3, 2), (4, 3, 2, 1),
                (9, 4, 2, 1), (9, 3, 2, 1)]


@pytest.mark.parametrize("p", CLASH_GRAPHS)
def test_clash_mutant_is_refused_with_the_reference_pair_and_witness(p):
    params = GrassmannParams(*p)
    cert = col.full_colouring(col.make_context(params), verify=False)
    keys = [k for k, _ in cert.colours]
    colours = _adjacent_pair_mutant(keys, [c for _, c in cert.colours], params,
                                    random.Random(sum(p)))
    rep = col.verify_properness(
        dataclasses.replace(cert, colours=tuple(zip(keys, colours))))
    assert rep.coverage_ok and not rep.proper and rep.pairs_checked == 0
    assert (rep.counterexample, rep.witness) == naive.tuple_clash(keys, colours, params)


def test_clash_in_a_sample_of_a_dual_graph_over_f9_matches_the_reference():
    # J_9(5,3,2) has 605 242 vertices, so its dual-regime colouring is checked
    # on a seeded sample: vertices S, each with a neighbour sharing S's first
    # two basis rows, coloured by the construction; then one neighbour takes
    # its S's colour
    params = GrassmannParams(9, 5, 3, 2)
    assert col.regime_of(params) == "dual"
    ctx = col.make_context(params)
    field, rng = params.field, random.Random(9)

    def random_row():
        return tuple(rng.randrange(9) for _ in range(5))
    verts = set()
    while len(verts) < 200:
        try:
            S = grassmann.Subspace.from_matrix(MatrixFq(field, tuple(
                random_row() for _ in range(3))))
            T = grassmann.Subspace.from_matrix(MatrixFq(
                field, S.basis.rows[:2] + (random_row(),)))
        except ValueError:  # dependent rows
            continue
        verts |= {S, T}
    verts = sorted(verts, key=encode_subspace)
    keys = [encode_subspace(S) for S in verts]
    colours = _adjacent_pair_mutant(keys, [col.colour_subspace(ctx, S) for S in verts],
                                    params, rng)
    clash = verify._first_clash(params, list(zip(keys, colours)))
    assert clash is not None
    assert clash == naive.tuple_clash(keys, colours, params)
