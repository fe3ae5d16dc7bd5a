"""The main pipeline: proper colourings of J_q(n, m, t) from MRD-code cosets.

Parameters fall into three regimes:

* direct (n >= 2m): identifying vectors are partitioned by a proper
  colouring of the Johnson graph power J(n, m, t); within one identifying
  vector, vertices are split by the coset of their non-pivot block in an
  MRD code of rank distance m - t + 1.  Same Johnson class with different
  identifying vectors forces intersection <= t - 1 through the Hamming
  weight of the Schur product; same identifying vector and same coset
  forces it through the code distance.  Palette: palette(Johnson) *
  q^((n-m)(m-t)) colour ids, packed as class * block + coset.
* dual (m < n < 2m, n - 2m + t >= 1): vertices are sent through the
  orthogonal-complement isomorphism onto J_q(n, n-m, n-2m+t) and coloured
  there (that graph is in the direct regime).
* complete (t <= 2m - n): any two m-subspaces of F_q^n already intersect
  in dimension >= 2m - n >= t, so the graph is complete and every vertex
  gets its own colour (the enumeration index).

The colour kernel is table-driven, with no `Subspace` built per vertex.
The coset index is a syndrome, F_q-linear in the non-pivot block, so
`rankmetric.SyndromeTable` holds each cell's contribution per value; the
context builds it once per code.  A vertex's colour is class * block plus
the coset index of its free cells' summed terms, read from its RREF rows
(in the dual regime, the orthogonal complement's RREF rows).  The class
base and the table rows of the free cells are cached per pivot set on the
context.  `full_colouring` walks one identifying vector at a time: the
free cells run over F_q^f in `enumerate_subspaces` order, the keys come
from `grassmann.block_keys` by prefix expansion, and direct-regime
colours from all sums of cell terms at once.  In the dual regime the
complement's RREF is read off its column rank profile by one walk over
its columns, which the vertices of an identifying vector share up to
their first differing row (`_CosetColourer.dual_block`).  A point query
(`colour_subspace`) reads the same tables for one vertex.  In the dual
regime over F_2 it walks the complement's columns packed as integers,
reducing each by XOR (`_colour_dual_f2`); over other fields it eliminates
the complement's scaffold (`matq._complement_of_rref`).  In the complete
regime the colour is the running index.
`rankmetric.unlift` plus `rankmetric.coset_index` is the reference the
tests compare both paths against.

`full_colouring` also reports exact integer bounds, and (optionally but
by default at desk scale) runs the verifier's block verdict on its own
colours before sealing the certificate (`verify._clash_of_blocks`).
Certificates serialize to a single JSON document with all integers as
decimal strings; byte-identical across runs for equal inputs.  The bytes
are those of `json.dumps(doc, indent=1, sort_keys=True)`, but
`certificate_to_json` writes the `colours` array (one f-string per entry,
the key escaped as `json.dumps` escapes it) and `family_sizes` itself and
splices them into a dump of the rest of the document.  Checking a
certificate is the job of `qchroma.verify`, which imports nothing from
this module.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_string
from operator import add, getitem, itemgetter, mul

from .grassmann import (COMPLETE, DIRECT, DUAL, GrassmannParams, Subspace, block_keys,
                        degree_formula, enumeration_index, free_cells, regime_of,
                        weight_vectors_lex)
from .johnson import (JohnsonColouring, check_method, gs_fits_desk, johnson_bounds,
                      johnson_colouring)
from .matq import _arithmetic, _complement_of_rref, gaussian_binomial
from .rankmetric import (DISTANCE_SCAN_LIMIT, GabidulinCode, SyndromeTable,
                         gabidulin_build, min_rank_distance)
# perfbench reads `colouring.verify_properness`, so this module keeps the name bound
from .verify import _clash_of_blocks, verify_properness

DEFAULT_VERTEX_CAP = 100_000
AUTO_VERIFY_LIMIT = 20_000

@dataclass
class ColourContext:
    """Everything needed to colour one graph's vertices deterministically."""

    params: GrassmannParams
    regime: str
    johnson: JohnsonColouring | None
    code: GabidulinCode | None
    class_of_idvec: dict[tuple[int, ...], int] | None
    coset_block: int
    distance_verified: bool
    table: SyndromeTable | None = field(repr=False, compare=False)  # the code's, built once
    # per pivot set: colour base, free cells and their table rows (`_spec`)
    _specs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # dual regime: the terms of each complement non-pivot column (`_dual_syndromes`)
    _syndromes: list | None = field(default=None, init=False, repr=False, compare=False)


def make_context(params: GrassmannParams, johnson_method: str = "greedy") -> ColourContext:
    """Build the Johnson partition and MRD code for the active regime.

    A dual-regime context holds the Johnson partition and code of
    `params.dual()`, which colour the orthogonal complements; both graphs
    have the same n.
    """
    check_method(johnson_method)
    regime = regime_of(params)
    if regime == COMPLETE:
        return ColourContext(params, regime, None, None, None, 1, True, None)
    if regime == DUAL:
        return replace(make_context(params.dual(), johnson_method),
                       params=params, regime=DUAL)
    q, n, m, t = params.q, params.n, params.m, params.t
    jc = johnson_colouring(johnson_method, n, m, t)
    # dense class ids, in ascending order of the raw colour values
    raw = sorted(set(jc.colours.values()))
    dense = {c: i for i, c in enumerate(raw)}
    class_of_idvec = {}
    for subset, c in jc.colours.items():
        idvec = tuple(1 if i + 1 in subset else 0 for i in range(n))
        class_of_idvec[idvec] = dense[c]
    code = gabidulin_build(q, m, n - m, m - t + 1)
    distance_verified = code.size <= DISTANCE_SCAN_LIMIT
    if distance_verified and min_rank_distance(code) != code.d:
        raise AssertionError("constructed code misses its design distance")
    return ColourContext(params, regime, jc, code, class_of_idvec,
                         code.num_cosets, distance_verified, SyndromeTable(code))


def _spec(ctx: ColourContext, pivots: tuple[int, ...]
          ) -> tuple[int, list[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """(class * block, free cells, their syndrome-table rows) of a pivot set.

    Direct-regime pivots: in the dual regime, those of the complement.
    Cached on the context; it holds no counts, so colouring single vertices
    leaves what `full_colouring` reports unchanged.
    """
    spec = ctx._specs.get(pivots)
    if spec is None:
        u = tuple(1 if j in pivots else 0 for j in range(ctx.params.n))
        column = {j: k for k, j in enumerate(j for j, b in enumerate(u) if not b)}
        h, terms = ctx.code.h, ctx.table.terms
        cells = free_cells(u)
        spec = ctx._specs[pivots] = (ctx.class_of_idvec[u] * ctx.coset_block, cells,
                                     tuple(terms[i * h + column[j]] for i, j in cells))
    return spec


def _dual_syndromes(ctx: ColourContext) -> list[list[int]]:
    """_syndromes[l][a]: the summed terms of a complement non-pivot column l
    whose entries are the coordinate code a, base q, digit k in row k.

    Cached on the context, like `_spec`, for the column walks of
    `_CosetColourer.dual_block` and `_colour_dual_f2`.  Over F_2 its
    h·2^(n-m) entries are at most about twice `class_of_idvec`'s.
    """
    if ctx._syndromes is None:
        h, terms = ctx.code.h, ctx.table.terms
        ctx._syndromes = []
        for col in range(h):
            sums = [0]
            for k in range(ctx.code.m):  # digit k varies slowest so far
                sums = [a + b for a in terms[k * h + col] for b in sums]
            ctx._syndromes.append(sums)
    return ctx._syndromes


def _colour_dual_f2(ctx: ColourContext, rows: tuple[tuple[int, ...], ...],
                    pivots: tuple[int, ...]) -> int:
    """`colour_subspace` of a dual-regime vertex over F_2, with no elimination.

    The complement's RREF is read off its column rank profile, as in
    `_CosetColourer.dual_block`, by one walk over the columns of the rows
    spanning S⊥, each an int with bit 8f for the row of S's non-pivot f: a
    unit at a non-pivot, row i of S without its pivot 1 at pivot p_i (over
    F_2, -x = x).  Each column is reduced by XOR against the complement
    pivots found before it, each with the mask of the columns it sums, bit
    r for the r-th pivot.  A column left nonzero is a pivot; one reduced to
    0 has as coordinate code the XOR of the masks used.
    """
    syndromes = _dual_syndromes(ctx)
    columns = [1 << 8 * c for c in range(ctx.params.n)]
    for row, p in zip(rows, pivots):
        columns[p] ^= int.from_bytes(bytes(row), "little")
    found, dual_pivots, total = [], [], 0  # found: (lowest bit, column, mask)
    for c, x in enumerate(columns):
        a = 0
        for low, y, mask in found:
            if x & low:
                x ^= y
                a ^= mask
        if x:
            found.append((x & -x, x, a ^ 1 << len(found)))
            dual_pivots.append(c)
        else:
            total += syndromes[c - len(found)][a]
    return _spec(ctx, tuple(dual_pivots))[0] + ctx.table.index(total)


def colour_subspace(ctx: ColourContext, S: Subspace) -> int:
    """Colour id of one vertex; deterministic and context-pure.

    The colour `full_colouring` gives S, read from the same syndrome table
    and per-pivot-set cache, with no `Subspace` built and no coset family
    counted.  In the dual regime the rows are those of S's orthogonal
    complement in RREF: over F_2 read off one walk over its columns
    (`_colour_dual_f2`), over other fields brought there by one elimination
    (`matq._complement_of_rref`).
    """
    p = ctx.params
    if S.q != p.q or S.n != p.n or S.m != p.m:
        raise ValueError("subspace does not belong to this graph")
    if ctx.regime == COMPLETE:
        return enumeration_index(S)
    rows, pivots = S.basis.rows, S.pivot_columns()
    if ctx.regime == DUAL:
        if p.q == 2:
            return _colour_dual_f2(ctx, rows, pivots)
        rows, pivots = _complement_of_rref(S.basis.field, rows, pivots)
    base, cells, terms = _spec(ctx, pivots)
    return base + ctx.table.index(sum(map(getitem, terms, [rows[i][j] for i, j in cells])))


@dataclass
class ColourCertificate:
    """A full colour assignment plus bounds and verification status."""

    params: GrassmannParams
    regime: str
    johnson_method: str | None
    johnson_palette: int | None
    code_params: dict | None          # q, m, h, d, distance_verified
    colours: tuple[tuple[str, int], ...]  # (vertex key, colour), key-sorted
    palette_used: int
    bounds: dict                      # lower, theorem_upper, trivial_upper
    proper: bool | None
    pairs_checked: int
    family_sizes: dict[str, dict[int, int]]

    def colour_map(self) -> dict[str, int]:
        return dict(self.colours)


def bounds_report(params: GrassmannParams, johnson_method: str = "greedy",
                  johnson_palette: int | None = None) -> dict:
    """Exact integer bounds for chi(J_q(n, m, t)).

    lower: the larger of the two fixed-subspace clique counts (in the
    complete regime the whole vertex set is a clique, so the count itself).
    theorem_upper: Johnson palette times the coset count of the regime's
    code.  trivial_upper: vertex degree plus one.

    When method "gs" would need a field beyond desk scale, no palette is
    built: johnson_palette is None, and the report gains
    johnson_residue_ring, the modulus r of `johnson.johnson_bounds` that the
    sum colouring's palette cannot exceed, which stands in for the palette
    in theorem_upper.
    """
    check_method(johnson_method)
    q, n, m, t = params.q, params.n, params.m, params.t
    regime = regime_of(params)
    vertices = params.vertex_count()
    trivial_upper = degree_formula(params) + 1
    if regime == COMPLETE:
        return {"regime": regime, "vertices": vertices, "lower": vertices,
                "theorem_upper": vertices, "trivial_upper": trivial_upper,
                "johnson_palette": None}
    lower = max(gaussian_binomial(n - t, m - t, q),
                gaussian_binomial(2 * m - t, m - t, q))
    coloured = params if regime == DIRECT else params.dual()
    jn, jm, jt = coloured.n, coloured.m, coloured.t
    cosets = q ** ((jn - jm) * (jm - jt))
    if johnson_palette is None and johnson_method == "gs" and not gs_fits_desk(jn, jm, jt):
        residue_ring = johnson_bounds(jn, jm, jt)[1]
        return {"regime": regime, "vertices": vertices, "lower": lower,
                "theorem_upper": residue_ring * cosets, "trivial_upper": trivial_upper,
                "johnson_palette": None, "johnson_residue_ring": residue_ring}
    if johnson_palette is None:
        johnson_palette = johnson_colouring(johnson_method, jn, jm, jt).palette
    return {"regime": regime, "vertices": vertices, "lower": lower,
            "theorem_upper": johnson_palette * cosets,
            "trivial_upper": trivial_upper, "johnson_palette": johnson_palette}


def check_vertex_cap(params: GrassmannParams, vertex_cap: int) -> int:
    """The vertex count, or ValueError when it exceeds the cap."""
    total = params.vertex_count()
    if total > vertex_cap:
        raise ValueError(f"vertex count {total} exceeds the cap {vertex_cap}")
    return total


class _CosetColourer:
    """`full_colouring`'s colours and the coset family counts it reports.

    Colours come from the context's syndrome table through `_spec`; the
    counts, per pivot set, are kept here and reported by `families`, and so
    are the dual regime's walk states, for one colouring.
    """

    def __init__(self, ctx: ColourContext):
        self.ctx = ctx
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        if ctx.regime != DUAL:
            return
        # walk states, a trie from the empty state 0: rank, span (every
        # vector's coordinate code), children; unit-column walks per segment
        self._ranks, self._spans, self._children = [0], [{0: 0}], [{}]
        self._segments: dict[tuple[int, int, int], dict] = {}
        self._syndromes = _dual_syndromes(ctx)

    def block(self, idvec: tuple[int, ...]) -> list[int]:
        """Colours of all vertices with this identifying vector, in `rref_bases` order."""
        pivots = tuple(j for j, b in enumerate(idvec) if b)
        base, _, terms = _spec(self.ctx, pivots)
        totals = [0]
        for row in reversed(terms):  # the first cell varies slowest
            totals = [a + b for a in row for b in totals]
        cosets = self.ctx.table.indices(totals)
        self.counts.setdefault(pivots, Counter()).update(cosets)
        return [base + c for c in cosets]

    def dual_block(self, idvec: tuple[int, ...]) -> list[int]:
        """`block` in the dual regime, from the RREF of each vertex's
        orthogonal complement, found by one column walk, not by elimination.

        S⊥ is spanned by the rows e_f - Σ_i S[i][f]·e_{p_i}, f the k-th
        non-pivot of S for row k.  A column is a vector of F_q^d, d = n - m,
        coded base q with digit k for row k: a non-pivot of S is a unit
        code, pivot p_i holds row i's free cells, negated.  A column is an
        RREF pivot exactly when it is outside the span of the pivot columns
        before it, and otherwise holds its coordinates in them, which add
        one `_syndromes` term.  The walk runs one row of S at a time over
        a frontier of (state, pivot mask) nodes and their summed terms, so
        vertices share it up to their first differing row.
        """
        q, n = self.ctx.params.q, len(idvec)
        neg = _arithmetic(self.ctx.params.field)[0]
        pivots = [j for j, b in enumerate(idvec) if b]
        ends = pivots[1:] + [n]
        s, total, mask = self._segment(0, pivots[0], 0, 0)
        frontier, totals = [(s, mask)], [total]
        for i, p in enumerate(pivots):
            codes = [0]  # column p over row i's values, the first cell slowest
            for k in reversed(range(p - i, n - len(pivots))):
                codes = [neg[v] * q ** k + b for v in range(q) for b in codes]
            walks, nexts, terms = {}, {}, {}  # per state; per node
            for node in dict.fromkeys(frontier):
                s, mask = node
                if s not in walks:
                    walks[s] = [self._segment(p + 1, ends[i], i + 1, *self._step(s, p, x))
                                for x in codes]
                nexts[node] = [(s2, mask | dm) for s2, _, dm in walks[s]]
                terms[node] = [dt for _, dt, _ in walks[s]]
            totals = [t + dt for node, t in zip(frontier, totals) for dt in terms[node]]
            frontier = [child for node in frontier for child in nexts[node]]
        cosets = self.ctx.table.indices(totals)
        masks = list(map(itemgetter(1), frontier))
        bases, families = {}, {}  # per complement pivot mask
        for mask in dict.fromkeys(masks):
            dual_pivots = tuple(c for c in range(n) if mask >> c & 1)
            bases[mask] = _spec(self.ctx, dual_pivots)[0]
            families[mask] = self.counts.setdefault(dual_pivots, Counter())
        for (mask, c), k in Counter(zip(masks, cosets)).items():
            families[mask][c] += k
        return list(map(add, map(bases.__getitem__, masks), cosets))

    def _step(self, s: int, c: int, x: int) -> tuple[int, int, int]:
        """(state, term, pivot bit) after column c with code x, from state s."""
        a = self._spans[s].get(x)
        if a is None:
            return self._grow(s, x), 0, 1 << c
        return s, self._syndromes[c - self._ranks[s]][a], 0

    def _segment(self, lo: int, hi: int, row: int, s: int, dt: int = 0, dm: int = 0
                 ) -> tuple[int, int, int]:
        """(state, dt plus terms, dm plus pivot bits) after the unit columns
        lo..hi-1, which follow `row` pivots of S, from state s."""
        if lo < hi:
            memo = self._segments.setdefault((lo, hi, row), {})
            if s not in memo:
                walked, terms, bits = s, 0, 0
                for c in range(lo, hi):
                    walked, term, bit = self._step(walked, c, self.ctx.params.q ** (c - row))
                    terms, bits = terms + term, bits | bit
                memo[s] = walked, terms, bits
            s, terms, bits = memo[s]
            dt, dm = dt + terms, dm | bits
        return s, dt, dm

    def _grow(self, s: int, x: int) -> int:
        """The state after state s meets the column x outside its span."""
        child = self._children[s].get(x)
        if child is None:
            q, r = self.ctx.params.q, self._ranks[s]
            neg, _, mul, sub = _arithmetic(self.ctx.params.field)
            powers = [q ** k for k in range(self.ctx.code.m)]
            span = {}
            for a in range(q):  # vec + a·x, digit by digit, for each vec
                ax = [neg[mul[a][x // w % q]] for w in powers]
                for vec, coords in self._spans[s].items():
                    span[sum(sub[vec // w % q][v] * w for v, w in zip(ax, powers))] = \
                        coords + a * q ** r
            child = self._children[s][x] = len(self._spans)
            self._ranks.append(r + 1)
            self._spans.append(span)
            self._children.append({})
        return child

    def families(self) -> dict[str, dict[int, int]]:
        """Coset family sizes keyed by identifying vector, as `0`/`1` text."""
        n = self.ctx.params.n
        return {"".join("1" if j in pivots else "0" for j in range(n)): family
                for pivots, family in self.counts.items()}


def full_colouring(ctx: ColourContext, verify: bool | None = None,
                   vertex_cap: int = DEFAULT_VERTEX_CAP) -> ColourCertificate:
    """Colour every vertex; verify properness by default at desk scale.

    Vertices are walked one identifying vector at a time, in
    `enumerate_subspaces` order, with keys from `block_keys`.  Colours come
    from `_CosetColourer` (direct: all at once from the context's syndrome
    table; dual: from one walk over the orthogonal complements' columns) or
    are the running index (complete).  Verification is the verifier's
    block verdict on the same blocks of colours (`_clash_of_blocks`), and a
    clash is named from the key-sorted entries, as `verify_properness` names
    it in the certificate.
    """
    params = ctx.params
    total = check_vertex_cap(params, vertex_cap)
    if verify is None:
        verify = total <= AUTO_VERIFY_LIMIT

    colourer = None if ctx.regime == COMPLETE else _CosetColourer(ctx)
    entries: list[tuple[str, int]] = []
    colours: list[int] = []
    blocks: list = []  # per identifying vector, kept only to verify
    for idvec in weight_vectors_lex(params.n, params.m):
        keys = block_keys(params.field, idvec)
        if ctx.regime == COMPLETE:
            block = range(len(colours), len(colours) + len(keys))
        elif ctx.regime == DIRECT:
            block = colourer.block(idvec)
        else:
            block = colourer.dual_block(idvec)
        entries.extend(zip(keys, block))
        colours.extend(block)
        if verify:
            blocks.append(block)

    entries.sort()  # keys are distinct, so this is the key order
    palette_used = len(set(colours))
    proper: bool | None = None
    pairs_checked = 0
    if verify:
        clash = _clash_of_blocks(params, blocks, entries)
        if clash is not None:
            raise AssertionError(f"construction produced an improper colouring: "
                                 f"{clash[0]}, sharing {clash[1]}")
        proper, pairs_checked = True, total * (total - 1) // 2

    bounds = bounds_report(params, ctx.johnson.method if ctx.johnson else "greedy",
                           ctx.johnson.palette if ctx.johnson else None)
    if palette_used > bounds["theorem_upper"]:
        raise AssertionError("palette exceeds the theorem bound")
    code_params = None
    if ctx.code is not None:
        code_params = {"q": ctx.code.q, "m": ctx.code.m, "h": ctx.code.h,
                       "d": ctx.code.d, "distance_verified": ctx.distance_verified}
    return ColourCertificate(
        params=params, regime=ctx.regime,
        johnson_method=ctx.johnson.method if ctx.johnson else None,
        johnson_palette=ctx.johnson.palette if ctx.johnson else None,
        code_params=code_params, colours=tuple(entries),
        palette_used=palette_used,
        bounds={k: bounds[k] for k in ("lower", "theorem_upper", "trivial_upper")},
        proper=proper, pairs_checked=pairs_checked,
        family_sizes=colourer.families() if colourer else {})


# -- certificate JSON ---------------------------------------------------------

def _stringify(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"unexpected certificate value {value!r}")


def certificate_to_json(cert: ColourCertificate) -> str:
    """The certificate as `json.dumps(doc, indent=1, sort_keys=True)` + newline.

    The `colours` array is rendered one f-string per entry, with each key
    escaped by `encode_basestring_ascii`, as `json.dumps` escapes every
    string, and so is `provenance.family_sizes`; the rest of the document
    is dumped with both empty, and the rendered ones replace them.  With
    `indent` set, `json.dumps` cannot use its C encoder, so dumping V entry
    dicts would walk them in Python.
    """
    doc = {
        "params": {"q": str(cert.params.q), "n": str(cert.params.n),
                   "m": str(cert.params.m), "t": str(cert.params.t)},
        "regime": cert.regime,
        "johnson": (None if cert.johnson_method is None else
                    {"method": cert.johnson_method,
                     "palette": str(cert.johnson_palette)}),
        "code": (None if cert.code_params is None else
                 {k: _stringify(v) for k, v in cert.code_params.items()}),
        "colours": [],
        "bounds": {k: str(v) for k, v in cert.bounds.items()},
        "verified": {"proper": cert.proper,
                     "pairs_checked": str(cert.pairs_checked)},
        "provenance": {
            "palette_used": str(cert.palette_used),
            "family_sizes": {},
        },
    }
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    families = []  # one string per family, its coset ids sorted as strings
    for u, fam in sorted(cert.family_sizes.items()):
        sizes = [f'    "{i}": "{s}"' for i, s in sorted(zip(map(str, fam), fam.values()))]
        body = "{\n" + ",\n".join(sizes) + "\n   }" if sizes else "{}"
        families.append(f"   {_json_string(u)}: {body}")
    if families:  # the only `{}` at this depth with this key
        text = text.replace('\n  "family_sizes": {},\n',
                            '\n  "family_sizes": {\n' + ",\n".join(families) + "\n  },\n", 1)
    if not cert.colours:
        return text
    # a string value holds no raw newline, so this is the top-level key
    entries = ",\n".join([f'  {{\n   "colour": "{c}",\n   "vertex": {_json_string(k)}\n  }}'
                          for k, c in cert.colours])
    return text.replace('\n "colours": [],\n', f'\n "colours": [\n{entries}\n ],\n', 1)


def certificate_from_json(text: str) -> ColourCertificate:
    doc = json.loads(text)
    try:
        p = doc["params"]
        params = GrassmannParams(int(p["q"]), int(p["n"]), int(p["m"]), int(p["t"]))
        johnson = doc.get("johnson")
        code = doc.get("code")
        keys = [e["vertex"] for e in doc["colours"]]
        texts = [e["colour"] for e in doc["colours"]]
        if {*map(type, keys), *map(type, texts)} - {str}:
            raise TypeError("vertex keys and colours must be strings")
        colours = tuple(sorted(zip(keys, map(int, texts))))
        verified = doc.get("verified") or {}
        prov = doc.get("provenance") or {}
        fam = {u: {int(i): int(s) for i, s in d.items()}
               for u, d in (prov.get("family_sizes") or {}).items()}
        return ColourCertificate(
            params=params, regime=doc["regime"],
            johnson_method=johnson["method"] if johnson else None,
            johnson_palette=int(johnson["palette"]) if johnson else None,
            code_params=(None if code is None else {
                "q": int(code["q"]), "m": int(code["m"]), "h": int(code["h"]),
                "d": int(code["d"]),
                "distance_verified": bool(code["distance_verified"])}),
            colours=colours,
            palette_used=int(prov.get("palette_used", len({c for _, c in colours}))),
            bounds={k: int(v) for k, v in doc["bounds"].items()},
            proper=verified.get("proper"),
            pairs_checked=int(verified.get("pairs_checked", "0")),
            family_sizes=fam)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc


def save_certificate(cert: ColourCertificate, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(certificate_to_json(cert))


def load_certificate(path: str) -> ColourCertificate:
    with open(path) as fh:
        return certificate_from_json(fh.read())
