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
(in the dual regime, the orthogonal complement's RREF rows).  Every sum of
terms is taken and read by the table's `matq.DigitSums`, the verifier's
rule too: XOR with no fold over characteristic 2.  The class
base and the table rows of the free cells are cached per pivot set on the
context.  `full_colouring` walks one identifying vector at a time: the
free cells run over F_q^f in `enumerate_subspaces` order, the keys come
from `grassmann.block_keys` by prefix expansion, and direct-regime
colours from all sums of cell terms at once.  In the dual regime the
complement's RREF is read off its column rank profile by one walk over
its columns, which the vertices of an identifying vector share up to
their first differing row (`_CosetColourer.dual_block`).  A point query
(`colour_subspace`) reads the same tables for one vertex, at the pivots
the `Subspace` keeps.  In the dual regime over F_2 it walks the
complement's columns packed as n-bit integers, reducing each by XOR
(`_colour_dual_f2`); over other fields it eliminates the complement's
scaffold (`matq._complement_of_rref`).  In the complete regime the colour
is the running index.  The coset families the certificate reports are
computed from the code, not counted per vertex: the coset index is
F_q-linear in the free cells, so an identifying vector's family is the
image of its free cells' syndromes, each coset hit equally often
(`_family`).  In the dual regime S ↦ S⊥ is a bijection, so the families
are those of `params.dual()`'s identifying vectors.
`rankmetric.unlift` plus `rankmetric.coset_index` is the reference the
tests compare both paths against.

`full_colouring` also reports exact integer bounds, and (optionally but
by default at desk scale) runs the verifier's block verdict on its own
colours before sealing the certificate (`verify._clash_of_blocks`).
Certificates serialize to a single JSON document with all integers as
decimal strings; byte-identical across runs for equal inputs.  The bytes
are those of `json.dumps(doc, indent=1, sort_keys=True)`, but
`certificate_chunks` writes the `colours` array (one f-string per entry,
the key escaped as `json.dumps` escapes it) and `family_sizes` itself into
a dump of the rest of the document, and hands the text over in pieces of
`CHUNK` entries: `qchroma colour` writes each piece as it is rendered, and
`certificate_to_json` joins them once.  Checking a
certificate is the job of `qchroma.verify`, which imports nothing from
this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_string
from operator import add, getitem
from typing import Iterator

from .grassmann import (COMPLETE, DIRECT, DUAL, GrassmannParams, Subspace, block_keys,
                        check_vertex_cap, degree_formula, enumeration_index, free_cells,
                        regime_of, weight_vectors_lex)
from .johnson import (JohnsonColouring, check_method, gs_fits_desk, johnson_bounds,
                      johnson_colouring)
from .matq import _arithmetic, _complement_of_rref, gaussian_binomial
from .rankmetric import (DISTANCE_SCAN_LIMIT, GabidulinCode, SyndromeTable,
                         gabidulin_build, min_rank_distance)
# perfbench reads `colouring.verify_properness`, so this module keeps the name bound
from .verify import _clash_of_blocks, verify_properness

DEFAULT_VERTEX_CAP = 100_000
AUTO_VERIFY_LIMIT = 20_000
_BITS = bytes.maketrans(b"\0\1", b"01")  # F_2 entries, as bytes, to binary digits
CHUNK = 4096  # `colours` entries per piece of `certificate_chunks`

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
    # dual regime over F_2: the unit columns, bit c for column c (`_colour_dual_f2`)
    _units: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        self._units = tuple(1 << c for c in range(self.params.n))


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
    Cached on the context, for the direct kernel, point queries and
    `_family`; it holds no colouring's state.
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
        h, terms, expand = ctx.code.h, ctx.table.terms, ctx.table.sums.expand
        ctx._syndromes = []
        for col in range(h):
            sums = [0]
            for k in range(ctx.code.m):  # digit k varies slowest so far
                sums = expand(terms[k * h + col], sums)
            ctx._syndromes.append(sums)
    return ctx._syndromes


def _colour_dual_f2(ctx: ColourContext, rows: tuple[tuple[int, ...], ...],
                    pivots: tuple[int, ...]) -> int:
    """`colour_subspace` of a dual-regime vertex over F_2, with no elimination.

    The complement's RREF is read off its column rank profile, as in
    `_CosetColourer.dual_block`, by one walk over the columns of the rows
    spanning S⊥, each an int with bit f for the row of S's non-pivot f: a
    unit at a non-pivot, row i of S without its pivot 1 at pivot p_i (over
    F_2, -x = x).  The rows are read as one binary numeral, n bits a row,
    and the units are prebuilt on the context.  Each column is reduced by
    XOR against the complement pivots found before it, each with the mask
    of the columns it sums, bit r for the r-th pivot.  A column left nonzero
    is a pivot; one reduced to 0 has as coordinate code the XOR of the
    masks used.
    """
    syndromes, n, sums = _dual_syndromes(ctx), ctx.params.n, ctx.table.sums
    columns, row_mask = list(ctx._units), (1 << n) - 1
    # all rows as one numeral: entry j of row i is bit i * n + j
    x = int(b"".join(map(bytes, rows)).translate(_BITS)[::-1], 2)
    for p in pivots:
        columns[p] = x & row_mask ^ 1 << p
        x >>= n
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
            total = sums.op(total, syndromes[c - len(found)][a])
    return _spec(ctx, tuple(dual_pivots))[0] + sums.read(total)


def colour_subspace(ctx: ColourContext, S: Subspace) -> int:
    """Colour id of one vertex; deterministic and context-pure.

    The colour `full_colouring` gives S, read from the same syndrome table
    and per-pivot-set cache, with no `Subspace` built.  In the dual regime
    the rows are those of S's orthogonal complement in RREF: over F_2 read
    off one walk over its columns (`_colour_dual_f2`), over other fields
    brought there by one elimination (`matq._complement_of_rref`).
    """
    p, pivots = ctx.params, S.pivots
    if S.basis.field.order != p.q or len(S.idvec) != p.n or len(pivots) != p.m:
        raise ValueError("subspace does not belong to this graph")
    if ctx.regime == COMPLETE:
        return enumeration_index(S)
    rows = S.basis.rows
    if ctx.regime == DUAL:
        if p.q == 2:
            return _colour_dual_f2(ctx, rows, pivots)
        rows, pivots = _complement_of_rref(S.basis.field, rows, pivots)
    base, cells, terms = _spec(ctx, pivots)
    sums = ctx.table.sums
    return base + sums.read(sums.sum(map(getitem, terms, [rows[i][j] for i, j in cells])))


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


class _CosetColourer:
    """`full_colouring`'s colours, and the coset families it reports.

    Colours come from the context's syndrome table: `block` through
    `_spec`, `dual_block` through the dual regime's walk states, kept here
    for one colouring with each complement pivot mask's class base.  The
    families are computed from the code, not counted per vertex (`_family`).
    """

    def __init__(self, ctx: ColourContext):
        self.ctx = ctx
        self.sums = ctx.table.sums
        if ctx.regime != DUAL:
            return
        # walk states, a trie from the empty state 0: rank, span (every
        # vector's coordinate code), children; unit-column walks per segment
        self._ranks, self._spans, self._children = [0], [{0: 0}], [{}]
        self._segments: dict[tuple[int, int, int], dict] = {}
        self._syndromes = _dual_syndromes(ctx)
        self._bases: dict[int, int] = {}  # class * block per complement pivot mask

    def block(self, idvec: tuple[int, ...]) -> list[int]:
        """Colours of all vertices with this identifying vector, in `rref_bases` order."""
        base, _, terms = _spec(self.ctx, tuple(j for j, b in enumerate(idvec) if b))
        totals = [0]
        for row in reversed(terms):  # the first cell varies slowest
            totals = self.sums.expand(row, totals)
        return [base + c for c in self.sums.read_all(totals)]

    def dual_block(self, idvec: tuple[int, ...]) -> list[int]:
        """`block` in the dual regime, from the RREF of each vertex's
        orthogonal complement, found by one column walk, not by elimination.

        S⊥ is spanned by the rows e_f - Σ_i S[i][f]·e_{p_i}, f the k-th
        non-pivot of S for row k.  A column is a vector of F_q^d, d = n - m,
        coded base q with digit k for row k: a non-pivot of S is a unit
        code, pivot p_i holds row i's free cells, negated.  A column is an
        RREF pivot exactly when it is outside the span of the pivot columns
        before it, and otherwise holds its coordinates in them, which add
        one `_syndromes` term.  The walk runs one row of S at a time over a
        frontier of walk states, complement pivot masks and summed terms,
        three parallel lists, so vertices share it up to their first
        differing row.
        """
        q, n, op = self.ctx.params.q, len(idvec), self.sums.op
        neg = _arithmetic(self.ctx.params.field)[0]
        pivots = [j for j, b in enumerate(idvec) if b]
        ends = pivots[1:] + [n]
        s, total, mask = self._segment(0, pivots[0], 0, 0)
        states, masks, totals = [s], [mask], [total]
        for i, p in enumerate(pivots):
            codes = [0]  # column p over row i's values, the first cell slowest
            for k in reversed(range(p - i, n - len(pivots))):
                codes = [neg[v] * q ** k + b for v in range(q) for b in codes]
            walks = {}  # per state: next states, terms and pivot bits, one per code
            for s in dict.fromkeys(states):
                # a code in the span keeps the state: one segment serves them all
                kept, dt, dm = self._segment(p + 1, ends[i], i + 1, s)
                span, terms = self._spans[s], self._syndromes[p - self._ranks[s]]
                children, walk = self._children[s], []
                for x in codes:
                    a = span.get(x)
                    walk.append((kept, op(dt, terms[a]), dm) if a is not None else
                                self._segment(p + 1, ends[i], i + 1,
                                              children.get(x) or self._grow(s, x), 0, 1 << p))
                walks[s] = tuple(zip(*walk))
            totals = [op(t, dt) for s, t in zip(states, totals) for dt in walks[s][1]]
            masks = [mask | dm for s, mask in zip(states, masks) for dm in walks[s][2]]
            if p != pivots[-1]:  # the last row's states are not read
                states = [s2 for s in states for s2 in walks[s][0]]
        bases = self._bases
        for mask in set(masks).difference(bases):
            u = tuple(mask >> c & 1 for c in range(n))
            bases[mask] = self.ctx.class_of_idvec[u] * self.ctx.coset_block
        return list(map(add, map(bases.__getitem__, masks), self.sums.read_all(totals)))

    def _segment(self, lo: int, hi: int, row: int, s: int, dt: int = 0, dm: int = 0
                 ) -> tuple[int, int, int]:
        """(state, dt plus terms, dm plus pivot bits) after the unit columns
        lo..hi-1, which follow `row` pivots of S, from state s."""
        if lo < hi:
            memo = self._segments.setdefault((lo, hi, row), {})
            if s not in memo:
                walked, terms, bits, op = s, 0, 0, self.sums.op
                for c in range(lo, hi):
                    x = self.ctx.params.q ** (c - row)
                    a = self._spans[walked].get(x)
                    if a is None:
                        walked = self._children[walked].get(x) or self._grow(walked, x)
                        bits |= 1 << c
                    else:
                        terms = op(terms, self._syndromes[c - self._ranks[walked]][a])
                memo[s] = walked, terms, bits
            s, terms, bits = memo[s]
            dt, dm = self.sums.op(dt, terms), dm | bits
        return s, dt, dm

    def _grow(self, s: int, x: int) -> int:
        """The state after state s meets the column x outside its span.

        A child is never the empty state 0, so `children.get(x) or` skips the call.
        """
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
        """Coset family sizes of every identifying vector of the coloured
        graph (`params.dual()`'s in the dual regime), keyed as `0`/`1` text.

        S ↦ S⊥ is a bijection, so the dual regime's family at complement
        pivots D is the direct family of `params.dual()` at D.
        """
        p = self.ctx.params
        coloured = p if self.ctx.regime == DIRECT else p.dual()
        return {"".join(map(str, u)): _family(self.ctx, tuple(j for j, b in enumerate(u) if b))
                for u in weight_vectors_lex(coloured.n, coloured.m)}


def _family(ctx: ColourContext, pivots: tuple[int, ...]) -> dict[int, int]:
    """{coset index: vertices} of the identifying vector with these pivots.

    The coset index is F_q-linear in the free cells, so the cosets hit are
    the image I of the free cells' syndromes, a subspace, and each is hit
    q^(cells - dim I) times.  I is spanned cell by cell, in order: a cell
    whose syndrome lies outside the span so far adds its nonzero multiples
    to every sum, and only those new sums are read.  Once I reaches the
    whole coset space the sums stop.
    """
    rule, (_, _, terms) = ctx.table.sums, _spec(ctx, pivots)
    sums, image = [0], {0}
    for row, syndrome in zip(terms, rule.read_all([row[1] for row in terms])):
        if syndrome in image:
            continue
        if len(image) * ctx.params.q == ctx.coset_block:
            image = range(ctx.coset_block)
            break
        new = rule.expand(row[1:], sums)
        image.update(rule.read_all(new))
        sums += new
    return dict.fromkeys(image, ctx.params.q ** len(terms) // len(image))


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
    total = check_vertex_cap(params.q, params.n, params.m, vertex_cap)
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


def certificate_chunks(cert: ColourCertificate) -> Iterator[str]:
    """The text of `certificate_to_json`, in order, as an iterator of pieces:
    the document up to the `colours` array's first entry, one piece per
    `CHUNK` entries, then the rest.

    Each entry is rendered by one f-string, with its key escaped by
    `encode_basestring_ascii`, as `json.dumps` escapes every string, and so
    is `provenance.family_sizes`; the rest of the document is dumped with
    both empty, and the rendered ones replace them.  With `indent` set,
    `json.dumps` cannot use its C encoder, so dumping V entry dicts would
    walk them in Python.  Everything but the entries is built before this
    returns, so a value that cannot be written raises here, before any piece.
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
        return iter((text,))
    # a string value holds no raw newline, so this is the top-level key
    head, _, tail = text.partition('\n "colours": [],\n')
    return _entry_chunks(head + '\n "colours": [\n', cert.colours, '\n ],\n' + tail)


def _entry_chunks(head: str, colours: tuple[tuple[str, int], ...], tail: str
                  ) -> Iterator[str]:
    yield head
    for lo in range(0, len(colours), CHUNK):
        entries = ",\n".join([f'  {{\n   "colour": "{c}",\n   "vertex": {_json_string(k)}\n  }}'
                              for k, c in colours[lo:lo + CHUNK]])
        yield entries if lo == 0 else ",\n" + entries
    yield tail


def certificate_to_json(cert: ColourCertificate) -> str:
    """The certificate as `json.dumps(doc, indent=1, sort_keys=True)` + newline,
    joined once from `certificate_chunks`."""
    return "".join(certificate_chunks(cert))


def certificate_from_json(text: str) -> ColourCertificate:
    try:
        doc = json.loads(text)
        p = doc["params"]
        params = GrassmannParams(int(p["q"]), int(p["n"]), int(p["m"]), int(p["t"]))
        johnson = doc.get("johnson")
        code = doc.get("code")
        entries = doc.pop("colours")
        keys = [e["vertex"] for e in entries]
        texts = [e["colour"] for e in entries]
        del entries  # the V entry dicts go before the sort builds V pairs
        if {*map(type, keys), *map(type, texts)} - {str}:
            raise TypeError("vertex keys and colours must be strings")
        colours = tuple(sorted(zip(keys, map(int, texts))))
        verified = doc.get("verified") or {}
        if type(verified.get("proper")) not in (bool, type(None)) or (
                code is not None and type(code["distance_verified"]) is not bool):
            raise TypeError("proper and distance_verified must be JSON booleans")
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
                "distance_verified": code["distance_verified"]}),
            colours=colours,
            palette_used=(int(prov["palette_used"]) if "palette_used" in prov
                          else len({c for _, c in colours})),
            bounds={k: int(v) for k, v in doc["bounds"].items()},
            proper=verified.get("proper"),
            pairs_checked=int(verified.get("pairs_checked", "0")),
            family_sizes=fam)
    # wrong JSON shapes too, and nesting deeper than the parser's recursion limit
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc


def save_certificate(cert: ColourCertificate, path: str) -> None:
    chunks = certificate_chunks(cert)  # raises before the file is opened
    with open(path, "w") as fh:
        fh.writelines(chunks)


def load_certificate(path: str) -> ColourCertificate:
    with open(path) as fh:
        return certificate_from_json(fh.read())
