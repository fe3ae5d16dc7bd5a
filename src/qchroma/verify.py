"""The certificate verifier: is a colouring of J_q(n, m, t) proper?

A certificate needs only `.params`, the graph's `GrassmannParams`, and
`.colours`, its (vertex key, colour) entries, as `colouring.ColourCertificate`
holds them.  From this package the verifier imports only `grassmann` and
`matq` (a tier-1 test follows its imports): none of the Johnson colourings,
lifting or cosets of the construction it checks.

`verify_properness` accepts by blocks, one identifying vector at a time:
coverage by looking up every vertex's `block_keys` key, properness by
sorting one integer per (colour, fingerprinted t-subspace) of every vertex
(`_clash_free`, `_Fingerprints`).  It refuses by one path each: a coverage
refusal lists the missing and unexpected keys (`_verify_by_keys`,
`_KeyParser`), and a clash is named by `_first_clash`, which walks the
colour classes in certificate order (`colour_clash`) and parses only the
keys it fingerprints.  `colouring.full_colouring` runs the same verdict on
its own colours (`_clash_of_blocks`), and `johnson.is_proper` runs
`colour_clash` with t-subsets as fingerprints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, eq, getitem, mul
from typing import Callable, Hashable, Iterable, Sequence

from .grassmann import (DUAL, GrassmannParams, Subspace, block_keys, decode_subspace,
                        encode_subspace, entry_texts, free_cells, key_template,
                        regime_of, rref_bases, weight_vectors_lex)
from .matq import MatrixFq, PackedFp, intersection_dim

MISSING_LIST_SLACK = 1_000  # verify lists missing keys up to this many beyond the given ones


@dataclass
class VerificationReport:
    proper: bool
    pairs_checked: int
    counterexample: tuple[str, str, int] | None
    coverage_ok: bool
    missing: tuple[str, ...]
    unexpected: tuple[str, ...]
    witness: str | None = None        # key of a t-subspace the counterexample shares
    declared: int = 0                 # on a coverage error: the graph's vertex count
    given: int = 0                    # on a coverage error: the certificate's key count

    def message(self) -> str:
        if not self.coverage_ok:
            counts = f"coverage error: {self.given} keys for {self.declared} vertices"
            if self.declared - self.given > MISSING_LIST_SLACK:
                return (f"{counts}; too many missing to list, "
                        f"{len(self.unexpected)} unexpected vertices")
            return (f"{counts}; {len(self.missing)} missing, "
                    f"{len(self.unexpected)} unexpected vertices")
        if self.proper:
            return f"proper colouring; {self.pairs_checked} vertex pairs checked"
        a, b, dim = self.counterexample
        return f"NOT proper: {a} and {b} share a colour but intersect in dim {dim}"


def colour_clash(colours: Sequence[int],
                 fingerprints: Callable[[int], Iterable[Hashable]]
                 ) -> tuple[int, int, Hashable] | None:
    """First two same-colour items that share a fingerprint, or None.

    Items are indices into `colours`.  Within each colour class (classes
    taken in order of first appearance, members in index order) every
    fingerprint is hashed once, so the cost is linear in the total number
    of fingerprints and no pair is walked.  A class of one item is never
    fingerprinted.  Returns (i, j, shared fingerprint) with i < j.
    """
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(colours):
        classes.setdefault(c, []).append(i)
    for members in classes.values():
        if len(members) < 2:
            continue
        owner: dict[Hashable, int] = {}
        for j in members:
            for f in fingerprints(j):
                i = owner.setdefault(f, j)
                if i != j:
                    return i, j, f
    return None


class _Fingerprints:
    """The t-subspaces of m-subspaces of F_q^n, as tuples of packed integers.

    A vertex is read as the pivot columns of its RREF basis B and the
    values of its free cells, in `free_cells` order.  Its t-subspaces are
    the row spaces of C·B, C the RREF bases of the t-subspaces of F_q^m.
    With both C and B in RREF, C·B is itself in RREF (its pivot columns are
    B's pivot columns picked by C's pivots, where C·B repeats the columns
    of C), so C·B is the canonical fingerprint as computed.

    A row of C·B is a sum of at most m scaled rows c·B_i.  Each is built
    once per vertex from per-entry tables of c·v, with F_p coordinate l of
    entry j in slot j·k + l of a `matq.PackedFp` wide enough for m terms;
    one fold of the sum gives the base-q integer whose digit j is entry j.
    A fingerprint is the tuple of those integers for the rows of one C,
    the C taken in `rref_bases` order over `weight_vectors_lex(m, t)`.
    `of` builds one vertex's; `block` builds the rows of a whole identifying
    vector's vertices at once.  This is field arithmetic only: no lifting
    and no cosets.
    """

    def __init__(self, params: GrassmannParams):
        field = params.field
        q, n, m = params.q, params.n, params.m
        self.field, self.n = field, n
        combos = [C for u in weight_vectors_lex(m, params.t)
                  for C in rref_bases(q, u)]
        # rows of the C, by weight: zeroing a free entry of a row gives a row
        # of another C with the same pivots, so the sum for a row is the sum
        # for the row without its last nonzero entry plus one scaled row
        self.coeff_rows = coeff_rows = sorted({r for C in combos for r in C},
                                              key=lambda r: (m - r.count(0), r))
        row_at = {r: x for x, r in enumerate(coeff_rows)}
        self.columns = [[row_at[C[k]] for C in combos] for k in range(params.t)]
        # the scaled rows (i, c) = c·B_i that the sums use
        self.scaled = sorted({(i, c) for r in coeff_rows for i, c in enumerate(r) if c})
        at = {ic: x for x, ic in enumerate(self.scaled)}
        self.units: list[int] = []
        self.layers: list[list[tuple[int, int]]] = [[] for _ in range(m - 1)]
        for r in coeff_rows:
            last = max(i for i, c in enumerate(r) if c)
            prefix = r[:last] + (0,) + r[last + 1:]
            if any(prefix):
                self.layers[m - 1 - prefix.count(0)].append(
                    (row_at[prefix], at[last, r[last]]))
            else:
                self.units.append(at[last, r[last]])
        self.packed = packed = PackedFp(field.p, m, n * field.k)
        stride = field.k * packed.width
        cv = [[packed.pack(field.coeffs_of(field.mul(c, v))) for v in range(q)]
              for c in range(q)]
        self.term = [[[x << (j * stride) for x in cv[c]] for c in range(q)]
                     for j in range(n)]  # term[j][c][v]: c·v as entry j
        self._negated: list | None = None  # the same with v negated, for `block`
        self._specs: dict[tuple[int, ...], tuple] = {}

    def _spec(self, pivots: tuple[int, ...]):
        """The free cells, and per scaled row c·B_i: the term of its pivot,
        the slice of the values that row i's free cells take, and their
        term tables for c."""
        spec = self._specs.get(pivots)
        if spec is None:
            cells = free_cells([1 if j in pivots else 0 for j in range(self.n)])
            term = self.term
            spec = self._specs[pivots] = (cells, [])
            for i, c in self.scaled:
                lo = sum(r < i for r, _ in cells)  # cells are row-major
                tabs = [term[j][c] for r, j in cells if r == i]
                spec[1].append((term[pivots[i]][c][1], lo, lo + len(tabs), tabs))
        return spec

    def of(self, pivots: tuple[int, ...], values: list[int]) -> Iterable[tuple[int, ...]]:
        """The fingerprints of the vertex with these pivots and free-cell values."""
        scaled = [base + sum(map(getitem, tabs, values[lo:hi]))
                  for base, lo, hi, tabs in self._spec(pivots)[1]]
        totals = [scaled[b] for b in self.units]
        for layer in self.layers:
            totals += [totals[a] + scaled[b] for a, b in layer]
        vecs = self.packed.fold_all(totals)
        return zip(*[map(vecs.__getitem__, column) for column in self.columns])

    def block(self, idvec: tuple[int, ...], complement: bool = False) -> list[list[int]]:
        """Per row r of `coeff_rows`, the folded r·B of every vertex with
        this identifying vector, in `rref_bases` order.

        r·B is the sum of r_k times the pivot 1 of row k of B plus, per free
        cell, a term F_q-linear in the cell's value, so the sums of a whole
        identifying vector come at once, as `colouring._CosetColourer.block` sums
        syndromes: a cell with a nonzero coefficient adds its terms to every
        sum so far, a cell with coefficient 0 repeats the sums q times.

        With `complement`, the fingerprints are of the vertices' orthogonal
        complements and this object is built for `params.dual()`.  For a
        vertex with pivots P and free cells A, the complement's rows
        e_j - Σ_i A[i][j]·e_{p_i}, j not in P, by descending j, are its RREF
        under the reversed column order, so every vertex's t-subspaces are
        fingerprinted canonically; the free cell (i, j) holds -A[i][j] in
        column p_i of the row of j.
        """
        q, term = self.field.order, self.term
        pivots = [j for j, b in enumerate(idvec) if b]
        cells = free_cells(idvec)
        if complement:
            leads = [j for j in reversed(range(self.n)) if not idvec[j]]
            row_of = {j: k for k, j in enumerate(leads)}
            cells = [(row_of[j], pivots[i]) for i, j in cells]
            if self._negated is None:
                neg = [self.field.neg(v) for v in range(q)]
                self._negated = [[[tc[v] for v in neg] for tc in tj] for tj in term]
            tables = self._negated  # tables[j][c][v]: c·(-v) as entry j
        else:
            leads, tables = pivots, term  # leads: the column of each row's pivot 1
        out = []
        for r in self.coeff_rows:
            totals = [sum(term[j][c][1] for j, c in zip(leads, r))]
            for k, j in reversed(cells):  # the first cell varies slowest
                c = r[k]
                totals = [a + b for a in tables[j][c] for b in totals] if c else totals * q
            out.append(self.packed.fold_all(totals))
        return out

    def subspace(self, fingerprint: tuple[int, ...]) -> Subspace:
        """The t-subspace a fingerprint stands for."""
        q = self.field.order  # entry j is base-q digit j
        return Subspace(MatrixFq(self.field, tuple(
            tuple(value // q ** j % q for j in range(self.n)) for value in fingerprint)))


def _first_clash(params: GrassmannParams, entries: Sequence[tuple[str, int]]
                 ) -> tuple[tuple[str, str, int], str] | None:
    """((key S, key T, dim), witness key) of the first clash among these
    (key, colour) entries, or None.

    dim(S ∩ T) >= t exactly when S and T share a t-subspace, so
    `colour_clash` hashes fingerprints (`_Fingerprints.of`) per colour class,
    in the entries' order.  A key, which must be canonical, is parsed only
    when its class is fingerprinted, and only the reported pair is decoded.
    """
    parse, fp = _KeyParser(params).parse, _Fingerprints(params)
    clash = colour_clash([c for _, c in entries], lambda i: fp.of(*parse(entries[i][0])))
    if clash is None:
        return None
    i, j, shared = clash
    a, b = entries[i][0], entries[j][0]
    dim = intersection_dim(decode_subspace(a).basis, decode_subspace(b).basis)
    return (a, b, dim), encode_subspace(fp.subspace(shared))


def _clash_of_blocks(params: GrassmannParams, blocks: Sequence[Sequence[int]],
                     entries: Sequence[tuple[str, int]]
                     ) -> tuple[tuple[str, str, int], str] | None:
    """None when a colouring of all V vertices is proper, else its first
    clash, named by `_first_clash` from `entries` in their order.

    `blocks` holds the same colours by identifying vector, as `_clash_free`
    reads them.  The colouring is proper when its colours are distinct or
    `_clash_free` finds no clash; if `_first_clash` then finds none either,
    the verdicts disagree and this raises AssertionError rather than accept.
    """
    if len(set(itertools.chain.from_iterable(blocks))) == params.vertex_count() \
            or _clash_free(params, blocks):
        return None
    clash = _first_clash(params, entries)
    if clash is None:
        raise AssertionError("the block verdict finds a clash that the key-by-key walk does not")
    return clash


def _clash_free(params: GrassmannParams, blocks: Iterable[Sequence[int]]) -> bool:
    """Whether no two vertices of one colour share a t-subspace.

    `blocks` holds the colours of all vertices, one sequence per identifying
    vector of `weight_vectors_lex(n, m)`, in `rref_bases` order.  Each vertex
    and each of its fingerprinted k-subspaces give one integer, the colour
    times q^(n·k) plus the fingerprint's k rows (`_Fingerprints.block`) as
    base-q^n digits, so the integer determines the pair;
    the integers of all vertices are sorted.  A vertex's own t-subspaces are
    distinct, so two equal integers are two vertices of one colour sharing
    a t-subspace.  In the dual regime the vertices' orthogonal complements
    are fingerprinted instead: dim(S ∩ T) >= t exactly when S⊥ and T⊥ share
    an (n - 2m + t)-subspace, and S⊥ has fewer of those than S has
    t-subspaces.  A True answer is the certificate; on False
    `_first_clash` names the clash.
    """
    complement = regime_of(params) == DUAL
    fp = _Fingerprints(params.dual() if complement else params)
    base = params.q ** params.n  # a folded row is below this
    combos = [(combo[:-1], combo[-1]) for combo in zip(*fp.columns)]
    codes: list[int] = []
    for idvec, colours in zip(weight_vectors_lex(params.n, params.m), blocks):
        rows = fp.block(idvec, complement)
        high = [c * base for c in colours]
        for lead, last in combos:
            code = high
            for x in lead:
                code = map(mul, map(add, code, rows[x]), itertools.repeat(base))
            codes += map(add, code, rows[last])
    codes.sort()
    return not any(map(eq, codes, itertools.islice(codes, 1, None)))


class _KeyParser:
    """Reads the canonical vertex keys of one graph by template.

    A key must start with this graph's `q=..;n=..;m=..;rows=[[` header and
    hold m rows of n entries.  Its pivots are read as the first 1 of each
    row, and the `key_template` of those pivots, filled with the key's own
    free-cell texts, must re-render the key exactly.  That re-render is the
    canonicity check: pivot 1s, 0s left of and above the pivots, row order,
    entry text and shape.  The free-cell texts must be `entry_texts`, read
    through one dict.
    """

    def __init__(self, params: GrassmannParams):
        self.field, self.n, self.m = params.field, params.n, params.m
        texts = entry_texts(self.field)
        self.one = texts[1]
        self.row_starts = range(0, self.m * self.n, self.n)
        self.value_of = {text: v for v, text in enumerate(texts)}
        self.head = f"q={params.q};n={params.n};m={params.m};rows=[["
        self._specs: dict[tuple[int, ...], tuple] = {}

    def parse(self, key: str) -> tuple[tuple[int, ...], list[int]] | None:
        """(pivots, free-cell values) of a canonical key, else None."""
        if not (key.startswith(self.head) and key.endswith("]]")):
            return None
        cells = key[len(self.head):-2].replace("],[", ",").split(",")
        if len(cells) != self.m * self.n:
            return None
        try:
            pivots = tuple([cells.index(self.one, lo, lo + self.n) - lo
                            for lo in self.row_starts])
        except ValueError:  # a row with no 1
            return None
        spec = self._specs.get(pivots)
        if spec is None:
            idvec = [1 if j in pivots else 0 for j in range(self.n)]
            spec = self._specs[pivots] = (pivots, key_template(self.field, idvec), [
                i * self.n + j for i, j in free_cells(idvec)])
        pivots, template, at = spec  # one pivots tuple per pivot set
        texts = [cells[x] for x in at]
        if template.format(*texts) != key:
            return None
        try:
            return pivots, list(map(self.value_of.__getitem__, texts))
        except KeyError:
            return None


def verify_properness(cert) -> VerificationReport:
    """Re-check a certificate from scratch: coverage first, then properness.

    The certificate must hold V entries with V distinct keys, among them
    every vertex's key as `block_keys` renders it; then its key set is
    exactly the Grassmannian's.  Properness is decided on the colours by
    identifying vector (`_clash_of_blocks`), with no key parsed and no
    `Subspace` built.  `pairs_checked` is the C(V, 2) pairs an acceptance
    certifies, and 0 on refusal.
    """
    params = cert.params
    declared = params.vertex_count()
    # linear in the certificate, whatever V it claims
    blocks = _colour_blocks(params, cert.colours) if len(cert.colours) == declared else None
    if blocks is None:
        return _verify_by_keys(cert)
    clash = _clash_of_blocks(params, blocks, cert.colours)
    if clash is None:
        return VerificationReport(True, declared * (declared - 1) // 2, None, True, (), ())
    return VerificationReport(False, 0, clash[0], True, (), (), clash[1])


def _colour_blocks(params: GrassmannParams, entries: tuple[tuple[str, int], ...]
                   ) -> list[list[int]] | None:
    """The colour of every vertex, one list per identifying vector, in
    `enumerate_subspaces` order, read by its `block_keys` key; None unless
    the entries' keys are distinct and hold every vertex's."""
    colour_of = dict(entries)
    if len(colour_of) != len(entries):
        return None
    try:
        return [list(map(colour_of.__getitem__, block_keys(params.field, idvec)))
                for idvec in weight_vectors_lex(params.n, params.m)]
    except KeyError:
        return None


def _verify_by_keys(cert) -> VerificationReport:
    """The coverage refusal of a certificate whose keys are not the graph's.

    Every key must be the canonical key of a vertex (`_KeyParser`), once;
    V such keys are the Grassmannian's, which `_colour_blocks` would have
    accepted, so finding them raises AssertionError.  The expected keys are
    enumerated to list the missing ones only when the graph has at most
    MISSING_LIST_SLACK more vertices than the certificate has keys, so a
    refusal costs time linear in the certificate's size.
    """
    params = cert.params
    parser = _KeyParser(params)
    seen: set[str] = set()
    invalid: list[str] = []
    for key, _ in cert.colours:
        if parser.parse(key) is None or key in seen:
            invalid.append(key)
        else:
            seen.add(key)
    declared = params.vertex_count()
    if not invalid and len(seen) == declared:
        raise AssertionError("the block lookup refused V distinct canonical keys")
    # every key in `seen` is an expected key, so only `invalid` is unexpected
    missing = ()
    if declared - len(cert.colours) <= MISSING_LIST_SLACK:
        expected = {key for idvec in weight_vectors_lex(params.n, params.m)
                    for key in block_keys(params.field, idvec)}
        missing = tuple(sorted(expected - seen))
    return VerificationReport(False, 0, None, False, missing, tuple(sorted(set(invalid))),
                              declared=declared, given=len(cert.colours))
