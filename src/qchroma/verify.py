"""The certificate verifier: is a colouring of J_q(n, m, t) proper?

A certificate needs only `.params`, the graph's `GrassmannParams`, and
`.colours`, its (vertex key, colour) entries, as `colouring.ColourCertificate`
holds them.  From this package the verifier imports only `grassmann` and
`matq` (a tier-1 test follows its imports): none of the Johnson colourings,
lifting or cosets of the construction it checks.

`verify_properness` accepts by blocks, one identifying vector at a time:
coverage by looking up every vertex's `block_keys` key, properness by
sorting one integer per (colour, fingerprinted t-subspace) of every vertex
(`_clashing_colours`, `_Fingerprints`).  It refuses by one path each: a
coverage refusal lists the missing and unexpected keys (`_verify_by_keys`,
`_KeyParser`), and a clash is named by `_first_clash`, which walks only the
colour classes that the sorted integers found clashing, in certificate
order (`colour_clash`), and parses only the keys it fingerprints.  Both
fingerprint with the one routine `_Fingerprints.block`.
`colouring.full_colouring` runs the same verdict on its own colours
(`_clash_of_blocks`), and `johnson.is_proper` runs `colour_clash` with
t-subsets as fingerprints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, eq, getitem, mul
from typing import Callable, Hashable, Iterable, Sequence

from .grassmann import (DUAL, GrassmannParams, Subspace, block_keys, decode_subspace,
                        encode_subspace, entry_texts, free_cells, key_template,
                        regime_of, rref_bases, weight_vectors_lex)
from .matq import DigitSums, MatrixFq, intersection_dim

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

    A row r·B of C·B is a sum of per-entry terms c·v, read as the base-q
    integer whose digit j is entry j: the term as entry j is that of the
    index of c·v times q^j, and the terms are summed and read by the
    `matq.DigitSums` of m terms a sum.
    A fingerprint is the tuple of those integers for the rows of one C,
    the C taken in `rref_bases` order over `weight_vectors_lex(m, t)`.
    `block` is the one routine that builds them: the rows of a whole
    identifying vector's vertices at once for the verdict, or of one vertex
    for naming a clash.  This is field arithmetic only: no lifting and no
    cosets.
    """

    def __init__(self, params: GrassmannParams):
        field = params.field
        q, n, m = params.q, params.n, params.m
        self.field, self.n = field, n
        combos = [C for u in weight_vectors_lex(m, params.t)
                  for C in rref_bases(q, u)]
        self.coeff_rows = coeff_rows = sorted({r for C in combos for r in C})
        row_at = {r: x for x, r in enumerate(coeff_rows)}
        self.columns = [[row_at[C[k]] for C in combos] for k in range(params.t)]
        self.sums = sums = DigitSums(field.p, m, n * field.k)
        self.term = [[[sums.term(field.mul(c, v) * q ** j) for v in range(q)]
                      for c in range(q)] for j in range(n)]  # term[j][c][v]: c·v as entry j
        self._negated: list | None = None  # the same with v negated, for `block`
        self._layouts: dict[tuple, list] = {}  # per (idvec, complement), for `block`

    def block(self, idvec: tuple[int, ...], complement: bool = False,
              values: Sequence[int] | None = None) -> list[list[int]]:
        """Per row r of `coeff_rows`, r·B as a base-q integer for every
        vertex with this identifying vector, in `rref_bases` order; with
        `values`, the free-cell values of one vertex in `free_cells` order,
        of that vertex alone, so each list holds one integer.

        r·B is the sum of r_k times the pivot 1 of row k of B plus, per free
        cell (k, j), the term of r_k times the cell's value as entry j, so
        the sums of a whole identifying vector come at once, as
        `colouring._CosetColourer.block` sums syndromes: a cell with a
        nonzero coefficient adds its terms to every sum so far, a cell with
        coefficient 0 repeats the sums q times.  One vertex takes one term
        per cell, the term for its value.

        With `complement`, the fingerprints are of the vertices' orthogonal
        complements and this object is built for `params.dual()`.  For a
        vertex with pivots P and free cells A, the complement's rows
        e_j - Σ_i A[i][j]·e_{p_i}, j not in P, by descending j, are its RREF
        under the reversed column order, so every vertex's t-subspaces are
        fingerprinted canonically; the free cell (i, j) holds -A[i][j] in
        column p_i of the row of j.
        """
        layout = self._layouts.get((idvec, complement))
        if layout is None:
            layout = self._layouts[idvec, complement] = self._layout(idvec, complement)
        sums = self.sums
        if values is not None:
            return [[x] for x in sums.read_all(
                [sums.sum(map(getitem, tables, values), head) for head, tables in layout])]
        q, out = self.field.order, []
        for head, tables in layout:
            totals = [head]
            for table in reversed(tables):  # the first cell varies slowest
                # table[1] is the term of c·1, which is 0 only for c = 0
                totals = sums.expand(table, totals) if table[1] else totals * q
            out.append(sums.read_all(totals))
        return out

    def _layout(self, idvec: tuple[int, ...], complement: bool) -> list[tuple[int, list]]:
        """Per row r of `coeff_rows`: r times B's pivot 1s, and per free
        cell (k, j) in `free_cells` order the terms of r_k·v as entry j, by v."""
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
        ones = [[tc[1] for tc in term[j]] for j in leads]  # ones[k][c]: c·(row k's pivot 1)
        return [(self.sums.sum(map(getitem, ones, r)), [tables[j][r[k]] for k, j in cells])
                for r in self.coeff_rows]

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
    `colour_clash` hashes fingerprints (`_Fingerprints.block` of one vertex)
    per colour class, in the entries' order.  A key, which must be
    canonical, is parsed only when its class is fingerprinted, and only the
    reported pair is decoded.
    """
    parse, fp = _KeyParser(params).parse, _Fingerprints(params)

    def fingerprints(i: int) -> Iterable[tuple[int, ...]]:
        idvec, values = parse(entries[i][0])
        rows = [x for x, in fp.block(idvec, values=values)]
        return zip(*[map(rows.__getitem__, column) for column in fp.columns])
    clash = colour_clash([c for _, c in entries], fingerprints)
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

    `blocks` holds the same colours by identifying vector, as
    `_clashing_colours` reads them.  The colouring is proper when its
    colours are distinct or no colour clashes.  Otherwise only the entries
    of the clashing colours are walked: the other classes hold no clash, so
    the walk names the same first clash as over all entries.  If it names
    none, the verdicts disagree and this raises AssertionError rather than
    accept.
    """
    if len(set(itertools.chain.from_iterable(blocks))) == params.vertex_count():
        return None
    clashing = _clashing_colours(params, blocks)
    if not clashing:
        return None
    clash = _first_clash(params, [e for e in entries if e[1] in clashing])
    if clash is None:
        raise AssertionError("the block verdict finds a clash that the key-by-key walk does not")
    return clash


def _clashing_colours(params: GrassmannParams, blocks: Iterable[Sequence[int]]) -> set[int]:
    """The colours of which two vertices share a t-subspace.

    `blocks` holds the colours of all vertices, one sequence per identifying
    vector of `weight_vectors_lex(n, m)`, in `rref_bases` order.  Each vertex
    and each of its fingerprinted k-subspaces give one integer, the colour
    times q^(n·k) plus the fingerprint's k rows (`_Fingerprints.block`) as
    base-q^n digits, so the integer determines the pair;
    the integers of all vertices are sorted.  A vertex's own t-subspaces are
    distinct, so two equal integers are two vertices of one colour sharing
    a t-subspace, and floor division by q^(n·k) gives back that colour.  In
    the dual regime the vertices' orthogonal complements are fingerprinted
    instead: dim(S ∩ T) >= t exactly when S⊥ and T⊥ share an
    (n - 2m + t)-subspace, and S⊥ has fewer of those than S has
    t-subspaces.  An empty set is the certificate; otherwise
    `_first_clash` names a clash.
    """
    complement = regime_of(params) == DUAL
    fp = _Fingerprints(params.dual() if complement else params)
    base = params.q ** params.n  # a row, as read, is below this
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
    scale = base ** len(fp.columns)  # exact for any integer colour, as floor division
    return {code // scale for code in itertools.compress(
        codes, map(eq, codes, itertools.islice(codes, 1, None)))}


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
        """(identifying vector, free-cell values) of a canonical key, else None."""
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
            idvec = tuple(1 if j in pivots else 0 for j in range(self.n))
            spec = self._specs[pivots] = (idvec, key_template(self.field, idvec), [
                i * self.n + j for i, j in free_cells(idvec)])
        idvec, template, at = spec
        texts = [cells[x] for x in at]
        if template.format(*texts) != key:
            return None
        try:
            return idvec, list(map(self.value_of.__getitem__, texts))
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
