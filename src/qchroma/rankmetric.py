"""Gabidulin rank-metric codes and the identity-column lifting.

A code lives in the space of m x h matrices over F_q (h >= m) and is built
by evaluating the linearized polynomials  f(x) = a_0 x + a_1 x^q + ... +
a_{k-1} x^{q^{k-1}}  at the power basis 1, g, ..., g^{m-1} of F_{q^h}, with
g the canonical generator.  Row j of a codeword matrix holds the F_q
coordinates of f(g^j) with respect to (1, g, ..., g^{h-1}).  The resulting
code is F_q-linear of size q^{hk} and its minimum rank distance meets the
Singleton-like bound  |C| <= q^{max(m,h)(min(m,h)-d+1)}  with equality,
i.e. d = m - k + 1.

The code is also F_{q^h}-linear: the F_q basis is laid out as
basis[i*h + s] = g^s b_i (i < k, s < h), so the codewords are the words
sum_i alpha_i b_i with alpha_i in F_{q^h}.  Scaling every row's element by
a nonzero alpha right-multiplies the matrix by an invertible h x h matrix
and keeps its rank, so `min_rank_distance` ranks one word per F_{q^h}-line,
(q^{hk} - 1)/(q^h - 1) words in all, after checking that layout.

Cosets of the code are addressed by reading the complement coordinates of
a matrix (the non-pivot coordinates after reduction against the code's
RREF basis) as a base-q integer: two matrices share an index exactly when
their difference is a codeword.

Lifting threads an m x (n-m) matrix into an m x n matrix by placing
identity columns at the 1-positions of a weight-m binary vector and the
matrix columns, in order, at the 0-positions.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .ff import FieldSpec, field_for_order, relative_extension
from .matq import DigitSums, MatrixFq, _eliminate, rank
from .grassmann import Subspace

DISTANCE_SCAN_LIMIT = 2 ** 20  # codes larger than this are not scanned


class GabidulinCode:
    """An MRD code in M_{m x h}(F_q) with its coset bookkeeping."""

    __slots__ = ("field", "ext", "q", "m", "h", "d", "dim", "points",
                 "basis", "_rrows", "_pivots", "_nonpivots")

    def __init__(self, field: FieldSpec, ext: FieldSpec, m: int, h: int, d: int,
                 points: tuple[int, ...], basis: tuple[MatrixFq, ...]):
        self.field = field
        self.ext = ext
        self.q = field.order
        self.m = m
        self.h = h
        self.d = d
        self.dim = m - d + 1  # dimension over F_{q^h}
        self.points = points
        self.basis = basis
        rows = [list(_flatten(B)) for B in basis]
        pivots = _eliminate(field, rows, reduced=True)
        if len(pivots) != len(rows):
            raise AssertionError("code basis is linearly dependent")
        self._rrows = tuple(tuple(row) for row in rows)
        self._pivots = tuple(pivots)
        self._nonpivots = tuple(c for c in range(m * h) if c not in set(pivots))

    @property
    def size(self) -> int:
        return self.q ** (self.h * self.dim)

    @property
    def num_cosets(self) -> int:
        return self.q ** (self.h * (self.m - self.dim))

    def _reduce(self, vec: list[int]) -> list[int]:
        field = self.field
        for i, p in enumerate(self._pivots):
            c = vec[p]
            if c:
                row = self._rrows[i]
                vec = [field.sub(v, field.mul(c, w)) for v, w in zip(vec, row)]
        return vec

    def contains(self, A: MatrixFq) -> bool:
        self._check_shape(A)
        return not any(self._reduce(list(_flatten(A))))

    def _check_shape(self, A: MatrixFq) -> None:
        if A.field != self.field:
            raise ValueError("matrix is over the wrong field")
        if A.nrows != self.m or A.ncols != self.h:
            raise ValueError(f"expected a {self.m}x{self.h} matrix")

    def codewords(self) -> Iterator[MatrixFq]:
        """All codewords, in base-q counting order over the basis weights."""
        field = self.field
        nb = len(self.basis)
        flat_basis = [_flatten(B) for B in self.basis]
        weights = [0] * nb
        while True:
            vec = [0] * (self.m * self.h)
            for w, b in zip(weights, flat_basis):
                if w:
                    vec = [field.add(v, field.mul(w, x)) for v, x in zip(vec, b)]
            yield _unflatten(field, vec, self.m, self.h)
            i = nb - 1
            while i >= 0:
                weights[i] += 1
                if weights[i] < self.q:
                    break
                weights[i] = 0
                i -= 1
            if i < 0:
                return

    def __repr__(self) -> str:
        return f"GabidulinCode(q={self.q}, m={self.m}, h={self.h}, d={self.d})"


def _flatten(A: MatrixFq) -> tuple[int, ...]:
    return tuple(v for row in A.rows for v in row)


def _unflatten(field: FieldSpec, vec: Sequence[int], m: int, h: int) -> MatrixFq:
    return MatrixFq(field, tuple(tuple(vec[i * h:(i + 1) * h]) for i in range(m)))


def gabidulin_build(q: int, m: int, h: int, d: int) -> GabidulinCode:
    """MRD code of minimum rank distance d in M_{m x h}(F_q); deterministic.

    Raises for d > m and for m > h (transpose the problem instead; the
    colouring pipeline does so through graph duality).
    """
    if d < 1:
        raise ValueError(f"distance {d} must be >= 1")
    if d > m:
        raise ValueError(f"distance {d} exceeds the row count {m}")
    if m > h:
        raise ValueError(f"need m <= h (got m={m}, h={h}); transpose the problem")
    field = field_for_order(q)
    ext = relative_extension(field, h)
    g = q if h > 1 else 1  # index of the class of x; F_q itself has no generator
    points = tuple(ext.power(g, j) for j in range(m))
    k = m - d + 1
    basis = []
    for i in range(k):
        # f(x) = a x^{q^i}; a runs over the power basis of the extension
        frob_points = tuple(ext.power(pt, q ** i) for pt in points)
        for s in range(h):
            a = ext.power(g, s)
            word_rows = tuple(ext.coeffs_of(ext.mul(a, fp)) for fp in frob_points)
            basis.append(MatrixFq(field, word_rows))
    return GabidulinCode(field, ext, m, h, d, points, tuple(basis))


def min_rank_distance(code: GabidulinCode, scan_limit: int = DISTANCE_SCAN_LIMIT) -> int:
    """Exact minimum rank over nonzero codewords (linearity covers pairs).

    Only one word per F_{q^h}-line is ranked: sum_i alpha_i b_i with its
    first nonzero alpha_i equal to 1, (q^{hk} - 1)/(q^h - 1) words.  Row j
    of a codeword is the F_q coordinate vector of an element of F_{q^h};
    multiplying every row's element by alpha != 0 right-multiplies the
    matrix by an invertible h x h matrix, so every nonzero word has the
    rank of its line's representative.  This rests on the basis layout
    basis[i*h + s] = g^s b_i, so the scan first re-derives every basis word
    from b_i = basis[i*h] (g^s is the power-basis element of index q^s) and
    raises AssertionError on any difference instead of returning a distance.
    `scan_limit` bounds the code size, not the number of words ranked.
    """
    if code.size < 2:
        raise ValueError("code has fewer than two words")
    if code.size > scan_limit:
        raise ValueError(f"code size {code.size} exceeds the scan limit {scan_limit}")
    field, ext, h = code.field, code.ext, code.h
    if len(code.basis) != code.dim * h:
        raise AssertionError("code basis does not have dim * h words")
    lines = []  # the rows of each b_i as elements of F_{q^h}
    for i in range(code.dim):
        elems = [ext.index_of(row) for row in code.basis[i * h].rows]
        for s in range(h):
            derived = tuple(ext.coeffs_of(ext.mul(code.q ** s, e)) for e in elems)
            if derived != code.basis[i * h + s].rows:
                raise AssertionError(f"code basis word {i * h + s} is not g^{s} b_{i}")
        lines.append(elems)
    best = None
    for elems in _line_representatives(ext, lines):
        r = rank(MatrixFq(field, tuple(ext.coeffs_of(e) for e in elems)))
        if best is None or r < best:
            best = r
            if best == 1:
                break
    return best


def _line_representatives(ext: FieldSpec, lines: list[list[int]]) -> Iterator[list[int]]:
    """Rows of sum_i alpha_i b_i for every alpha whose first nonzero entry is 1."""
    for lead, first in enumerate(lines):
        rest = lines[lead + 1:]
        for alphas in itertools.product(range(ext.order), repeat=len(rest)):
            elems = first
            for a, b in zip(alphas, rest):
                if a:
                    elems = [ext.add(x, ext.mul(a, y)) for x, y in zip(elems, b)]
            yield elems


def coset_index(code: GabidulinCode, A: MatrixFq) -> int:
    """Base-q value of A's complement coordinates; constant on cosets of C."""
    code._check_shape(A)
    return _complement_value(code, code._reduce(list(_flatten(A))))


def _complement_value(code: GabidulinCode, vec: list[int]) -> int:
    val = 0
    scale = 1
    for c in code._nonpivots:
        val += vec[c] * scale
        scale *= code.q
    return val


class SyndromeTable:
    """`coset_index` of one code as a sum of per-cell terms, built once.

    The complement coordinates of A are F_q-linear in vec(A): coordinate
    k is A[c_k] - sum_i A[p_i] R_i[c_k], with p_i the pivots, c_k the
    non-pivots and R_i the rows of the code's RREF basis.  So the cell x
    holding v contributes the fixed digit vector v·s(x), where s(x) is the
    unit digit at a non-pivot and minus the code row restricted to the
    non-pivots at a pivot; `terms[x][v]` holds it, x the row-major cell of
    the m x h block.

    F_q addition is digitwise addition mod p of the base-p digits of
    indices, so `sums`, the `matq.DigitSums` of one term per cell, adds
    terms and reads a sum back as the coset index.
    """

    __slots__ = ("terms", "sums")

    def __init__(self, code: GabidulinCode):
        cells = code.m * code.h
        self.sums = sums = DigitSums(code.field.p, cells, code.field.k * len(code._nonpivots))
        terms = []
        for x in range(cells):
            row = []
            for v in range(code.q):
                vec = [0] * cells
                vec[x] = v
                row.append(sums.term(_complement_value(code, code._reduce(vec))))
            terms.append(tuple(row))
        self.terms = tuple(terms)


def coset_representative(code: GabidulinCode, i: int) -> MatrixFq:
    """The unique representative with zero code component and digits i."""
    if not 0 <= i < code.num_cosets:
        raise ValueError(f"coset index {i} out of range [0, {code.num_cosets})")
    vec = [0] * (code.m * code.h)
    for c in code._nonpivots:
        i, digit = divmod(i, code.q)
        vec[c] = digit
    return _unflatten(code.field, vec, code.m, code.h)


def lift(u: Sequence[int], A: MatrixFq) -> MatrixFq:
    """Insert identity columns at the 1-positions of u, columns of A elsewhere."""
    m = A.nrows
    n = len(u)
    ones = [j for j, b in enumerate(u) if b == 1]
    zeros = [j for j, b in enumerate(u) if b == 0]
    if sorted(set(u)) not in ([0], [1], [0, 1]):
        raise ValueError("u must be a binary vector")
    if len(ones) != m:
        raise ValueError(f"weight of u is {len(ones)}, expected {m}")
    if A.ncols != n - m:
        raise ValueError(f"matrix has {A.ncols} columns, expected {n - m}")
    rows = []
    for i in range(m):
        row = [0] * n
        row[ones[i]] = 1
        for kcol, j in enumerate(zeros):
            row[j] = A.rows[i][kcol]
        rows.append(tuple(row))
    return MatrixFq(A.field, tuple(rows))


def unlift(S: Subspace) -> tuple[tuple[int, ...], MatrixFq]:
    """Identifying vector and the non-pivot block of the canonical basis.

    Inverse of `lift` on canonical bases: lift(u, A) reproduces the basis.
    """
    u = S.idvec
    nonpivots = [j for j, b in enumerate(u) if b == 0]
    rows = tuple(tuple(row[j] for j in nonpivots) for row in S.basis.rows)
    return u, MatrixFq(S.basis.field, rows)
