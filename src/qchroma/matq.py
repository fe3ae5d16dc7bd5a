"""Dense exact linear algebra over a finite field.

A matrix is an immutable grid of element indices of one owning field (see
ff.py for the index convention).  Reduced row-echelon form is the workhorse:
subspace identity, rank, intersection dimension and orthogonal complements
all reduce to it, through one elimination routine, `_eliminate`.  It reads
per-field tables of negation, division, product and difference
(`_arithmetic`), built once per field while they fit `ff._TABLE_LIMIT`.
`DigitSums` is the one rule by which the colouring's syndromes and the
verifier's fingerprints sum F_q digit vectors held as integers: XOR over
characteristic 2, carry-free slots folded mod p otherwise.  Counts are
plain Python integers, so Gaussian binomials never overflow.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, xor
from typing import Iterable, Iterator, Sequence

from .ff import _TABLE_LIMIT, FieldSpec


class MatrixFq:
    """Immutable r x c matrix over one field, stored as index tuples."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec, rows: tuple[tuple[int, ...], ...]):
        self.field = field
        self.rows = rows

    @classmethod
    def from_indices(cls, field: FieldSpec, rows: Sequence[Sequence[int]]) -> "MatrixFq":
        grid = tuple(tuple(r) for r in rows)
        width = len(grid[0]) if grid else 0
        for r in grid:
            if len(r) != width:
                raise ValueError("ragged rows")
            for v in r:
                if not 0 <= v < field.order:
                    raise ValueError(f"entry index {v} out of range for {field!r}")
        return cls(field, grid)

    @classmethod
    def zeros(cls, field: FieldSpec, r: int, c: int) -> "MatrixFq":
        return cls(field, tuple((0,) * c for _ in range(r)))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatrixFq":
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n))
                                for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def stack(self, other: "MatrixFq") -> "MatrixFq":
        if other.field != self.field or (self.rows and other.rows
                                         and other.ncols != self.ncols):
            raise ValueError("stack needs matching field and width")
        return MatrixFq(self.field, self.rows + other.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixFq)
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field.order, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(v) for v in r) for r in self.rows)
        return f"MatrixFq(q={self.field.order}, {self.nrows}x{self.ncols}: {body})"


class _PerEntry:
    """`table[a]` as `op(a)`: a lookup table that calls the field per entry."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __getitem__(self, a):
        return self.op(a)


@functools.lru_cache(maxsize=None)
def _arithmetic(field: FieldSpec) -> tuple:
    """(neg, div, mul, sub) of a field: neg[a] = -a, div[a][b] = b / a,
    mul[a][b] = a·b and sub[a][b] = a - b, on element indices.

    Lists, built once per field, while the q² entries of a table fit
    `ff._TABLE_LIMIT`; above it every entry read is one `FieldSpec` call, as
    `FieldSpec.mul` falls back from its log tables.
    """
    q = field.order
    if q * q > _TABLE_LIMIT:
        def rows(op):
            return _PerEntry(lambda a: _PerEntry(functools.partial(op, a)))
        return (_PerEntry(field.neg),
                _PerEntry(lambda a: _PerEntry(functools.partial(field.mul, field.inv(a)))),
                rows(field.mul), rows(field.sub))
    elements = range(q)
    mul = [[field.mul(a, b) for b in elements] for a in elements]
    return ([field.neg(a) for a in elements],
            [None] + [mul[field.inv(a)] for a in range(1, q)], mul,
            [[field.sub(a, b) for b in elements] for a in elements])


def _eliminate(field: FieldSpec, rows: list[list[int]], reduced: bool) -> list[int]:
    """In-place Gaussian elimination; returns pivot columns.

    With reduced=True the result is the full RREF (pivots normalized to 1,
    zeros above and below); otherwise only a row-echelon rank skeleton.
    Entries are read from the field's `_arithmetic` tables.
    """
    _, div, mul, sub = _arithmetic(field)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        if reduced:
            lead = rows[r][c]
            if lead != 1:
                scale = div[lead]
                rows[r] = [scale[v] for v in rows[r]]
            span = range(nrows)
        else:
            span = range(r + 1, nrows)
        pivot_row = rows[r]
        for i in span:
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            if not reduced:
                # echelon pass may have a non-unit pivot
                f = div[pivot_row[c]][f]
            times = mul[f]
            rows[i] = [sub[v][times[w]] for v, w in zip(rows[i], pivot_row)]
        pivots.append(c)
        r += 1
    return pivots


def matmul(A: MatrixFq, B: MatrixFq) -> MatrixFq:
    """The product A·B, one `FieldSpec` product and sum per term."""
    field = A.field
    if B.field != field or A.ncols != B.nrows:
        raise ValueError("product needs matching field and inner dimension")
    columns = list(zip(*B.rows))
    return MatrixFq(field, tuple(
        tuple(functools.reduce(field.add, map(field.mul, row, col), 0) for col in columns)
        for row in A.rows))


def rref(M: MatrixFq) -> tuple[MatrixFq, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns (0-indexed)."""
    rows = [list(r) for r in M.rows]
    pivots = _eliminate(M.field, rows, reduced=True)
    return MatrixFq(M.field, tuple(tuple(r) for r in rows)), tuple(pivots)


def rank(M: MatrixFq) -> int:
    rows = [list(r) for r in M.rows]
    return len(_eliminate(M.field, rows, reduced=False))


def rref_pivots(M: MatrixFq) -> tuple[int, ...] | None:
    """The pivot columns of M's nonzero rows when M is in reduced row-echelon
    form (zero rows trailing), else None.

    A nonzero row must start with its 1, right of the row above's; a pivot
    column must be 0 in every other row.
    """
    rows = M.rows
    pivots: list[int] = []
    for k, row in enumerate(rows):
        if 1 not in row:
            if any(row) or any(map(any, rows[k + 1:])):
                return None
            break
        lead = row.index(1)
        if any(row[:lead]) or (pivots and lead <= pivots[-1]):
            return None
        pivots.append(lead)
    columns = list(zip(*rows))
    if any(columns[c].count(0) != len(rows) - 1 for c in pivots):
        return None
    return tuple(pivots)


def is_rref(M: MatrixFq) -> bool:
    """True when M is in reduced row-echelon form (zero rows trailing)."""
    return rref_pivots(M) is not None


def intersection_dim(U: MatrixFq, W: MatrixFq) -> int:
    """dim(rowspace(U) ∩ rowspace(W)) = rk U + rk W - rk [U; W]."""
    if U.field != W.field or U.ncols != W.ncols:
        raise ValueError("operands live in different ambient spaces")
    return rank(U) + rank(W) - rank(U.stack(W))


def orthogonal_complement(U: MatrixFq) -> MatrixFq:
    """Canonical RREF basis of the dual under the standard dot product.

    U must have full row rank; the result has ncols - nrows rows.
    """
    R, pivots = rref(U)
    if len(pivots) != U.nrows:
        raise ValueError("rank-deficient input")
    return MatrixFq(U.field, _complement_of_rref(U.field, R.rows, pivots)[0])


@functools.lru_cache(maxsize=None)
def _complement_scaffold(n: int, pivots: tuple[int, ...]
                         ) -> tuple[tuple[tuple[int, ...], ...],
                                    tuple[tuple[int, int, int, int], ...]]:
    """(unit rows, places) of the dual of the RREF bases with these pivots.

    For an RREF basis B of F_q^n with pivot i in column pivots[i], the dual
    of its row space has one spanning row per non-pivot f: 1 in column f
    and -B[i][f] in column pivots[i].  The unit rows are those rows with
    every B entry 0.  A place (i, j, k, c) says that B's free cell (i, j)
    lands, negated, in row k and column c of the unit rows; the places are
    in `grassmann.free_cells` order (row-major over B).  Cached per pivot
    set, so callers copy the unit rows into lists before filling them.
    """
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    units = tuple(tuple(1 if j == f else 0 for j in range(n)) for f in free)
    rows_of = list(enumerate(free))
    return units, tuple((i, j, k, c) for i, c in enumerate(pivots)
                        for k, j in rows_of if j > c)


def _complement_of_rref(field: FieldSpec, rows: Sequence[Sequence[int]],
                        pivots: tuple[int, ...]
                        ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """RREF rows and pivots of the dual of a full-rank RREF basis with these pivots.

    The basis's free-cell entries, negated, fill its `_complement_scaffold`,
    which `_eliminate` brings to RREF.  For a basis already in RREF (a
    `Subspace` basis, or the rows of one identifying vector), this skips the
    elimination `orthogonal_complement` runs on its input.
    """
    scaffold, places = _complement_scaffold(len(rows[0]) if rows else 0, pivots)
    units = [list(row) for row in scaffold]
    neg = _arithmetic(field)[0]
    for i, j, k, c in places:
        units[k][c] = neg[rows[i][j]]
    dual_pivots = _eliminate(field, units, reduced=True)
    assert len(dual_pivots) == len(units)
    return tuple(tuple(r) for r in units), tuple(dual_pivots)


_FOLD_BITS = 12  # a fold table reads this many bits of a slot sum at a time


class DigitSums:
    """The one rule for summing vectors of base-p digits held as integers.

    The digits are the F_p coordinates of F_q digits (q = p^k; an F_q index
    is base p), so F_q addition is digitwise addition mod p.  A digit
    vector's term is made from its base-p value (`term`), terms are summed
    by `op` (`sum`, `expand`), and `read` gives back the base-p value of a
    sum of up to `terms` terms.  Over characteristic 2 a term is the value
    itself, `op` is XOR and the read is the identity: there is no fold
    `table`.  For odd p a term holds digit j in bits [j * width, (j + 1) *
    width), a slot wide enough for the sum of `terms` digits, so `op` is
    integer addition with no carry between slots, and the read folds every
    slot mod p by table lookups of `bits` bits (`bits // width` slots) at a
    time, `passes` lookups for `digits` digits.
    """

    __slots__ = ("p", "op", "width", "bits", "base", "passes", "table")

    def __init__(self, p: int, terms: int, digits: int):
        self.p, self.op, self.table = p, xor if p == 2 else add, None
        if p == 2:
            return
        self.width = width = (terms * (p - 1)).bit_length()
        per = max(1, _FOLD_BITS // width)
        self.bits = per * width
        self.base = p ** per
        self.passes = -(-digits // per)
        self.table = _fold_table(p, width, per)

    def term(self, value: int) -> int:
        """The term of the digit vector with this base-p value."""
        if self.table is None:
            return value
        out, shift = 0, 0
        while value:
            value, digit = divmod(value, self.p)
            out += digit << shift
            shift += self.width
        return out

    def sum(self, terms: Iterable[int], start: int = 0) -> int:
        """The sum of these terms and `start`."""
        return functools.reduce(xor, terms, start) if self.op is xor else sum(terms, start)

    def expand(self, row: Sequence[int], totals: Sequence[int]) -> list[int]:
        """Every sum of a and b, a in `row` varying slowest and b in `totals`."""
        if self.op is xor:
            return [a ^ b for a in row for b in totals]
        return [a + b for a in row for b in totals]

    def read(self, total: int) -> int:
        """The base-p value of a sum of terms, each digit taken mod p."""
        if self.table is None:
            return total
        table, bits, mask = self.table, self.bits, (1 << self.bits) - 1
        out = 0
        scale = 1
        while total:
            out += table[total & mask] * scale
            total >>= bits
            scale *= self.base
        return out

    def read_all(self, totals: list[int]) -> list[int]:
        """`read` of every sum, one pass per table lookup."""
        if self.table is None:
            return totals
        table, bits, mask = self.table, self.bits, (1 << self.bits) - 1
        out = [table[s & mask] for s in totals]
        shift, scale = bits, self.base
        for _ in range(1, self.passes):
            out = [o + table[s >> shift & mask] * scale for o, s in zip(out, totals)]
            shift += bits
            scale *= self.base
        return out


@functools.lru_cache(maxsize=None)
def _fold_table(p: int, width: int, per: int) -> tuple[int, ...]:
    """Base-p digits of every run of `per` slots, each slot taken mod p."""
    slot = (1 << width) - 1
    return tuple(sum((s >> (width * j) & slot) % p * p ** j for j in range(per))
                 for s in range(1 << (per * width)))


def gaussian_binomial(n: int, m: int, q: int) -> int:
    """Number of m-dimensional subspaces of F_q^n, exactly."""
    if m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    m = min(m, n - m)  # [n, m]_q = [n, n-m]_q; the shorter product is cheaper
    num = 1
    den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (m - i) - 1
    return num // den


def all_matrices(field: FieldSpec, r: int, c: int) -> Iterator[MatrixFq]:
    """All r x c matrices over the field, in base-q counting order: the k-th
    holds k's base-q digits row-major, the last cell fastest."""
    for cells in itertools.product(range(field.order), repeat=r * c):
        yield MatrixFq(field, tuple(cells[i * c:(i + 1) * c] for i in range(r)))
