"""Grassmann graphs and their powers: vertices, adjacency, duality.

A vertex of J_q(n, m, t) is an m-dimensional subspace of F_q^n, held in
its unique reduced row-echelon basis.  The pivot columns of that basis give
the subspace's identifying vector, a weight-m binary tuple that drives both
enumeration order and the colouring pipeline.

Enumeration is deterministic: identifying vectors ascend lexicographically
and, within one identifying vector, the free entries of the basis count up
in row-major base-q order (`rref_bases`).  Certificates refer to vertices
through the canonical text encoding produced by `encode_subspace`;
`block_keys` renders the keys of a whole identifying vector at once, from
the literal segments between its free entries (`key_segments`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .ff import FieldSpec, field_for_order, prime_power
from .matq import (MatrixFq, _complement_of_rref, gaussian_binomial,
                   intersection_dim, rank, rref, rref_pivots)


@dataclass(frozen=True)
class GrassmannParams:
    """Validated parameter tuple (q, n, m, t) with 1 <= t <= m-1 < m < n."""

    q: int
    n: int
    m: int
    t: int

    def __post_init__(self):
        prime_power(self.q)
        if self.m >= self.n:
            raise ValueError(f"need m < n, got m={self.m}, n={self.n}")
        if not 1 <= self.t <= self.m - 1:
            raise ValueError(f"need 1 <= t <= m-1, got t={self.t}, m={self.m}")

    @property
    def field(self) -> FieldSpec:
        return field_for_order(self.q)

    def vertex_count(self) -> int:
        return gaussian_binomial(self.n, self.m, self.q)

    def dual(self) -> "GrassmannParams":
        """(q, n, n-m, n-2m+t): orthogonal complements map J_q(n, m, t) onto it.

        Valid (else ValueError) exactly when m < n < 2m and n - 2m + t >= 1.
        """
        return GrassmannParams(self.q, self.n, self.n - self.m,
                               self.n - 2 * self.m + self.t)


# Below this many bits in the bound q^(m(n-m)), a refusal names the exact
# count: `gaussian_binomial`'s product then stays small.
_EXACT_COUNT_BITS = 256


def check_vertex_cap(q: int, n: int, m: int, cap: int) -> int:
    """The number of m-subspaces of F_q^n, or ValueError when it exceeds `cap`.

    The count is at least q^(m(n-m)) >= 2^bits, bits = (q.bit_length() - 1)
    · m(n-m).  When that bound alone exceeds the cap and has at least
    `_EXACT_COUNT_BITS` bits, the refusal comes from it, before
    `gaussian_binomial` multiplies min(m, n-m) numbers of up to n·log2(q)
    bits.
    """
    bits = (q.bit_length() - 1) * m * (n - m)
    if bits >= max(cap.bit_length(), _EXACT_COUNT_BITS):
        raise ValueError(f"vertex count, at least {q}^{m * (n - m)}, exceeds the cap {cap}")
    total = gaussian_binomial(n, m, q)
    if total > cap:
        raise ValueError(f"vertex count {total} exceeds the cap {cap}")
    return total


DIRECT, DUAL, COMPLETE = "direct", "dual", "complete"


def regime_of(params: GrassmannParams) -> str:
    """How J_q(n, m, t) is coloured: direct (n >= 2m), dual (`params.dual()`
    exists) or complete (any two vertices intersect in dimension >= t)."""
    if params.n >= 2 * params.m:
        return DIRECT
    if params.n - 2 * params.m + params.t >= 1:
        return DUAL
    return COMPLETE


@functools.lru_cache(maxsize=4096)
def _pivot_layout(n: int, pivots: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(pivots, identifying vector) of an RREF basis, one shared pair per pivot set.

    Bounded, so a process that meets many pivot sets keeps only the recent ones.
    """
    idvec = [0] * n
    for j in pivots:
        idvec[j] = 1
    return pivots, tuple(idvec)


class Subspace:
    """An m-dimensional subspace of F_q^n in canonical RREF form.

    Besides its basis it holds the basis's pivot columns and identifying
    vector, interned by `_pivot_layout`: subspaces with the same n and
    pivot set share one `pivots` tuple and one `idvec` tuple.
    """

    __slots__ = ("basis", "idvec", "pivots")

    def __init__(self, basis: MatrixFq):
        pivots = rref_pivots(basis)
        if pivots is None:
            raise ValueError("basis is not in reduced row-echelon form")
        if len(pivots) != basis.nrows:
            raise ValueError("basis has a zero row")
        self.basis = basis
        self.pivots, self.idvec = _pivot_layout(basis.ncols, pivots)

    @classmethod
    def from_matrix(cls, M: MatrixFq) -> "Subspace":
        """Row space of an arbitrary full-row-rank matrix."""
        R, pivots = rref(M)
        if len(pivots) != M.nrows:
            raise ValueError("matrix rows are linearly dependent")
        return cls(R)

    @property
    def q(self) -> int:
        return self.basis.field.order

    @property
    def n(self) -> int:
        return self.basis.ncols

    @property
    def m(self) -> int:
        return self.basis.nrows

    def pivot_columns(self) -> tuple[int, ...]:
        return self.pivots

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Subspace({encode_subspace(self)})"


def identifying_vector(S: Subspace) -> tuple[int, ...]:
    """Binary weight-m vector marking the pivot columns of the RREF basis."""
    return S.idvec


def weight_vectors_lex(n: int, m: int) -> list[tuple[int, ...]]:
    """All binary length-n weight-m tuples in ascending lexicographic order."""
    out = []
    for support in itertools.combinations(range(n), m):
        v = [0] * n
        for j in support:
            v[j] = 1
        out.append(tuple(v))
    out.reverse()
    return out


def free_cells(idvec: Sequence[int]) -> list[tuple[int, int]]:
    """Row-major positions of the free entries of an RREF basis with these pivots.

    Row i may be nonzero only in non-pivot columns right of its own pivot.
    """
    pivots = [j for j, b in enumerate(idvec) if b]
    nonpivots = [j for j, b in enumerate(idvec) if not b]
    return [(i, j) for i in range(len(pivots)) for j in nonpivots if j > pivots[i]]


def rref_bases(q: int, idvec: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Rows of every RREF basis with these pivots, free entries counting up.

    The free cells take their values in `itertools.product` order over
    `free_cells(idvec)`: row-major, base q, the last cell fastest.
    """
    pivots = [j for j, b in enumerate(idvec) if b]
    cells = free_cells(idvec)
    template = [[0] * len(idvec) for _ in pivots]
    for i, p in enumerate(pivots):
        template[i][p] = 1
    for values in itertools.product(range(q), repeat=len(cells)):
        rows = [row[:] for row in template]
        for (i, j), v in zip(cells, values):
            rows[i][j] = v
        yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(q: int, n: int, m: int) -> Iterator[Subspace]:
    """Every m-subspace of F_q^n exactly once, in canonical order."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    field = field_for_order(q)
    for idvec in weight_vectors_lex(n, m):
        for rows in rref_bases(q, idvec):
            yield Subspace(MatrixFq(field, rows))


@functools.lru_cache(maxsize=None)
def _enumeration_offsets(q: int, n: int, m: int) -> dict[tuple[int, ...], int]:
    offsets = {}
    total = 0
    for idvec in weight_vectors_lex(n, m):
        offsets[idvec] = total
        total += q ** len(free_cells(idvec))
    return offsets


def enumeration_index(S: Subspace) -> int:
    """Position of S in the `enumerate_subspaces` stream for its parameters."""
    q = S.q
    offsets = _enumeration_offsets(q, S.n, S.m)
    val = 0
    for (i, j) in free_cells(S.idvec):
        val = val * q + S.basis.rows[i][j]
    return offsets[S.idvec] + val


def adjacent(S: Subspace, T: Subspace, t: int) -> bool:
    """Vertices of J_q(n, m, t) are adjacent iff dim(S ∩ T) >= t."""
    if S.basis.field != T.basis.field or S.n != T.n or S.m != T.m:
        raise ValueError("subspaces from different Grassmannians")
    if S == T:
        raise ValueError("adjacency is undefined on a loop")
    return intersection_dim(S.basis, T.basis) >= t


def degree_formula(params: GrassmannParams) -> int:
    """Common vertex degree of J_q(n, m, t) as an exact integer.

    Term i counts the m-spaces meeting a fixed m-space in dimension
    exactly i, summed over i = t .. m-1; no two m-spaces of F_q^n meet in
    dimension below 2m - n, so terms below it are skipped.
    """
    q, n, m, t = params.q, params.n, params.m, params.t
    total = 0
    for i in range(max(t, 2 * m - n), m):
        total += (gaussian_binomial(m, i, q)
                  * gaussian_binomial(n - m, m - i, q)
                  * q ** ((m - i) ** 2))
    return total


def dualize(S: Subspace) -> Subspace:
    """Orthogonal dual under the standard dot product, canonicalized."""
    basis = S.basis
    return Subspace(MatrixFq(basis.field, _complement_of_rref(
        basis.field, basis.rows, S.pivot_columns())[0]))


# -- canonical text encoding --------------------------------------------------

def _entry_to_text(field: FieldSpec, idx: int) -> str:
    coeffs = field.coeffs_of(idx)
    if field.p <= 10:
        return "".join(str(c) for c in coeffs)
    return "-".join(str(c) for c in coeffs)  # multi-char digits, p > 10


def _entry_from_text(field: FieldSpec, text: str) -> int:
    if field.p > 10:  # "-"-separated numbers, so "10" is one coefficient
        digits = [int(d) for d in text.split("-")]
    else:
        digits = [int(ch) for ch in text]
    return field.index_of(digits)


def _render_key(q: int, n: int, m: int, rows: Iterable[Iterable[str]]) -> str:
    body = ",".join("[" + ",".join(row) + "]" for row in rows)
    return f"q={q};n={n};m={m};rows=[{body}]"


def encode_subspace(S: Subspace) -> str:
    """Bit-exact vertex key: q, n, m and the RREF rows as digit strings.

    Each entry is its coefficient vector over F_p, constant term first, so
    a prime-field entry is a single base-p digit.
    """
    field = S.basis.field
    return _render_key(S.q, S.n, S.m,
                       ((_entry_to_text(field, v) for v in row) for row in S.basis.rows))


def entry_texts(field: FieldSpec) -> list[str]:
    """The key text of every field element, by index."""
    return [_entry_to_text(field, v) for v in range(field.order)]


def key_segments(field: FieldSpec, idvec: Sequence[int]) -> list[str]:
    """`encode_subspace` of the RREF bases with pivots `idvec`, cut at the free cells.

    The pivot 1s and the forced 0s are rendered; the text between two free
    cells, in `free_cells` order, is one segment, so there is one segment
    more than free cells.
    """
    zero, one = _entry_to_text(field, 0), _entry_to_text(field, 1)
    pivots = [j for j, b in enumerate(idvec) if b]
    rows = [[zero] * len(idvec) for _ in pivots]
    for i, p in enumerate(pivots):
        rows[i][p] = one
    for i, j in free_cells(idvec):
        rows[i][j] = "\0"  # no entry text holds a NUL
    return _render_key(field.order, len(idvec), len(pivots), rows).split("\0")


def key_template(field: FieldSpec, idvec: Sequence[int]) -> str:
    """`key_segments` as a format string, a `{}` slot per free cell."""
    return "{}".join(key_segments(field, idvec))


def block_keys(field: FieldSpec, idvec: Sequence[int]) -> list[str]:
    """The keys of every RREF basis with pivots `idvec`, in `rref_bases` order.

    Built by prefix expansion: each free cell extends every partial key by
    each `entry_texts` text and the literal segment after the cell.
    """
    head, *segments = key_segments(field, idvec)
    keys, texts = [head], entry_texts(field)
    for segment in segments:  # the first cell varies slowest
        tails = [text + segment for text in texts]
        keys = [key + tail for key in keys for tail in tails]
    return keys


def decode_subspace(text: str) -> Subspace:
    """Inverse of `encode_subspace`; raises ValueError on malformed input."""
    try:
        parts = dict(item.split("=", 1) for item in text.split(";", 3))
        q = int(parts["q"])
        n = int(parts["n"])
        m = int(parts["m"])
        body = parts["rows"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed subspace key: {text!r}") from exc
    field = field_for_order(q)
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed subspace key: {text!r}")
    inner = body[1:-1]
    rows: list[list[int]] = []
    if inner:
        chunks = inner.replace("],[", "]|[").split("|")
        for chunk in chunks:
            if not (chunk.startswith("[") and chunk.endswith("]")):
                raise ValueError(f"malformed subspace key: {text!r}")
            cells = chunk[1:-1]
            row = [_entry_from_text(field, cell) for cell in cells.split(",")] if cells else []
            rows.append(row)
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError(f"key dimensions disagree with rows: {text!r}")
    M = MatrixFq.from_indices(field, rows)
    S = Subspace(M)  # rejects non-RREF or rank-deficient bases
    return S
