"""Independent brute-force ground truth for small graphs.

Holds a dense bitmask graph type plus exact maximum-clique and chromatic
number solvers (branch and bound, saturation-guided, deterministic with
ties broken toward the lowest vertex index).  Budgets are counted in node
expansions, never wall time, so results reproduce across machines; an
exhausted budget degrades to a clearly flagged bracket instead of a wrong
answer.

`dsatur` and the decision search `_k_colourable` keep their saturation
state as bitmasks over the vertices, so no step walks the vertices or a
vertex's neighbours one at a time.  `has[c]` holds the uncoloured vertices
with a neighbour of colour c, and the saturation counts are bit-sliced:
`planes[k]` holds the vertices whose count has bit k set.  Painting v with
c raises the count of `changed = adj[v] & uncoloured & ~has[c]` by one
ripple carry over the O(log V) planes (`_saturate`, `_add`); the search's
unpaint takes it back by the matching borrow (`_subtract`).  The next vertex is found by
AND-ing the uncoloured mask with each plane from the top
(`_most_saturated`): highest saturation, ties to the lowest index.

Nothing in this module knows about the colouring construction it is used
to cross-check, which is the point.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .grassmann import (GrassmannParams, Subspace, encode_subspace,
                        enumerate_subspaces)
from .matq import matmul, rref

DEFAULT_VERTEX_CAP = 5000
DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class DenseGraph:
    """Undirected loop-free graph: labels plus bitmask adjacency rows."""

    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.adj) != n:
            raise ValueError("labels and adjacency size disagree")
        for i, row in enumerate(self.adj):
            if row >> n:
                raise ValueError("adjacency bits beyond the vertex range")
            if row & (1 << i):
                raise ValueError(f"loop at vertex {i}")
        # the matrix as text, character j of row i being bit j of adj[i], is
        # compared with its transpose, so no Python step runs per bit
        rows = [format(row, f"0{n}b")[::-1] for row in self.adj]
        if list(map("".join, zip(*rows))) != rows:
            raise ValueError("adjacency is not symmetric")

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()


def dense_graph(labels: Sequence[str], pred: Callable[[int, int], bool]) -> DenseGraph:
    """Build a graph from a symmetric predicate on vertex indices."""
    n = len(labels)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if pred(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return DenseGraph(tuple(labels), tuple(adj))


def shared_fingerprint_masks(fingerprints: Sequence[Sequence[Hashable]]) -> list[int]:
    """Adjacency rows of the graph joining two vertices that share a fingerprint.

    Vertex i has fingerprints[i]; each fingerprint's row is the OR of the
    bits of the vertices that hold it, and a vertex's row is the OR of its
    fingerprints' rows without its own bit.  No vertex pair is walked.
    """
    holders: dict[Hashable, int] = {}
    for i, prints in enumerate(fingerprints):
        bit = 1 << i
        for f in prints:
            holders[f] = holders.get(f, 0) | bit
    adj = []
    for i, prints in enumerate(fingerprints):
        row = 0
        for f in prints:
            row |= holders[f]
        adj.append(row & ~(1 << i))
    return adj


def build_graph(params: GrassmannParams, cap: int = DEFAULT_VERTEX_CAP) -> DenseGraph:
    """Materialize J_q(n, m, t) with vertices in canonical order.

    Two m-subspaces meet in dimension >= t exactly when they share a
    t-subspace.  The t-subspaces of a vertex with basis B are the row spaces
    of C·B, for C the bases of the t-subspaces of F_q^m; each is taken to
    its RREF by `rref`, and vertices sharing one are joined.
    """
    count = params.vertex_count()
    if count > cap:
        raise ValueError(f"vertex count {count} exceeds the cap {cap}")
    verts: list[Subspace] = list(enumerate_subspaces(params.q, params.n, params.m))
    labels = [encode_subspace(S) for S in verts]
    combos = [C.basis for C in enumerate_subspaces(params.q, params.m, params.t)]
    prints = [[rref(matmul(C, S.basis))[0].rows for C in combos] for S in verts]
    return DenseGraph(tuple(labels), tuple(shared_fingerprint_masks(prints)))


def johnson_graph(n: int, m: int, t: int) -> DenseGraph:
    """J(n, m, t): m-subsets of [n], adjacent when sharing >= t elements."""
    verts = list(itertools.combinations(range(1, n + 1), m))
    sets = [frozenset(v) for v in verts]
    labels = [",".join(str(x) for x in v) for v in verts]
    return dense_graph(labels, lambda i, j: len(sets[i] & sets[j]) >= t)


# -- greedy colouring ---------------------------------------------------------

def _add(planes: list[int], x: int) -> None:
    """Add 1 to the bit-sliced count of every vertex in x (ripple carry)."""
    for i, p in enumerate(planes):
        planes[i] = p ^ x
        x &= p
        if not x:
            return
    planes.append(x)


def _subtract(planes: list[int], x: int) -> None:
    """Take 1 from the bit-sliced count of every vertex in x (ripple borrow);
    each count in x must be positive."""
    for i, p in enumerate(planes):
        planes[i] = p = p ^ x
        x &= p  # a bit of x borrows where the old plane held 0
        if not x:
            return


def _saturate(has: list[int], planes: list[int], c: int, reached: int) -> int:
    """Give the vertices in `reached` a neighbour of colour c; returns those
    to which c is new, whose counts rise by one."""
    changed = reached ^ (reached & has[c])
    has[c] |= changed
    _add(planes, changed)
    return changed


def _most_saturated(uncoloured: int, planes: list[int]) -> int:
    """The uncoloured vertex of highest count, ties to the lowest index."""
    for p in reversed(planes):
        top = uncoloured & p
        if top:
            uncoloured = top
    return (uncoloured ^ (uncoloured - 1)).bit_length() - 1


def dsatur(adj: Sequence[int]) -> list[int]:
    """Greedy colouring by maximum saturation; ties go to the lowest index."""
    n = len(adj)
    colours = [-1] * n
    uncoloured = (1 << n) - 1
    has = [0] * n  # has[c]: uncoloured vertices with a neighbour of colour c
    planes: list[int] = []  # saturation counts, bit-sliced
    for _ in range(n):
        v = _most_saturated(uncoloured, planes)
        bit = 1 << v
        uncoloured ^= bit
        c = 0
        while has[c] & bit:  # ends below n: v has fewer than n neighbours
            c += 1
        colours[v] = c
        _saturate(has, planes, c, adj[v] & uncoloured)
    return colours


# -- exact maximum clique -----------------------------------------------------

@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: tuple[int, ...]
    exact: bool
    nodes: int


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def check_budget(budget: int) -> None:
    """ValueError unless a search budget is at least 0."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")


def max_clique(g: DenseGraph, budget: int = DEFAULT_BUDGET) -> CliqueResult:
    """Branch and bound with greedy colouring bounds (exact within budget).

    A negative budget is refused (`check_budget`); `exact_chromatic` runs
    this search first, so it refuses one too.
    """
    check_budget(budget)
    n = g.num_vertices
    if n == 0:
        return CliqueResult(0, (), True, 0)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    # relabel vertex order[k] as k: bit k of a new row is bit order[k] of
    # the old one, permuted as text so no Python loop runs per edge
    pick = operator.itemgetter(*order)
    adj = [int("".join(pick(format(g.adj[v], f"0{n}b")[::-1]))[::-1], 2)
           for v in order]
    full = (1 << n) - 1
    # the vertices other than i and its neighbours; kept positive, as
    # CPython's bitwise operations copy a negative int to two's complement
    keep = [full ^ (a | 1 << i) for i, a in enumerate(adj)]
    best: list[int] = []
    clique: list[int] = []  # the vertex each open frame but the top branched on
    bud = _Budget(budget)

    def frame(candidates: int) -> list:
        """[candidates, vertices in branch order, their bounds, next index]."""
        # greedy colour classes give per-vertex bounds
        seq: list[int] = []
        bound: list[int] = []
        colour = 0
        rest = candidates
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail ^ (avail - 1)).bit_length() - 1  # the lowest vertex
                avail &= keep[v]  # v and its neighbours leave this colour class
                rest ^= 1 << v
                seq.append(v)
                bound.append(colour)
        return [candidates, seq, bound, len(seq) - 1]

    def advance(f: list) -> None:
        """Leave the branch on f's current vertex and drop it from f's candidates."""
        clique.pop()
        f[0] &= ~(1 << f[1][f[3]])
        f[3] -= 1

    # Depth-first branch and bound with an explicit stack, one frame per
    # expanded node, so clique size does not use the Python stack.  A node
    # ends when its vertices run out or its bound cannot beat the best
    # clique; its parent then moves to its next vertex.  Once the budget
    # runs out no node is expanded, but open frames still finish.
    truncated = not bud.spend()
    frames = [] if truncated else [frame(full)]
    while frames:
        top = frames[-1]
        candidates, seq, bound, i = top
        if i < 0 or len(clique) + bound[i] <= len(best):
            frames.pop()
            if frames:
                advance(frames[-1])
            continue
        v = seq[i]
        clique.append(v)
        sub = candidates & adj[v]
        if sub:
            if not truncated and bud.spend():
                frames.append(frame(sub))
                continue
            truncated = True
        elif len(clique) > len(best):
            best = clique[:]
        advance(top)

    witness = tuple(sorted(order[i] for i in best))
    return CliqueResult(len(best), witness, not truncated, budget - max(bud.left, 0))


# -- exact chromatic number ---------------------------------------------------

@dataclass(frozen=True)
class ChromaticResult:
    lower: int
    upper: int
    colouring: tuple[int, ...]
    exact: bool
    nodes: int
    clique: CliqueResult  # the max-clique search that set `lower`

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("chromatic number not determined within budget")
        return self.upper


def _k_colourable(g: DenseGraph, k: int, clique: tuple[int, ...],
                  bud: _Budget) -> tuple[str, list[int] | None]:
    """Decide k-colourability; returns ('sat', colours), ('unsat', None) or
    ('budget', None).  Clique vertices are pre-pinned to distinct colours."""
    n = g.num_vertices
    if len(clique) > k:
        return "unsat", None
    colours = [-1] * n
    uncoloured = (1 << n) - 1
    has = [0] * k  # as in `dsatur`
    planes: list[int] = []

    def paint(v: int, c: int) -> int:
        """Colour v with c; returns the vertices whose saturation rose."""
        nonlocal uncoloured
        colours[v] = c
        uncoloured ^= 1 << v
        return _saturate(has, planes, c, g.adj[v] & uncoloured)

    def unpaint(v: int, c: int, changed: int) -> None:
        nonlocal uncoloured
        colours[v] = -1
        uncoloured |= 1 << v
        has[c] ^= changed
        _subtract(planes, changed)

    max_used = 0
    for i, v in enumerate(clique):
        paint(v, i)
        max_used = max(max_used, i + 1)
    left = uncoloured.bit_count()

    # Depth-first search with an explicit stack, one frame per painted
    # vertex: (vertex, colour, colours left to try, changed, max_used
    # before it).  A node whose vertex has no colour left backtracks to the
    # nearest frame with one.
    frames: list[tuple[int, int, int, int, int]] = []
    while True:
        if len(frames) == left:
            return "sat", colours  # the leaf's colours are the witness
        if not bud.spend():
            return "budget", None
        v = _most_saturated(uncoloured, planes)
        bit = 1 << v
        avail = 0
        for c in range(min(k, max_used + 1)):
            if not has[c] & bit:
                avail |= 1 << c
        while not avail:
            if not frames:
                return "unsat", None
            v, c, avail, changed, max_used = frames.pop()
            unpaint(v, c, changed)
        c = (avail & -avail).bit_length() - 1
        frames.append((v, c, avail & (avail - 1), paint(v, c), max_used))
        max_used = max(max_used, c + 1)


def exact_chromatic(g: DenseGraph, budget: int = DEFAULT_BUDGET) -> ChromaticResult:
    """Exact chromatic number by upward decision search from the clique bound."""
    clique = max_clique(g, budget)
    if g.num_vertices == 0:
        return ChromaticResult(0, 0, (), True, 0, clique)
    lower = clique.size
    greedy = dsatur(g.adj)
    upper = max(greedy) + 1
    if lower == upper:
        return ChromaticResult(lower, upper, tuple(greedy), True, clique.nodes, clique)
    bud = _Budget(budget)
    best = greedy
    k = lower
    while k < upper:
        status, col = _k_colourable(g, k, clique.witness, bud)
        if status == "sat":
            assert col is not None
            return ChromaticResult(k, k, tuple(col), True,
                                   budget - max(bud.left, 0), clique)
        if status == "budget":
            return ChromaticResult(k, upper, tuple(best), False,
                                   budget - max(bud.left, 0), clique)
        k += 1  # proved unsat, chromatic number exceeds k
    return ChromaticResult(upper, upper, tuple(best), True,
                           budget - max(bud.left, 0), clique)


# -- DIMACS export ------------------------------------------------------------

def write_dimacs(g: DenseGraph, path: str, labels_path: str | None = None) -> None:
    """Write `p edge V E` plus sorted 1-indexed `e i j` lines; labels sidecar."""
    lines = [f"p edge {g.num_vertices} {g.num_edges}"]
    for i in range(g.num_vertices):
        mask = g.adj[i] >> (i + 1) << (i + 1)
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            lines.append(f"e {i + 1} {j + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if labels_path is not None:
        with open(labels_path, "w") as fh:
            for i, lab in enumerate(g.labels):
                fh.write(f"{i + 1} {lab}\n")
