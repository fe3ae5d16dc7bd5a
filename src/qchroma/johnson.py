"""Powers of the Johnson graph and their colourings.

Vertices of J(n, m, t) are the m-subsets of {1, ..., n}; two are adjacent
when they share at least t elements.  Two proper colourings are provided:

* `gs_colouring` sums, modulo r = (p^{m-t+1} - 1)/(p - 1) for the smallest
  prime p >= n + 1, an injective placement of points into a Bose-Chowla
  set whose (m-t)-fold sums are pairwise distinct.  Same colour then forces
  an intersection of at most t - 1 elements, and the palette is at most r.
* `greedy_colouring` runs saturation-guided greedy colouring over the
  subsets in lexicographic order; at desk scale it usually beats r.  It
  refuses more than GREEDY_SUBSET_CAP subsets, and `gs_colouring` more
  than GS_SUBSET_CAP.

`johnson_colouring` selects one of them by its method name ("greedy" or
"gs").  `check_method` refuses any other name; `colouring.make_context`
and `colouring.bounds_report` call it up front, also where they build no
Johnson colouring.  `gs_fits_desk` says beforehand whether "gs" can build
its field and list its subsets.  `is_proper` checks a colouring with the
certificate verifier's clash finder (`verify.colour_clash`), t-subsets as
fingerprints.

The Bose-Chowla set itself is built from discrete logarithms of the
projective line spanned by {1, g} in F_{p^{m-t+1}} and then *verified
exhaustively*; if verification ever failed, a greedy search over Z_r would
be used instead, and the construction path is recorded either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb

from .ff import (DESK_ORDER_LIMIT, discrete_log, field_make, is_prime,
                 primitive_element)
from .oracle import dsatur, shared_fingerprint_masks
from .verify import colour_clash

# greedy's saturation search (`oracle.dsatur` on bitmasks) takes 0.03 s at
# C(12, 6) = 924 subsets and 0.4 s at C(14, 7) = 3 432 on a 2-vCPU Xeon; the
# cap stays where it was set, so the same sizes are refused
GREEDY_SUBSET_CAP = 1_000
# gs lists every subset with its colour: 0.3 s at C(20, 10) = 184 756 on a
# 2-vCPU Xeon, and about 190 MB at C(22, 11) = 705 432
GS_SUBSET_CAP = 100_000


@dataclass(frozen=True)
class BoseChowlaSet:
    """Residues mod r whose h-fold sums (repetition allowed) are distinct."""

    p: int
    h: int
    r: int
    elements: tuple[int, ...]
    construction: str

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))


@dataclass
class JohnsonColouring:
    """A proper colouring of J(n, m, t) keyed by sorted m-subsets of [n]."""

    n: int
    m: int
    t: int
    method: str
    colours: dict[tuple[int, ...], int]
    palette: int
    modulus: int | None = None
    bose_chowla: BoseChowlaSet | None = dc_field(default=None, repr=False)


def subsets_lex(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-subsets of {1..n} as sorted tuples, lexicographically."""
    return list(itertools.combinations(range(1, n + 1), m))


def _validate(n: int, m: int, t: int) -> None:
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    if not 1 <= t <= m - 1:
        raise ValueError(f"need 1 <= t <= m-1, got t={t}, m={m}")


def smallest_prime_geq(x: int) -> int:
    if x < 2:
        raise ValueError("search starts at 2")
    p = x
    while not is_prime(p):
        p += 1
    return p


def _sumset_is_distinct(elements, h: int, r: int) -> bool:
    seen = set()
    for combo in itertools.combinations_with_replacement(elements, h):
        s = sum(combo) % r
        if s in seen:
            return False
        seen.add(s)
    return True


def bose_chowla(p: int, h: int) -> BoseChowlaSet:
    """Size p+1 set in Z_r, r = (p^{h+1}-1)/(p-1), with distinct h-fold sums.

    The set is the discrete-log image of a transversal of the projective
    line spanned by {1, g} in F_{p^{h+1}}, g primitive.  The defining
    property is checked exhaustively and the construction fails loudly
    rather than return an unverified set.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    F = field_make(p, h + 1)  # raises beyond desk scale
    r = (p ** (h + 1) - 1) // (p - 1)
    g = primitive_element(F)
    # transversal of the p+1 projective points of span{1, g}: 1 and a + g
    reps = [1] + [F.add(a, g) for a in range(p)]
    elements = tuple(sorted(discrete_log(F, g, v) % r for v in reps))
    construction = "projective-span"
    if len(set(elements)) != p + 1 or not _sumset_is_distinct(elements, h, r):
        elements, construction = _bose_chowla_search(p, h, r), "greedy-search"
    return BoseChowlaSet(p, h, r, elements, construction)


def gs_fits_desk(n: int, m: int, t: int) -> bool:
    """Whether `gs_colouring` of J(n, m, t) can build its field F_{p^(m-t+1)},
    p the smallest prime >= n + 1, within ff.DESK_ORDER_LIMIT, and list its
    C(n, m) subsets within GS_SUBSET_CAP."""
    return (comb(n, m) <= GS_SUBSET_CAP
            and smallest_prime_geq(n + 1) ** (m - t + 1) <= DESK_ORDER_LIMIT)


def _bose_chowla_search(p: int, h: int, r: int) -> tuple[int, ...]:
    """Fallback: greedy scan of Z_r for a distinct-sums set of size p+1."""
    chosen: list[int] = []
    for cand in range(r):
        trial = chosen + [cand]
        if _sumset_is_distinct(trial, h, r):
            chosen = trial
            if len(chosen) == p + 1:
                return tuple(chosen)
    raise ValueError(f"no distinct-sums set of size {p + 1} found in Z_{r}")


def gs_colouring(n: int, m: int, t: int) -> JohnsonColouring:
    """Sum-of-placements colouring with palette at most r.

    Refuses more than GS_SUBSET_CAP subsets before the field is built.
    """
    _validate(n, m, t)
    if comb(n, m) > GS_SUBSET_CAP:
        raise ValueError(f"gs colouring of J({n},{m},{t}) lists {comb(n, m)} subsets, "
                         f"above the cap {GS_SUBSET_CAP}")
    h = m - t
    p = smallest_prime_geq(n + 1)
    bc = bose_chowla(p, h)
    placement = bc.elements  # order-preserving injection of [n], n <= p+1
    colours = {}
    for S in subsets_lex(n, m):
        colours[S] = sum(placement[a - 1] for a in S) % bc.r
    palette = len(set(colours.values()))
    return JohnsonColouring(n, m, t, "gs", colours, palette,
                            modulus=bc.r, bose_chowla=bc)


def greedy_colouring(n: int, m: int, t: int) -> JohnsonColouring:
    """Saturation-greedy colouring, deterministic (ties to the lowest vertex).

    Refuses more than GREEDY_SUBSET_CAP subsets before any adjacency is built.
    """
    _validate(n, m, t)
    if comb(n, m) > GREEDY_SUBSET_CAP:
        raise ValueError(f"greedy colouring of J({n},{m},{t}) needs adjacency over "
                         f"{comb(n, m)} subsets, above the cap {GREEDY_SUBSET_CAP}; "
                         f"use --johnson gs")
    verts = subsets_lex(n, m)
    adj = _adjacency_masks(verts, t)
    assignment = dsatur(adj)
    colours = {S: c for S, c in zip(verts, assignment)}
    return JohnsonColouring(n, m, t, "greedy", colours, len(set(assignment)))


JOHNSON_METHODS = ("greedy", "gs")


def check_method(method: str) -> None:
    """ValueError unless `method` is one of JOHNSON_METHODS."""
    if method not in JOHNSON_METHODS:
        raise ValueError(f"unknown johnson method {method!r}")


def johnson_colouring(method: str, n: int, m: int, t: int) -> JohnsonColouring:
    """The colouring of J(n, m, t) named by `method`, one of JOHNSON_METHODS."""
    check_method(method)
    if method == "gs":
        return gs_colouring(n, m, t)
    return greedy_colouring(n, m, t)


def _adjacency_masks(verts: list[tuple[int, ...]], t: int) -> list[int]:
    """Adjacency rows of J(n, m, t) on these m-subsets: two share at least t
    elements exactly when they have a common t-subset, as in `is_proper`."""
    return shared_fingerprint_masks([list(itertools.combinations(v, t)) for v in verts])


def johnson_bounds(n: int, m: int, t: int) -> tuple[int, int]:
    """(counting lower bound, palette of the sum colouring's residue ring).

    The lower bound is ceil(C(n,m) * C(m,t) / C(n,t)): vertices divided by
    the constant-weight-code cap on independent sets.
    """
    _validate(n, m, t)
    lower = -(-comb(n, m) * comb(m, t) // comb(n, t))
    p = smallest_prime_geq(n + 1)
    gs_upper = (p ** (m - t + 1) - 1) // (p - 1)
    return lower, gs_upper


def is_proper(col: JohnsonColouring) -> bool:
    """Exhaustive check: no colour class holds two subsets sharing a t-subset.

    Two m-subsets share at least t elements exactly when they have a common
    t-subset, so the t-subsets of each vertex serve as its fingerprints.
    """
    verts = list(col.colours)
    clash = colour_clash([col.colours[v] for v in verts],
                         lambda i: itertools.combinations(verts[i], col.t))
    return clash is None
