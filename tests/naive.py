"""Deliberately naive reference implementations used as independent oracles.

Everything here but the verifier, key, writer and saturation-search references
at the end models a subspace as the frozen set of ALL its vectors
(coordinate tuples) and never touches echelon forms, so agreement with the
library is meaningful evidence rather than a tautology.
"""

import itertools
import json

from qchroma.ff import field_for_order
from qchroma.grassmann import (Subspace, decode_subspace, encode_subspace,
                               entry_texts, free_cells, key_template, rref_bases,
                               weight_vectors_lex)
from qchroma.matq import MatrixFq
from qchroma.verify import colour_clash


def all_vectors(q, n):
    return list(itertools.product(range(q), repeat=n))


def vec_add(F, u, v):
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_scale(F, c, u):
    return tuple(F.mul(c, a) for a in u)


def span(q, rows):
    """Frozenset of every vector in the span of `rows` over F_q."""
    F = field_for_order(q)
    n = len(rows[0]) if rows else 0
    vecs = {tuple([0] * n)}
    for row in rows:
        vecs = {vec_add(F, v, vec_scale(F, c, tuple(row)))
                for v in vecs for c in range(q)}
    return frozenset(vecs)


def naive_rank(q, rows):
    """log_q of the span size."""
    size = len(span(q, rows)) if rows else 1
    r = 0
    while q ** r < size:
        r += 1
    assert q ** r == size
    return r


def naive_subspaces(q, n, m):
    """All m-dimensional subspaces of F_q^n, as frozensets of vectors.

    Built by spanning every m-tuple of vectors and keeping the spans of the
    right size; hopeless beyond tiny parameters, which is fine.
    """
    out = set()
    vectors = [v for v in all_vectors(q, n) if any(v)]
    for combo in itertools.combinations(vectors, m):
        s = span(q, list(combo))
        if len(s) == q ** m:
            out.add(s)
    return out


def naive_intersection_dim(q, s1, s2):
    inter = s1 & s2
    d = 0
    while q ** d < len(inter):
        d += 1
    assert q ** d == len(inter)
    return d


def naive_orthogonal(q, rows, n):
    """All vectors orthogonal to every row under the standard dot product."""
    F = field_for_order(q)
    out = []
    for w in all_vectors(q, n):
        if all(_dot(F, w, r) == 0 for r in rows):
            out.append(w)
    return frozenset(out)


def _dot(F, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def naive_clash(q, spans, colours, t):
    """All-pairs properness walk: the first same-colour pair (i, j), i < j,
    whose spans meet in dimension >= t, or None."""
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            if colours[i] == colours[j] and \
                    naive_intersection_dim(q, spans[i], spans[j]) >= t:
                return i, j
    return None


def naive_clashing_colours(q, spans, colours, t):
    """Every colour of which two vertices' spans meet in dimension >= t."""
    classes = {}
    for s, c in zip(spans, colours):
        classes.setdefault(c, []).append(s)
    return {c for c, members in classes.items()
            if any(naive_intersection_dim(q, a, b) >= t
                   for a, b in itertools.combinations(members, 2))}


def naive_johnson_clash(subsets, colours, t):
    """All-pairs walk over m-subsets: the first same-colour pair sharing at
    least t elements, or None."""
    for i in range(len(subsets)):
        for j in range(i + 1, len(subsets)):
            if colours[i] == colours[j] and \
                    len(set(subsets[i]) & set(subsets[j])) >= t:
                return i, j
    return None


def merge_colours(colours, merges, rng):
    """Relabel one random colour class onto another, `merges` times."""
    out = list(colours)
    for _ in range(merges):
        a, b = rng.sample(sorted(set(out)), 2)
        out = [b if c == a else c for c in out]
    return out


def naive_min_rank(code):
    """Walk every codeword and take the least naive rank of a nonzero one."""
    best = None
    for word in code.codewords():
        if not any(any(row) for row in word.rows):
            continue
        r = naive_rank(code.q, list(word.rows))
        if best is None or r < best:
            best = r
            if best == 1:
                break
    return best


def _poly_rem(f, g, F):
    """Remainder of f by the monic g over the field F (lists, constant first)."""
    f = list(f)
    while len(f) >= len(g):
        c = f.pop()
        shift = len(f) - (len(g) - 1)
        for i, gc in enumerate(g[:-1]):
            f[shift + i] = F.sub(f[shift + i], F.mul(c, gc))
    return f


def naive_smallest_irreducible(q, d):
    """First monic degree-d polynomial over F_q with no monic factor of
    degree 1..d//2, walking every (c_0, ..., c_{d-1}) in lexicographic
    order (constant term first, c_0 = 0 included)."""
    F = field_for_order(q)
    divisors = [list(low) + [1] for k in range(1, d // 2 + 1)
                for low in itertools.product(range(q), repeat=k)]
    for low in itertools.product(range(q), repeat=d):
        f = low + (1,)
        if all(any(_poly_rem(f, g, F)) for g in divisors):
            return f
    return None


# -- reference routes of the certificate verifier -----------------------------
# These go through the library's key codec and RREF bases, but not through
# the verifier's template parsing or packed field arithmetic, so agreement
# checks that machinery key by key and clash by clash.

def naive_key_ok(key, params):
    """Per-key check by round trip: `decode_subspace` accepts the key, it
    re-encodes to itself and it is an m-subspace of this graph's F_q^n."""
    try:
        S = decode_subspace(key)
        canon = encode_subspace(S)
    except ValueError:
        return False
    return canon == key and (S.q, S.n, S.m) == (params.q, params.n, params.m)


def naive_unexpected(keys, params):
    """The keys a verifier must refuse: not canonical here, or repeated."""
    seen, bad = set(), set()
    for key in keys:
        if naive_key_ok(key, params) and key not in seen:
            seen.add(key)
        else:
            bad.add(key)
    return tuple(sorted(bad))


def entry_fingerprints(params, rows):
    """The t-subspaces of the row space of an RREF basis B (`rows`), as the
    rows of C·B, C each RREF t x m basis in `rref_bases` order over
    `weight_vectors_lex(m, t)`, built entry by entry."""
    F = params.field

    def combination(coeffs):
        acc = tuple([0] * len(rows[0]))
        for c, row in zip(coeffs, rows):
            acc = vec_add(F, acc, vec_scale(F, c, row))
        return acc
    return [tuple(combination(r) for r in C)
            for u in weight_vectors_lex(params.m, params.t) for C in rref_bases(params.q, u)]


def tuple_clash(keys, colours, params):
    """First clash of `colour_clash` over tuple-of-tuples fingerprints.

    Vertex i is decoded from keys[i]; its fingerprints are
    `entry_fingerprints` of its RREF basis.  Returns
    ((key, key, dim), witness key) or None; dim comes from the vector sets.
    """
    F, q = params.field, params.q
    bases = [decode_subspace(k).basis.rows for k in keys]
    clash = colour_clash(colours, lambda i: entry_fingerprints(params, bases[i]))
    if clash is None:
        return None
    i, j, shared = clash
    dim = naive_intersection_dim(q, span(q, bases[i]), span(q, bases[j]))
    witness = encode_subspace(Subspace(MatrixFq(F, shared)))
    return (keys[i], keys[j], dim), witness


# -- reference key and certificate writers -------------------------------------

def template_keys(field, idvec):
    """The keys of one identifying vector, one `str.format` of its
    `key_template` per vertex over `itertools.product` of the entry texts."""
    template = key_template(field, idvec)
    return [template.format(*values) for values in
            itertools.product(entry_texts(field), repeat=len(free_cells(idvec)))]


def _stringify(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"unexpected certificate value {value!r}")


def naive_certificate_to_json(cert):
    """The certificate as one dict per entry through `json.dumps(indent=1)`."""
    doc = {
        "params": {"q": str(cert.params.q), "n": str(cert.params.n),
                   "m": str(cert.params.m), "t": str(cert.params.t)},
        "regime": cert.regime,
        "johnson": (None if cert.johnson_method is None else
                    {"method": cert.johnson_method,
                     "palette": str(cert.johnson_palette)}),
        "code": (None if cert.code_params is None else
                 {k: _stringify(v) for k, v in cert.code_params.items()}),
        "colours": [{"vertex": k, "colour": str(c)} for k, c in cert.colours],
        "bounds": {k: str(v) for k, v in cert.bounds.items()},
        "verified": {"proper": cert.proper,
                     "pairs_checked": str(cert.pairs_checked)},
        "provenance": {
            "palette_used": str(cert.palette_used),
            "family_sizes": {u: {str(i): str(s) for i, s in sorted(fam.items())}
                             for u, fam in sorted(cert.family_sizes.items())},
        },
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def naive_dsatur(adj):
    """`oracle.dsatur` by scans: each step walks every vertex for the most
    saturated one and every neighbour to record the new colour."""
    n = len(adj)
    colours = [-1] * n
    neighbour_colours = [set() for _ in range(n)]
    for _ in range(n):
        best = -1
        best_sat = -1
        for v in range(n):
            if colours[v] < 0 and len(neighbour_colours[v]) > best_sat:
                best = v
                best_sat = len(neighbour_colours[v])
        c = 0
        while c in neighbour_colours[best]:
            c += 1
        colours[best] = c
        mask = adj[best]
        while mask:
            u = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if colours[u] < 0:
                neighbour_colours[u].add(c)
    return colours


def naive_k_colourable(g, k, clique, bud):
    """`oracle._k_colourable` with per-vertex saturation lists: each node
    scans every vertex for the next one to paint, and painting walks the
    painted vertex's neighbours."""
    n = g.num_vertices
    if len(clique) > k:
        return "unsat", None
    colours = [-1] * n
    sat_mask = [0] * n  # bitmask of colours used by coloured neighbours
    sat_count = [0] * n
    uncoloured = n
    max_used = 0

    def paint(v, c, changed):
        colours[v] = c
        mask = g.adj[v]
        bit = 1 << c
        while mask:
            u = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if colours[u] < 0 and not sat_mask[u] & bit:
                sat_mask[u] |= bit
                sat_count[u] += 1
                changed.append(u)

    def unpaint(v, c, changed):
        colours[v] = -1
        bit = 1 << c
        for u in changed:
            sat_mask[u] &= ~bit
            sat_count[u] -= 1

    pre = []
    for i, v in enumerate(clique):
        paint(v, i, pre)
        uncoloured -= 1
        max_used = max(max_used, i + 1)

    frames = []
    while True:
        if len(frames) == uncoloured:
            return "sat", colours
        if not bud.spend():
            return "budget", None
        v = -1
        v_sat = -1
        for u in range(n):
            if colours[u] < 0 and sat_count[u] > v_sat:
                v = u
                v_sat = sat_count[u]
        avail = ~sat_mask[v] & ((1 << min(k, max_used + 1)) - 1)
        while not avail:
            if not frames:
                return "unsat", None
            v, c, avail, changed, max_used = frames.pop()
            unpaint(v, c, changed)
        c = (avail & -avail).bit_length() - 1
        changed = []
        paint(v, c, changed)
        frames.append((v, c, avail & (avail - 1), changed, max_used))
        max_used = max(max_used, c + 1)
