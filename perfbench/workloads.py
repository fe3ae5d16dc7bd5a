"""The benchmark's workloads: inputs, one timed job, and output checks.

Each workload object is built by its set-up (the constructor) from the
seed and the golden digests.  `job()` is the timed unit: it calls only
qchroma's public functions, looked up on their modules at call time as
`qchroma.cli` does, so a tracer installed on those modules sees every
call.  `check(output)` returns (checks attempted, failures) and is never
timed.  `layer_counts(output)` gives the job's deterministic counts that
do not come from a span.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from qchroma import colouring as col
from qchroma import grassmann as gr
from qchroma import matq

POINT_QUERY_SAMPLES = 5_000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def colour_certificate(params: gr.GrassmannParams) -> str:
    """The certificate text `qchroma colour` prints for these parameters."""
    ctx = col.make_context(params)
    return col.certificate_to_json(col.full_colouring(ctx, verify=False))


class Colour:
    """Colour every vertex and serialize the certificate, as `qchroma colour`."""

    def __init__(self, name: str, seed: int, golden: dict):
        self.name = name
        self.golden = golden[name]
        self.params = gr.GrassmannParams(*self.golden["params"])
        self.vertices = self.params.vertex_count()
        self.sizes = {"params": self.golden["params"], "V": self.vertices,
                      "K": self.golden["palette_used"]}

    def job(self) -> str:
        return colour_certificate(self.params)

    def check(self, text: str) -> tuple[int, list[str]]:
        if digest(text) != self.golden["sha256"]:
            return 1, [f"{self.name}: certificate bytes differ from the golden digest"]
        return 1, []

    def layer_counts(self, text: str) -> dict[str, int]:
        return {"colouring.cert_bytes": len(text.encode())}


class Verify:
    """Parse and re-verify a certificate built in set-up, as `qchroma verify`."""

    def __init__(self, name: str, seed: int, golden: dict):
        self.golden = golden[name]
        self.params = gr.GrassmannParams(*self.golden["params"])
        self.vertices = self.params.vertex_count()
        self.pairs = self.vertices * (self.vertices - 1) // 2
        self.text = colour_certificate(self.params)
        self.input_ok = digest(self.text) == self.golden["sha256"]
        self.probes = rejection_probes(self.text, self.params.t, random.Random(seed))
        self.sizes = {"params": self.golden["params"], "V": self.vertices,
                      "pairs": self.pairs, "K": self.golden["palette_used"]}

    def job(self):
        return col.verify_properness(col.certificate_from_json(self.text))

    def check(self, report) -> tuple[int, list[str]]:
        if report.coverage_ok and report.proper and report.pairs_checked == self.pairs:
            return 1, []
        return 1, [f"verify: golden certificate refused: {report.message()}"]

    def layer_counts(self, report) -> dict[str, int]:
        return {"colouring.cert_bytes": len(self.text.encode()),
                "colouring.pairs_checked": report.pairs_checked}

    def setup_checks(self) -> tuple[int, list[str]]:
        """The input digest and the three rejection probes, once per run."""
        failures = [] if self.input_ok else ["verify: input certificate differs from the golden digest"]
        for label, text, judge in self.probes:
            verdict = judge(col.verify_properness(col.certificate_from_json(text)))
            if verdict:
                failures.append(f"verify probe {label}: {verdict}")
        return 1 + len(self.probes), failures


def _swap_rows(key: str) -> str:
    """The same subspace's key with its first two basis rows swapped."""
    head, body = key.split("rows=", 1)
    rows = body[1:-1].replace("],[", "]|[").split("|")
    rows[0], rows[1] = rows[1], rows[0]
    return f"{head}rows=[{','.join(rows)}]"


def rejection_probes(text: str, t: int, rng: random.Random):
    """Three seeded bad certificates, each with a judge of the verdict.

    A judge returns "" when the verifier refused the certificate for the
    right reason, otherwise a description of the wrong verdict.
    """
    doc = json.loads(text)
    entries = doc["colours"]
    keys = [e["vertex"] for e in entries]
    colour = {e["vertex"]: e["colour"] for e in entries}

    # 1. give two adjacent vertices the same colour
    a = rng.choice(keys)
    basis_a = gr.decode_subspace(a).basis
    while True:
        b = rng.choice(keys)
        if b != a and matq.intersection_dim(basis_a, gr.decode_subspace(b).basis) >= t:
            break
    clash = dict(doc, colours=[dict(e, colour=colour[a]) if e["vertex"] == b else e
                               for e in entries])
    clash_colour = {**colour, b: colour[a]}

    def judge_clash(report) -> str:
        if not report.coverage_ok or report.proper or report.counterexample is None:
            return f"expected a counterexample, got: {report.message()}"
        x, y, _ = report.counterexample
        dim = matq.intersection_dim(gr.decode_subspace(x).basis,
                                    gr.decode_subspace(y).basis)
        if clash_colour[x] != clash_colour[y] or dim < t:
            return f"counterexample {x} | {y} is not a same-colour pair of dim >= {t}"
        return ""

    # 2. drop a vertex
    dropped = rng.choice(keys)
    drop = dict(doc, colours=[e for e in entries if e["vertex"] != dropped])

    def judge_drop(report) -> str:
        if report.coverage_ok or report.missing != (dropped,):
            return f"expected {dropped} reported missing, got: {report.message()}"
        return ""

    # 3. replace a key by a non-canonical key of the same subspace
    original = rng.choice(keys)
    bad_key = _swap_rows(original)
    noncanon = dict(doc, colours=[dict(e, vertex=bad_key) if e["vertex"] == original else e
                                  for e in entries])

    def judge_noncanon(report) -> str:
        if (report.coverage_ok or bad_key not in report.unexpected
                or original not in report.missing):
            return f"expected {bad_key} refused, got: {report.message()}"
        return ""

    return [(label, json.dumps(d), judge) for label, d, judge in (
        ("same-colour-adjacent", clash, judge_clash),
        ("dropped-vertex", drop, judge_drop),
        ("non-canonical-key", noncanon, judge_noncanon))]


class PointQuery:
    """Context, bounds and per-vertex colours on graphs far above the vertex cap."""

    GRAPHS = ((9, 6, 2, 1), (2, 11, 7, 5))

    def __init__(self, name: str, seed: int, golden: dict):
        rng = random.Random(seed)
        self.graphs = [(gr.GrassmannParams(*p), _sample_vertices(p, rng))
                       for p in self.GRAPHS]
        self.vertices = POINT_QUERY_SAMPLES * len(self.graphs)
        self.sizes = {"graphs": [{"params": list(p), "V": params.vertex_count(),
                                  "sampled": len(verts)}
                                 for p, (params, verts) in zip(self.GRAPHS, self.graphs)]}

    def job(self):
        out = []
        for params, verts in self.graphs:
            ctx = col.make_context(params)
            bounds = col.bounds_report(params, "greedy")
            out.append((bounds, [col.colour_subspace(ctx, S) for S in verts]))
        return out

    def check(self, out) -> tuple[int, list[str]]:
        """Range and properness on the sample, with no construction knowledge."""
        failures = []
        for size, (params, verts), (bounds, colours) in zip(
                self.sizes["graphs"], self.graphs, out):
            upper = size["K"] = bounds["theorem_upper"]
            if not all(0 <= c < upper for c in colours):
                failures.append(f"{params}: a colour lies outside [0, {upper})")
            if any(matq.intersection_dim(S.basis, T.basis) >= params.t
                   for group in _colour_classes(verts, colours)
                   for S, T in itertools.combinations(group, 2)):
                failures.append(f"{params}: two sampled vertices share a colour but are adjacent")
        return 2 * len(self.graphs), failures

    def layer_counts(self, out) -> dict[str, int]:
        return {"check.same_colour_pairs": sum(
            len(group) * (len(group) - 1) // 2
            for (_, verts), (_, colours) in zip(self.graphs, out)
            for group in _colour_classes(verts, colours))}


def _colour_classes(verts: list, colours: list[int]) -> list[list]:
    by_colour: dict[int, list] = {}
    for S, c in zip(verts, colours):
        by_colour.setdefault(c, []).append(S)
    return list(by_colour.values())


def _sample_vertices(p: tuple[int, int, int, int], rng: random.Random) -> list:
    """Distinct uniform random m-subspaces, drawn as random RREF bases.

    A pivot set with f free cells has q^f bases, so pivot sets are drawn
    with weight q^f and the free cells uniformly.
    """
    q, n, m, _ = p
    field = gr.GrassmannParams(*p).field
    supports = list(itertools.combinations(range(n), m))
    free = [[[j for j in range(c + 1, n) if j not in piv] for c in piv]
            for piv in supports]
    weights = [q ** sum(map(len, cells)) for cells in free]
    seen = set()
    out = []
    while len(out) < POINT_QUERY_SAMPLES:
        k = rng.choices(range(len(supports)), weights)[0]
        rows = []
        for c, cells in zip(supports[k], free[k]):
            row = [0] * n
            row[c] = 1
            for j in cells:
                row[j] = rng.randrange(q)
            rows.append(tuple(row))
        S = gr.Subspace(matq.MatrixFq(field, tuple(rows)))
        if S not in seen:
            seen.add(S)
            out.append(S)
    return out


WORKLOADS = {"colour-direct": Colour, "colour-dual": Colour,
             "verify": Verify, "point-query": PointQuery}


def make(name: str, seed: int, golden: dict):
    return WORKLOADS[name](name, seed, golden)
