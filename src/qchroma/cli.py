"""Command-line frontend.

Subcommands: enumerate, colour, verify, bounds, oracle, export-graph,
johnson, selftest.  Data goes to stdout or --out; diagnostics go to stderr.
Exit codes: 0 success, 1 parameter/validation error, 2 verification failure.
All numeric output is exact (decimal strings inside JSON documents).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable

from . import colouring as col
from . import johnson, oracle
from . import grassmann as gr


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_params(sub, require_t=True):
    sub.add_argument("--q", type=int, required=True, help="field size (prime power)")
    sub.add_argument("--n", type=int, required=True, help="ambient dimension")
    sub.add_argument("--m", type=int, required=True, help="subspace dimension")
    sub.add_argument("--t", type=int, required=require_t,
                     help="adjacency threshold: intersection dimension >= t")


def build_parser() -> _Parser:
    parser = _Parser(prog="qchroma",
                     description="Colourings and bounds for Grassmann graph powers.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="list canonical subspace keys")
    _add_params(p, require_t=False)
    p.add_argument("--out", help="write to this file instead of stdout")
    p.add_argument("--cap", type=int, default=col.DEFAULT_VERTEX_CAP,
                   help="refuse to list more subspaces than this")

    p = subs.add_parser("colour", help="colour every vertex, emit a certificate")
    _add_params(p)
    p.add_argument("--johnson", choices=johnson.JOHNSON_METHODS, default="greedy",
                   help="partition method for identifying vectors")
    p.add_argument("--verify", action="store_true",
                   help="force properness verification regardless of size")
    p.add_argument("--out", help="certificate path (default: stdout)")
    p.add_argument("--cap", type=int, default=col.DEFAULT_VERTEX_CAP,
                   help="refuse graphs with more vertices than this")

    p = subs.add_parser("verify", help="re-check a certificate from disk")
    p.add_argument("--cert", required=True, help="certificate path")

    p = subs.add_parser("bounds", help="exact lower/upper bound report")
    _add_params(p)
    p.add_argument("--johnson", choices=johnson.JOHNSON_METHODS, default="greedy")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = subs.add_parser("oracle", help="exact chromatic number and max clique")
    _add_params(p)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET,
                   help="node-expansion budget for the solvers")
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_VERTEX_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("export-graph", help="write the graph in DIMACS format")
    _add_params(p)
    p.add_argument("--out", required=True, help="DIMACS output path")
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_VERTEX_CAP)

    p = subs.add_parser("johnson", help="colour the Johnson graph power J(n,m,t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--johnson", choices=johnson.JOHNSON_METHODS, default="greedy",
                   dest="method")

    p = subs.add_parser("selftest", help="run every property suite")
    p.add_argument("--seed", type=int, default=8128,
                   help="seed for the randomized trials")
    return parser


def _params(args) -> gr.GrassmannParams:
    return gr.GrassmannParams(args.q, args.n, args.m, args.t)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the text chunks in turn to the file `out`, else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _cmd_enumerate(args) -> int:
    if not 1 <= args.m <= args.n:
        raise ValueError(f"need 1 <= m <= n, got m={args.m}, n={args.n}")
    field = gr.field_for_order(args.q)  # refuses a q that is not a prime power
    gr.check_vertex_cap(args.q, args.n, args.m, args.cap)
    _emit(("\n".join(gr.block_keys(field, v)) + "\n"  # one block of keys at a time
           for v in gr.weight_vectors_lex(args.n, args.m)), args.out)
    return 0


def _cmd_colour(args) -> int:
    params = _params(args)
    gr.check_vertex_cap(params.q, params.n, params.m, args.cap)  # before the context build
    ctx = col.make_context(params, args.johnson)
    verify = True if args.verify else None
    cert = col.full_colouring(ctx, verify=verify, vertex_cap=args.cap)
    _emit(col.certificate_chunks(cert), args.out)
    return 0


def _cmd_verify(args) -> int:
    cert = col.load_certificate(args.cert)
    report = col.verify_properness(cert)
    if report.coverage_ok and report.proper:
        print(f"OK: {report.message()}")
        return 0
    print(report.message(), file=sys.stderr)
    if report.counterexample:
        a, b, dim = report.counterexample
        print(f"counterexample: {a} | {b} | intersection dim {dim}",
              file=sys.stderr)
        print(f"witness: both contain {report.witness}", file=sys.stderr)
    for key in report.missing[:5]:
        print(f"missing vertex: {key}", file=sys.stderr)
    for key in report.unexpected[:5]:
        print(f"unexpected vertex: {key}", file=sys.stderr)
    return 2


def _check_printable(params: gr.GrassmannParams) -> None:
    """ValueError when the vertex count, which every `bounds` format prints,
    has more decimal digits than Python converts (`sys.get_int_max_str_digits`,
    no limit when 0).  The count is at least q^e, e = m(n-m), which has more
    than `limit` digits exactly when q^e >= 10^limit.  Far from that, the
    float e·log10(q) decides; within one digit of it, the exact powers do.
    So a refusal comes before any exact count."""
    limit = sys.get_int_max_str_digits()
    q, e = params.q, params.m * (params.n - params.m)
    digits = e * math.log10(q)
    if limit and (digits >= limit + 1 or digits > limit - 1 and q ** e >= 10 ** limit):
        raise ValueError(f"vertex count, at least {q}^{e}, "
                         f"has more than the {limit} digits that can be printed")


def _cmd_bounds(args) -> int:
    params = _params(args)
    _check_printable(params)
    rep = col.bounds_report(params, args.johnson)
    if args.format == "json":
        doc = {k: (v if isinstance(v, str) or v is None else str(v))
               for k, v in rep.items()}
        print(json.dumps(doc, indent=1, sort_keys=True))
    elif args.format == "csv":
        keys = ["regime", "vertices", "lower", "theorem_upper",
                "trivial_upper", "johnson_palette"]
        keys += ["johnson_residue_ring"] if "johnson_residue_ring" in rep else []
        print(",".join(keys))
        print(",".join(str(rep[k]) for k in keys))
    else:
        print(f"J_{params.q}({params.n},{params.m},{params.t}): "
              f"{rep['vertices']} vertices, regime {rep['regime']}")
        print(f"  lower bound (clique):   {rep['lower']}")
        print(f"  theorem upper bound:    {rep['theorem_upper']}")
        print(f"  trivial upper (deg+1):  {rep['trivial_upper']}")
        if rep["johnson_palette"] is not None:
            print(f"  johnson palette used:   {rep['johnson_palette']}")
        if "johnson_residue_ring" in rep:
            print(f"  johnson residue ring:   {rep['johnson_residue_ring']} "
                  f"(residue-ring bound, not a built palette)")
    return 0


def _cmd_oracle(args) -> int:
    params = _params(args)
    oracle.check_budget(args.budget)  # before the graph build
    g = oracle.build_graph(params, cap=args.cap)
    ch = oracle.exact_chromatic(g, budget=args.budget)
    mc = ch.clique
    if args.format == "json":
        doc = {"vertices": str(g.num_vertices), "edges": str(g.num_edges),
               "max_clique": str(mc.size), "clique_exact": mc.exact,
               "chromatic_lower": str(ch.lower), "chromatic_upper": str(ch.upper),
               "chromatic_exact": ch.exact}
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"graph: {g.num_vertices} vertices, {g.num_edges} edges")
        print(f"max clique: {mc.size}" + ("" if mc.exact else " (budget hit, lower bound only)"))
        if ch.exact:
            print(f"chromatic number: {ch.upper}")
        else:
            print(f"chromatic number in [{ch.lower}, {ch.upper}] (budget hit)")
    return 0


def _cmd_export_graph(args) -> int:
    params = _params(args)
    g = oracle.build_graph(params, cap=args.cap)
    oracle.write_dimacs(g, args.out, args.out + ".labels")
    print(f"wrote {g.num_vertices} vertices / {g.num_edges} edges to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_johnson(args) -> int:
    jc = johnson.johnson_colouring(args.method, args.n, args.m, args.t)
    lower, gs_upper = johnson.johnson_bounds(args.n, args.m, args.t)
    proper = johnson.is_proper(jc)
    print(f"J({args.n},{args.m},{args.t}): {len(jc.colours)} vertices")
    print(f"  method {jc.method}: palette {jc.palette}, proper {proper}")
    print(f"  counting lower bound {lower}, residue-ring upper bound {gs_upper}")
    if jc.bose_chowla is not None:
        bc = jc.bose_chowla
        print(f"  distinct-sums set mod {bc.r} ({bc.construction}): {list(bc.elements)}")
    return 0 if proper else 2


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return 0 if run_selftest(seed=args.seed) else 2


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "colour": _cmd_colour,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "export-graph": _cmd_export_graph,
    "johnson": _cmd_johnson,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"qchroma: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # an internal invariant check failed
        print(f"qchroma: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
