import ast
import dataclasses
import functools
import hashlib
import itertools
import random
from pathlib import Path

import pytest

import qchroma
from qchroma import colouring as col
from qchroma import matq, verify
from qchroma.cli import main
from qchroma.grassmann import (GrassmannParams, Subspace, decode_subspace,
                               enumerate_subspaces, free_cells, rref_bases,
                               weight_vectors_lex)
from qchroma.matq import (MatrixFq, all_matrices, intersection_dim, matmul,
                          orthogonal_complement, rank)

PACKAGE = Path(qchroma.__file__).parent
# the construction and everything that imports it
NOT_IMPORTED_BY_THE_VERIFIER = {"colouring", "rankmetric", "johnson", "oracle", "selftest", "cli"}


def _package_imports(module: str) -> set[str]:
    """The qchroma modules that a module's source imports, anywhere in it
    (also under `if TYPE_CHECKING:` or inside a function); a name imported
    from the package itself counts as its `__init__`."""
    found = set()

    def add(name):
        found.add(name if (PACKAGE / f"{name}.py").exists() else "__init__")
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qchroma":
                    add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = [] if node.module is None else node.module.split(".")
            if node.level == 0 and parts[:1] == ["qchroma"]:
                parts = parts[1:]
            elif node.level != 1:
                continue
            if parts:
                add(parts[0])
            else:  # from . import x: x is a module or a name of `__init__`
                for alias in node.names:
                    add(alias.name)
    return found


def test_verifier_imports_none_of_the_construction():
    closure, todo = set(), ["verify"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo += _package_imports(module)
    assert {"grassmann", "matq"} <= closure
    assert closure & NOT_IMPORTED_BY_THE_VERIFIER == set()


def test_disagreeing_verdicts_fail_closed(monkeypatch, tmp_path, capsys):
    # a proper certificate, with the block verdict made to report every colour
    # as clashing, which the key-by-key walk cannot name: every caller raises
    # instead of accepting
    ctx = col.make_context(GrassmannParams(2, 6, 3, 2))
    cert = col.full_colouring(ctx, verify=False)
    path = str(tmp_path / "cert.json")
    col.save_certificate(cert, path)
    monkeypatch.setattr(verify, "_clashing_colours",
                        lambda params, blocks: set(itertools.chain.from_iterable(blocks)))
    with pytest.raises(AssertionError, match="block verdict"):
        col.verify_properness(cert)
    with pytest.raises(AssertionError, match="block verdict"):
        col.full_colouring(ctx, verify=True)
    assert main(["verify", "--cert", path]) == 2
    assert "internal check failed" in capsys.readouterr().err
    # and a block lookup that refuses V canonical keys
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_colour_blocks", lambda params, entries: None)
    with pytest.raises(AssertionError, match="block lookup"):
        col.verify_properness(cert)


# -- characteristic 2: fingerprint rows summed by XOR, with no fold ------------

@functools.lru_cache(maxsize=None)
def _certificate(p):
    return col.full_colouring(col.make_context(GrassmannParams(*p)), verify=False)


def _t_subspaces(field, t, rows):
    """The t-subspaces of the row space of `rows`, as C·B over every full-rank
    t x m matrix C that `matq.all_matrices` lists."""
    B = MatrixFq(field, tuple(rows))
    return {Subspace.from_matrix(matmul(C, B)) for C in all_matrices(field, t, B.nrows)
            if rank(C) == t}


@pytest.mark.parametrize("p, complement", [((2, 6, 3, 2), False), ((4, 4, 2, 1), False),
                                           ((8, 4, 2, 1), False), ((2, 7, 4, 2), True),
                                           ((4, 5, 3, 2), True), ((8, 5, 3, 2), True)])
def test_xor_fingerprints_are_the_t_subspaces(p, complement):
    # every vertex of every block with at most two free cells, in bulk and
    # one vertex at a time; on the complement side the fingerprints are the
    # (n - 2m + t)-subspaces of the vertex's orthogonal complement
    params = GrassmannParams(*p)
    side = params.dual() if complement else params
    field, q, n = params.field, params.q, params.n
    fp = verify._Fingerprints(side)
    assert fp.sums.table is None  # no fold table over characteristic 2

    def decode(f):
        if not complement:  # the rows are in RREF as computed
            return fp.subspace(f)
        return Subspace.from_matrix(MatrixFq(field, tuple(
            tuple(value // q ** j % q for j in range(n)) for value in f)))
    combos = list(zip(*fp.columns))
    for idvec in weight_vectors_lex(n, params.m):
        cells = free_cells(idvec)
        if len(cells) > 2:
            continue
        rows = fp.block(idvec, complement)
        for v, basis in enumerate(rref_bases(q, idvec)):
            one = fp.block(idvec, complement, values=[basis[i][j] for i, j in cells])
            assert one == [[sums[v]] for sums in rows]
            B = orthogonal_complement(MatrixFq(field, basis)).rows if complement else basis
            want = _t_subspaces(field, side.t, B)
            got = [decode(tuple(rows[x][v] for x in combo)) for combo in combos]
            assert len(got) == len(want) and set(got) == want


FOLD_GRAPHS = [(2, 6, 3, 2), (2, 7, 4, 2), (4, 4, 2, 1), (4, 5, 3, 2), (8, 4, 2, 1),
               (3, 4, 2, 1), (3, 5, 3, 2), (9, 4, 2, 1)]


def _clash_mutant(cert, seed):
    """The certificate with one vertex recoloured to a neighbour's colour."""
    keys, colours = [k for k, _ in cert.colours], [c for _, c in cert.colours]
    rng = random.Random(seed)
    a = rng.randrange(len(keys))
    basis = decode_subspace(keys[a]).basis
    b = next(b for b in rng.sample(range(len(keys)), len(keys)) if colours[b] != colours[a]
             and intersection_dim(basis, decode_subspace(keys[b]).basis) >= cert.params.t)
    colours[b] = colours[a]
    return dataclasses.replace(cert, colours=tuple(zip(keys, colours)))


@pytest.mark.parametrize("p", FOLD_GRAPHS)
def test_no_fold_runs_over_characteristic_2(p, monkeypatch):
    # over F_2, F_4 and F_8 neither an acceptance nor a refusal reads a fold
    # table, and neither does the colouring, in bulk or per vertex; for odd p
    # an acceptance reads one once per (identifying vector, coefficient row)
    params = GrassmannParams(*p)
    cert = _certificate(p)
    mutant = _clash_mutant(cert, sum(p))
    counts = {"read": 0, "read_all": 0}
    for name in counts:
        real = getattr(matq.DigitSums, name)

        def counted(self, totals, name=name, real=real):
            counts[name] += self.table is not None  # an identity read is not counted
            return real(self, totals)
        monkeypatch.setattr(matq.DigitSums, name, counted)
    assert col.verify_properness(cert).proper
    if p[0] % 2 == 0:
        assert not col.verify_properness(mutant).proper
        ctx = col.make_context(params)
        assert col.full_colouring(ctx, verify=False).colours == cert.colours
        for S in enumerate_subspaces(*p[:3]):
            col.colour_subspace(ctx, S)
        assert counts == {"read": 0, "read_all": 0}
    else:
        side = params.dual() if col.regime_of(params) == "dual" else params
        rows = len(verify._Fingerprints(side).coeff_rows)
        blocks = sum(1 for _ in weight_vectors_lex(params.n, params.m))
        assert counts == {"read": 0, "read_all": blocks * rows}


# SHA-256 prefixes of repr((counterexample, witness)) of `_clash_mutant` with
# seed sum(p), recorded when every field's rows were added in packed slots
# and folded
CLASH_DIGESTS = {(2, 6, 3, 2): "7e666ef16b5afd11", (2, 7, 4, 2): "af76da2afddf107d",
                 (4, 4, 2, 1): "dc6e1840c5ffec9b", (4, 5, 3, 2): "e8dfe20bee85af04",
                 (8, 4, 2, 1): "35ce836404257f7c", (8, 3, 2, 1): "288671174abd9726",
                 (3, 4, 2, 1): "8ed72663e05ad2cd", (3, 5, 3, 2): "547c4ab965cb69ca"}


@pytest.mark.parametrize("p", CLASH_DIGESTS)
def test_clash_mutant_names_the_recorded_pair_and_witness(p):
    rep = col.verify_properness(_clash_mutant(_certificate(p), sum(p)))
    assert rep.coverage_ok and not rep.proper and rep.counterexample[2] >= p[3]
    assert hashlib.sha256(repr((rep.counterexample, rep.witness)).encode()).hexdigest()[:16] \
        == CLASH_DIGESTS[p]
