"""The benchmark's tracer still finds every public name it wraps.

perfbench/spans.py patches qchroma's public functions by name, from
outside the package.  Deleting or renaming one of them would otherwise
show only in the minute-long perfbench self-tests; here it fails in
about 0.1 s.
"""

import importlib
import itertools
import sys
from pathlib import Path

import qchroma
from qchroma import colouring, grassmann, johnson
from qchroma.grassmann import GrassmannParams

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _perfbench(module: str):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(PERFBENCH)


def _tracer():
    return _perfbench("spans").Tracer(qchroma.__name__)


def test_tracer_installs_counts_and_uninstalls():
    make_context, greedy = colouring.make_context, johnson.greedy_colouring
    subspace_init = grassmann.Subspace.__init__
    tracer = _tracer()
    tracer.install()
    try:
        assert colouring.make_context is not make_context
        colouring.make_context(GrassmannParams(2, 4, 2, 1))
        calls = {name: s["calls"] for name, s in tracer.snapshot().items()}
    finally:
        tracer.uninstall()
    # the Johnson-method dispatch reaches the traced greedy colouring
    assert calls["colouring.make_context"] == 1
    assert calls["johnson.greedy_colouring"] == 1
    assert calls["oracle.dsatur"] == 1
    assert colouring.make_context is make_context
    assert johnson.greedy_colouring is greedy
    assert grassmann.Subspace.__init__ is subspace_init


def test_tracer_times_the_certificate_writer_once_per_colour_job(tmp_path, monkeypatch):
    # the benchmark's colouring.certificate_to_json.s times each certificate
    # write as one span: its colour job renders the text once and joins it,
    # by that name, while `qchroma colour` renders it once and writes the
    # pieces without joining them
    from qchroma.cli import main
    renders = []  # the certificate of each `certificate_chunks` call
    chunks = colouring.certificate_chunks
    monkeypatch.setattr(colouring, "certificate_chunks",
                        lambda cert: renders.append(cert) or chunks(cert))
    tracer = _tracer()
    tracer.install()
    try:
        text = _perfbench("workloads").colour_certificate(GrassmannParams(2, 5, 2, 1))
        job = {name: s["calls"] for name, s in tracer.snapshot().items()}
        job_renders = len(renders)
        tracer.reset()
        renders.clear()
        out = tmp_path / "cert.json"
        assert main(["colour", "--q", "2", "--n", "5", "--m", "2", "--t", "1",
                     "--out", str(out)]) == 0
        calls = {name: s["calls"] for name, s in tracer.snapshot().items()}
    finally:
        tracer.uninstall()
    assert job["colouring.full_colouring"] == 1
    assert job["colouring.certificate_to_json"] == 1 and job_renders == 1
    assert calls["colouring.full_colouring"] == 1
    assert calls["colouring.certificate_to_json"] == 0 and len(renders) == 1
    assert out.read_text() == colouring.certificate_to_json(renders[0])
    assert colouring.certificate_from_json(out.read_text()).params == GrassmannParams(2, 5, 2, 1)
    assert colouring.certificate_from_json(text).params == GrassmannParams(2, 5, 2, 1)


def test_tracer_sees_point_queries_skip_the_lifting_route():
    # the benchmark's point-query job: on a dual context each query is one
    # colour_subspace span, with no unlift, coset_index or dualize under it
    ctx = colouring.make_context(GrassmannParams(2, 7, 4, 2))
    verts = list(itertools.islice(grassmann.enumerate_subspaces(2, 7, 4), 0, None, 37))
    tracer = _tracer()
    tracer.install()
    try:
        for S in verts:
            colouring.colour_subspace(ctx, S)
        calls = {name: s["calls"] for name, s in tracer.snapshot().items()}
    finally:
        tracer.uninstall()
    assert calls["colouring.colour_subspace"] == len(verts) > 300
    assert calls["rankmetric.coset_index"] == 0
    assert calls["rankmetric.unlift"] == 0
    assert calls["grassmann.dualize"] == 0
