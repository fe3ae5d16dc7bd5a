import ast
import itertools
from pathlib import Path

import pytest

import qchroma
from qchroma import colouring as col
from qchroma import verify
from qchroma.cli import main
from qchroma.grassmann import GrassmannParams

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
