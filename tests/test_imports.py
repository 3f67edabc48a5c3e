"""The package's import graph is a chain: each module imports only modules
before it, and only at module level, so no import cycle can form."""

import ast
from pathlib import Path

import qsphere

SRC = Path(qsphere.__file__).parent

# scalars -> freealg -> rewrite -> presentations -> hopf -> rmatrix, with
# errors below everything and linalg, parser, spectrum and cli beside it
CHAIN = ["errors", "scalars", "linalg", "freealg", "parser", "rewrite",
         "presentations", "hopf", "rmatrix", "spectrum", "cli", "__init__"]


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _package_targets(node):
    """The qsphere modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("qsphere.")]
    if node.level == 0:
        parts = (node.module or "").split(".")
        return parts[1:2] if parts[0] == "qsphere" else []
    return [node.module] if node.module else [a.name for a in node.names]


def test_every_module_is_on_the_chain():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(CHAIN)


def test_imports_are_module_level_and_point_down_the_chain():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        here = CHAIN.index(path.stem)
        for node in _imports(tree):
            where = f"{path.name}:{node.lineno}"
            assert id(node) in top, f"import inside a function or block at {where}"
            for target in _package_targets(node):
                assert CHAIN.index(target) < here, f"{where} imports {target}"


def _identifiers(tree):
    """Every name a module binds or reads: definitions, parameters, imports,
    names and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_q_is_one_constant_with_no_context():
    # the deformation parameter is scalars.QPARAM: no function takes a
    # context argument and no module names a context class
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = fn.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                names = {p.arg for p in params if p is not None}
                assert "ctx" not in names, f"{path.name}:{fn.lineno} takes ctx"
        assert "DeformationContext" not in set(_identifiers(tree)), path.name


def test_spectrum_imports_only_errors():
    # the Weyl dimensions need no algebra; the check that ties them to the
    # sphere lives in cli, and the rank and pattern oracles in the tests
    tree = ast.parse((SRC / "spectrum.py").read_text())
    targets = {t for node in _imports(tree) for t in _package_targets(node)}
    assert targets == {"errors"}
