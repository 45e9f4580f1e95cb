"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinlcs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os, sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imports_from(source: str, module: str) -> set[str]:
    """Names that a package module imports from its sibling ``module``."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for a in node.names}


def test_budget_comes_from_errors():
    # the cell budget and its check live beside BudgetError; bounds needs
    # nothing else from lcs, and no module reaches into lcs for a private name
    bounds = (PACKAGE / "bounds.py").read_text(encoding="utf-8")
    assert imports_from(bounds, "lcs") == set()
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        assert "_check_budget" not in source, path.name
        private = {name for name in imports_from(source, "lcs")
                   if name.startswith("_")}
        assert private == set(), path.name


def test_layering():
    # sampling and tail estimation sit below the permutation layer, and
    # only the suites and the CLI reach bounds and constructions (the
    # package __init__, which re-exports every layer, is not in MODULES)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}

    def siblings(name: str) -> set[str]:
        return {m for m in sources if imports_from(sources[name], m)}

    assert siblings("experiments") <= {"errors", "twins", "words"}
    assert siblings("perm") <= {"errors", "experiments", "words"}
    reach = {name for name in sources
             if siblings(name) & {"bounds", "constructions"}}
    assert reach == {"cli", "verify"}
