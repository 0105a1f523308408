"""Package layering: which ``pqnetsim`` modules each module imports.

Read from the source with ``ast``, so a dependency shows here whether or not
the code path that uses it runs in a test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pqnetsim"

# Each module and the package modules it may import; ``errors`` and ``model``
# are the base every layer stands on.  ``engine`` applies an adversary's delay
# itself and reads nothing of ``adversary``; nothing but ``__init__`` reads ``cli``.
LAYERS = {
    "__init__": {"adversary", "engine", "errors", "fidelity", "kms", "model", "timing"},
    "errors": set(),
    "model": {"errors"},
    "fidelity": {"errors", "model"},
    "timing": {"errors", "model"},
    "kms": {"errors", "model"},
    "adversary": {"errors", "fidelity", "model"},
    "engine": {"errors", "fidelity", "model", "timing"},
    "cli": {"adversary", "engine", "errors", "kms", "model", "timing"},
}


def package_imports(source: str) -> set[str]:
    """The ``pqnetsim`` modules that ``source`` imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pqnetsim":
            found.update([node.module.split(".")[1]] if "." in node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("pqnetsim."))
    return found


def test_every_module_imports_only_its_layers():
    modules = {path.stem: package_imports(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert modules == LAYERS

