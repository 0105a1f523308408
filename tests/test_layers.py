"""Package layering: which ``pqnetsim`` modules each module imports, and which a process loads.

The layers are read from the source with ``ast``, so a dependency shows here
whether or not the code path that uses it runs in a test.  What a process
loads is what its ``sys.modules`` holds at exit, printed by an ``atexit`` hook
(an import that failed leaves nothing there); ``python -S`` leaves out
``site``, whose ``.pth`` files load modules on some installations, so the sets
pinned here hold on every one.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqnetsim

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pqnetsim"

# Each module and the package modules it may import; ``errors`` and ``model``
# are the base every layer stands on.  ``engine`` applies an adversary's delay
# itself and reads nothing of ``adversary``; no module reads ``cli``.  ``__init__``
# imports no module up front: it loads each on first access (pinned below).
LAYERS = {
    "__init__": set(),
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


# ---------------------------------------------------------------------------
# What a process loads: each command imports only the modules it runs
# ---------------------------------------------------------------------------

ROOT = PACKAGE.parent.parent
SCENARIOS = ROOT / "scenarios"
# The package modules every command loads: the CLI's own imports (``adversary`` holds ``cli.detect``).
BASE = {"pqnetsim", "pqnetsim.errors", "pqnetsim.model", "pqnetsim.timing", "pqnetsim.fidelity", "pqnetsim.adversary"}
# The standard-library modules that some commands load and others do not; no command loads ``hashlib`` or its
# OpenSSL binding ``_hashlib`` (the seed split hashes with the built-in SHA-256).
WATCHED = {"_hashlib", "csv", "hashlib", "random", "statistics", "tempfile"}
WRITES = {"csv", "random", "tempfile"}  # a written artifact: CSV, staged in a temporary directory
CHAIN = str(SCENARIOS / "repeater_chain.json")

# The CLI as `python -m pqnetsim.cli` runs it, with the arguments after `-c CODE`.
CLI = "import runpy; runpy.run_module('pqnetsim.cli', run_name='__main__', alter_sys=True)"

COMMANDS = {
    "check": (["check", CHAIN], BASE, set()),
    "profiles": (["profiles"], BASE, set()),
    "simulate": (["simulate", CHAIN, "--trials", "3"], BASE | {"pqnetsim.engine"}, WRITES),
    "sweep": (["sweep", CHAIN, "--param", "slot_duration", "--values", "0.001", "--trials", "2"],
              BASE | {"pqnetsim.engine"}, WRITES),
    "adversary": (["adversary", str(SCENARIOS / "intercepted_chain.json"), "--baseline-trials", "20",
                   "--observed-trials", "20"], BASE | {"pqnetsim.engine"}, WRITES | {"statistics"}),
    "kms": (["kms", "--nodes", "10"], BASE | {"pqnetsim.kms"}, WRITES),
}


# Run first in the process: at exit, write the names in sys.modules to stderr on one line after a marker.
AT_EXIT = "import atexit, sys; atexit.register(lambda: sys.stderr.write('\\nmodules: ' + ' '.join(sys.modules) + '\\n'))\n"


def imported(code: str, args: list[str], cwd: Path) -> set[str]:
    """The modules that ``python -S -c CODE ARGS`` holds in ``sys.modules`` at exit; a failed import is not one."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-S", "-c", AT_EXIT + code, *args], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode in (0, 1), result.stderr
    return set(result.stderr.rpartition("\nmodules: ")[2].split())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_imports_only_the_modules_it_runs(command, tmp_path):
    argv, package, stdlib = COMMANDS[command]
    loaded = imported(CLI, ["--out", "out", *argv], tmp_path)
    assert {name for name in loaded if name.split(".")[0] == "pqnetsim"} == package
    assert loaded & WATCHED == stdlib


@pytest.mark.parametrize(
    "statement, package",
    [
        ("import pqnetsim", {"pqnetsim"}),
        ("from pqnetsim import ParameterError", {"pqnetsim", "pqnetsim.errors"}),
        ("from pqnetsim import check_scenario", {"pqnetsim", "pqnetsim.errors", "pqnetsim.model", "pqnetsim.timing"}),
        ("import pqnetsim.kms", {"pqnetsim", "pqnetsim.errors", "pqnetsim.model", "pqnetsim.kms"}),
        ("from pqnetsim import detect", BASE | {"pqnetsim.engine"}),
        ("from pqnetsim import *", BASE | {"pqnetsim.engine", "pqnetsim.kms"}),
    ],
)
def test_a_name_loads_the_modules_up_to_its_own_in_layer_order(statement, package, tmp_path):
    loaded = imported(statement, [], tmp_path)
    assert {name for name in loaded if name.split(".")[0] == "pqnetsim"} == package


def test_an_import_that_failed_is_not_reported(tmp_path):
    # An import-time report lists such a module too: Python 3.11 reports `_sha2` after it fails to load.
    loaded = imported("try:\n    import _no_such_module\nexcept ImportError:\n    import csv\n", [], tmp_path)
    assert "csv" in loaded and "_no_such_module" not in loaded


def test_the_package_exports_only_what_the_modules_list():
    assert "math" not in dir(pqnetsim)
    for name in ("math", "dataclass", "_check_arg", "_fmean", "main"):
        with pytest.raises(AttributeError, match=f"^module 'pqnetsim' has no attribute '{name}'$"):
            getattr(pqnetsim, name)
    namespace = {}
    exec("from pqnetsim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pqnetsim.__all__)
    assert all(namespace[name] is getattr(pqnetsim, name) for name in pqnetsim.__all__)
    assert set(pqnetsim.__all__) <= set(dir(pqnetsim))
