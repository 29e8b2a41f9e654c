"""Every name a ``repro`` module imports is used or re-exported, and
the entry points load no third-party package.

No linter runs on this repository, so this AST scan is the guard: an
import that nothing reads costs an import-time lookup and misleads a
reader about the module's dependencies. Package ``__init__`` modules
are skipped (their imports are the package's public surface); any other
module may keep an import it does not read only by listing the name in
its ``__all__``.

``repro`` has no runtime dependency, so importing its entry points in a
fresh interpreter must load nothing from an installed package
directory but ``repro`` itself.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(
    path for path in SOURCE_ROOT.rglob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _used_names(tree):
    """Names the module reads, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted forward reference such as "Database".
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                inner.id for inner in ast.walk(expression)
                if isinstance(inner, ast.Name)
            )
    return used


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SOURCE_ROOT)) for p in MODULES]
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported_names(tree)
    unused = [
        f"line {line}: {name}"
        for name, line in _imported_names(tree)
        if name not in used
    ]
    assert not unused, f"{path.relative_to(SOURCE_ROOT)}: unused imports {unused}"


ENTRY_POINTS = ("repro.cli", "repro.serve", "repro.reorder", "repro.experiments")

#: Prints the file of every module the named imports load, leaving out
#: what the interpreter loaded at start-up.
_LOADED_FILES = """
import json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps({
    name: getattr(module, "__file__", None)
    for name, module in list(sys.modules.items()) if name not in before
}))
"""


def test_entry_points_load_no_installed_package():
    env = dict(os.environ, PYTHONPATH=str(SOURCE_ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_FILES, *ENTRY_POINTS],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(result.stdout)
    assert "repro.cli" in loaded
    installed = sorted(
        name for name, path in loaded.items()
        if path and name.split(".")[0] != "repro"
        and {"site-packages", "dist-packages"} & set(Path(path).parts)
    )
    assert not installed, f"third-party modules loaded: {installed}"
