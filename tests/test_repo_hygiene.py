"""Repository hygiene: git tracks no file that .gitignore excludes (generated
or stale), and every name a module imports is used in it."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
        capture_output=True, text=True,
    )
    if inside.returncode != 0 or Path(inside.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this project")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    assert listed.stdout == "", "tracked but ignored:\n" + listed.stdout


def _unused_imports(path):
    """Names a module imports but never reads (from __future__ excepted)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    modules = sorted((ROOT / "src" / "cycdaha").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    unused = [u for path in modules for u in _unused_imports(path)]
    assert not unused, "imported but unused:\n" + "\n".join(unused)
