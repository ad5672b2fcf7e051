"""The runtime dependencies ``pyproject.toml`` declares cover every
third-party module the package under ``src/`` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def imported_top_level_modules():
    """Top-level names of every absolute import under ``src/``."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_every_third_party_import_is_a_runtime_dependency():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    # A requirement's name ends where its version or marker begins.
    declared = {
        re.split(r"[\s<>=!~\[;]", dep, maxsplit=1)[0]
        for dep in project["dependencies"]
    }
    third_party = {
        name
        for name in imported_top_level_modules()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert third_party, "the scan found no third-party import at all"
    assert third_party <= declared, sorted(third_party - declared)
