"""numpy is the only runtime dependency: no module or test imports scipy, mpmath or sympy.

These packages may be installed where the tests run, so such an import passes
locally and fails only in CI, which installs numpy, pytest and hypothesis.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNDECLARED = frozenset({"scipy", "mpmath", "sympy"})


def undeclared_imports(source: str) -> list[str]:
    """Top-level package names from `UNDECLARED` that ``source`` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name.split(".")[0] for name in names if name.split(".")[0] in UNDECLARED]
    return found


def test_detector_flags_every_import_form():
    source = "import numpy, scipy.stats\nfrom mpmath import mp\ndef f():\n    import sympy as sp\n"
    assert undeclared_imports(source) == ["scipy", "mpmath", "sympy"]
    assert undeclared_imports("from . import sympy\nimport numpy\nfrom numpy import linalg\n") == []


def test_sources_and_tests_import_no_undeclared_package():
    paths = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "hybrid.py" for p in paths)
    offenders = {
        str(p.relative_to(ROOT)): names
        for p in paths
        if (names := undeclared_imports(p.read_text(encoding="utf-8")))
    }
    assert offenders == {}
