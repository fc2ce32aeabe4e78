"""Packaging: numpy is the only third-party package the simulator imports."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_import_loads_no_scipy():
    # -I drops PYTHONPATH and the user site, so the child sees src/ only
    # through the path handed to it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ofdmlink; "
        "print(ofdmlink.__file__); "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    path, loaded = out.stdout.splitlines()
    assert Path(path).is_relative_to(SRC)
    assert loaded == "[]"


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is in the standard library from 3.11")
def test_every_import_is_stdlib_or_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower()
                for dep in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | {"ofdmlink"} | declared
    undeclared = []
    for path in sorted((SRC / "ofdmlink").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} {name}"
                           for name in names
                           if name.split(".")[0] not in allowed]
    assert declared == {"numpy"}
    assert undeclared == []
