"""The quick demos run end to end and exit 0; the slow ones are checked
against the package's API without running them.

Each quick demo is copied into a temporary directory and run there as a
subprocess, so files a demo writes next to itself (demo 03's SVG) land in
the temporary directory, not in demos/output/. Demos 05 (robot equations,
about 8-11 s) and 06 (feedback design, about 4.5 s) are too slow for the
suite; they are compiled instead, and every ``calckit`` module attribute
they use must exist and accept the keywords they pass. Run them by hand
with `PYTHONPATH=src python demos/05_*.py`.
"""

import ast
import importlib
import inspect
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-4]_*.py"))
SLOW_DEMOS = sorted(p for p in (ROOT / "demos").glob("0[5-6]_*.py"))


def test_quick_demo_set_is_01_to_04():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=[p.stem for p in QUICK_DEMOS])
def test_demo_exits_0(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(ROOT / "src")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _calckit_modules(tree):
    """Local name -> module for every `from calckit import m`; the names of
    `from calckit.m import x` are checked here."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "calckit":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"calckit.{alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("calckit."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
    return modules


@pytest.mark.parametrize("demo", SLOW_DEMOS, ids=[p.stem for p in SLOW_DEMOS])
def test_slow_demo_uses_only_existing_api(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    compile(tree, str(demo), "exec")
    modules = _calckit_modules(tree)
    assert modules, "demo imports no calckit module"
    attributes = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert attributes
    for node in attributes:
        assert hasattr(modules[node.value.id], node.attr), \
            f"{demo.name}: {node.value.id}.{node.attr} does not exist"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.func in attributes:
            fn = getattr(modules[node.func.value.id], node.func.attr)
            params = inspect.signature(fn).parameters
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, \
                    f"{demo.name}: {node.func.attr}() takes no keyword {kw.arg!r}"
