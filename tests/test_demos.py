"""The quick demos run end to end and exit 0.

Each demo is copied into a temporary directory and run there as a
subprocess, so files a demo writes next to itself (demo 03's SVG) land in
the temporary directory, not in demos/output/. Demos 05 (robot equations,
about 8-11 s) and 06 (feedback design, about 4.5 s) are left out to keep the
suite fast; run them by hand with `PYTHONPATH=src python demos/05_*.py`.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-4]_*.py"))


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
