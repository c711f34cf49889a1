"""Each script under scripts/ runs to completion at tiny sizes, so a script
that drifts from the package API fails the fast subset."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", (
    ("run_determinant_table.py", []),
    ("run_kramers_triangle.py", ["--n", "50"]),
    ("run_allen_cahn_1d_hitting.py", ["--n", "8", "--eps", "0.6"]),
    ("run_arrhenius_sde.py", ["--n", "50", "--eps", "0.3,0.35,0.4"]),
))
def test_script_exits_0(script, args):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
