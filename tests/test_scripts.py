"""Smoke tests: each script in scripts/ runs at a tiny size and exits 0.

The scripts import private names of the library (``roof._ensemble_size``,
``roof.rank_of``), so a rename there shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = [
    ["roof_vs_closed_form.py", "--states", "2"],
    ["sweep_orders.py", "--grid", "1.5:2:0.5", "--restarts", "2"],
    ["audit_random_protocol.py"],
]


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
