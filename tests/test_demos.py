"""Every script in demos/ runs to completion against the current package."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if name == "tcp_federation.py":
        assert "bitwise: True" in proc.stdout, proc.stdout
