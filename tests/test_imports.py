"""Which commands load SciPy's ODE stack.

Only step studies integrate with ``scipy.integrate``; ``piac.sim`` imports
it on the first integration, so every other command starts without it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import sys

import piac
from piac.cli import main

assert "scipy.integrate" not in sys.modules
case = piac.bundled_case_path("homogeneous10")
law = ["--case", case, "--law", "dpiac"]
for argv in (["validate", "--case", case],
             ["analyze", *law],
             ["sweep", *law, "--param", "k3", "--grid", "1,4"],
             ["simulate", *law, "--kind", "noise", "--seed", "1", "--sigma",
              "1:0.01", "--t-end", "0.5", "--burn-in", "0.2", "--paths", "2"]):
    assert main(argv) == 0, argv
    assert "scipy.integrate" not in sys.modules, argv
assert main(["simulate", *law, "--kind", "step", "--t-end", "1",
             "--onset", "0.5", "--t0", "1"]) == 0
assert "scipy.integrate" in sys.modules
"""


def test_only_step_studies_load_the_ode_stack(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
