"""What `import perimap` loads.

The package's periodic cubic spline is its own (`invariant_graph._moments`),
so importing it must not load `scipy.interpolate`: that module alone costs
about 0.3 s of import time and 23 MB of resident memory.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_scipy_interpolate():
    code = ("import sys, perimap; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.interpolate')))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]", (
        f"import perimap loaded {out.stdout.strip()}")
