"""The package's runtime dependencies: numpy and the standard library only."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints the top-level modules that importing collide adds to those the
# interpreter loaded at start-up (site hooks may load a few of their own).
_PROBE = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import collide
after = {name.partition(".")[0] for name in sys.modules}
print("\\n".join(sorted(after - before)))
"""


def test_import_loads_numpy_and_stdlib_only():
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert {"collide", "numpy"} <= loaded
    foreign = loaded - {"collide", "numpy"} - set(sys.stdlib_module_names)
    assert not foreign, f"importing collide loads non-stdlib modules: {sorted(foreign)}"
