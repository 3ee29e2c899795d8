"""The package's runtime dependencies (numpy and the standard library only)
and its public surface (no name that nothing needs)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import collide

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


# The files a public name may be needed by: the README, the CLI, the code
# behind `validate` and the acceptance gate.  The exempt names are return
# types of listed functions.
_SURFACE_USERS = ("README.md", "src/collide/cli.py", "src/collide/validation.py",
                  "tests/test_acceptance.py")
_RETURN_TYPES = {"Accumulator", "EstimateReport", "ComSplit"}


def test_every_public_name_is_needed():
    text = "\n".join((ROOT / path).read_text() for path in _SURFACE_USERS)
    unused = [name for name in collide.__all__ if name not in _RETURN_TYPES
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"public names nothing needs: {unused}"
