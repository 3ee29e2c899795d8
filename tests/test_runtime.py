"""The package's runtime dependencies (numpy and the standard library only),
two measured costs it keeps out of the CLI, the memory and the cdf reads of
its KS test, its public surface (no name that nothing needs, and every
name the benchmark's tracer wraps) and its settings (arguments only, no
environment)."""

import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import collide
from collide.specfun import f_cdf
from collide.stats import ks_test
from collide.validation import suite_analytic

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


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial costs about 4 ms to import, which a one-shot CLI call
    # would pay; the package's quadrature rule is built without it.  Import
    # builds neither the parser nor the rule, which are cached on first use,
    # and the cached rule's arrays are shared, so they are read-only
    probe = ("import sys; from collide import cli, specfun; "
             "print('numpy.polynomial' in sys.modules, "
             "cli._build_parser.cache_info().currsize, "
             "specfun._gauss_legendre.cache_info().currsize, "
             "*(a.flags.writeable for a in specfun._gauss_legendre(20)))")
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "0", "0", "False", "False"]


def test_analytic_suite_calls_no_eigensolver(monkeypatch):
    # an eigensolver call wakes the BLAS worker threads, which slows the
    # suites that run after it
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert all(c["pass"] for c in suite_analytic())


def test_ks_test_memory_follows_its_data():
    # the radial F-law check of `validate --suite location` at its n: the
    # traced peak stays at a few n-length arrays (0.8 MB of samples read 6.9
    # MB when D+ and D- and the F argument were each full-length temporaries)
    g = np.random.default_rng(3)
    sq = g.f(3, 3, 10**5)
    tracemalloc.start()
    try:
        ks_test(sq, lambda x: f_cdf(x, 3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0e6, peak


def test_ks_test_reads_the_cdf_at_few_points():
    # the radial F-law check of `validate --suite location` at its n: the
    # cdf is read at the nodes and in the gaps the monotone bound keeps, a
    # few percent of the order statistics for a law that fits, where
    # reading every one would spend the test's time in reg_inc_beta
    sq = np.random.default_rng(3).f(3, 3, 10**5)
    read = []

    def counted(x):
        read.append(x.size)
        return f_cdf(x, 3, 3)

    ks_test(sq, counted)
    assert sum(read) <= 0.15 * sq.size, read


# The files a public name may be needed by: the README, the CLI, the code
# behind `validate` and the acceptance gate.  The exempt names are return
# types of listed functions.
_SURFACE_USERS = ("README.md", "src/collide/cli.py", "src/collide/validation.py",
                  "tests/test_acceptance.py")
_RETURN_TYPES = {"Accumulator", "ComSplit"}


def test_every_public_name_is_needed():
    text = "\n".join((ROOT / path).read_text() for path in _SURFACE_USERS)
    unused = [name for name in collide.__all__ if name not in _RETURN_TYPES
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"public names nothing needs: {unused}"


def test_tracer_finds_and_restores_every_name(monkeypatch):
    # perfbench/tracer.py wraps collide's functions by name, so renaming,
    # privatising or deleting one of them is a benchmark change: it fails here
    # rather than when the benchmark runs.  Restoring puts back every original.
    from collide import analytic, cli, geometry, montecarlo, rng, specfun, stats, validation  # noqa: F401

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # the tracer imports workloads
    had_workloads = "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench/tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)

    def attributes():
        return {(name, attr): value for name, module in list(sys.modules.items())
                if name == "collide" or name.startswith("collide.")
                for attr, value in vars(module).items()}

    try:
        spec.loader.exec_module(tracer_module)
        before = attributes()
        methods = {cls: cls.__dict__["contact_scales"] for cls in (geometry.Ball, geometry.Ellipsoid)}
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            assert tracer.missing == []
            assert montecarlo.run_conditional is not before[("collide.montecarlo", "run_conditional")]
        finally:
            tracer.restore()
        after = attributes()
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert all(cls.__dict__["contact_scales"] is fn for cls, fn in methods.items())


def test_no_module_reads_the_environment():
    # every setting is an argument, so a run is described by its command line
    readers = [path.name for path in sorted((ROOT / "src/collide").glob("*.py"))
               if re.search(r"\b(environb?|getenvb?)\b", path.read_text())]
    assert not readers, f"modules that read the environment: {readers}"
