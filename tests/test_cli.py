"""Command-line surface: JSON envelopes, CSV outputs, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import collide.analytic
import collide.cli
import collide.montecarlo
from collide.analytic import location_coefficient
from collide.cli import main

ROOT = Path(__file__).resolve().parents[1]
ENVELOPE_KEYS = {"command", "params", "results", "seed", "elapsed", "version"}


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    if out.strip().startswith("{"):
        return code, json.loads(out, parse_constant=_refuse_constant)
    return code, out


class TestProb:
    def test_exact(self, capsys):
        code, rep = run_cli(capsys, "prob", "--d", "2", "--r", "0.5")
        assert code == 0
        assert set(rep) == ENVELOPE_KEYS
        assert rep["command"] == "prob"
        assert rep["results"]["p"] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert rep["params"] == {"d": 2, "r": 0.5, "method": "exact"}

    def test_closed_d2(self, capsys):
        code, rep = run_cli(capsys, "prob", "--d", "2", "--r", "0.5",
                            "--method", "closed")
        assert code == 0
        assert rep["results"]["p"] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_d1_default_method(self, capsys):
        code, rep = run_cli(capsys, "prob", "--d", "1", "--r", "0.2")
        assert code == 0
        assert rep["results"]["p"] == 0.5

    def test_exact_d3(self, capsys):
        code, rep = run_cli(capsys, "prob", "--d", "3", "--r", "0.6",
                            "--method", "exact")
        assert code == 0
        assert rep["results"]["p"] == pytest.approx(0.1, rel=1e-13)

    def test_asymptotic_carries_coefficient(self, capsys):
        code, rep = run_cli(capsys, "prob", "--d", "2", "--r", "0.001",
                            "--method", "asymptotic")
        assert code == 0
        assert rep["results"]["coefficient"] == pytest.approx(1.0 / math.pi, rel=1e-13)
        assert rep["results"]["p"] == pytest.approx(0.001 / math.pi, rel=1e-12)

    def test_bad_radius_exits_2(self, capsys):
        assert main(["prob", "--d", "2", "--r", "1.5"]) == 2

    @pytest.mark.parametrize("method", ["exact", "closed", "asymptotic"])
    @pytest.mark.parametrize("r", ["5", "-1", "0", "nan", "inf"])
    def test_radius_outside_unit_interval_exits_2(self, capsys, method, r):
        assert main(["prob", "--d", "2", f"--r={r}", "--method", method]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: radius")

    def test_closed_high_dimension_exits_2(self, capsys):
        assert main(["prob", "--d", "4", "--r", "0.5", "--method", "closed"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_exits_2(self, capsys):
        assert main(["prob", "--d", "2"]) == 2


class TestSimulate:
    def test_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code, rep = run_cli(capsys, "simulate", "--d", "2", "--r", "0.5",
                            "--n", "20000", "--seed", "3", "--out", str(out))
        assert code == 0
        res = rep["results"]
        assert res["trials"] == 20000
        assert res["successes"] == pytest.approx(res["estimate"] * 20000)
        assert res["ci"][0] <= res["estimate"] <= res["ci"][1]
        assert rep["seed"] == 3
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,collided,t,c_1,c_2"
        assert len(lines) == 20001

    def test_conditional_sampler(self, capsys):
        code, rep = run_cli(capsys, "simulate", "--d", "3", "--r", "0.3",
                            "--n", "5000", "--sampler", "conditional",
                            "--seed", "1")
        assert code == 0
        assert rep["results"]["estimate"] == 1.0
        assert rep["results"]["sampler"] == "conditional"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _ = run_cli(capsys, "simulate", "--d", "2", "--r", "0.4",
                              "--n", "30000", "--seed", "11", "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_workers_do_not_change_output(self, tmp_path, capsys):
        outs = []
        for w in ("1", "8"):
            path = tmp_path / f"w{w}.csv"
            code, _ = run_cli(capsys, "simulate", "--d", "2", "--r", "0.4",
                              "--n", "30000", "--seed", "11",
                              "--workers", w, "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_eight_workers_write_the_one_worker_dump(self, tmp_path, capsys, monkeypatch):
        # 65536 trials are 8 blocks, so --workers 8 starts 8 threads
        resolved = []
        resolve = collide.montecarlo._resolve_workers
        monkeypatch.setattr(collide.montecarlo, "_resolve_workers",
                            lambda requested, blocks:
                            resolved.append(resolve(requested, blocks)) or resolved[-1])
        outs = []
        for w in ("1", "8"):
            path = tmp_path / f"w{w}.csv"
            code, _ = run_cli(capsys, "simulate", "--d", "2", "--r", "0.5",
                              "--n", "65536", "--seed", "11",
                              "--workers", w, "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert resolved == [1, 8]
        assert outs[0] == outs[1]

    def test_json_reruns_identical_numbers(self, capsys):
        reports = []
        for _ in range(2):
            code, rep = run_cli(capsys, "simulate", "--d", "2", "--r", "0.5",
                                "--n", "10000", "--seed", "5")
            assert code == 0
            rep.pop("elapsed")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_unwritable_out_exits_3(self, capsys):
        assert main(["simulate", "--d", "2", "--r", "0.5", "--n", "1000",
                     "--out", "/nonexistent-dir/x.csv"]) == 3

    @pytest.mark.parametrize("sampler", ["naive", "conditional"])
    def test_refused_allocation_exits_2(self, capsys, sampler):
        # one block's draws at d = 10^15 take 142 PiB, past the 128 TiB a
        # process can address
        assert main(["simulate", "--sampler", sampler, "--d", str(10**15), "--r", "0.5",
                     "--n", "10", "--workers", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("sampler", ["naive", "conditional"])
    def test_huge_dimension_with_out_fails_at_once(self, capsys, tmp_path, sampler):
        # one block's draws at d = 10^15 take 142 PiB, which numpy refuses
        # without allocating; the refusal comes before --out is opened and
        # before its header would list 10^15 column names
        out = tmp_path / "x.csv"
        assert main(["simulate", "--sampler", sampler, "--d", str(10**15), "--r", "0.5",
                     "--n", "10", "--workers", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --d 1000000000000000 "), err
        assert not out.exists()

    def test_bare_memory_error_is_named(self, capsys, monkeypatch):
        # a MemoryError raised by Python itself carries no message
        def refuse(config, dump=None):
            raise MemoryError

        monkeypatch.setattr(collide.cli, "run", refuse)
        assert main(["simulate", "--d", "2", "--r", "0.5", "--n", "100"]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_bad_n_exits_2(self, capsys):
        assert main(["simulate", "--d", "2", "--r", "0.5", "--n", "0"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["simulate", "--d", "2", "--r", "0.5", "--n", "100", "--seed", "-1"]) == 2

    @pytest.mark.parametrize("sampler", ["naive", "conditional"])
    def test_negative_cap_exits_2(self, capsys, sampler):
        assert main(["simulate", "--sampler", sampler, "--d", "2", "--r", "0.5",
                     "--n", "100", "--cap", "-1"]) == 2
        assert capsys.readouterr().err == "error: --cap must be >= 0, got -1\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_retained_samples_are_first_hits_of_dump(self, capsys, monkeypatch, workers):
        # the engine keeps no samples for the CLI; the reported number is what
        # a library run with sample_cap=--cap keeps, its first hits in trial
        # order (tests/test_montecarlo.py holds those to the dump's first hits)
        configs = []

        def recording_run(config, dump=None):
            configs.append(config)
            return collide.montecarlo.run(config, dump)

        monkeypatch.setattr(collide.cli, "run", recording_run)
        for cap in (0, 500, 10**6):
            code, rep = run_cli(capsys, "simulate", "--d", "2", "--r", "0.4", "--n", "30000",
                                "--seed", "11", "--workers", workers, "--cap", str(cap))
            assert code == 0
            config = configs[-1]
            assert config.sample_cap == 0
            successes = rep["results"]["successes"]
            assert 500 < successes < 10**6
            library = collide.montecarlo.run(dataclasses.replace(config, sample_cap=cap))
            assert rep["results"]["retained_samples"] == min(cap, successes) \
                == library.sample_trial.size
        assert len(configs) == 3

    def test_peak_memory_independent_of_cap(self):
        # the report prints only counts, so a default-cap run holds no more
        # than a --cap 0 one: at 2e5 conditional d = 6 trials, a store for
        # every hit would add 12.8 MB to a traced peak of a few MB
        argv = ["simulate", "--sampler", "conditional", "--d", "6", "--r", "0.1",
                "--n", "200000", "--workers", "1"]

        def traced_peak(extra):
            tracemalloc.start()
            try:
                assert main(argv + extra) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        no_cap = traced_peak(["--cap", "0"])
        default_cap = traced_peak([])
        assert default_cap <= 1.2 * no_cap, (default_cap, no_cap)


# SHA-256 of `simulate --r 0.3 --n 20000 --seed 7 --out F` by (sampler, d);
# any worker count must reproduce them byte for byte
GOLDEN_SIMULATE_CSV = {
    ("conditional", 1): "fb763e84d0f6a9fdff0a9ffb27ae3954430b1964537eec4640389759bd858b5e",
    ("conditional", 2): "cdc90cc606706aa69fbcba498da5609ee36714a2b586f4d125f2feb9316fc9b5",
    ("conditional", 3): "4ccbeeb1970b27d6277286949ef733d3a0d7359980bd2ada0568ee9ca90181b8",
    ("conditional", 6): "de865a1922f9ed93d6738aedfced8a01ea796eaec2f5beb288fd785704bf7d32",
    ("naive", 1): "b6373476cec699b3152ed27917fb3c05f199a3bf00420584fd4589322b7acde6",
    ("naive", 2): "5e8e6f3a639b5e72f7218dc07be30d3f52cfc53dbe3ab19bfc4c2576b6f4b9bd",
    ("naive", 3): "875c370c1097fc20c755531aa8f64b3fe7ad355935601fe97319aac693f8d4de",
    ("naive", 6): "6df44a8004564d8fac94a45233449140bf178e2f2e5c6b4b2bf458ace5e69c84",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("sampler, d", sorted(GOLDEN_SIMULATE_CSV))
    def test_simulate_csv_digest(self, tmp_path, capsys, sampler, d, workers):
        out = tmp_path / "samples.csv"
        assert main(["simulate", "--sampler", sampler, "--d", str(d), "--r", "0.3",
                     "--n", "20000", "--seed", "7", "--workers", workers,
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_SIMULATE_CSV[sampler, d]

class TestValidate:
    def test_analytic_passes(self, capsys):
        code, rep = run_cli(capsys, "validate", "--suite", "analytic")
        assert code == 0
        assert rep["results"]["all_pass"] is True
        assert all(c["pass"] for c in rep["results"]["checks"])

    def test_rotation_seed_7(self, capsys):
        code, rep = run_cli(capsys, "validate", "--suite", "rotation",
                            "--alpha", "0.01", "--seed", "7")
        assert code == 0
        assert rep["results"]["all_pass"] is True

    def test_largest_seed_runs(self, capsys):
        # the suites' derived seeds wrap past 2**64 - 1 instead of failing
        for suite, checks in (("analytic", None), ("location", 3)):
            code, rep = run_cli(capsys, "validate", "--suite", suite, "--seed", str(2**64 - 1))
            assert code in (0, 1)
            assert rep["seed"] == 2**64 - 1
            if checks is not None:
                assert len(rep["results"]["checks"]) == checks

    def test_negative_seed_exits_2(self, capsys):
        assert main(["validate", "--suite", "analytic", "--seed", "-1"]) == 2

    def test_failure_exits_1(self, capsys, monkeypatch):
        real = collide.analytic.location_coefficient
        monkeypatch.setattr(collide.analytic, "location_coefficient",
                            lambda d: real(d) * 1.001)
        code, rep = run_cli(capsys, "validate", "--suite", "analytic")
        assert code == 1
        assert rep["results"]["all_pass"] is False

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["validate", "--suite", "nonesuch"]) == 2

    @pytest.mark.parametrize("alpha", ["nan", "0", "1", "1.5", "-0.1"])
    def test_alpha_outside_unit_interval_exits_2(self, capsys, alpha):
        # an argument error, not a validation failure, and no check runs
        assert main(["validate", "--suite", "analytic", f"--alpha={alpha}"]) == 2
        assert capsys.readouterr().err == f"error: alpha must lie in (0, 1), got {float(alpha)}\n"


class TestParserCache:
    # main builds its parser once per process; a later call must report
    # what the same argv reports as the first call of a fresh process
    SEQUENCE = (
        ["validate", "--suite", "analytic"],
        ["validate", "--suite", "nonesuch"],
        ["simulate", "--d", "2", "--r", "0.5", "--n", "20000", "--seed", "7"],
        ["validate", "--suite", "analytic", "--seed", "5", "--alpha", "0.05"],
    )

    @staticmethod
    def _without_elapsed(out):
        if not out.strip():
            return None
        report = json.loads(out)
        del report["elapsed"]
        return report

    def test_later_calls_match_first_calls(self, capsys):
        main(["table"])  # the parser exists before the sequence starts
        capsys.readouterr()
        env = dict(os.environ, PYTHONPATH="src")
        codes = []
        for argv in self.SEQUENCE:
            code = main(argv)
            got = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "collide.cli", *argv], cwd=ROOT,
                                   env=env, capture_output=True, text=True)
            assert code == fresh.returncode, argv
            assert self._without_elapsed(got.out) == self._without_elapsed(fresh.stdout), argv
            assert got.err == fresh.stderr, argv
            codes.append(code)
        assert codes == [0, 2, 0, 0]
        assert collide.cli._build_parser() is collide.cli._build_parser()


class TestDensity:
    def read(self, path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return ([float(r["x_norm"]) for r in rows],
                [float(r["density"]) for r in rows])

    def test_conditional_values(self, tmp_path, capsys):
        out = tmp_path / "cond.csv"
        code, rep = run_cli(capsys, "density", "--d", "2", "--mode", "conditional",
                            "--rmax", "50", "--points", "2001", "--out", str(out))
        assert code == 0
        xs, ys = self.read(out)
        assert len(xs) == 2001
        assert xs[0] == 0.0 and xs[-1] == 50.0
        assert ys[0] == pytest.approx(1.0 / math.pi, rel=1e-12)
        # radial trapezoid of density x sphere circumference integrates to ~1
        area = 2.0 * math.pi
        mass = sum((xs[i + 1] - xs[i]) * (ys[i] * xs[i] + ys[i + 1] * xs[i + 1]) / 2.0
                   for i in range(len(xs) - 1)) * area
        assert mass == pytest.approx(1.0, abs=2e-3)

    def test_limit_values(self, tmp_path, capsys):
        out = tmp_path / "lim.csv"
        code, _ = run_cli(capsys, "density", "--d", "2", "--mode", "limit",
                          "--out", str(out))
        assert code == 0
        xs, ys = self.read(out)
        assert ys[0] == pytest.approx(1.0 / math.pi ** 2, rel=1e-12)
        # limit density is the conditional one scaled by the defective mass,
        # so its decay profile matches at every grid point
        assert ys[10] / ys[0] == pytest.approx((1 + xs[0] ** 2) ** 2 / (1 + xs[10] ** 2) ** 2,
                                               rel=1e-10)

    def test_missing_out_exits_2(self, capsys):
        assert main(["density", "--d", "2"]) == 2

    def test_bad_grid_exits_2(self, capsys, tmp_path):
        assert main(["density", "--d", "2", "--points", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: --points must be >= 2, got 1\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rmax", ["0", "-1", "nan", "inf"])
    def test_bad_rmax_exits_2(self, capsys, tmp_path, rmax):
        assert main(["density", "--d", "2", "--rmax", rmax,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "--rmax" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["limit", "conditional"])
    def test_overflowing_dimension_exits_2(self, capsys, tmp_path, mode):
        # the density's constants at d = 400 exceed a double
        out = tmp_path / "x.csv"
        assert main(["density", "--d", "400", "--mode", mode, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, names", [
        # the grid's (1 + rmax^2)^d overflows in the limit density's kernel
        (["--d", "218", "--mode", "limit"], ("--d", "--rmax")),
        (["--d", "100", "--mode", "limit", "--rmax", "1e3"], ("--d", "--rmax")),
        # the normalizing constant overflows whatever the grid
        (["--d", "269"], ("--d",)),
        (["--d", "400"], ("--d",)),
    ])
    def test_overflow_message_names_the_parameter(self, capsys, tmp_path, argv, names):
        out = tmp_path / "x.csv"
        assert main(["density", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(name in err for name in names), err
        assert not out.exists()

    def test_refused_grid_allocation_exits_2(self, capsys, tmp_path):
        # a 7.11 PiB grid: past the 128 TiB a process can address, so no
        # overcommit setting grants it
        out = tmp_path / "x.csv"
        assert main(["density", "--d", "2", "--points", str(10**15), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()


class TestTable:
    def test_rows(self, capsys):
        code, rep = run_cli(capsys, "table")
        assert code == 0
        rows = rep["results"]["rows"]
        assert [r["d"] for r in rows] == list(range(2, 12))
        want = ["1/pi^2", "1/pi^2", "4/pi^3", "6/pi^3", "32/pi^4",
                "60/pi^4", "384/pi^5", "840/pi^5", "6144/pi^6", "15120/pi^6"]
        assert [r["exact"] for r in rows] == want
        for r in rows:
            assert r["coefficient"] == pytest.approx(location_coefficient(r["d"]),
                                                     rel=1e-15)
