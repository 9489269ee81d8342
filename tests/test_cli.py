"""Command-line interface: outputs, manifests, exit codes, determinism."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import seqrac.cli
from seqrac import SearchExhausted, find_omega, lambda_sequence
from seqrac.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from seqrac.schedule import DEFAULT_DPS
from seqrac.smallangle import POLY_CAP


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestThresholdsCommand:
    def test_arc_scan(self, tmp_path):
        assert main(["thresholds", "--grid", "21", "--out", str(tmp_path)]) == EXIT_OK
        header, rows = read_csv(tmp_path / "thresholds.csv")
        assert header[:2] == ["delta1", "delta2"]
        assert len(rows) == 21
        # arc point delta1=delta2=1/sqrt(2) is the symmetric minimum
        sym = [float(r[2]) for r in rows]
        assert min(sym) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_fixed_delta2(self, tmp_path):
        assert (
            main(["thresholds", "--grid", "5", "--delta2", "0.6", "--out", str(tmp_path)])
            == EXIT_OK
        )
        _, rows = read_csv(tmp_path / "thresholds.csv")
        assert all(float(r[1]) == 0.6 for r in rows)

    def test_manifest_digests_outputs(self, tmp_path):
        main(["thresholds", "--grid", "5", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "thresholds_manifest.json").read_text())
        assert manifest["schema"] == "seqrac/manifest/1"
        assert "thresholds.csv" in manifest["outputs"]
        assert len(manifest["outputs"]["thresholds.csv"]) == 64


class TestRegionCommand:
    def test_grid_classification(self, tmp_path):
        assert main(["region", "--resolution", "11", "--out", str(tmp_path)]) == EXIT_OK
        _, rows = read_csv(tmp_path / "region.csv")
        assert len(rows) == 121
        for r in rows:
            d1, d2 = float(r[0]), float(r[1])
            assert r[2] == ("true" if d1 * d1 + d2 * d2 <= 1.0 else "false")
            assert r[3] == ("true" if d1 + d2 <= 1.0 else "false")

    @pytest.mark.parametrize("res", [2, 3, 101])
    def test_matches_generic_csv_rendering(self, tmp_path, res):
        # region formats its cells inline; _write_csv/_fmt is the reference
        assert main(["region", "--resolution", str(res), "--out", str(tmp_path)]) == EXIT_OK
        rows = [
            (i / (res - 1), j / (res - 1)) for i in range(res) for j in range(res)
        ]
        seqrac.cli._write_csv(
            tmp_path / "reference.csv",
            ["delta1", "delta2", "inside_quantum_disc", "inside_classical_simplex"],
            [(d1, d2, d1 * d1 + d2 * d2 <= 1.0, d1 + d2 <= 1.0) for d1, d2 in rows],
        )
        assert (tmp_path / "region.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()


class TestPinnedBytes:
    """sha256 of fixed scalar outputs; a formatting change must fail here."""

    @pytest.mark.parametrize(
        "argv, name, digest",
        [
            (["region", "--resolution", "11"], "region.csv",
             "3f26464116e41c7dbbe80dd04636985ce67a67fb6dc57f7a4bfcfc4ca17e2f02"),
            (["thresholds", "--grid", "7"], "thresholds.csv",
             "9543f53f4369e9a4ece1a33406cb97140fbd116395d2ebd3d0099d1cf3a40760"),
            (["sequence", "--omega", "0.3", "--r", "0.9", "--lambdas", "0.3,0.5,0.8,1.0"],
             "sequence.csv",
             "7e31ada5a9df5c9c1b7e25d2b17d279f7388a2f564d8ca68ad92565a692261dd"),
        ],
    )
    def test_csv_digest(self, tmp_path, argv, name, digest):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestScheduleCommand:
    def test_feasible_schedule_json(self, tmp_path):
        code = main(
            ["schedule", "--n", "4", "--epsilon", "1e-4", "--omega", "0.03125",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        data = json.loads((tmp_path / "schedule.json").read_text())
        assert data["schema"] == "seqrac/schedule/1"
        assert data["feasible"] and data["monotone_doubling"]
        lams = [rec["lambda"] for rec in data["receivers"]]
        assert lams == sorted(lams) and len(lams) == 4
        assert all(0 < v < 1 for v in lams)

    def test_infeasible_exit_code(self, tmp_path):
        code = main(
            ["schedule", "--n", "4", "--epsilon", "1e-4", "--omega", "0.0315",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_INFEASIBLE
        data = json.loads((tmp_path / "schedule.json").read_text())
        assert not data["feasible"]
        assert data["first_failure"] == 4

    def test_auto_omega(self, tmp_path):
        code = main(
            ["schedule", "--n", "5", "--epsilon", "1e-4", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        data = json.loads((tmp_path / "schedule.json").read_text())
        assert data["feasible"] and data["n"] == 5

    def test_dec_fields_carry_thirty_true_digits(self, tmp_path):
        # n = 19 printed omega_dec 4.18404165604415105...e-78916 when the
        # value was rounded to a double first; the true digits are ...099...
        argv = ["schedule", "--n", "19", "--epsilon", "1e-4", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        data = json.loads((tmp_path / "schedule.json").read_text())
        s = lambda_sequence(find_omega(19, 1.0, 1e-4), 1.0, 1e-4, 19)
        pairs = [(data["omega_dec"], s.omega)]
        for rec, lam, margin in zip(data["receivers"], s.lambdas, s.success_margins):
            pairs += [(rec["lambda_dec"], lam), (rec["success_margin_dec"], margin)]
        with mp.workdps(100):
            for text, value in pairs:
                assert abs(mp.mpf(text) - value) <= mp.mpf("5e-30") * abs(value), text
        assert data["omega_dec"].startswith("4.18404165604415099")

    def test_auto_omega_contract(self, tmp_path):
        rng = random.Random(20261018)
        for n in range(1, 41):
            r, eps = rng.uniform(0.3, 1.0), 10 ** rng.uniform(-6, -2)
            argv = ["schedule", "--n", str(n), "--r", repr(r), "--epsilon", repr(eps),
                    "--omega", "auto", "--out", str(tmp_path)]
            assert main(argv) == EXIT_OK, argv
            data = json.loads((tmp_path / "schedule.json").read_text())
            assert data["feasible"] and len(data["receivers"]) == n, argv
            # the printed angle, read back at twice the precision
            s = lambda_sequence(data["omega_dec"], r, eps, n, dps=2 * DEFAULT_DPS)
            assert s.feasible, argv

    def test_search_exhausted_is_infeasible(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise SearchExhausted("no certified omega")

        monkeypatch.setattr(seqrac.cli, "find_omega", exhausted)
        argv = ["schedule", "--n", "3", "--out", str(tmp_path)]
        assert main(argv) == EXIT_INFEASIBLE
        assert "no certified omega" in capsys.readouterr().err

    def test_json_round_trip_is_canonical(self, tmp_path):
        main(["schedule", "--n", "3", "--omega", "0.001", "--out", str(tmp_path)])
        raw = (tmp_path / "schedule.json").read_bytes()
        reencoded = (
            json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
        )
        assert reencoded == raw


class TestSequenceCommand:
    def test_per_receiver_rows(self, tmp_path):
        code = main(
            ["sequence", "--omega", "0.3", "--lambdas", "0.5,0.8", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        _, rows = read_csv(tmp_path / "sequence.csv")
        assert len(rows) == 2
        assert float(rows[0][6]) == pytest.approx(0.775774148114069, abs=1e-12)
        assert float(rows[1][6]) == pytest.approx(0.7523872903999611, abs=1e-12)

    def test_bad_lambda_list(self, tmp_path):
        assert (
            main(["sequence", "--omega", "0.3", "--lambdas", "a,b", "--out", str(tmp_path)])
            == EXIT_USAGE
        )


class TestSimulateCommand:
    def write_config(self, tmp_path, **overrides):
        values = {
            "omega": "0.3",
            "lambdas": "0.5,0.8",
            "shots": "200000",
            "seed": "11",
        }
        values.update(overrides)
        text = "# simulation settings\n" + "\n".join(
            f"{k} = {v}" for k, v in values.items()
        )
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text + "\n")
        return cfg

    def test_runs_and_compares_to_analytic(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        data = json.loads((tmp_path / "simulate.json").read_text())
        assert data["schema"] == "seqrac/simulation/1"
        for rec in data["receivers"]:
            gap = abs(rec["empirical_success"] - rec["analytic_success"])
            assert gap < 4.0 * rec["standard_error"]

    def test_rejects_out_of_range_lambda(self, tmp_path):
        cfg = self.write_config(tmp_path, lambdas="0.5,1.2")
        assert (
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
            == EXIT_INFEASIBLE
        )

    def test_missing_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("omega = 0.3\n")
        assert (
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
            == EXIT_USAGE
        )

    @pytest.mark.parametrize(
        "key, value",
        [("omega", "abc"), ("r", "x"), ("shots", "1e6"), ("seed", "s1"), ("seed", "-1")],
    )
    def test_malformed_value_is_usage_error(self, tmp_path, key, value):
        cfg = self.write_config(tmp_path, **{key: value})
        assert (
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
            == EXIT_USAGE
        )

    def test_malformed_thread_env_is_usage_error(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path, shots="1000")
        monkeypatch.setenv("SEQRAC_THREADS", "abc")
        assert (
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
            == EXIT_USAGE
        )

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_thread_count_is_usage_error(self, tmp_path, monkeypatch, source, count):
        cfg = self.write_config(tmp_path, shots="1000")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path)]
        if source == "flag":
            argv += ["--threads", count]
        else:
            monkeypatch.setenv("SEQRAC_THREADS", count)
        assert main(argv) == EXIT_USAGE

    def test_missing_file_is_usage_error(self, tmp_path):
        assert (
            main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
            == EXIT_USAGE
        )


class TestPolyCommand:
    def test_prints_exact_tables(self, tmp_path, capsys):
        assert main(["poly", "--k", "4", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(16)*c1^15" in out
        assert (tmp_path / "poly.txt").read_text() == out

    def test_cap_order_matches_value_recurrence(self, capsys):
        k = POLY_CAP
        assert main(["poly", "--k", str(k)]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        head = f"P_{k}(x) = "
        assert line.startswith(head)
        terms = line[len(head):].split(" + ")
        assert len(terms) == 2 ** (k - 1)
        x = Fraction(1, 3)
        got = sum(Fraction(t.partition(")*x^")[0].lstrip("(")) * x**n for n, t in enumerate(terms))
        want = Fraction(1)
        for j in range(2, k + 1):
            want += Fraction(2) ** (2 * j - 5) * x * want * want
        assert got == want

    def test_order_above_cap_is_usage(self):
        assert main(["poly", "--k", str(POLY_CAP + 1)]) == EXIT_USAGE


class TestParserReuse:
    def test_no_parsed_state_leaks_between_calls(self, tmp_path):
        runs = (["--n", "3"], ["--n", "4", "--r", "0.5"], ["--n", "3"])
        got = []
        for extra in runs:
            assert main(["schedule", *extra, "--out", str(tmp_path)]) == EXIT_OK
            data = json.loads((tmp_path / "schedule.json").read_text())
            got.append((data["n"], data["r"]))
        assert got == [(3, 1.0), (4, 0.5), (3, 1.0)]

    def test_built_once(self, monkeypatch):
        builds = []
        build = seqrac.cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(seqrac.cli, "build_parser", counting)
        seqrac.cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["poly", "--k", "2"]) == EXIT_OK
        finally:
            seqrac.cli._parser.cache_clear()
        assert len(builds) == 1


class TestExitCodes:
    def test_unknown_command_is_usage(self):
        assert main(["nonsense"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage(self):
        assert main(["schedule"]) == EXIT_USAGE

    def test_bad_domain_value_is_usage(self, tmp_path):
        assert (
            main(["schedule", "--n", "0", "--omega", "0.1", "--out", str(tmp_path)])
            == EXIT_USAGE
        )

    def test_malformed_omega_is_usage(self, tmp_path):
        assert (
            main(["schedule", "--n", "3", "--omega", "xyz", "--out", str(tmp_path)])
            == EXIT_USAGE
        )

    def test_negative_r_with_auto_omega_is_usage(self, tmp_path, capsys):
        argv = ["schedule", "--n", "3", "--r", "-1", "--omega", "auto", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "error: r -1.0 outside (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["0.1", "auto"])
    def test_non_finite_epsilon_is_usage(self, tmp_path, capsys, omega):
        argv = ["schedule", "--n", "3", "--omega", omega, "--epsilon", "inf",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "error: epsilon +inf is not finite" in capsys.readouterr().err
        assert not (tmp_path / "schedule.json").exists()

    def test_uncreatable_out_is_usage(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["sequence", "--omega", "0.3", "--lambdas", "0.5",
                "--out", str(blocker / "x")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


# Runs in a fresh interpreter, so that no other test has loaded numpy yet.
IMPORT_PATH_SCRIPT = r"""
import sys
from pathlib import Path

import seqrac, seqrac.cli

assert seqrac.cli._parser.cache_info().currsize == 0, "parser built at import"
out = sys.argv[1]
for argv in (
    ["poly", "--k", "3"],
    ["schedule", "--n", "3", "--omega", "auto", "--out", out],
    ["sequence", "--omega", "0.4", "--lambdas", "0.3,0.7", "--out", out],
    ["thresholds", "--grid", "5", "--out", out],
    ["region", "--resolution", "5", "--out", out],
):
    assert seqrac.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "a numpy-free command loaded numpy"

cfg = Path(out) / "sim.cfg"
cfg.write_text("omega = 0.3\nlambdas = 0.5\nshots = 1000\nseed = 1\n")
assert seqrac.cli.main(["simulate", "--config", str(cfg), "--out", out]) == 0
assert "numpy" in sys.modules
assert (Path(out) / "simulate.json").is_file()
"""


def test_only_simulate_loads_numpy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestDeterminism:
    def test_schedule_outputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["schedule", "--n", "4", "--epsilon", "1e-4", "--omega", "0.03125",
                  "--out", str(out)])
        assert (a / "schedule.json").read_bytes() == (b / "schedule.json").read_bytes()
        assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()

    def test_simulate_outputs_byte_identical(self, tmp_path):
        cfg = TestSimulateCommand().write_config(tmp_path, shots="50000")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert (a / "simulate.json").read_bytes() == (b / "simulate.json").read_bytes()
        assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()
