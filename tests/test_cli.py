"""Command-line interface: outputs, manifests, exit codes, determinism."""

import json
import math

import pytest

from seqrac.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main


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
