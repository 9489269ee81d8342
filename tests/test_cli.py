"""Command-line interface: outputs, manifests, exit codes, determinism."""

import decimal
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqrac.cli
import seqrac.rac
import seqrac.smallangle
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

    @pytest.mark.parametrize("delta2", ["-0.1", "1.5", "nan", "inf", "-inf"])
    def test_delta2_outside_unit_interval_is_usage(self, tmp_path, capsys, delta2):
        argv = ["thresholds", "--grid", "5", f"--delta2={delta2}", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: distinguishability {float(delta2)} outside [0, 1]\n"
        assert not (tmp_path / "thresholds.csv").exists()


class TestManifest:
    @pytest.mark.parametrize(
        "argv, code, names",
        [
            (["thresholds", "--grid", "5"], EXIT_OK, {"thresholds.csv"}),
            (["region", "--resolution", "4"], EXIT_OK, {"region.csv"}),
            (["schedule", "--n", "4", "--omega", "0.03125"], EXIT_OK,
             {"schedule.json", "schedule.csv"}),
            (["schedule", "--n", "4", "--omega", "0.0315"], EXIT_INFEASIBLE,
             {"schedule.json", "schedule.csv"}),
            (["sequence", "--omega", "0.3", "--lambdas", "0.5,0.8"], EXIT_OK, {"sequence.csv"}),
            (["simulate", "--config", "sim.cfg"], EXIT_OK, {"simulate.json", "simulate.csv"}),
            (["poly", "--k", "3"], EXIT_OK, {"poly.txt"}),
        ],
        ids=["thresholds", "region", "schedule", "schedule-infeasible", "sequence", "simulate", "poly"],
    )
    def test_manifest_digests_outputs(self, tmp_path, monkeypatch, argv, code, names):
        monkeypatch.chdir(tmp_path)
        Path("sim.cfg").write_text("omega = 0.3\nlambdas = 0.5,0.8\nshots = 4000\nseed = 5\n")
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == code
        manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
        assert manifest["schema"] == "seqrac/manifest/1"
        assert manifest["command"] == argv[0]
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        del files[f"{argv[0]}_manifest.json"]
        assert set(files) == names
        assert manifest["outputs"] == {
            name: hashlib.sha256(data).hexdigest() for name, data in files.items()
        }

    def test_no_files_without_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["poly", "--k", "3"]) == EXIT_OK
        assert main(["verify"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []


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
        # region formats its cells inline; _csv with _FLAG text is the reference
        assert main(["region", "--resolution", str(res), "--out", str(tmp_path)]) == EXIT_OK
        rows = [
            (i / (res - 1), j / (res - 1)) for i in range(res) for j in range(res)
        ]
        flag = seqrac.cli._FLAG
        reference = seqrac.cli._csv(
            ["delta1", "delta2", "inside_quantum_disc", "inside_classical_simplex"],
            [(d1, d2, flag[d1 * d1 + d2 * d2 <= 1.0], flag[d1 + d2 <= 1.0]) for d1, d2 in rows],
        )
        assert (tmp_path / "region.csv").read_bytes() == reference.encode()


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
             "6444908588820e4c578b4584cf48554d5061f3b28a3a931b9f7cedf42401052b"),
            # near lam = 1, where the float sqrt(1 - lam^2) cancels
            (["sequence", "--omega", "0.3", "--r", "0.9",
              "--lambdas", "0.5,0.9999841142108734,0.9999841142108734"],
             "sequence.csv",
             "418bfd5233ae4afda072f86380b5b3f1c72c21e00aea01a3fcc20eec3035c3de"),
        ],
    )
    def test_csv_digest(self, tmp_path, argv, name, digest):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_byte_listing(self, tmp_path):
        # tools/digests.py against tools/digests.txt: a changed byte fails with its -/+ lines
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, str(root / "tools" / "digests.py"), str(root),
                               str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        skipped = re.search(r"^\d+ simulate runs not compared: .*$", proc.stdout, re.M)
        if skipped:
            pytest.skip(skipped.group(0))

    @pytest.mark.parametrize(
        "omega, json_digest, csv_digest, n_opts, code",
        [
            ("0.03125", "e27461cbd9f60b1dc9a260dc7029645c53a30dfe54848d6b5fc898b0817583f9",
             "bfe4546587d00484a453667ee984b0d4fcdc86d1e980476f0e661343d414e8ea", "4", EXIT_OK),
            ("auto", "67112561b8a393a357e4c2d8fda500fb40102d5de3a4667720ba2c267fcaeb0f",
             "0c6801240845dca5cbc153226a556d9d343efe44189b83b02e50b33616053b32", "5", EXIT_OK),
            # the auto search: Illinois steps for n <= 7, the closed-form
            # first point for n >= 8
            ("auto", "98e73def1035da640c48bfd79a7402afe4d7c52c0ed96625b65dcd5674c5da13",
             "5061af2ab9caa92b69b2eccbed8a17254993ec6c6ff7f717818d45dff58d19c4", "2", EXIT_OK),
            ("auto", "f442c989a5ea530cfce15d5a3ea30ad96b88836abb9a1c4a7defce7472e7b1f0",
             "324f5bed094c8ff7d2c7905190e31368c7098a198891c6be4065789527fbb228", "7", EXIT_OK),
            ("auto", "f64cabc3ec976cbb5ad56d8d6b841406c762a14d88b3ccf92fc23801d6786610",
             "ddaf8bdd2c18902c43e27b0871d6dcb08db4ade67d5d0f464144717bfb515fc6", "8", EXIT_OK),
            ("auto", "3fd7d4ec04d2fb5ba721fd4059862bf329d6b727119d9bb8efb1e34aa52c6a6c",
             "80b8a47fc91def9ac911fac3b5985839321bd3f4f24fdfbdd5ea932e0bc21577", "24", EXIT_OK),
            ("auto", "2f5ed721323774a65480058e14309151b302d6b3a4a54657dd84b5bb64e02bfe",
             "df72b458bf5681cd0205cb2faa155f0d3ce413c845ef6cb5bdca08714762116e",
             "7 --r 0.7 --epsilon 1e-3", EXIT_OK),
            ("auto", "1b8b6c5ce8d99613edcca471fb46df2b442c10817769f416c7ec4800f98d7228",
             "1283676971ca7dc7a36c34063cc3143a3eb5f9bcd739b69455f2b8e123d6c858",
             "24 --r 0.7 --epsilon 1e-3", EXIT_OK),
            # most receivers subtract operands over prec + 4 bits apart here
            ("auto", "e674a43d081be76237877c35a68d4c93fd665819c63f70c3e8efa610c08b06dc",
             "1863d0482b32023c14220bcfcc0ef039faf54a10b012d5c79d74db25d315c35c", "250", EXIT_OK),
            # infeasible at receivers 4 and 6: decided by interval comparisons
            # at the decimal angle itself, not at its nearest double
            ("0.0315", "1e9bd7dc89ad36867a4739534aad270e4816af467600bb37137102f83b1ca863",
             "647a01dd9a176447cf30066d205b276a7725d341fbbbc4e34988663f67249b89", "4",
             EXIT_INFEASIBLE),
            ("1e-6", "a9bdd847570da7ffc1cf7a1d83b73db8af3d5b9a7c186996493561ab59a45ce1",
             "61b8707bbeea683df16f32c37fbf06256dbeff24c2b64373bc4037cdadf56e73", "8",
             EXIT_INFEASIBLE),
        ],
    )
    def test_schedule_digest(self, tmp_path, omega, json_digest, csv_digest, n_opts, code):
        # n_opts is the receiver count, then any further options
        argv = ["schedule", "--n", *n_opts.split(), "--omega", omega, "--out", str(tmp_path)]
        assert main(argv) == code
        for name, digest in (("schedule.json", json_digest), ("schedule.csv", csv_digest)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_csv_digest(self, tmp_path, threads):
        # 70,000 shots over three receivers: one stream, one node block
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("omega = 0.4\nr = 0.9\nlambdas = 0.3,0.6,0.9\nshots = 70000\nseed = 11\n")
        argv = ["simulate", "--config", str(cfg), "--threads", threads, "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256((tmp_path / "simulate.csv").read_bytes()).hexdigest() == (
            "2d746830b99ce1e1dc559f9edc148953b0f88717aa6e3972084b21485dbee6dd"
        )

    def test_simulate_json_digest(self, tmp_path):
        # mean_post_bloch comes from numpy row sums, not BLAS products, so
        # simulate.json holds on any CPU for one numpy build
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("omega = 0.4\nr = 0.9\nlambdas = 0.3,0.6,0.9\nshots = 70000\nseed = 11\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert hashlib.sha256((tmp_path / "simulate.json").read_bytes()).hexdigest() == (
            "f3003303fa2469eb9b9875a291f99042b713abaf616b2ec81ee27dc7b27d6169"
        )

    def test_simulate_json_ignores_the_blas_kernel(self, tmp_path):
        # OpenBLAS picks its kernels, and so its summation order, by CPU at
        # run time; OPENBLAS_CORETYPE=Prescott forces another one.  When the
        # post-state sums were BLAS products, these two runs differed.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "omega = 0.3\nr = 0.9\nlambdas = 0.2,0.35,0.5,0.65,0.8,0.95\nshots = 300000\nseed = 6\n"
        )
        script = "import sys; from seqrac.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("OPENBLAS_CORETYPE", None)
        outputs = []
        for coretype in (None, "Prescott"):
            out = tmp_path / str(coretype)
            argv = ["simulate", "--config", str(cfg), "--out", str(out)]
            extra = {} if coretype is None else {"OPENBLAS_CORETYPE": coretype}
            proc = subprocess.run([sys.executable, "-c", script, *argv], env={**env, **extra},
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append((out / "simulate.json").read_bytes())
        assert outputs[0] == outputs[1]


# omega_dec's leading digits at r = 1, epsilon = 1e-4 (for n = 250, as nstr prints them)
OMEGA_HEAD = {19: "4.18404165604415099", 250: "3.03710205652598122167930303779e-2723456611"}


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

    @pytest.mark.parametrize("n", [19, 250])
    def test_dec_fields_carry_thirty_true_digits(self, tmp_path, n):
        # n = 19 printed omega_dec 4.18404165604415105...e-78916 when the
        # value was rounded to a double first; the true digits are ...099...
        argv = ["schedule", "--n", str(n), "--epsilon", "1e-4", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        data = json.loads((tmp_path / "schedule.json").read_text())
        s = find_omega(n, 1.0, 1e-4)
        pairs = [(data["omega_dec"], s.omega)]
        for rec, lam, margin in zip(data["receivers"], s.lambdas, s.success_margins):
            pairs += [(rec["lambda_dec"], lam), (rec["success_margin_dec"], margin)]
        with mp.workdps(100):
            for text, value in pairs:
                assert abs(mp.mpf(text) - value) <= mp.mpf("5e-30") * abs(value), text
        assert data["omega_dec"].startswith(OMEGA_HEAD[n])

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

    def test_auto_schedule_is_the_search_result(self, tmp_path, monkeypatch):
        # n >= 8: one recurrence pass proves the closed-form angle; n <= 7:
        # the search's own evaluations.  Either way none runs after it.
        calls, at_return = [], []
        evaluate, search = seqrac.schedule.lambda_sequence, seqrac.cli.find_omega

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        def searching(*args, **kwargs):
            s = search(*args, **kwargs)
            at_return.append(len(calls))
            return s

        monkeypatch.setattr(seqrac.schedule, "lambda_sequence", counting)
        monkeypatch.setattr(seqrac.cli, "lambda_sequence", counting)
        monkeypatch.setattr(seqrac.cli, "find_omega", searching)
        for n in range(1, 13):
            calls.clear()
            at_return.clear()
            argv = ["schedule", "--n", str(n), "--omega", "auto", "--out", str(tmp_path)]
            assert main(argv) == EXIT_OK
            assert at_return == [len(calls)], n
            assert len(calls) == 1 if n >= 8 else len(calls) >= 1, (n, len(calls))

    def test_search_exhausted_is_infeasible(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise SearchExhausted("no certified omega")

        monkeypatch.setattr(seqrac.cli, "find_omega", exhausted)
        argv = ["schedule", "--n", "3", "--out", str(tmp_path)]
        assert main(argv) == EXIT_INFEASIBLE
        assert "no certified omega" in capsys.readouterr().err

    def test_exhausted_search_exits_infeasible(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(seqrac.schedule, "MAX_EVALS", 1)
        assert main(["schedule", "--n", "5", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "infeasible: no certified omega for n=5 after 1 evaluations\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError(), "MemoryError"),
         (OverflowError("too many digits in integer"), "too many digits in integer")],
        ids=["MemoryError", "OverflowError"],
    )
    @pytest.mark.parametrize("omega", ["auto", "0.1"])
    def test_count_too_big_to_compute_is_usage(self, tmp_path, monkeypatch, capsys, exc, message,
                                               omega):
        # a real --n 99999999999999 would allocate about 3e13 digits; the
        # computation is replaced by one that raises what that run raised
        def too_big(*args, **kwargs):
            raise exc

        monkeypatch.setattr(seqrac.cli, "find_omega", too_big)
        monkeypatch.setattr(seqrac.cli, "lambda_sequence", too_big)
        argv = ["schedule", "--n", "99999999999999", "--omega", omega, "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_overflow_outside_the_schedule_is_not_usage(self, monkeypatch):
        # only the schedule's computation maps the size errors; elsewhere an
        # OverflowError is a fault and keeps its traceback
        def overflow(*args, **kwargs):
            raise OverflowError("Python int too large to convert to C long")

        monkeypatch.setattr(seqrac.cli, "thresholds", overflow)
        with pytest.raises(OverflowError):
            main(["thresholds", "--grid", "3"])

    @pytest.mark.parametrize(
        "n, r, eps", [(2, "0.7", "1e-3"), (6, "0.7", "1e-3"), (13, "1", "1e-4"), (24, "0.3", "1e-6")]
    )
    def test_printed_omega_reruns_as_certified(self, tmp_path, n, r, eps):
        # read as the nearest double, n = 6 gave lam_6 = 1.0000000000000000131
        argv = ["schedule", "--n", str(n), "--r", r, "--epsilon", eps, "--out", str(tmp_path)]
        assert main([*argv, "--omega", "auto"]) == EXIT_OK
        auto = json.loads((tmp_path / "schedule.json").read_text())
        assert main([*argv, "--omega", auto["omega_dec"]]) == EXIT_OK
        again = json.loads((tmp_path / "schedule.json").read_text())
        assert again["feasible"] and again["omega_dec"] == auto["omega_dec"]

    @pytest.mark.parametrize("omega", ["0.0315", "1e-6", "0.1"])
    def test_numeric_omega_is_the_decimal(self, tmp_path, omega):
        main(["schedule", "--n", "8", "--omega", omega, "--out", str(tmp_path)])
        data = json.loads((tmp_path / "schedule.json").read_text())
        with mp.workdps(DEFAULT_DPS):
            assert mp.mpf(data["omega_dec"]) == mp.mpf(omega)
        assert data == json.loads(
            seqrac.cli._json(seqrac.cli._schedule_payload(lambda_sequence(omega, 1, 1e-4, 8)))
        )

    def test_json_round_trip_is_canonical(self, tmp_path):
        main(["schedule", "--n", "3", "--omega", "0.001", "--out", str(tmp_path)])
        raw = (tmp_path / "schedule.json").read_bytes()
        reencoded = (
            json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
        )
        assert reencoded == raw


# rounds a decimal significand to _dec's 30 digits, half up, at any exponent
HALF_UP = decimal.Context(
    prec=30, rounding=decimal.ROUND_HALF_UP, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX
)


def scientific(text):
    """A decimal string to 30 digits as (significand in [1, 10), exponent).

    The exponent stays a Python int: schedule fields reach decimal exponents
    of 75 digits, past what a Decimal can hold.
    """
    man, _, exp = text.partition("e")
    d = HALF_UP.create_decimal(man)
    return d.scaleb(-d.adjusted(), HALF_UP), int(exp or 0) + d.adjusted()


class TestDecimalStrings:
    """``cli._dec`` against a 100-digit reading rounded half up, and its layout."""

    @staticmethod
    def check(value):
        """_dec(value), asserted equal to the value's 100 digits rounded to 30."""
        text = seqrac.cli._dec(value)
        assert scientific(text) == scientific(mp.nstr(value, 100)), text
        return text

    @staticmethod
    def exp_calls(monkeypatch):
        # each mpf_exp call is one reading of the scaled digits; _dec imports
        # mpf_exp from mpmath.libmp on each call, so it is patched there
        calls, exp = [], mp.libmp.mpf_exp
        monkeypatch.setattr(mp.libmp, "mpf_exp", lambda *a: calls.append(a) or exp(*a))
        return calls

    def test_log_constants_within_two_units(self):
        # _dec's error bound takes each constant within 2 of 2^k times it
        for k in [*range(64, 8193, 64), 65536]:
            with mp.workprec(2 * k + 64):
                ln2, ln10 = +mp.ln2, +mp.ln10
                exact = [mp.ldexp(c, k) for c in (ln10 / ln2, ln2 / ln10, ln2)]
                got = seqrac.cli._log_constants(k)
                assert all(abs(g - x) < 2 for g, x in zip(got, exact)), k

    def test_every_schedule_field_is_correctly_rounded(self):
        rng = random.Random(20261019)
        fields = []
        for n in [*range(2, 41), 250]:
            s = find_omega(n, rng.uniform(0.3, 1.0), 10 ** rng.uniform(-6, -2))
            fields += [s.omega, *s.lambdas, *s.success_margins]
        for value in fields:
            self.check(value)
        fixed = sum("e" not in seqrac.cli._dec(v) for v in fields)
        print(f"{len(fields)} fields, {fixed} of them in fixed notation")
        assert 0 < fixed < len(fields)

    def test_random_mantissas_and_exponents(self):
        rng = random.Random(7)
        for _ in range(400):
            man = rng.getrandbits(rng.randrange(2, 300)) | 1
            e = rng.choice([-1, 1]) * rng.choice([rng.randrange(0, 3600),
                                                  rng.randrange(3400, 2**rng.randrange(12, 64))])
            self.check(mp.mpf((rng.choice([-1, 1]) * man, e - man.bit_length())))

    def test_a_near_tie_that_nstr_misrounds(self):
        # digits 31 on are 500000541...: nstr reads 33 digits from a 119-bit
        # quotient, and printed ...393 at each of these scales and precisions
        digits = "850181284483363183470182385394"
        for scale in ("", "e-5", "e-300", "e-1000", "e-33118112961"):
            want = {"": f"8.{digits[1:]}", "e-5": f"0.0000{digits}"}.get(
                scale, f"8.{digits[1:]}{scale}")
            for dps in (40, 60, 70):
                with mp.workdps(dps):
                    value = mp.mpf("8.50181284483363183470182385393500000541" + scale)
                    negative = -value
                assert self.check(value) == want, (scale, dps)
                assert self.check(negative) == "-" + want, (scale, dps)

    def test_an_exact_tie_rounds_up(self, monkeypatch):
        # 389347099 * 2^-31 = 0.1813038713298738002777099609375 exactly: its
        # guard digits are 5000... at every reading, so all eight are taken
        calls = self.exp_calls(monkeypatch)
        value = mp.ldexp(389347099, -31)
        assert seqrac.cli._dec(value) == "0.181303871329873800277709960938"
        assert len(calls) == 8
        assert self.check(-value) == "-0.181303871329873800277709960938"

    @pytest.mark.parametrize("tail, last", [("4" + "9" * 29, "1"), ("5" + "0" * 28 + "1", "2")])
    def test_guard_digits_at_half_are_read_again(self, monkeypatch, tail, last):
        # at 60 digits the mpf is within 10^-31 of a unit in digit 30 of the
        # decimal, so digits 31 to 60 decide how digit 30 rounds
        calls = self.exp_calls(monkeypatch)
        with mp.workdps(60):
            value = mp.mpf(f"1.23456789012345678901234567891{tail}e-5000")
        assert seqrac.cli._dec(value) == f"1.2345678901234567890123456789{last}e-5000"
        assert len(calls) >= 2
        self.check(value)

    def test_carry_to_ten_to_the_thirty(self):
        with mp.workdps(60):
            value = mp.mpf("9." + "9" * 29 + "6e-5000")
        assert self.check(value) == "1.0e-4999"

    @pytest.mark.parametrize("text, want", [
        ("0", "0.0"),
        ("20", "20.0"),  # integers at decimal exponent 1: a left shift
        ("64", "64.0"),
        ("-2.5", "-2.5"),
        ("1.5e-10", "1.5e-10"),  # decimal exponent -10: exponent form
        ("1.5e-9", "0.0000000015"),  # -9: fixed
        ("-1.5e-9", "-0.0000000015"),
        ("9.999999999999999999999999999999996e-10", "0.000000001"),  # carries to -9
        ("0.99999999999999999999999999999996", "1.0"),
        ("1.5e29", "150000000000000000000000000000.0"),  # 29: fixed
        ("9.999999999999999999999999999999996e28", "100000000000000000000000000000.0"),
        ("1.5e30", "1.5e+30"),  # 30: exponent form
        ("9.999999999999999999999999999999996e29", "1.0e+30"),  # carries to 30
        ("-9.999999999999999999999999999999996e29", "-1.0e+30"),
    ])
    def test_layout(self, text, want):
        # fixed notation for a decimal exponent in (-10, 30), trailing zeros
        # stripped down to x.0, as mpmath lays out 30 digits
        with mp.workdps(40):
            value = mp.mpf(text)
        assert self.check(value) == want

    def test_non_finite_values_are_not_zero(self):
        # their mantissa is 0, as zero's is; they print as mpmath prints them
        assert [seqrac.cli._dec(v) for v in (mp.inf, -mp.inf, mp.nan)] == ["+inf", "-inf", "nan"]

    @pytest.mark.parametrize("e", [0, 5, 3500, 3501, -3500, -3501, 10**6, 2**200])
    def test_at_and_beyond_the_cutoff(self, monkeypatch, e):
        # nstr printed |e| <= 3,500 until one printer took every exponent:
        # each now takes exactly one reading, at either side of that line
        calls = self.exp_calls(monkeypatch)
        man = random.Random(e).getrandbits(200) | 1 | 1 << 199
        value = mp.mpf((man, e - 200))
        assert value._mpf_[2] + value._mpf_[3] == e
        text = seqrac.cli._dec(value)
        assert len(calls) == 1
        assert ("e" in text) == (abs(e) > 5)
        monkeypatch.undo()
        assert self.check(value) == text

    def test_no_power_as_large_as_the_exponent(self, tmp_path, monkeypatch):
        pow_int = mp.libmp.libmpf.mpf_pow_int

        def bounded(s, n, *args):
            assert abs(n) <= 10**6, f"a power of {n}"
            return pow_int(s, n, *args)

        monkeypatch.setattr(mp.libmp.libmpf, "mpf_pow_int", bounded)
        assert main(["schedule", "--n", "300", "--out", str(tmp_path)]) == EXIT_OK


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
        [("omega", "abc"), ("r", "x"), ("shots", "1e6"), ("seed", "s1"), ("seed", "-1"),
         ("lambdas", "nan"), ("lambdas", "inf")],
    )
    def test_malformed_value_is_usage_error(self, tmp_path, key, value):
        cfg = self.write_config(tmp_path, **{key: value})
        assert (
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
            == EXIT_USAGE
        )

    @pytest.mark.parametrize("key, value", [("R", "0.5"), ("config", "elsewhere.cfg")])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, key, value):
        # R = 0.5 used to run silently at r = 1.0, and a config key overwrote
        # the config path in the manifest's params
        cfg = self.write_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"error: {cfg}: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "simulate.json").exists()

    def test_repeated_key_is_usage_error(self, tmp_path, capsys):
        # shots = 1000 then shots = 2000 used to run 2,000 shots and exit 0
        cfg = self.write_config(tmp_path, shots="1000")
        cfg.write_text(cfg.read_text() + "shots = 2000\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"error: {cfg}:6: repeated config key 'shots'" in capsys.readouterr().err
        assert not (tmp_path / "simulate.json").exists()

    def test_shots_past_int64_are_usage_error(self, tmp_path, capsys):
        # numpy's multinomial takes an int64 count
        cfg = self.write_config(tmp_path, shots=str(2**63))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "error: shots 9223372036854775808 above 2^63 - 1" in capsys.readouterr().err
        assert not (tmp_path / "simulate.json").exists()

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes() + b"\xff\xfe")
        assert (
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
            == EXIT_USAGE
        )
        assert f"error: {cfg}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"], ids=lambda count: f"{count}-flag")
    def test_nonpositive_thread_count_is_usage_error(self, tmp_path, count):
        cfg = self.write_config(tmp_path, shots="1000")
        argv = ["simulate", "--config", str(cfg), "--threads", count, "--out", str(tmp_path)]
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

    def test_coefficients_print_as_fractions(self, capsys):
        # each P_k coefficient is Q_k's over 2^(k-1), in lowest terms as Fraction prints it
        for k in range(1, 10):
            assert main(["poly", "--k", str(k)]) == EXIT_OK
            line = capsys.readouterr().out.splitlines()[0]
            p = [Fraction(b, 2 ** (k - 1)) for b in seqrac.smallangle.odd_power_expansion(k)]
            assert line == f"P_{k}(x) = " + " + ".join(
                f"({c})*x^{n}" if n else f"{c}" for n, c in enumerate(p))

    def test_table_is_built_once(self, monkeypatch):
        # P_8 and c_8 both print from one table: one build, not two
        builds, build = [], seqrac.smallangle.odd_power_expansion

        def counted(k):
            builds.append(k)
            return build(k)

        for module in (seqrac.cli, seqrac.smallangle):
            monkeypatch.setattr(module, "odd_power_expansion", counted)
        assert main(["poly", "--k", "8"]) == EXIT_OK
        assert builds == [8]


VERIFY_LINES = [
    "distinguishability disc bound",
    "disc bound, pure stratum",
    "recursion matches trace norms",
    "tilted axes break recursion",
    "Kraus completeness on lambda grid",
    "four-receiver schedule near 2^-5",
    "schedule margins positive",
    "quartic polynomial table",
]


class TestVerifyCommand:
    def test_prints_eight_pass_lines(self, capsys):
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == "".join(f"PASS  {name}\n" for name in VERIFY_LINES)

    @staticmethod
    def fail_lines(capsys):
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line[6:] for line in lines] == VERIFY_LINES
        return {line[6:] for line in lines if line.startswith("FAIL  ")}

    @pytest.mark.parametrize("stratum, mean", [(False, 0.3), (True, 0.5)], ids=["ball", "pure"])
    @pytest.mark.parametrize("above", [True, False], ids=["above the bound", "at the mean"])
    def test_a_stratum_outside_its_window_fails_its_line(self, monkeypatch, capsys, stratum, mean,
                                                         above):
        # 1.1 breaks the disc bound; the stratum's mean is what a sampler that returns
        # .mean() for .max() gives, which only the floor catches
        real = seqrac.rac.theorem1_sampler

        def sampler(count, seed, pure=False):
            return (1.1 if above else mean) if pure == stratum else real(count, seed, pure)

        monkeypatch.setattr(seqrac.rac, "theorem1_sampler", sampler)
        assert self.fail_lines(capsys) == {VERIFY_LINES[stratum]}

    @pytest.mark.parametrize("gap", [1e-6, -1e-6])
    def test_an_unsaturated_family_fails_both_disc_lines(self, monkeypatch, capsys, gap):
        real = seqrac.rac.delta_pair

        def off(prep):  # Delta1^2 + Delta2^2 off the bound by gap
            dp = real(prep)
            return dp._replace(delta1=math.sqrt(dp.delta1**2 + gap))

        monkeypatch.setattr(seqrac.rac, "delta_pair", off)
        assert self.fail_lines(capsys) == set(VERIFY_LINES[:2])


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

    def test_malformed_omega_is_usage(self, tmp_path, capsys):
        assert (
            main(["schedule", "--n", "3", "--omega", "xyz", "--out", str(tmp_path)])
            == EXIT_USAGE
        )
        assert capsys.readouterr().err == "error: bad omega 'xyz'\n"
        assert not any(tmp_path.iterdir())

    def test_negative_r_with_auto_omega_is_usage(self, tmp_path, capsys):
        argv = ["schedule", "--n", "3", "--r", "-1", "--omega", "auto", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "error: r -1.0 outside (0, 1]" in capsys.readouterr().err

    def test_r_past_one_prints_its_working_digits(self, tmp_path, capsys):
        # the double just above 1, to the 61 working digits of n = 3: every digit it has
        argv = ["schedule", "--n", "3", "--r", "1.0000000000000002", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: r 1.0000000000000002220446049250313080847263336181640625 outside (0, 1]\n")

    def test_omega_past_half_pi_prints_its_working_digits(self, tmp_path, capsys):
        # pi/2 + 10^-200 given to 250 digits, read and printed at the 61 working digits
        with mp.workdps(260):
            omega = mp.nstr(mp.pi / 2 + mp.mpf(10) ** -200, 250)
        argv = ["schedule", "--n", "3", "--omega", omega, "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: omega 1.570796326794896619231321691639751442098584699687552910487472"
            " outside (0, pi/2)\n")

    @pytest.mark.parametrize("omega", ["0.1", "auto"])
    def test_non_finite_epsilon_is_usage(self, tmp_path, capsys, omega):
        argv = ["schedule", "--n", "3", "--omega", omega, "--epsilon", "inf",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "error: epsilon +inf is not finite" in capsys.readouterr().err
        assert not (tmp_path / "schedule.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["region", "--r", "5"], ["schedule", "--n", "3", "--eps", "1e-3"],
         ["schedule", "--n", "3", "--om", "0.1"]],
    )
    def test_flag_prefix_is_usage(self, tmp_path, capsys, argv):
        # --r would otherwise run region --resolution 5 and exit 0
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [["schedule", "--n", "3", "--omega=-1e-3"],
         ["sequence", "--omega=-1e-3", "--lambdas", "0.5"]],
    )
    def test_dash_value_joined_with_equals_reaches_domain_check(self, tmp_path, capsys, argv):
        # argparse takes "-1e-3" after a space for a flag; README documents the = form
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: omega -0.001 outside (0, pi/2)\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [(["thresholds", "--grid", "1"], "grid must be >= 2"),
         (["region", "--resolution", "1"], "resolution must be >= 2"),
         (["sequence", "--omega", "0.3", "--lambdas", ","], "empty lambda list")],
        ids=["grid", "resolution", "lambdas"],
    )
    def test_too_few_points_or_receivers_is_usage(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_uncreatable_out_is_usage(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["sequence", "--omega", "0.3", "--lambdas", "0.5",
                "--out", str(blocker / "x")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


# Runs one command in a fresh interpreter, so that no other test has loaded
# numpy, mpmath or decimal yet, and prints whether each of them is loaded after it.
# The first argument is the src that seqrac must come from.
IMPORT_PATH_SCRIPT = r"""
import sys
from pathlib import Path

import seqrac, seqrac.cli

src = Path(sys.argv[1])
assert Path(seqrac.__file__).resolve().is_relative_to(src), f"seqrac from {seqrac.__file__}, not {src}"
assert seqrac.cli._parser.cache_info().currsize == 0, "parser built at import"
loaded = [name for name in ("numpy", "mpmath", "fractions") if name in sys.modules]
assert not loaded, f"import seqrac, seqrac.cli loaded {loaded}"
out = sys.argv[2]
(Path(out) / "sim.cfg").write_text("omega = 0.3\nlambdas = 0.5\nshots = 1000\nseed = 1\n")
argv = [arg.replace("@out", out) for arg in sys.argv[3:]]
assert seqrac.cli.main(argv) == 0, argv
print("numpy" in sys.modules, "mpmath" in sys.modules, "decimal" in sys.modules)
"""


def loaded_after(tmp_path, argv) -> list[bool]:
    """Whether numpy, mpmath and decimal are loaded after ``argv`` runs in a fresh interpreter
    on the seqrac this test process imported, which tools/mutants.py may have mutated."""
    src = Path(seqrac.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(src), str(tmp_path), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [word == "True" for word in proc.stdout.splitlines()[-1].split()]


@pytest.mark.parametrize(
    "argv, numpy, mpmath",
    [
        (["poly", "--k", "3"], False, False),
        (["schedule", "--n", "3", "--omega", "auto", "--out", "@out"], False, True),
        (["sequence", "--omega", "0.4", "--lambdas", "0.3,0.7", "--out", "@out"], False, False),
        (["thresholds", "--grid", "5", "--out", "@out"], False, False),
        (["region", "--resolution", "5", "--out", "@out"], False, False),
        (["simulate", "--config", "@out/sim.cfg", "--out", "@out"], True, False),
        (["verify"], True, True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_import_path(tmp_path, argv, numpy, mpmath):
    assert loaded_after(tmp_path, argv)[:2] == [numpy, mpmath]


@pytest.mark.parametrize("k, loaded", [(8, False), (9, False), (10, False), ("verify", False)])
def test_import_path_of_decimal(tmp_path, k, loaded):
    # the table is T_k's closed form in ints, so no poly loads decimal; verify, which loads
    # numpy and mpmath, checks P_4 on Q_4's integers, not on Fractions
    argv, numeric = (["verify"], True) if k == "verify" else (["poly", "--k", str(k)], False)
    assert loaded_after(tmp_path, argv) == [numeric, numeric, loaded]


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


# The CLI contract: every argv and every config ends in exit 0, 2 or 64,
# never in a traceback (verify exits 1 only when an invariant is broken).
# The vocabulary is bounded so that no example runs more than 4,096 shots,
# --n or --k > 8, --resolution > 40 or --grid > 60.
ODD_VALUES = ["nan", "inf", "-1", "0", "1e-400", "abc", ""]
FLAG_VALUES = {
    "--grid": ["2", "60"],
    "--delta2": ["0.6"],
    "--resolution": ["2", "40"],
    "--n": ["1", "4", "8"],
    "--r": ["0.5", "1"],
    "--epsilon": ["1e-4"],
    "--omega": ["auto", "0.3", "0.03125"],
    "--lambdas": ["0.5,0.8", "1", "0.5,,2"],
    "--config": ["sim.cfg"],
    "--threads": ["1", "2"],
    "--k": ["1", "8"],
    "--out": ["out"],
    "--version": [],
    "--help": [],
}
COMMANDS = ["thresholds", "region", "schedule", "sequence", "simulate", "poly", "verify"]
CONFIG_VALUES = {
    "omega": ["0.3", "2"],
    "r": ["0.5", "1.0"],
    "lambdas": ["0.5,0.8", "1.0", ","],
    "shots": ["1", "4096"],
    "seed": ["7", "18446744073709551616"],
    "junk": ["1"],
}


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(COMMANDS + ODD_VALUES))]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(sorted(FLAG_VALUES)))
        argv.append(flag)
        if draw(st.integers(0, 5)):
            argv.append(draw(st.sampled_from(FLAG_VALUES[flag] + ODD_VALUES)))
    return argv


@st.composite
def config_lines(draw):
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=7))
    lines = [
        f"{key} = {draw(st.sampled_from(CONFIG_VALUES[key] + ODD_VALUES))}" for key in keys
    ]
    lines += draw(st.lists(st.sampled_from(["# comment", "omega", "=", " "]), max_size=2))
    return "\n".join(draw(st.permutations(lines))).encode()


def run_in_scratch(argv, config: bytes) -> tuple[int, str]:
    """``main(argv)`` in an empty working directory holding only ``sim.cfg``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("sim.cfg").write_bytes(config)
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


VALID_CONFIG = b"omega = 0.3\nlambdas = 0.5,0.8\nshots = 4096\nseed = 7\n"


class TestContract:
    @given(argvs())
    @settings(max_examples=250, deadline=None)
    def test_any_argv_exits_cleanly(self, argv):
        code, err = run_in_scratch(argv, VALID_CONFIG)
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_USAGE), (argv, err)

    @given(st.one_of(config_lines(), st.binary(max_size=64)), st.sampled_from(["1", "2"]))
    @settings(max_examples=150, deadline=None)
    def test_any_config_exits_cleanly(self, config, threads):
        argv = ["simulate", "--config", "sim.cfg", "--threads", threads, "--out", "out"]
        code, err = run_in_scratch(argv, config)
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_USAGE), (config, err)


X_AXIS = seqrac.SharpObservable.from_axis((1.0, 0.0, 0.0))
Z_AXIS = seqrac.SharpObservable.from_axis((0.0, 0.0, 1.0))
THREE_STATES = seqrac.PreparationFamily(seqrac.square_preparations(0.3).states[:3])
STEP = seqrac.SequentialChannelStep(X_AXIS, Z_AXIS, 0.5)
HALF_Z = seqrac.UnsharpBinaryMeasurement(Z_AXIS, 0.5)


class TestApiContract:
    """A public name given a value it cannot use raises a SeqracError, never a bare
    ValueError or TypeError; the CLI, which passes floats, is not affected."""

    @pytest.mark.parametrize("name, args, message", [
        pytest.param("kraus_pair", (Z_AXIS, "x"), "bad unsharpness parameter 'x'", id="kraus-text"),
        pytest.param("kraus_pair", (Z_AXIS, None), "bad unsharpness parameter None", id="kraus-none"),
        pytest.param("kraus_pair", (Z_AXIS, 2.0), "unsharpness parameter 2.0 outside [0, 1]",
                     id="kraus-range"),
        pytest.param("UnsharpBinaryMeasurement", (Z_AXIS, "x"), "bad unsharpness parameter 'x'",
                     id="measurement-text"),
        pytest.param("per_bob_success", (seqrac.DistinguishabilityPair(0.5, 0.5), "x"),
                     "bad unsharpness parameter 'x'", id="success-text"),
        pytest.param("SequentialChannelStep", (X_AXIS, Z_AXIS, "x"), "bad unsharpness parameter 'x'",
                     id="step-text"),
        # text that float() parses is refused too, as for omega and r
        pytest.param("SequentialChannelStep", (X_AXIS, Z_AXIS, "0.5"),
                     "bad unsharpness parameter '0.5'", id="step-numeric-text"),
        pytest.param("thresholds", (seqrac.DistinguishabilityPair("a", 0.5),),
                     "bad distinguishability 'a'", id="thresholds-text"),
        # a Decimal is no numbers.Real
        pytest.param("thresholds", (seqrac.DistinguishabilityPair(decimal.Decimal("0.5"), 0.5),),
                     "bad distinguishability Decimal('0.5')", id="thresholds-decimal"),
        # per_bob_success reads its pair by thresholds' rule: 2.0 gave a success of 1.0625
        pytest.param("per_bob_success", (seqrac.DistinguishabilityPair(2.0, 0.5), 0.5),
                     "distinguishability 2.0 outside [0, 1]", id="success-range"),
        pytest.param("per_bob_success", (seqrac.DistinguishabilityPair("a", 0.5), 0.5),
                     "bad distinguishability 'a'", id="success-delta-text"),
        pytest.param("per_bob_success", (seqrac.DistinguishabilityPair(0.5, None), 0.5),
                     "bad distinguishability None", id="success-delta-none"),
        pytest.param("DensityOp.from_bloch", (("a", 0, 0),), "bad Bloch vector component 'a'",
                     id="state-text"),
        pytest.param("DensityOp.from_bloch", ((None, 0, 0),), "bad Bloch vector component None",
                     id="state-none"),
        # text that float() parses is refused too
        pytest.param("DensityOp.from_bloch", (("0.5", 0, 0),), "bad Bloch vector component '0.5'",
                     id="state-numeric-text"),
        pytest.param("SharpObservable.from_axis", ((0, "a", 1),), "bad Bloch vector component 'a'",
                     id="axis-text"),
        pytest.param("DensityOp.from_bloch", ((0.5, 0.5),), "bad Bloch vector (0.5, 0.5)",
                     id="state-two-components"),
        pytest.param("SharpObservable.from_axis", (1.0,), "bad Bloch vector 1.0", id="axis-scalar"),
        # the trace part is read as a component is: text that float() parses was accepted
        pytest.param("HermitianOp", ("0.5", (0.0, 0.0, 0.0)), "bad trace part '0.5'",
                     id="operator-numeric-text"),
        pytest.param("DensityOp", ("0.5", (0.1, 0.0, 0.0)), "bad trace part '0.5'",
                     id="density-numeric-text"),
        pytest.param("HermitianOp", (None, (0.0, 0.0, 0.0)), "bad trace part None", id="operator-none"),
        pytest.param("HermitianOp", ("x", (0.0, 0.0, 0.0)), "bad trace part 'x'", id="operator-text"),
        # a family of other than four states: a bare ValueError or IndexError, or accepted
        pytest.param("propagate", (THREE_STATES, [STEP]), "a preparation family holds 4 states, not 3",
                     id="propagate-three-states"),
        pytest.param("delta_pair", (THREE_STATES,), "a preparation family holds 4 states, not 3",
                     id="delta-pair-three-states"),
        pytest.param("avg_success", (THREE_STATES, HALF_Z, HALF_Z), "a preparation family holds 4 states, not 3",
                     id="success-three-states"),
        pytest.param("marginals", (THREE_STATES, 2), "a preparation family holds 4 states, not 3",
                     id="marginals-three-states"),
        pytest.param("SimulationConfig", (THREE_STATES, (STEP,), 100, 1),
                     "a preparation family holds 4 states, not 3", id="simulation-three-states"),
        pytest.param("SimulationConfig", (seqrac.PreparationFamily(None), (STEP,), 100, 1),
                     "a preparation family holds 4 states, not None", id="simulation-no-states"),
        pytest.param("delta_pair", (seqrac.PreparationFamily(None),),
                     "a preparation family holds 4 states, not None", id="delta-pair-no-states"),
    ])
    def test_malformed_value_is_a_domain_error(self, name, args, message):
        call = seqrac
        for part in name.split("."):
            call = getattr(call, part)
        with pytest.raises(seqrac.DomainError) as info:
            call(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("s, message", [("0.5", "bad scalar '0.5'"), (None, "bad scalar None")],
                             ids=["numeric-text", "none"])
    def test_malformed_scalar_is_a_domain_error(self, s, message):
        # s * op ran float(s): text that float() parses was accepted, None a bare TypeError
        with pytest.raises(seqrac.DomainError) as info:
            s * seqrac.HermitianOp(0.5, (0.1, 0.0, 0.0))
        assert str(info.value) == message
