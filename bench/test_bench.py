"""Tests of the benchmark itself: op lists, output checks and the tracer.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import seqrac  # noqa: E402
from seqrac import cli, smallangle  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import Outcome, check  # noqa: E402
from workloads import WORKLOADS, Op, generate  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_op_list_is_a_pure_function_of_workload_and_seed(workload):
    ops = generate(workload, 3)
    assert ops == generate(workload, 3)
    other = generate(workload, 4)
    assert ops != other
    assert len(ops) == len(other) == WORKLOADS[workload].ops
    assert Counter(op.kind for op in ops) == Counter(op.kind for op in other)


def test_scalar_mix_shares():
    kinds = Counter(op.kind for op in generate("scalar_mix", 0))
    n = WORKLOADS["scalar_mix"].ops
    assert kinds["sequence"] == 0.70 * n
    assert kinds["thresholds"] == kinds["region"] == 0.10 * n
    assert kinds["verify"] == 0.05 * n
    assert sum(v for k, v in kinds.items() if k.startswith("malformed")) == 0.05 * n


def test_per_op_median_takes_the_middle_pass_and_flags_differing_outcomes():
    from run import per_op_median

    passes = [
        [(5, None, 10), (7, "x", 0), (1, None, 3)],
        [(9, None, 10), (6, "x", 0), (2, "y", 3)],
        [(4, None, 10), (8, "x", 0), (3, None, 3)],
    ]
    assert per_op_median(passes) == [
        (5, None, 10), (7, "x", 0), (2, "outcome_differs_between_passes", 3),
    ]
    assert per_op_median(passes[:1]) == passes[0]


def run_cli(argv, out):
    return Outcome(cli.main([*argv, "--out", str(out)]), None, "", "", None, out)


def test_sequence_check(tmp_path):
    lams = [0.3, 0.7, 0.9]
    op = Op("sequence", None, None, {"lambdas": lams})
    res = run_cli(["sequence", "--omega", "0.4", "--r", "0.8",
                   "--lambdas", ",".join(map(str, lams))], tmp_path)
    assert check(op, res) is None
    path = tmp_path / "sequence.csv"
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[6] = repr(float(row[6]) + 1e-9)
    path.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n")
    assert check(op, res) == "sequence_success"


def test_schedule_check(tmp_path):
    op = Op("schedule", ("schedule",), None, {"n": 3, "r": 0.9, "epsilon": 1e-4})
    res = run_cli(["schedule", "--n", "3", "--r", "0.9", "--epsilon", "1e-4"], tmp_path)
    assert check(op, res) is None
    path = tmp_path / "schedule.json"
    data = json.loads(path.read_text())
    path.write_text(json.dumps({**data, "omega_dec": "1.5"}))
    assert check(op, res) == "omega_dec_infeasible_2x_dps"
    path.write_text(json.dumps({**data, "feasible": False}))
    assert check(op, res) == "schedule_infeasible"


def test_simulate_check(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("omega = 0.5\nr = 0.9\nlambdas = 0.4,0.8\nshots = 5000\nseed = 3\n")
    op = Op("simulate", ("simulate",), None, {"n": 2, "shots": 5000})
    res = run_cli(["simulate", "--config", str(config)], tmp_path)
    assert check(op, res) is None
    path = tmp_path / "simulate.json"
    data = json.loads(path.read_text())
    rec = data["receivers"][1]
    rec["empirical_success"] = rec["analytic_success"] + 6 * rec["standard_error"]
    path.write_text(json.dumps(data))
    assert check(op, res) == "mc_outside_5se"


def test_poly_check(capsys, tmp_path):
    op = Op("poly", ("poly",), None, {"k": 5})
    assert cli.main(["poly", "--k", "5"]) == 0
    text = capsys.readouterr().out
    assert check(op, Outcome(0, None, text, "", None, tmp_path)) is None
    bad = text.replace("(714)*x^2", "(715)*x^2", 1)
    assert bad != text
    assert check(op, Outcome(0, None, bad, "", None, tmp_path)) == "poly_mismatch"


def test_estimate_check(tmp_path):
    params = {"k": 6, "r": 0.8, "epsilon": 1e-3}
    op = Op("estimate", None, None, params)
    value = smallangle.omega_estimate(6, 0.8, 1e-3)

    def outcome(v):
        return Outcome(None, None, "", "", v, tmp_path)

    assert check(op, outcome(value)) is None
    assert check(op, outcome(value * (1 + 1e-6))) == "estimate_mismatch"
    assert check(op, outcome(0.0)) == "estimate_not_normal"
    assert check(op, outcome(1e-310)) == "estimate_not_normal"


def test_verify_and_malformed_checks(tmp_path):
    verify = Op("verify", ("verify",))
    assert check(verify, Outcome(0, None, "PASS  a\nPASS  b\n", "", None, tmp_path)) is None
    assert check(verify, Outcome(0, None, "PASS  a\nFAIL  b\n", "", None, tmp_path)) == "verify_fail_line"
    bad = Op("malformed_poly_k", ("poly", "--k", "25"))
    assert check(bad, Outcome(64, None, "", "", None, tmp_path)) is None
    assert check(bad, Outcome(None, "ValueError", "", "", None, tmp_path)) == "exception:ValueError"
    assert check(bad, Outcome(0, None, "", "", None, tmp_path)) == "exit:0"


def test_known_defects_name_real_op_kinds():
    kinds = {op.kind for w in WORKLOADS for op in generate(w, 0)}
    assert {kind for kind, _ in checks.KNOWN_DEFECTS} <= kinds


def _snapshot():
    owners = [seqrac, *(getattr(seqrac, m) for m in tracing.LAYERS)]
    owners += [smallangle.RationalPolynomial, seqrac.bloch.DensityOp]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_leaves_seqrac_unchanged(tmp_path):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert seqrac.cli.find_omega is not before[(id(seqrac.cli), "find_omega")]
        tracer.recording = True
        tracer.op_id = 0
        cli.main(["sequence", "--omega", "0.4", "--lambdas", "0.3,0.7", "--out", str(tmp_path)])
        tracer.recording = False
    finally:
        assert tracer.remove() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "cli.main" and tracer.parent[0] == -1
    assert all(tracer.op[i] == 0 for i in range(len(names)))
    m = tracing.layer_metrics(tracer, 1, tracer.end[0] - tracer.start[0])
    assert m["cli.calls_per_op"] == 1
    assert m["bloch.states_built_per_op"] > 0
    assert m["montecarlo.calls_per_op"] == 0 and m["montecarlo.run_ms"] == 0
    assert sum(m[f"{layer}.self_share"] for layer in tracing.LAYERS) == pytest.approx(1.0)
