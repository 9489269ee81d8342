"""Fixed-work benchmark of seqrac: one seeded op list per run.

Usage, from the repository root:

    python3 bench/run.py --workload schedule_auto --seed 1 --seconds 15 --trace 0

Every run of a workload executes the op list that ``workloads.generate``
derives from ``(workload, seed)`` alone, in a closed loop with one client in
this process.  Each op goes through a public entry point, ``seqrac.cli.main``
in-process or ``seqrac.smallangle.omega_estimate``, and is timed alone; its
output is checked afterwards, outside the timed interval, and garbage is
collected between ops.  With ``--trace 0`` the op list runs in the workload's
number of timed passes, each op's latency is the median of its passes, and
the last line of stdout reports the end-to-end metrics; with ``--trace 1`` the
op list runs once untraced and once traced, followed by controlled Monte
Carlo probes, and the last line reports the per-layer metrics.  The line
before it records the machine and the run.

``--seconds`` is recorded only: op counts and passes are fixed per workload
and sized for 15-30 s of timed work on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads
from workloads import CONFIG, OUT, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
PROBE_REPEATS = 3
REFERENCE_EVERY_S = 0.5

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import seqrac.cli
import workloads
workloads.generate(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def setup_sample(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import ``seqrac.cli`` and
    generate the op list."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def machine_info() -> dict:
    import mpmath
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def reference_loop_ms() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the host runs
    this process at the moment, recorded with the run to explain noise."""
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    return (perf_counter() - t0) * 1e3


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Runner:
    """Executes ops in a scratch directory inside the checkout."""

    def __init__(self, work: Path):
        import checks
        from seqrac import cli, smallangle

        self.checks, self.cli, self.smallangle = checks, cli, smallangle
        # Each poly_exact op starts cold, as a new process would.
        self.cold = getattr(smallangle.small_angle_poly, "cache_clear", None)
        self.out = work / "out"
        self.config = work / "sim.cfg"
        self.out.mkdir(parents=True)

    def run(self, op, tracer=None) -> tuple[int, str | None, int]:
        """(latency ns, failure reason or None, bytes written) of one op."""
        if op.config is not None:
            self.config.write_text(op.config)
        if op.kind in ("poly", "estimate") and self.cold is not None:
            self.cold()
        argv = None
        if op.argv is not None:
            subst = {OUT: str(self.out), CONFIG: str(self.config)}
            argv = [subst.get(a, a) for a in op.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        rc = exc = value = None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if tracer is not None:
                tracer.recording = True
            t0 = perf_counter_ns()
            try:
                if argv is None:
                    p = op.params
                    value = self.smallangle.omega_estimate(p["k"], p["r"], p["epsilon"])
                else:
                    rc = self.cli.main(argv)
            except Exception as e:  # an escaped exception fails the op, not the run
                exc = type(e).__name__
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.recording = False
        outcome = self.checks.Outcome(rc, exc, stdout.getvalue(), stderr.getvalue(), value, self.out)
        reason = self.checks.check(op, outcome)
        # Manifests are left out: their timestamp has no fixed length.
        written = len(outcome.stdout.encode())
        for f in self.out.iterdir():
            if not f.name.endswith("_manifest.json"):
                written += f.stat().st_size
            f.unlink()
        gc.collect()
        return t1 - t0, reason, written

    def run_pass(self, ops, tracer=None, between=None) -> list[tuple[int, str | None, int]]:
        """Run every op in order; ``between(i)``, if given, runs before op
        ``i``, outside the timed interval."""
        results = []
        for i, op in enumerate(ops):
            if between is not None:
                between(i)
            if tracer is not None:
                tracer.op_id = i
            results.append(self.run(op, tracer))
        return results


def per_op_median(passes: list[list[tuple[int, str | None, int]]]) -> list[tuple[int, str | None, int]]:
    """Per op, the median latency over all passes.

    The checks are deterministic, so an op whose outcome differs between
    passes gets a reason outside the known-defect ledger.
    """
    results = []
    for runs in zip(*passes):
        reasons = {reason for _, reason, _ in runs}
        reason = runs[0][1] if len(reasons) == 1 else "outcome_differs_between_passes"
        results.append((statistics.median(lat for lat, _, _ in runs), reason, runs[0][2]))
    return results


def goodput(results) -> float:
    passed = sum(1 for _, reason, _ in results if reason is None)
    return passed / (sum(lat for lat, _, _ in results) * 1e-9)


def end_to_end(results, workload: str, setup_s: float) -> dict[str, float]:
    passed = sorted(lat * 1e-6 for lat, reason, _ in results if reason is None)
    return {
        "goodput_ops_s": goodput(results),
        "op_p50_ms": statistics.median(passed),
        "op_tail_ms": percentile(passed, WORKLOADS[workload].tail_percentile),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": len(passed) / len(results),
    }


def montecarlo_probe(work: Path) -> tuple[dict[str, float], bool]:
    """Controlled Monte Carlo measurements on one fixed config, untraced.

    Also checks that ``simulate.json`` is byte-identical at 1 and 2 threads.
    """
    import numpy as np
    from seqrac import cli, montecarlo
    from seqrac.bloch import SharpObservable
    from seqrac.channel import SequentialChannelStep
    from seqrac.rac import square_preparations

    lams, omega, r, seed = (0.2, 0.4, 0.6, 0.9), 0.7, 0.9, 20260824
    shard = montecarlo.SHARD_SIZE
    shots = 4 * shard
    b1 = SharpObservable.from_axis((1.0, 0.0, 0.0))
    b2 = SharpObservable.from_axis((0.0, 0.0, 1.0))
    config = montecarlo.SimulationConfig(
        square_preparations(omega, r),
        tuple(SequentialChannelStep(b1, b2, lam) for lam in lams),
        shots,
        seed,
    )

    def timed(fn) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def draw():
        for idx in range(shots // shard):
            key = np.array([seed, idx], dtype=np.uint64)
            np.random.Generator(np.random.Philox(key=key)).random((shard, 1 + 2 * len(lams)))

    t1 = timed(lambda: montecarlo.run(config, threads=1))
    t2 = timed(lambda: montecarlo.run(config, threads=2))
    t_rng = timed(draw)

    cfg = work / "probe.cfg"
    cfg.write_text(
        f"omega = {omega}\nr = {r}\nlambdas = {','.join(map(str, lams))}\n"
        f"shots = {shots}\nseed = {seed}\n"
    )
    outputs = []
    for threads in (1, 2):
        out = work / f"probe{threads}"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(["simulate", "--config", str(cfg), "--threads", str(threads), "--out", str(out)])
        outputs.append((out / "simulate.json").read_bytes())
    metrics = {
        "montecarlo.ns_per_receiver_shot_1t": t1 * 1e9 / (shots * len(lams)),
        "montecarlo.rng_share_1t": t_rng / t1,
        "montecarlo.speedup_2t": t1 / t2,
    }
    return metrics, outputs[0] == outputs[1]


def bench(args, work: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result, run record)."""
    ops = workloads.generate(args.workload, args.seed)
    runner = Runner(work)
    seen = set()
    for op in ops:  # one untimed op of each class
        if op.kind not in seen:
            seen.add(op.kind)
            runner.run(op)
    gc.collect()
    gc.freeze()

    # The host runs this process up to about 1.7x slower in stretches of a
    # few seconds.  Each op runs once per pass, the passes one after the
    # other, and its latency is the median of its runs, so that every op is
    # measured over the whole run rather than one moment of it.
    passes = 1 if args.trace else WORKLOADS[args.workload].passes
    # Set-up samples and reference-loop samples are spread over the timed
    # passes, so that each reflects the whole run rather than its first
    # seconds.
    total = passes * len(ops)
    setup_at = {total * k // SETUP_RUNS for k in range(SETUP_RUNS)} if not args.trace else set()
    setup_times: list[float] = []
    reference: list[float] = []
    last_reference = float("-inf")

    def between(i: int) -> None:
        nonlocal last_reference
        if i in setup_at:
            setup_times.append(setup_sample(args.workload, args.seed))
        if perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append(reference_loop_ms())
            last_reference = perf_counter()

    ticks0 = cpu_ticks()
    runs = [
        runner.run_pass(ops, between=lambda i, base=p * len(ops): between(base + i))
        for p in range(passes)
    ]
    ticks1 = cpu_ticks()
    results = per_op_median(runs)

    reasons = [reason for _, reason, _ in results]
    failures: dict[str, int] = {}
    for op, reason in zip(ops, reasons):
        if reason is not None:
            key = f"{op.kind}:{reason}"
            failures[key] = failures.get(key, 0) + 1
    correct = all(
        reason is None or (op.kind, reason) in runner.checks.KNOWN_DEFECTS for op, reason in zip(ops, reasons)
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds_requested": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "passes": passes,
        "tail_percentile": WORKLOADS[args.workload].tail_percentile,
        "timed_s": sum(lat for run in runs for lat, _, _ in run) * 1e-9,
        "failures": failures,
        "machine": machine_info(),
        "reference_loop_ms": {
            "min": min(reference),
            "median": statistics.median(reference),
            "max": max(reference),
        },
    }
    if ticks0 and ticks1:
        record["steal_ticks"] = ticks1[0] - ticks0[0]
        record["steal_share"] = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])

    if not args.trace:
        metrics = end_to_end(results, args.workload, statistics.median(setup_times))
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(ops, tracer)
        finally:
            not_restored = tracer.remove()
        metrics = layer_metrics(tracer, len(ops), sum(lat for lat, _, _ in traced))
        metrics["cli.bytes_written_per_op"] = sum(w for _, _, w in traced) / len(ops)
        metrics["trace.overhead_ratio"] = goodput(traced) / goodput(results)
        probe, identical = montecarlo_probe(work)
        metrics.update(probe)
        record["not_restored"] = not_restored
        record["threads_identical"] = identical
        correct = (
            correct and not not_restored and identical
            and [reason for _, reason, _ in traced] == reasons
        )
    result = {
        "correct": correct,
        "attempted": total,
        "failed": sum(1 for run in runs for _, reason, _ in run if reason is not None),
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqrac" / "__init__.py").is_file():
        print(f"error: seqrac sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seqrac

    if Path(seqrac.__file__).resolve().parent != SRC / "seqrac":
        print(f"error: imported seqrac from {seqrac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_run" / str(os.getpid())
    try:
        result, record = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    units = declared_units(args.trace)
    if set(units) != set(result["metrics"]):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result['metrics']))}",
              file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this mode, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
